"""Reference rank and determinant by Gaussian elimination over Fraction.

Independent of abelsym.exactla, whose one elimination engine serves both
rank and Smith form, so the tests compare that engine against this.
"""

from fractions import Fraction


def _echelon(rows):
    """Row echelon form over Q of a list of {col: int} or list rows, as
    (rank, product of pivots with the sign of the row swaps)."""
    rows = [dict(enumerate(r)) if isinstance(r, list) else dict(r)
            for r in rows]
    dense = [{c: Fraction(v) for c, v in r.items() if v} for r in rows]
    rank = 0
    det = Fraction(1)
    cols = sorted({c for r in dense for c in r})
    for c in cols:
        pivot = next((i for i in range(rank, len(dense)) if dense[i].get(c)),
                     None)
        if pivot is None:
            continue
        if pivot != rank:
            dense[rank], dense[pivot] = dense[pivot], dense[rank]
            det = -det
        prow = dense[rank]
        det *= prow[c]
        for i in range(rank + 1, len(dense)):
            f = dense[i].get(c)
            if f:
                f /= prow[c]
                for k, v in prow.items():
                    val = dense[i].get(k, 0) - f * v
                    if val:
                        dense[i][k] = val
                    else:
                        dense[i].pop(k, None)
        rank += 1
    return rank, det


def reference_rank(rows):
    """Rank over Q of the given rows."""
    return _echelon(rows)[0]


def reference_det(rows):
    """Determinant of a square matrix given as a list of lists."""
    rank, det = _echelon(rows)
    return det if rank == len(rows) else Fraction(0)
