"""Reference rank and determinant by Gaussian elimination over Fraction,
and rank over F_p by a sparse echelon mod p.

Independent of abelsym.exactla, whose one elimination engine serves both
rank and Smith form, so the tests compare that engine against this.
"""

from collections import Counter
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


def reference_rank_mod_p(rows, p):
    """Rank over F_p of the given rows (lists or {col: int} dicts), by a
    sparse echelon: each row is reduced on its leading column until that
    column has no pivot yet, or the row is zero.  Columns are ordered by
    their entry count, fewest first, which keeps the fill low."""
    rows = [[(c, v % p) for c, v in
             (enumerate(row) if isinstance(row, list) else row.items())
             if v % p] for row in rows]
    count = Counter(c for row in rows for c, _ in row)
    rank = {c: k for k, c in enumerate(sorted(count, key=count.get))}
    pivots = {}     # leading column -> pivot row mod p, 1 there
    for row in rows:
        row = {rank[c]: v for c, v in row}
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                inv = pow(row[c], -1, p)
                pivots[c] = {k: v * inv % p for k, v in row.items()}
                break
            f = row[c]
            for k, v in prow.items():
                val = (row.get(k, 0) - f * v) % p
                if val:
                    row[k] = val
                else:
                    row.pop(k, None)
    return len(pivots)
