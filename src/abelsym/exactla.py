"""Exact linear algebra over Z for sparse integer relation matrices.

Rank over Q, Smith normal form, and row-span membership, all from one
elimination engine.  Matrices are stored row-wise as dicts {column: value}
with Python-int entries, so nothing ever overflows.  The engine eliminates
unit pivots (+-1 entries); each is a Smith divisor.  Each step pivots on a
column of least live row count, kept in a list of buckets by count, and
there on the shortest row with a unit entry, the one that entered the
column first on a tie.  When none is left it peels the content: the rows
are divided by the gcd g of their entries, every later divisor is scaled
by g, and unit pivots resume.  A residue of content 1 with no unit entry,
which the relation matrices here rarely leave, gets gcd row and column
steps on its least entries until one is a unit.  Two-term rows get no
path of their own: `dimension` and `manin_space` fold theirs into the
columns before elimination, as modular-symbols codes do.  A factorization
for span membership is its normal-form table (`_normal_form_table` gives
the proof): each pivot column written in terms of the non-pivot ones, as
modular-symbols codes write every generator in terms of the free ones,
so a query lies in the span iff its image under the table vanishes.  Each
checker looks a distinct query up only once: a row equal up to sign to an
earlier one, once cleared of denominators, gets the earlier verdict.  A
matrix may carry a column involution sigma that keeps its row span
(`build_relations` gives its systems the global sign flip); a checker
then answers sigma-invariant queries, such as the delta probes, in the
sigma-invariant half, a factorization of one row of each sigma-pair
folded onto the sigma-orbits and about half the size, as modular-symbols
codes work in one eigenspace of the star involution and impose each
relation once per orbit.  Each table is built on first need.  Column
indices must be integers, kept as ints.

The engine eliminates in place: it owns the rows it is handed and leaves
them changed.  `smith_normal_form`, `rank_over_Q` and `SpanChecker` copy a
caller's rows once, so a caller's matrix is never changed; the library's
own single-use matrices go to `_smith_form` and `_nonzero_divisors`
uncopied.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import index

# Resource guards.  Callers may override per invocation.
DEFAULT_SNF_BOUND = 5000


class BoundExceeded(RuntimeError):
    """Raised when a configured resource bound would be exceeded."""


class ConsistencyError(AssertionError):
    """An internal cross-check failed.  Raised explicitly, so that, unlike
    an assert statement, python -O keeps the check."""


def require(ok, message, *args):
    """Raise ConsistencyError(message % args) unless ok."""
    if not ok:
        raise ConsistencyError(message % args)


def sparse_add(row, terms):
    """Add (key, value) terms into the sparse dict `row`, in place, deleting
    entries that reach zero; returns row."""
    for k, v in terms:
        cur = row.get(k)
        if cur is None:
            if v:
                row[k] = v
        else:
            cur += v
            if cur:
                row[k] = cur
            else:
                del row[k]
    return row


def row_signature(row):
    """A nonzero row's entries sorted by column and signed so the first is
    positive: rows share it iff they are equal up to sign."""
    sig = tuple(sorted(row.items()))
    if sig[0][1] < 0:
        sig = tuple((c, -v) for c, v in sig)
    return sig


class SparseIntMatrix:
    """Sparse integer matrix; one {col: value} dict per row, zeros dropped.

    Treated as immutable after construction: the public elimination
    routines copy its rows before they touch them.  `SpanChecker` answers
    membership from its normal-form table (see `_normal_form_table`).
    `_sigma` is an optional column involution for the checker's
    sigma-invariant half: None or a list (column -> column).  sigma
    maps each row to +- a row; keeping the rows whose first column c has
    sigma(c) >= c keeps one of each pair, which only `build_relations`
    promises, so only it sets one, with the rows; every other constructor
    leaves it None.
    """

    __slots__ = ("nrows", "ncols", "rows", "_sigma")

    def __init__(self, nrows, ncols, rows):
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        rows = list(rows)
        if len(rows) != nrows:
            raise ValueError("expected %d rows, got %d" % (nrows, len(rows)))
        clean = []
        for row in rows:
            d = {}
            for c, v in row.items():
                try:
                    i = index(c)
                except TypeError:
                    raise ValueError("column index %r is not an integer"
                                     % (c,)) from None
                if not 0 <= i < ncols:
                    raise ValueError("column index %r out of range" % (c,))
                if getattr(v, "denominator", None) != 1:
                    raise ValueError("matrix entry %r is not integral" % (v,))
                if v:
                    d[i] = int(v)
            clean.append(d)
        self.nrows = nrows
        self.ncols = ncols
        self.rows = clean
        self._sigma = None

    @classmethod
    def trusted(cls, ncols, rows):
        """Wrap rows that are already clean (nonzero int values at columns
        in range) without copying or checking them."""
        mat = cls.__new__(cls)
        mat.nrows = len(rows)
        mat.ncols = ncols
        mat.rows = rows
        mat._sigma = None
        return mat

    def nnz(self):
        return sum(len(r) for r in self.rows)

    def with_rows(self, extra):
        """New matrix with extra rows appended."""
        extra = list(extra)
        return SparseIntMatrix(self.nrows + len(extra), self.ncols,
                               self.rows + extra)

    def __repr__(self):
        return "SparseIntMatrix(%dx%d, nnz=%d)" % (
            self.nrows, self.ncols, self.nnz())


class DeferredRows(SparseIntMatrix):
    """A trusted matrix whose rows come from `build()` on first read.

    The shape is known up front; the build runs once, when `rows` is first
    read, and must give exactly `nrows` clean rows (checked).  Later reads
    hit the base class's slot directly.
    """

    __slots__ = ("_build",)

    def __init__(self, nrows, ncols, build):
        self.nrows = nrows
        self.ncols = ncols
        self._build = build
        self._sigma = None

    def __getattr__(self, name):     # called only for unset attributes
        if name != "rows":
            raise AttributeError(name)
        rows = self._build()
        require(len(rows) == self.nrows, "deferred build gave %d rows, "
                "expected %d", len(rows), self.nrows)
        self.rows, self._build = rows, None
        return rows


class SnfResult:
    """Diagonal of a Smith normal form: divisor chain and rank."""

    __slots__ = ("divisors", "rank")

    def __init__(self, divisors, rank):
        self.divisors = tuple(divisors)
        self.rank = rank

    @property
    def torsion(self):
        """Divisors contributing torsion (neither 0 nor 1)."""
        return tuple(d for d in self.divisors if d not in (0, 1))

    def __repr__(self):
        return "SnfResult(divisors=%r, rank=%d)" % (self.divisors, self.rank)


def _unit_eliminate(rows, ncols, pivots=None):
    """Unit-pivot elimination with content peeling.

    Passes pivot on +-1 entries: each step takes a column of least live
    row count from buckets, a list indexed by count, and there the shortest
    row with a +-1 entry, the first to enter the column on a tie.  A pivot
    clears its column from every other row by row operations; the column
    operations that clear the rest of the pivot row touch no other row, so
    the row is simply retired, contributing one divisor.  Only the pivot
    row's columns change: each goes back into the bucket of its new count,
    an O(1) append, and an entry whose count is stale or whose column has
    no unit entry is skipped when it comes up.  On these relation matrices
    that makes no more fill than a Markowitz order, with no heap to keep.
    `rows` is a list by row id, None once retired, and each of the `ncols`
    columns keeps its live rows as dict keys in the order they entered it,
    fill last; each pass buckets the columns in order of first appearance,
    so the pivots follow the rows' order alone.  A dict of int keys also
    stays out of the cyclic collector, where a set would not.
    When given, `pivots` receives each retired (column, row) in pivot order,
    the pivot entry last in the row.  Once no unit entry is left, the live
    rows are divided by the gcd g of their entries and the next pass
    re-buckets the columns still live at a scale g times larger, since
    SNF(gA) = g SNF(A).  The elimination runs in place: it owns the list
    and its row dicts, which it changes and leaves changed, so a caller
    copies what it keeps.

    Returns (divisors, scale, residue): one divisor per pivot, the final
    scale, and the live rows, which have content 1 and no unit entry.
    """
    live = 0
    cols = [None] * ncols   # column -> {live row id: None}, in entry order
    order = []              # the columns in order of first appearance
    for i, row in enumerate(rows):
        if not row:
            continue
        live += 1
        for c in row:
            s = cols[c]
            if s is None:
                cols[c] = {i: None}
                order.append(c)
            else:
                s[i] = None
    divisors = []
    scale = 1
    while True:
        buckets = [[] for _ in range(live + 1)]  # count -> columns
        for c in order:
            buckets[len(cols[c])].append(c)
        low = 1
        while low <= live:
            bucket = buckets[low]
            if not bucket:
                low += 1
                continue
            pc = bucket.pop()
            s = cols[pc]
            if len(s) != low:
                continue
            pi = None
            for j in s:     # the shortest row with a unit entry at pc
                if rows[j][pc] in (1, -1) and (pi is None or
                                               len(rows[j]) < len(rows[pi])):
                    pi = j
            if pi is None:
                continue
            row = rows[pi]
            rows[pi] = None
            live -= 1
            pv = row.pop(pc)    # the rest of the row; put back for `pivots`
            del s[pi]
            for j in s:
                other = rows[j]
                f = other.pop(pc) * pv  # pv is its own inverse
                for c, v in row.items():
                    cur = other.get(c)
                    if cur is None:
                        other[c] = -f * v
                        cols[c][j] = None
                    else:
                        cur -= f * v
                        if cur:
                            other[c] = cur
                        else:
                            del other[c]
                            del cols[c][j]
                if not other:
                    rows[j] = None
                    live -= 1
            s.clear()
            for c in row:
                s = cols[c]
                del s[pi]
                if s:
                    k = len(s)
                    buckets[k].append(c)
                    if k < low:
                        low = k
            divisors.append(scale)
            if pivots is not None:
                row[pc] = pv
                pivots.append((pc, row))
        g = 0
        for row in filter(None, rows):
            g = gcd(g, *row.values())
            if g == 1:
                break
        if g <= 1:
            break
        scale *= g
        for row in filter(None, rows):
            for c in row:
                row[c] //= g
        order = [c for c in order if cols[c]]   # a peel revives no column
    return divisors, scale, list(filter(None, rows))


def _make_unit(rows):
    """Unimodular row and column operations, in place, on a residue of
    content 1 with no unit entry, until some entry is +-1.

    Each round pivots on an entry of least magnitude and reduces its column,
    then its row, by it, leaving remainders smaller than the pivot.  If none
    is left, the pivot divides its row and column but, the content being 1,
    not every other entry: an offending row is added to the pivot row and
    the row reduced again, which leaves one.  So the least magnitude drops
    every round.
    """
    while True:
        size, i, pc = min((abs(v), i, c) for i, row in enumerate(rows)
                          for c, v in row.items())
        if size == 1:
            return
        prow = rows[i]
        piv = prow[pc]
        while True:
            for row in rows:
                if row is not prow and pc in row:
                    f = row[pc] // piv
                    sparse_add(row, ((c, -f * v) for c, v in prow.items()))
            for c in [c for c in prow if c != pc]:
                q = prow[c] // piv          # column c -= q * column pc
                for row in rows:
                    if pc in row:
                        sparse_add(row, ((c, -q * row[pc]),))
            if len(prow) > 1 or any(pc in row for row in rows
                                    if row is not prow):
                break
            sparse_add(prow, next(row for row in rows if any(
                v % piv for v in row.values())).items())


def _nonzero_divisors(rows, ncols):
    """Nonzero Smith divisors, in chain order, of the matrix with these
    rows, which it eliminates in place."""
    divisors, scale, residue = _unit_eliminate(rows, ncols)
    while residue:
        _make_unit(residue)
        more, peel, residue = _unit_eliminate(residue, ncols)
        divisors.extend(scale * d for d in more)
        scale *= peel
    return divisors


def _copy_rows(matrix):
    return [dict(row) for row in matrix.rows]


def rank_over_Q(matrix):
    """Rank of the matrix over the rationals: its count of nonzero Smith
    divisors, exact and with no size bound.  The matrix is not changed."""
    return len(_nonzero_divisors(_copy_rows(matrix), matrix.ncols))


def _normal_form_table(rows, ncols):
    """The factorization of the matrix with these rows, which it eliminates
    in place, as its normal-form table {pivot col: NF(col) as {col: value}}:
    each pivot column written in terms of the non-pivot ones.

    The pivot rows are the engine's unit pivot rows, then a fraction-free
    echelon of its residue.  A unit pivot clears its column from every live
    row, and fill only comes from pivot rows, which were live rows then;
    so the residue is zero at every unit pivot column.  Each residue row is
    reduced against the residue pivots alone, in pivot order, fraction-free
    (scaled by the pivot entry, then divided by its gcd), and if nonzero
    pivots at an entry of least magnitude.  So each pivot row is zero at
    the pivot columns of the rows before it.  One reverse pass gives, for
    each pivot column c with pivot row r and pivot entry p,

        NF(c) = -(1/p) sum over c' != c of r[c'] NF(c'),

    where NF(c') = e_c' at a non-pivot column c'; every NF(c') the pass
    needs is already built, and each NF(c) lies on the non-pivot columns.
    And e_c - NF(c) = r/p - sum over c' != c of (r[c']/p) (e_c' - NF(c'))
    lies in the span, by induction down the pivots.  The span meets the
    non-pivot coordinates only in 0: a nonzero combination of pivot rows is
    nonzero at the pivot column of its first row.  So a row q lies in the
    span iff sum_c q[c] NF(c) = 0 (`_table_contains`), and the table has
    as many entries as the rank.  The entries are ints under unit pivots;
    only a residue pivot brings in Fractions.
    """
    pivots = []             # (pivot col, row), in pivot order
    _, _, residue = _unit_eliminate(rows, ncols, pivots)
    echelon = []
    for row in residue:
        for pc, prow in echelon:
            f = row.get(pc)
            if f:
                pv = prow[pc]
                for c in row:
                    row[c] *= pv
                sparse_add(row, ((c, -f * v) for c, v in prow.items()))
                if row:
                    g = gcd(*row.values())
                    for c in row:
                        row[c] //= g
        if row:
            echelon.append((min(row, key=lambda c: (abs(row[c]), c)), row))
    nf = {}
    for pc, prow in reversed(pivots + echelon):
        pv = prow[pc]
        unit = pv in (1, -1)
        out = {}
        for c, v in prow.items():
            if c == pc:
                continue
            f = -pv * v if unit else Fraction(-v, pv)
            img = nf.get(c)
            if img is None:         # a non-pivot column: NF = e_c
                cur = out.get(c, 0) + f
                if cur:
                    out[c] = cur
                else:
                    del out[c]
                continue
            for k, w in img.items():
                cur = out.get(k, 0) + f * w
                if cur:
                    out[k] = cur
                else:
                    del out[k]
        nf[pc] = out
    return nf


def _table_contains(nf, row):
    """Whether the row lies in the span of the factorization with table
    `nf`: whether sum_c row[c] NF(c) vanishes.  The row is not changed."""
    out = {}
    for c, v in row.items():
        img = nf.get(c)
        if img is None:
            out[c] = out.get(c, 0) + v
        else:
            for k, w in img.items():
                out[k] = out.get(k, 0) + v * w
    return not any(out.values())


class SpanChecker:
    """Repeated row-span membership queries (over Q) against one matrix.

    A factorization is the matrix's normal-form table (see
    `_normal_form_table`, which proves it exact over Q): each pivot column
    c written as NF(c) in terms of the non-pivot columns, so q lies in the
    span iff sum_c q[c] NF(c) = 0.  Rows equal up to sign lie in the span
    together, so each checker keeps its verdicts under the `row_signature`
    of the query cleared of denominators and reads the table once per
    distinct query.

    A matrix with a column involution sigma (see SparseIntMatrix) has two
    factorizations, each built on first need.  While the full one does not
    exist, a query q with sigma q = q that misses the memo is folded onto
    the sigma-orbits, Fq summing q over each orbit, and looked up in the
    table of the factorization of the folded rows, each row summed per
    orbit and zero rows dropped.  Only one row r of each sigma-pair is
    folded, as F(sigma r) = F r; the matrix's contract says which.  That is
    exact over Q: sigma keeps span R, so span R = P+ span R + P- span R
    with P+- = (1 +- sigma) / 2, and q = P+ q.  If Fq = F r with r in span
    R, then F P+ r = F r = Fq, and F is injective on sigma-invariant
    vectors, so q = P+ r lies in span R; and F span R is spanned by the
    folds of the kept rows, as each dropped row's fold is its partner's up
    to sign.  Any other query, `rank`, and every miss once the full
    factorization exists use the full one.
    """

    def __init__(self, matrix):
        self.matrix = matrix
        self._verdicts = {}     # row_signature of a query -> membership
        self._full = None       # the matrix's table, on first need
        self._half = None       # the sigma-folded matrix's, on first need

    def _full_table(self):
        if self._full is None:
            self._full = _normal_form_table(_copy_rows(self.matrix),
                                            self.matrix.ncols)
        return self._full

    @property
    def rank(self):
        """Rank over Q of the matrix: the number of full pivot columns."""
        return len(self._full_table())

    def _fold(self, row):
        """F row, the row summed over each sigma-orbit at the orbit's least
        column, when sigma row = row and the full factorization does not
        exist yet; else None."""
        if self._full is not None:
            return None
        sigma = self.matrix._sigma
        if sigma is None:
            return None
        out = {}
        for c, v in row.items():
            s = sigma[c]
            if s == c:
                out[c] = v
            elif row.get(s) != v:
                return None
            elif c < s:
                out[c] = 2 * v
        return out

    def _half_table(self):
        """The table of the matrix's rows folded by F, one row of
        each sigma-pair: the rows whose first column c has sigma(c) >= c.
        A fold that repeats another (both sign rows of a pair can be kept)
        is cleared to an empty row by the elimination."""
        if self._half is None:
            matrix = self.matrix
            sigma = matrix._sigma
            n = matrix.ncols
            require(len(sigma) == n and all(0 <= s < n and sigma[s] == c
                                            for c, s in enumerate(sigma)),
                    "the column map of %r is not an involution", matrix)
            rows = []
            for row in matrix.rows:
                c = next(iter(row))
                if sigma[c] < c:
                    continue    # its sigma-partner is folded instead
                out = {}
                for c, v in row.items():
                    s = sigma[c]
                    if s < c:
                        c = s
                    cur = out.get(c)
                    if cur is None:
                        out[c] = v
                    elif cur + v:
                        out[c] = cur + v
                    else:
                        del out[c]
                if out:
                    rows.append(out)
            self._half = _normal_form_table(rows, n)
        return self._half

    def contains(self, row):
        """Whether the row, a dict or full vector of int or Fraction
        entries, lies in the span over Q; the row itself is not changed."""
        ncols = self.matrix.ncols
        if not isinstance(row, dict):   # a full-length vector
            row = list(row)
            if len(row) != ncols:
                raise ValueError("vector length %d does not match %d columns"
                                 % (len(row), ncols))
            row = dict(enumerate(row))
        row = _integerize(row, ncols)
        if not row:
            return True
        sig = row_signature(row)
        verdict = self._verdicts.get(sig)
        if verdict is None:
            folded = self._fold(row)
            verdict = self._verdicts[sig] = (
                _table_contains(self._full_table(), row) if folded is None
                else _table_contains(self._half_table(), folded))
        return verdict


def _integerize(row, ncols):
    """A new {col: int} row, the {col: int|Fraction} row times the lcm of
    its denominators, zeros dropped; a column that is not an int in
    range(ncols), or an entry that is not rational, raises ValueError.
    Each entry is read once, and an int passes through; a Fraction's
    numerator and denominator are read off its slots, not its properties."""
    out, dens, lcm = {}, {}, 1
    try:
        for c, v in row.items():
            k = index(c)
            if not 0 <= k < ncols:
                raise ValueError("query column %r out of range for %d "
                                 "columns" % (c, ncols))
            kind = type(v)
            if kind is int:
                if v:
                    out[k] = v
                continue
            if kind is Fraction:
                num, den = v._numerator, v._denominator
            else:                       # bool or another Rational
                num, den = v.numerator, v.denominator
                if num:
                    num = int(num)
            if num:
                out[k] = num
                if den != 1:
                    dens[k] = den
                    lcm = lcm * den // gcd(lcm, den)
    except AttributeError:
        raise ValueError("query entries must be int or Fraction") from None
    except TypeError:
        raise ValueError("query column %r is not an integer" % (c,)) from None
    if lcm != 1:
        for k, v in out.items():
            out[k] = v * (lcm // dens.get(k, 1))
    return out


def row_span_membership(matrix, row):
    """True iff appending the row leaves the rank over Q unchanged.  It
    factors the whole matrix, table and all, for this one query, so a
    caller with many queries keeps a `SpanChecker`."""
    return SpanChecker(matrix).contains(row)


# -- Smith normal form ------------------------------------------------------


def smith_normal_form(matrix, bound=DEFAULT_SNF_BOUND):
    """Divisor chain d_1 | d_2 | ... of the matrix over Z.

    Unit pivots and content peeling (see _unit_eliminate) settle all but a
    residue of content 1 without unit entries, usually empty; gcd steps on
    that residue make a unit entry and unit pivots resume.  `bound` caps
    max(nrows, ncols).  The matrix is not changed: its rows are copied once
    the bound is checked.
    """
    if max(matrix.nrows, matrix.ncols) <= bound:    # else _smith_form raises
        matrix = SparseIntMatrix.trusted(matrix.ncols, _copy_rows(matrix))
    return _smith_form(matrix, bound)


def _smith_form(matrix, bound):
    """smith_normal_form, eliminating the matrix's own rows in place: for a
    matrix built for this one call."""
    if max(matrix.nrows, matrix.ncols) > bound:
        raise BoundExceeded(
            "smith_normal_form bound exceeded: %dx%d > %d" %
            (matrix.nrows, matrix.ncols, bound))
    divisors = _nonzero_divisors(matrix.rows, matrix.ncols)
    rank = len(divisors)
    width = min(matrix.nrows, matrix.ncols)
    return SnfResult(divisors + [0] * (width - rank), rank)


def dense_snf_with_transforms(a):
    """Smith normal form with transforms for small dense matrices.

    Returns (d, u, v) with u * a * v = d, u and v unimodular.  Used for
    quotient-group presentations; not meant for large inputs.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    d = [list(map(int, row)) for row in a]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_op(i, j, q):      # row_i -= q * row_j
        for k in range(n):
            d[i][k] -= q * d[j][k]
        for k in range(m):
            u[i][k] -= q * u[j][k]

    def col_op(i, j, q):      # col_i -= q * col_j
        for row in d:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < m and t < n:
        best = None
        for i in range(t, m):
            for j in range(t, n):
                val = d[i][j]
                if val and (best is None or abs(val) < best[0]):
                    best = (abs(val), i, j)
        if best is None:
            break
        _, bi, bj = best
        row_swap(t, bi)
        if bj != t:
            col_swap(t, bj)
        stable = False
        while not stable:
            stable = True
            for i in range(t + 1, m):
                if d[i][t]:
                    row_op(i, t, d[i][t] // d[t][t])
                    if d[i][t]:
                        row_swap(t, i)
                        stable = False
            for j in range(t + 1, n):
                if d[t][j]:
                    col_op(j, t, d[t][j] // d[t][t])
                    if d[t][j]:
                        col_swap(t, j)
                        stable = False
        piv = d[t][t]
        offender = None
        if abs(piv) != 1:
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if d[i][j] % piv:
                        offender = i
                        break
                if offender is not None:
                    break
        if offender is not None:
            row_op(t, offender, -1)
            continue
        if piv < 0:
            for k in range(n):
                d[t][k] = -d[t][k]
            for k in range(m):
                u[t][k] = -u[t][k]
        t += 1
    return d, u, v
