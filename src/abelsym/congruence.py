"""Level structures: coset symbols, Manin relation spaces, closed forms.

A level (N, M) names the subgroup of integral determinant-one 2x2 matrices
with a == 1, b == 0 mod N and c == 0, d == 1 mod MN.  Its left cosets are
finite and biject with the ordered character pairs of Z/N x Z/MN that
generate the dual group and have determinant 1 mod N; those quadruples are
the generators of the Manin relation space built here.  Inside, a coset is
its residue quad (a, b, c, d), a plain int tuple in lexicographic order;
`CosetSymbol` objects are built only when read.  The Smith forms
run on the Manin relations folded over the turn orbits (`_coset_fold`), as
the symbol side folds its sign rows over sign classes.  `iso_check`
certifies that the coset and symbol presentations are one: the orbits map
onto the sign classes, and the two folds' rows are equal up to sign and to
even entries on their 2 e = 0 columns, and equal row sets under a
bijection of bases present isomorphic modules over Z, torsion included.

Everything countable is computed twice on purpose: coset counts against the
index formula, cusps as transformation orbits against the closed form,
fixed cusps by enumeration against the totient expression.  `cusp_count`
checks that its two routes agree and raises loudly when they do not, rather
than privileging either route; the granular routes stay exposed so a
disagreement is itself testable.
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import partial
from math import gcd, lcm

from .abelian import code_tuples, make_group, negation_codes
from .arith import as_int, prime_factors, totient
from .exactla import (DEFAULT_SNF_BOUND, BoundExceeded, DeferredRows,
                      SparseIntMatrix, _smith_form, require, sparse_add)
from .relations import (DimensionReport, RelationSystem, Variant,
                        _sign_class_matrix, formula_dimension)
from .symbols import DEFAULT_ENUM_BOUND, det_class_groups, sign_class_groups

__all__ = [
    "CosetSymbol", "IntMatrix2", "IsoReport", "LevelInvariants",
    "coset_index", "coset_of", "cusp_count", "cusp_formula",
    "cusp_orbit_count", "enumerate_cosets", "eps_fixed", "gamma_member",
    "genus", "iso_check", "level2_consistency", "level_invariants",
    "lift_coset", "manin_space",
]


def _check_level(n, m):
    bad = "level needs integers N >= 2, M >= 1, got (%r, %r)"
    if as_int(n, bad, n, m) < 2 or as_int(m, bad, n, m) < 1:
        raise ValueError(bad % (n, m))


class IntMatrix2:
    """Integral 2x2 matrix of determinant exactly one; both are checked."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        a, b, c, d = (as_int(x, "matrix entries must be integers, got %r", x)
                      for x in (a, b, c, d))
        if a * d - b * c != 1:
            raise ValueError("determinant must be exactly 1")
        self.a, self.b, self.c, self.d = a, b, c, d

    @classmethod
    def identity(cls):
        return cls(1, 0, 0, 1)

    def __matmul__(self, other):
        return IntMatrix2(self.a * other.a + self.b * other.c,
                          self.a * other.b + self.b * other.d,
                          self.c * other.a + self.d * other.c,
                          self.c * other.b + self.d * other.d)

    def __eq__(self, other):
        if not isinstance(other, IntMatrix2):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b,
                                                    other.c, other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self):
        return "IntMatrix2(%d, %d, %d, %d)" % (self.a, self.b, self.c,
                                               self.d)


class CosetSymbol:
    """Residue quadruple naming a coset: a, b mod N and c, d mod MN.

    Valid symbols have integer residues, determinant 1 mod N and columns
    (a, c), (b, d) that generate the dual of Z/N x Z/MN; all three are
    enforced on construction.
    Given the determinant, the columns generate iff gcd(c, d, MN) = 1: per
    prime p (see `spans_dual`), a p | N is settled by ad - bc = 1 mod p,
    and a p | M alone needs c or d nonzero mod p.
    """

    __slots__ = ("a", "b", "c", "d", "level")

    def __init__(self, a, b, c, d, level):
        n, m = level
        _check_level(n, m)
        k = n * m
        a, b, c, d = (as_int(x, "coset residues must be integers, got %r", x)
                      for x in (a, b, c, d))
        if not (0 <= a < n and 0 <= b < n and 0 <= c < k and 0 <= d < k):
            raise ValueError("residues out of range for level (%d, %d)"
                             % (n, m))
        if (a * d - b * c) % n != 1:
            raise ValueError("determinant is not 1 mod %d" % n)
        if gcd(c, d, k) != 1:
            raise ValueError("columns (%d,%d), (%d,%d) do not generate the "
                             "dual group" % (a, c, b, d))
        self._set(a, b, c, d, (n, m))

    @classmethod
    def _unchecked(cls, level, quad):
        """The symbol of a quad known to be valid at `level`: no checks."""
        sym = cls.__new__(cls)
        sym._set(*quad, level)
        return sym

    def _set(self, a, b, c, d, level):
        self.a, self.b, self.c, self.d = a, b, c, d
        self.level = level

    def quad(self):
        return (self.a, self.b, self.c, self.d)

    def __eq__(self, other):
        if not isinstance(other, CosetSymbol):
            return NotImplemented
        return self.quad() == other.quad() and self.level == other.level

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d, self.level))

    def __lt__(self, other):
        return (self.level, self.quad()) < (other.level, other.quad())

    def __repr__(self):
        return "CosetSymbol(%d, %d; %d, %d | level %r)" % (
            self.a, self.b, self.c, self.d, self.level)


def gamma_member(mat, n, m):
    """Membership in the level (n, m) subgroup.

    The defining congruences (a == 1, b == 0 mod n; c == 0, d == 1 mod nm)
    force a == 1 mod nm as well via the determinant, which is checked.
    """
    _check_level(n, m)
    k = n * m
    member = (mat.a % n == 1 and mat.b % n == 0 and mat.c % k == 0
              and mat.d % k == 1)
    if member:
        # ad - bc = 1 with c == 0, d == 1 mod k pins a mod k too
        require(mat.a % k == 1, "member %r of level (%d, %d) has a = %d, "
                "not 1, mod %d", mat, n, m, mat.a % k, k)
    return member


def coset_of(mat, n, m):
    """The coset symbol of an integral matrix: rows reduced mod n and nm."""
    _check_level(n, m)
    k = n * m
    return CosetSymbol(mat.a % n, mat.b % n, mat.c % k, mat.d % k, (n, m))


def lift_coset(sym):
    """An integral determinant-one matrix reducing to the given symbol.

    The bottom row is nudged by multiples of MN to a coprime pair (c0, d0);
    v = d0^-1 mod c0 and u = (1 - v*d0)/c0 give v*d0 + u*c0 = 1.  The top
    rows (a, b) and (v, -u) have determinant 1 against (c0, d0) mod N, so
    their difference (x, y) has x*d0 = y*c0 and, multiplied by v*d0 + u*c0,
    is t*(c0, d0) mod N with t = x*u + y*v.  The lift's top row is (v, -u)
    + t*(c0, d0).  Any representative is acceptable; only the coset matters.
    The lift is certified by its exact determinant (`IntMatrix2`) and by its
    rows reduced mod N and MN giving the symbol's quad back, which is then
    a valid symbol, so no checked `CosetSymbol` is built.
    """
    n, m = sym.level
    k = n * m
    a, b, c, d = sym.quad()
    # coprime bottom row congruent to (c, d) mod k
    c0 = c if c else k
    if gcd(c0, d) == 1:
        d0 = d
    else:
        s = 1
        for p in prime_factors(c0):
            if d % p:
                s *= p
        d0 = d + s * k
        require(gcd(c0, d0) == 1, "%r: bottom row (%d, %d) is not coprime",
                sym, c0, d0)
    v = pow(d0, -1, c0)
    u = (1 - v * d0) // c0
    t = ((a - v) * u + (b + u) * v) % n
    out = IntMatrix2(v + t * c0, t * d0 - u, c0, d0)
    back = (out.a % n, out.b % n, out.c % k, out.d % k)
    require(back == sym.quad(), "lift %r of %r reduces to %r", out, sym, back)
    return out


def coset_index(n, m):
    """Index of the level subgroup: M^2 N^3 prod over p | MN (1 - p^-2)."""
    _check_level(n, m)
    val = Fraction(m * m * n ** 3)
    for p in prime_factors(n * m):
        val *= Fraction(p * p - 1, p * p)
    require(val.denominator == 1, "index of level (%d, %d) is not an "
            "integer: %s", n, m, val)
    return int(val)


def _coset_quads(n, m, bound):
    """The residue quads (a, b, c, d) behind enumerate_cosets, sorted.

    a d = 1 + b c mod N is solved for d: with g = gcd(a, N) it has
    solutions iff g divides 1 + b c, and they are the d = d0 mod N/g, where
    d0 is (1 + b c)/g times the inverse of a/g mod N/g, one inverse per a.
    Of those in range(MN) the ones with gcd(c, d, MN) = 1 are kept, read
    from a table per g of those d by c and residue mod N/g: per prime (see
    spans_dual) the determinant settles the primes of N, and a prime of M
    alone needs c or d nonzero mod it.  The bound still caps the (N MN)^2
    quads a scan would test.
    """
    _check_level(n, m)
    k = n * m
    if (n * k) ** 2 > bound:
        raise BoundExceeded("coset scan size (N*MN)^2 = %d exceeds the "
                            "bound %d" % ((n * k) ** 2, bound))
    out, tables = [], {}
    for a in range(n):
        g = gcd(a, n)
        step = n // g
        inv = pow(a // g, -1, step)
        ds = tables.get(g)
        if ds is None:
            ds = tables[g] = [[[d for d in range(r, k, step)
                                if gcd(c, d, k) == 1] for r in range(step)]
                              for c in range(k)]
        for b in range(n):
            out += [(a, b, c, d) for c in range(k) if not (1 + b * c) % g
                    for d in ds[c][(1 + b * c) // g * inv % step]]
    if k >= 3:
        index = coset_index(n, m)
        require(len(out) == index, "%d cosets enumerated at level (%d, %d), "
                "index formula %d", len(out), n, m, index)
    return out


def enumerate_cosets(n, m, bound=DEFAULT_ENUM_BOUND):
    """All coset symbols at level (n, m), lexicographically sorted.

    For MN >= 3 the count must equal the index formula, which is checked.
    """
    return [CosetSymbol._unchecked((n, m), quad)
            for quad in _coset_quads(n, m, bound)]


def _coset_fold(level, quads, index, with_O):
    """The Manin relations folded over the turn orbits: (reps, matrix).

    The turn S sends s = (a, b; c, d) to sS = (b, -a; d, -c) and S^2 = -I,
    so the turn rows e_s + e_sS make each orbit {s, sS, -s, -sS} one
    column, its cosets +-1 times it with signs (+, -, +, -); with_O also
    joins the swap images sO = (b, a; d, c) with sign +.  The signs are
    the character of <S, O> that is -1 on S and +1 on O, so the two-term
    rows present the free module on the orbits less 2 e_k = 0 for each
    orbit k that gives some coset both signs (at N = 2 with the swap, a
    coset with 2c = 0 or 2d = 0 mod MN), which gets the row {k: 2}.  The
    orbits are indexed in the order of their least cosets, the reps r.

    The split row at s, e_s - e_sT1 - e_sT2 with sT1 = (a - b, b; c - d, d)
    and sT2 = (a, b - a; c, d - c), is built at r and at rS only, and kept
    only when r's index k is no larger than the indices u, v of the orbits
    of sT1 and sT2 (ties kept); the kept rows span the same lattice as the
    split rows at every coset.  Proof: write a coset as its columns (x, y)
    and let Q be the quotient by the two-term rows, where e(y, -x) =
    -e(x, y), e(-x, -y) = e(x, y) and, with the swap, e(y, x) = e(x, y).
    In Q the split row at (x, y) reads -(e(p, q) + e(q, o) + e(o, p)) for
    the zero-sum triple (p, q, o) = (x - y, y, -x): symmetric under its
    rotation and unchanged when it is negated, as Manin's three-term
    relation, so it is one relation R_T of the triple T of cosets (p, q),
    (q, o), (o, p), whose orbits are those of sT1, sS and sT2.  The split
    rows at -s and at sO are the one at s in Q (O trades T1 and T2), so
    an orbit's rows are those at r and rS, and the triple of the row at
    t = -sS holds s: every R_T is built from the orbit of each coset of
    T, hence also from the least, where it is kept, and a dropped row
    equals +- a kept row in Q, that is up to even entries on columns with
    a {k: 2} row, all of which are kept.  Under the coset-to-key map
    (x, y) -> {x, y}, R_T is the zero-sum triple relation that
    `_sign_class_matrix` keeps once, and `iso_check` compares the two
    folds row by row.
    """
    n, m = level
    k = n * m
    fold = [None] * len(quads)      # coset -> (orbit, sign)
    reps, torsion = [], set()
    for i, s in enumerate(quads):
        if fold[i] is None:
            o = len(reps)
            reps.append(s)
            a, b, c, d = s
            na, nb, nc, nd = -a % n, -b % n, -c % k, -d % k
            images = [(s, 1), ((b, na, d, nc), -1), ((na, nb, nc, nd), 1),
                      ((nb, a, nd, c), -1)]
            if with_O:
                images += [((y, x, w, z), e) for (x, y, z, w), e in images]
            for t, e in images:
                j = index[t]
                if fold[j] is None:
                    fold[j] = (o, e)
                elif fold[j][1] != e:
                    torsion.add(o)
    rows = []
    for o, (a, b, c, d) in enumerate(reps):
        if o in torsion:
            rows.append({o: 2})
        for (x, y, z, w), e in (((a, b, c, d), 1),
                                ((b, -a % n, d, -c % k), -1)):
            u, su = fold[index[((x - y) % n, y, (z - w) % k, w)]]
            v, sv = fold[index[(x, (y - x) % n, z, (w - z) % k)]]
            if o <= u and o <= v:
                rows.append(sparse_add({o: e}, ((u, -su), (v, -sv))))
    return reps, SparseIntMatrix.trusted(len(reps), rows)


def _manin_rows(level, quads, index, with_O):
    """The Manin rows of `manin_space` over the cosets, each built once."""
    n, m = level
    k = n * m
    # column operations of determinant one (and the swap at N = 2) keep the
    # column span and the determinant mod N: the images are cosets
    rows = []
    for i, s in enumerate(quads):
        a, b, c, d = s
        na, nc = -a % n, -c % k
        turned = (b, na, d, nc)
        rotated = ((a + b) % n, na, (c + d) % k, nc)
        split = {i: 1, index[((a - b) % n, b, (c - d) % k, d)]: -1,
                 index[(a, (b - a) % n, c, (d - c) % k)]: -1}
        require(turned != s and rotated != s and len(split) == 3,
                "coset %r of level %r is fixed by its turn or rotation or "
                "repeats a split term", s, level)
        t = index[turned]
        if t > i or (na, -b % n, nc, -d % k) != s:
            rows.append({i: 1, t: 1})
        rows.append(split)
        if with_O:
            rows.append({i: 1, index[(b, a, d, c)]: -1})
    return rows


def manin_space(n, m, with_O=False, enum_bound=DEFAULT_ENUM_BOUND,
                snf_bound=DEFAULT_SNF_BOUND):
    """Relation system and report for the coset symbol space at (n, m).

    Rows: the two-term turn e_s + e_(b,-a;d,-c) and the three-term split
    e_s - e_(a-b,b;c-d,d) - e_(a,b-a;c,d-c); with_O adds the column swap
    e_s - e_(b,a;d,c), which only makes sense at N = 2 (the swap flips the
    determinant sign otherwise).  The degenerate rule "e_s = 0 when s is
    fixed by its own turn or rotation" never fires: a fixed point would
    have determinant 0 mod N, and so would a split row with a repeated
    term, so the call checks that every coset has determinant 1 mod N.

    Each row is built once.  A split row has three distinct cosets (x = s,
    y = s or x = y would force det = 0 mod N) and, like a swap row, is
    fixed by its one +1 entry s; neither equals a turn row, whose entries
    are both +1.  Two turn rows coincide only when s' is the turn sS of s
    and s'S = -s = s, which needs 2c = 2d = 0 mod MN with gcd(c, d, MN) =
    1, so MN <= 2: there the turn row of s' is skipped when its turn is an
    earlier coset and -s' = s'.  So above MN = 2 there are 2 rows per coset,
    3 with the swap, and at MN <= 2 the kept turn rows are counted.  The
    returned system keeps these rows over the cosets, built by
    `_manin_rows` only when `rel.rows` is first read, which checks their
    count against `rel.nrows`.  The Smith form, and so the report, is
    taken of the same relations folded over the turn orbits (see
    _coset_fold), about a quarter of the columns, and `snf_bound` caps
    that matrix; the report's `ms` covers the coset enumeration, the fold
    and its Smith form.
    """
    _check_level(n, m)
    if with_O and n != 2:
        raise ValueError("the column-swap relation exists only at N = 2")
    t0 = time.perf_counter()
    level = (n, m)
    k = n * m
    quads = _coset_quads(n, m, enum_bound)
    # one determinant check stands for _manin_rows' per-coset guard
    bad = [(a, b, c, d) for a, b, c, d in quads if (a * d - b * c) % n != 1]
    require(not bad, "%d cosets of level %r, first %r, have determinant "
            "other than 1 mod %d", len(bad), level, bad[:1], n)
    index = {s: i for i, s in enumerate(quads)}
    fold = _coset_fold(level, quads, index, with_O)[1]
    orbits, snf = fold.ncols, _smith_form(fold, snf_bound)
    del fold
    ms = (time.perf_counter() - t0) * 1000.0
    turns = len(quads)
    if k <= 2:      # -s = s: a turn row is kept where its turn is later
        turns = sum(index[(b, -a % n, d, -c % k)] > i
                    for i, (a, b, c, d) in enumerate(quads))
    rel = DeferredRows(turns + len(quads) * (2 if with_O else 1), len(quads),
                       partial(_manin_rows, level, quads, index, with_O))
    grp = make_group((n, k))
    variant = Variant.MINUS if with_O else Variant.PLAIN
    system = RelationSystem(grp, 2, variant, quads, (CosetSymbol, level), rel,
                            index)
    report = DimensionReport(grp, 2, variant, "MANIN", orbits - snf.rank,
                             snf.torsion, len(quads), ms)
    return system, report


def cusp_formula(n, m):
    """Closed-form cusp count MN^2/2 prod over p | MN of (1 - p^-2)."""
    _check_level(n, m)
    k = n * m
    if k < 3:
        raise ValueError("the cusp formula needs MN >= 3")
    val = Fraction(m * n * n, 2)
    for p in prime_factors(k):
        val *= Fraction(p * p - 1, p * p)
    require(val.denominator == 1, "closed-form cusp count is not an integer "
            "at level (%d, %d): %s", n, m, val)
    return int(val)


def _sign_orbits(points, cycles):
    """Each orbit of a group <T, -1> on `points`, with T a translation, once,
    as (its least point p, the list `cycles(p)` of its points).

    -1 is central, so the orbit of p is the T-cycle of p with that of -p,
    which `cycles` lists, repeats allowed; `points` is sorted and closed
    under the group.
    """
    seen = set()
    for p in points:
        if p not in seen:
            orbit = cycles(p)
            seen.update(orbit)
            yield p, orbit


def cusp_orbit_count(n, m, bound=DEFAULT_ENUM_BOUND):
    """Cusps counted as coset orbits under translation and negation.

    The orbit of a symbol under right multiplication by T = (1,1;0,1) and
    by minus the identity is exactly a cusp of the level.  T moves (b, d)
    by (a, c) and fixes (a, c), so the T-cycle of s = (a, b; c, d) has
    lcm(N/gcd(a, N), MN/gcd(c, MN)) cosets, and each orbit, the T-cycles of
    s and -s, is walked once.
    """
    quads = _coset_quads(n, m, bound)
    k = n * m

    def cycles(s):
        a, b, c, d = s
        size = lcm(n // gcd(a, n), k // gcd(c, k))
        na, nc = -a % n, -c % k
        return ([(a, (b + j * a) % n, c, (d + j * c) % k)
                 for j in range(size)]
                + [(na, (-b - j * a) % n, nc, (-d - j * c) % k)
                   for j in range(size)])

    return sum(1 for _ in _sign_orbits(quads, cycles))


def cusp_count(n, m, bound=DEFAULT_ENUM_BOUND):
    """Cusp count, by closed form and by orbit count, checked equal.

    Levels where the two routes disagree raise ConsistencyError instead of
    silently preferring one; use cusp_formula or cusp_orbit_count directly
    to inspect either route on its own.
    """
    formula = cusp_formula(n, m)
    orbits = cusp_orbit_count(n, m, bound=bound)
    require(formula == orbits, "cusp routes disagree at level (%d, %d): "
            "formula %d, orbits %d", n, m, formula, orbits)
    return formula


def genus(n, m):
    """Genus closed form 1 + MN^2(MN - 6)/24 prod (1 - p^-2), N >= 3."""
    _check_level(n, m)
    if n < 3:
        raise ValueError("no genus closed form at N = 2")
    k = n * m
    val = Fraction(m * n * n * (k - 6), 24)
    for p in prime_factors(k):
        val *= Fraction(p * p - 1, p * p)
    total = 1 + val
    require(total.denominator == 1, "closed-form genus of level (%d, %d) "
            "is not an integer: %s", n, m, total)
    return int(total)


def eps_fixed(m):
    """Cusps of level (2, m) fixed by the sign involution, for m > 2.

    Cusp classes are pairs (a, c) mod 2m with gcd(a, c, 2m) = 1 taken up to
    sign and the translations a -> a + 2jc, whose cycle through (a, c) has
    2m/gcd(2c, 2m) pairs; each class is walked once, as in
    `cusp_orbit_count`.  The involution sends (a, c) to (-a, c) and classes
    to classes, so it fixes a class when it keeps one of its pairs in it.
    The enumerated count must equal 2 phi(m) + phi(2m).
    """
    bad = "fixed-cusp count is defined for M > 2"
    if as_int(m, bad) <= 2:
        raise ValueError(bad)
    k = 2 * m
    pairs = [(a, c) for a in range(k) for c in range(k) if gcd(a, c, k) == 1]

    def cycles(p):
        a, c = p
        size = k // gcd(2 * c, k)
        return ([((a + 2 * j * c) % k, c) for j in range(size)]
                + [((-a - 2 * j * c) % k, -c % k) for j in range(size)])

    fixed = sum((-a % k, c) in orbit
                for (a, c), orbit in _sign_orbits(pairs, cycles))
    formula = 2 * totient(m) + totient(k)
    require(fixed == formula,
            "fixed-cusp routes disagree at M = %d: enumerated %d, formula %d",
            m, fixed, formula)
    return formula


class LevelInvariants:
    """Closed-form level numerics: index, cusps, genus, fixed cusps."""

    __slots__ = ("n", "m", "index", "cusps", "genus", "fixed_cusps")

    def __init__(self, n, m, index, cusps, genus=None, fixed_cusps=None):
        self.n = n
        self.m = m
        self.index = index
        self.cusps = cusps
        self.genus = genus
        self.fixed_cusps = fixed_cusps

    def to_json(self):
        out = {"N": self.n, "M": self.m, "index": self.index,
               "cusps": self.cusps}
        if self.genus is not None:
            out["genus"] = self.genus
        if self.fixed_cusps is not None:
            out["fixed_cusps"] = self.fixed_cusps
        return out

    def __repr__(self):
        return "LevelInvariants(%r)" % (self.to_json(),)


def level_invariants(n, m):
    """Closed-form invariants of a level with MN >= 3.

    The genus needs N >= 3 and the fixed-cusp count N = 2, M > 2; either is
    omitted outside its range rather than guessed.
    """
    _check_level(n, m)
    if n * m < 3:
        raise ValueError("closed-form invariants need MN >= 3")
    idx = coset_index(n, m)
    cusps = cusp_formula(n, m)
    require(idx % cusps == 0, "%d cusps do not divide the index %d at "
            "level (%d, %d)", cusps, idx, n, m)
    g = genus(n, m) if n >= 3 else None
    eps = eps_fixed(m) if n == 2 and m > 2 else None
    return LevelInvariants(n, m, idx, cusps, g, eps)


def level2_consistency(m, enum_bound=DEFAULT_ENUM_BOUND,
                       snf_bound=DEFAULT_SNF_BOUND):
    """Genus bookkeeping at level (2, m), m > 2, from brute dimensions.

    No genus closed form exists at N = 2.  Instead the plain dimension
    2g + cusps - 1 determines g, which must match the Euler characteristic
    count (the level subgroup misses -I and has no elliptic elements); the
    swap-quotient dimension must equal g + (cusps - fixed)/2 with torsion
    (Z/2)^(fixed - 1), and both must match the closed form for the group
    Z/2 x Z/2m.  A failed check raises ConsistencyError.
    """
    _, rep_plain = manin_space(2, m, enum_bound=enum_bound,
                               snf_bound=snf_bound)
    _, rep_minus = manin_space(2, m, with_O=True, enum_bound=enum_bound,
                               snf_bound=snf_bound)
    cusps = cusp_orbit_count(2, m, bound=enum_bound)
    eps = eps_fixed(m)
    level = (2, m)
    g2 = rep_plain.dim_q + 1 - cusps
    require(g2 >= 0 and g2 % 2 == 0,
            "plain dimension %d and %d cusps give 2g = %d at level %r",
            rep_plain.dim_q, cusps, g2, level)
    g = g2 // 2
    mu = coset_index(2, m) // 2
    euler = 1 + Fraction(mu, 12) - Fraction(cusps, 2)
    require(g == euler, "genus %d disagrees with the Euler count %s at "
            "level %r", g, euler, level)
    require(rep_plain.torsion == (), "plain torsion %r at level %r",
            rep_plain.torsion, level)
    require((cusps - eps) % 2 == 0, "%d cusps and %d fixed cusps differ "
            "by an odd number at level %r", cusps, eps, level)
    require(rep_minus.dim_q == g + (cusps - eps) // 2,
            "swap-quotient dimension %d, expected %d at level %r",
            rep_minus.dim_q, g + (cusps - eps) // 2, level)
    require(rep_minus.torsion == (2,) * (eps - 1),
            "swap-quotient torsion %r, expected (Z/2)^%d at level %r",
            rep_minus.torsion, eps - 1, level)
    form = formula_dimension(make_group((2, 2 * m)), 2, Variant.MINUS,
                             want_torsion=True)
    require((form.dim_q, form.torsion) == (rep_minus.dim_q, rep_minus.torsion),
            "closed form %r disagrees with the swap quotient %r at level %r",
            (form.dim_q, form.torsion), (rep_minus.dim_q, rep_minus.torsion),
            level)
    return {"m": m, "genus": g, "cusps": cusps, "fixed_cusps": eps,
            "dim": rep_plain.dim_q, "dim_minus": rep_minus.dim_q}


class IsoReport:
    """Outcome of matching the symbol and coset presentations of a level."""

    __slots__ = ("level", "group", "keys", "cosets", "dim_symbols",
                 "dim_cosets", "torsion_symbols", "torsion_cosets")

    def __init__(self, level, group, keys, cosets, dim_symbols, dim_cosets,
                 torsion_symbols, torsion_cosets):
        self.level = level
        self.group = group
        self.keys = keys
        self.cosets = cosets
        self.dim_symbols = dim_symbols
        self.dim_cosets = dim_cosets
        self.torsion_symbols = tuple(torsion_symbols)
        self.torsion_cosets = tuple(torsion_cosets)

    @property
    def ok(self):
        return (self.dim_symbols == self.dim_cosets
                and self.torsion_symbols == self.torsion_cosets)

    def to_json(self):
        return {"N": self.level[0], "M": self.level[1], "group": self.group,
                "keys": self.keys, "cosets": self.cosets,
                "dim_symbols": self.dim_symbols,
                "dim_cosets": self.dim_cosets,
                "torsion_symbols": list(self.torsion_symbols),
                "torsion_cosets": list(self.torsion_cosets),
                "ok": self.ok}

    def __repr__(self):
        return "IsoReport(%r)" % (self.to_json(),)


def _matched(report):
    """The report, once its two sides are checked to agree."""
    require(report.ok, "symbols give dim %d torsion %r, cosets dim %d "
            "torsion %r at level %r", report.dim_symbols,
            report.torsion_symbols, report.dim_cosets, report.torsion_cosets,
            report.level)
    return report


def _two_columns(rows):
    """The columns k with a row {k: 2}."""
    return {c for row in rows for c in row if row == {c: 2}}


def _row_classes(rows, twos):
    """The nonzero rows up to sign and to even entries on the columns in
    `twos`: each as the lesser of its two signs, those entries mod 2.

    The two signed tuples first differ at the first nonzero entry off
    `twos`, so the lesser is the one where that entry is negative: each
    row is sorted once and negated off `twos` when that entry is positive.
    """
    out = set()
    for row in rows:
        items = sorted((c, v % 2 if c in twos else v) for c, v in row.items()
                       if c not in twos or v % 2)
        for c, v in items:
            if v and c not in twos:
                if v > 0:
                    items = [(c, v if c in twos else -v) for c, v in items]
                break
        out.add(tuple(items))
    return out - {()}


def iso_check(n, m, enum_bound=DEFAULT_ENUM_BOUND,
              snf_bound=DEFAULT_SNF_BOUND):
    """Match the minus-variant symbol presentation against the coset one.

    Both sides are folded over their two-term rows: the symbols over sign
    classes by `_sign_class_matrix` (at N >= 3 those of determinant 1,
    built directly by `det_class_groups`), the cosets over turn orbits by
    `_coset_fold` (with the swap at N = 2).
    The coset (a, b; c, d) goes to the key with codes a MN + c and
    b MN + d, its orbit to that key's class with the key's sign, and each
    class must be hit by exactly one orbit.  Both folds present the free
    module on their columns less 2 e_k = 0 on some, with rows that may
    differ by even entries there: so those columns must match, and the
    other rows, with those entries mod 2, must be equal up to sign, as
    sets, one check per direction.  Equal row sets under a bijection of
    bases present isomorphic modules over Z, torsion included, as equal
    spans over Q would not.  The two Smith forms must agree too.
    """
    _check_level(n, m)
    k = n * m
    grp = make_group((n, k))
    level = (n, m)
    groups = (det_class_groups(grp, 1, enum_bound, reps=True) if n >= 3
              else sign_class_groups(grp, 2, enum_bound))
    neg = negation_codes(grp)
    sym_rel, keys = _sign_class_matrix(grp, groups, 2)
    reps = code_tuples(groups)
    quads = _coset_quads(n, m, enum_bound)
    orbits, coset_rel = _coset_fold(level, quads, {
        s: i for i, s in enumerate(quads)}, n == 2)
    index = {r: i for i, r in enumerate(reps)}
    proj, sign = [], []             # orbit index -> class index, sign
    for a, b, c, d in orbits:
        x, y = a * k + c, b * k + d
        lx, ly = min(x, neg[x]), min(y, neg[y])
        proj.append(index.get((lx, ly) if lx <= ly else (ly, lx)))
        sign.append(1 if (lx == x) == (ly == y) else -1)
    require(len(proj) == len(reps) and set(proj) == set(range(len(reps))),
            "turn orbits cover %d of %d sign classes, %d orbits in all, at "
            "level %r", len(set(proj) - {None}), len(reps), len(proj), level)
    pushed = [{proj[o]: sign[o] * v for o, v in row.items()}
              for row in coset_rel.rows]
    twos = _two_columns(sym_rel.rows)
    coset_twos = {proj[o] for o in _two_columns(coset_rel.rows)}
    require(coset_twos == twos, "columns with 2 e = 0 differ at level %r: "
            "%d coset orbits, %d sign classes", level, len(coset_twos),
            len(twos))
    sym_rows = _row_classes(sym_rel.rows, twos)
    coset_rows = _row_classes(pushed, twos)
    require(coset_rows <= sym_rows, "coset relations missing from the "
            "symbol side at level %r: %d of %d", level,
            len(coset_rows - sym_rows), len(coset_rows))
    require(sym_rows <= coset_rows, "symbol relations missing from the "
            "coset side at level %r: %d of %d", level,
            len(sym_rows - coset_rows), len(sym_rows))
    # the folds, built for this call, are read: eliminate them in place
    coset_snf = _smith_form(coset_rel, snf_bound)
    sym_snf = _smith_form(sym_rel, snf_bound)
    return _matched(IsoReport(level, grp.literal(), keys,
                              len(quads), len(reps) - sym_snf.rank,
                              len(orbits) - coset_snf.rank, sym_snf.torsion,
                              coset_snf.torsion))
