"""Relation systems presenting the symbol-module variants.

The plain module imposes the blowup relation (every symbol equals the sum of
its two one-step modifications); the minus variant adds the sign relation
(negating one entry negates the symbol); the plus variant exists only for
length-1 symbols and identifies a character with its negative.  Reordering
is not a matrix row here: the basis is already canonical (sorted) keys, so
every relation template is instantiated at every position pair.  Templates
run on the keys' code tuples through negation and difference tables built
per system; their images keep the key's span, so they are looked up in the
basis without re-validating them.  The blowup and plus templates go through
`relation_rows`; `build_relations` appends the minus variant's sign rows
from `_sign_rows`, already deduplicated, for the callers that need the key
basis.  `dimension` folds them into the columns instead, as modular-symbols
codes quotient by the two-term relations first: with lo[c] = min(c, -c), a
code tuple is (-1)^(entries with lo[c] != c) times its representative (rep),
its sorted lo codes, and a rep with a self-inverse entry gets 2 e_rep = 0.
It walks only the reps, never the keys, and at n = 2 builds each folded
three-term row once, from the first of the sign classes it touches, as
modular-symbols codes build Manin's three-term relation once per orbit.

Dimensions over Q come from exact ranks of the relation matrix; torsion of
the presented quotient from its Smith normal form.  The closed forms of the
accompanying theory (minus-variant dimensions and torsion, and the
plain-minus difference) are implemented alongside for cross-checking.
"""

from __future__ import annotations

import enum
import time
from fractions import Fraction

from .abelian import difference_codes, negation_codes, parse_group
from .arith import divisors, prime_factors, totient
from .exactla import (DEFAULT_SNF_BOUND, SparseIntMatrix, rank_over_Q,
                      require, smith_normal_form, sparse_add)
from .symbols import (DEFAULT_ENUM_BOUND, FormalSum, det_classes,
                      enumerate_det_class, enumerate_generators, in_det_class,
                      replace_code, sign_class_reps)


class Variant(enum.Enum):
    PLAIN = "plain"
    MINUS = "minus"
    PLUS = "plus"

    @classmethod
    def parse(cls, value):
        if isinstance(value, Variant):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise ValueError("unknown variant %r (expected plain, minus or "
                             "plus)" % (value,)) from None


class RelationSystem:
    """Canonical keys (columns) plus the relation rows presenting them."""

    __slots__ = ("group", "n", "variant", "basis", "rel", "index")

    def __init__(self, group, n, variant, basis, rel):
        self.group = group
        self.n = n
        self.variant = variant
        self.basis = basis
        self.rel = rel
        self.index = {key: i for i, key in enumerate(basis)}

    def vector(self, fsum):
        """A FormalSum over the basis as a sparse row dict."""
        row = {}
        for key, coeff in fsum.items():
            idx = self.index.get(key)
            if idx is None:
                raise KeyError("key %r is not in the basis" % (key,))
            row[idx] = coeff
        return row

    def __repr__(self):
        return "RelationSystem(%s, n=%d, %s, %d keys, %d rows)" % (
            self.group.literal(), self.n, self.variant.value,
            len(self.basis), self.rel.nrows)


def relation_rows(index, relations):
    """Sparse rows of the given relations over an indexed basis.

    Each relation is a list of (key, coeff) terms.  Terms on one key are
    summed; zero rows and repeated rows are dropped, keeping the first
    occurrence, so the row order follows the relation order.
    """
    rows = []
    seen = set()
    for parts in relations:
        row = sparse_add({}, ((index[key], coeff) for key, coeff in parts))
        if not row:
            continue
        sig = tuple(sorted(row.items()))
        if sig not in seen:
            seen.add(sig)
            rows.append(row)
    return rows


def _templates(group, codes, n, variant):
    """The variant's relation templates on code tuples, at every key.

    A blowup b_i -> b_i - b_j and a negation keep the span of a key, so
    their images are keys too.  Only the i < j blowups are instantiated:
    the (j, i) blowup is the same relation.
    """
    if not codes:
        return
    if n >= 2 and variant in (Variant.PLAIN, Variant.MINUS):
        diff = difference_codes(group)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for t in codes:
            for i, j in pairs:
                bi, bj = t[i], t[j]
                yield [(t, 1), (replace_code(t, i, diff[bi][bj]), -1),
                       (replace_code(t, j, diff[bj][bi]), -1)]
    if variant is Variant.PLUS:
        neg = negation_codes(group)
        for t in codes:
            yield [(t, 1), ((neg[t[0]],), -1)]


def _sign_rows(group, codes, index, n):
    """The minus variant's sign rows e_t + e_(t with one entry negated),
    built already deduplicated.

    The row of keys k < j comes from key k; a flip that fixes the key
    gives {k: 2}; a flip repeating an earlier one of the same key is
    dropped.  In (key, position) order these are the first occurrences of
    the sign relations, each with the key's own index first.  Their
    coefficients sum to 2 and a blowup row's to -1, so no sign row repeats
    a blowup row.
    """
    neg = negation_codes(group)
    rows = []
    for k, t in enumerate(codes):
        done = []
        for i in range(n):
            j = index[replace_code(t, i, neg[t[i]])]
            if j < k or j in done:
                continue
            done.append(j)
            rows.append({k: 2} if j == k else {k: 1, j: 1})
    return rows


def _key_count(group, reps):
    """The number of keys the reps stand for, one per sign pattern: m + 1
    for each code c with -c != c that a rep holds m times."""
    neg = negation_codes(group)
    count = 0
    for r in reps:
        keys = 1
        for c in set(r):
            if neg[c] != c:
                keys *= r.count(c) + 1
        count += keys
    return count


def _sign_class_matrix(group, reps, n):
    """The minus relation matrix over the sorted reps, the sign rows folded
    in.

    Folding ignores negating the whole key and flips off {i, j}, so the
    blowup at any key folds to +- the (i, j) blowup at a rep r, or at r
    with entry j negated (s = -1) unless entry i or j is self-inverse.  A
    rep with a self-inverse entry gets the row {k: 2}.

    At n = 2 a folded blowup row is kept only when its own rep's index k
    is no larger than the indices u, v of its two other columns (ties
    kept); the kept rows span the same lattice as all of them.  Proof: in
    the quotient Q of the key module by the sign rows, e(x, -y) = -e(x, y)
    for every key, also when y = -y, as then 2 e(x, y) = 0.  So in Q the
    blowup at a key {a, b} reads -(e(x, y) + e(y, z) + e(z, x)) for the
    zero-sum triple (x, y, z) = (b, a - b, -a): symmetric in the triple
    and unchanged when it is negated, as Manin's three-term relation.  A
    row built at rep k with sign s is thus +- its triple's relation in Q,
    and the triple's three pairs are the classes k, u, v.  The zero-sum
    triples through a rep (a, b) are, up to negation, the two built there
    with s = 1 and s = -1, which are one triple when a or b is
    self-inverse, so skipping s = -1 there loses none.  Hence every
    triple is built from each class it touches, also from the one of
    least index, where it is kept, and a dropped row equals +- a kept row
    in Q, that is up to even entries on columns with a {c: 2} row, all
    of which are kept.  The slow test in tests/test_relations.py checks
    this row by row on 273 groups.  At n >= 3 every row is kept.
    """
    neg = negation_codes(group)
    lo = [min(c, d) for c, d in enumerate(neg)]
    sg = [1 if c == d else -1 for c, d in enumerate(lo)]
    diff = difference_codes(group)
    index = {t: k for k, t in enumerate(reps)}
    self_inverse = {c for c, d in enumerate(neg) if c == d}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    once = n == 2
    rows = []
    for k, r in enumerate(reps):
        if not self_inverse.isdisjoint(r):
            rows.append({k: 2})
        for i, j in pairs:
            a, b = r[i], r[j]
            for s, bs in ((1, b), (-1, neg[b])):
                if s < 0 and (neg[a] == a or bs == b):
                    break  # the s = 1 row again
                x, y = diff[a][bs], diff[bs][a]
                u = index[replace_code(r, i, lo[x])]
                v = index[replace_code(r, j, lo[y])]
                if once and (u < k or v < k):
                    continue  # kept where its triple has the least rep
                rows.append(sparse_add({k: s}, (  # odd sum: never 0
                    (u, -s * sg[x]), (v, -sg[y]))))
    return SparseIntMatrix.trusted(len(reps), rows)


def build_relations(group, n, variant, keys=None, bound=DEFAULT_ENUM_BOUND):
    """Relation system for (group, n, variant).

    `keys` restricts the basis (used for determinant-class subsystems); the
    relation templates never leave a determinant class, so the restricted
    rows are exactly the full rows supported on the restricted keys.
    """
    variant = Variant.parse(variant)
    if variant is Variant.PLUS and n != 1:
        raise ValueError("the plus variant is defined only for n = 1")
    if keys is None:
        keys = enumerate_generators(group, n, bound=bound)
    codes = [key.codes for key in keys]
    index = {t: i for i, t in enumerate(codes)}
    rows = relation_rows(index, _templates(group, codes, n, variant))
    if variant is Variant.MINUS:
        rows += _sign_rows(group, codes, index, n)
    rel = SparseIntMatrix.trusted(len(keys), rows)
    return RelationSystem(group, n, variant, list(keys), rel)


class DimensionReport:
    """Dimension/torsion result with its provenance (brute or formula)."""

    __slots__ = ("group", "n", "variant", "method", "dim_q", "torsion",
                 "generator_count", "ms")

    def __init__(self, group, n, variant, method, dim_q, torsion,
                 generator_count, ms):
        self.group = group
        self.n = n
        self.variant = Variant.parse(variant)
        self.method = method
        self.dim_q = dim_q
        self.torsion = tuple(torsion)
        self.generator_count = generator_count
        self.ms = ms

    def to_json(self):
        return {
            "group": self.group.literal(),
            "n": self.n,
            "variant": self.variant.value,
            "method": self.method,
            "dim": self.dim_q,
            "torsion": list(self.torsion),
            "generators": self.generator_count,
            "ms": self.ms,
        }

    @classmethod
    def from_json(cls, obj):
        return cls(parse_group(obj["group"]), obj["n"], obj["variant"],
                   obj["method"], obj["dim"], tuple(obj["torsion"]),
                   obj["generators"], obj["ms"])

    def __repr__(self):
        bits = "%s n=%d %s %s: dim %d" % (
            self.group.literal(), self.n, self.variant.value, self.method,
            self.dim_q)
        if self.torsion:
            bits += " torsion %r" % (self.torsion,)
        return "DimensionReport(%s)" % bits


def _rank_and_torsion(rel, want_torsion, snf_bound):
    """Rank over Q and torsion divisors, from one Smith form if torsion is
    wanted."""
    if not want_torsion:
        return rank_over_Q(rel), ()
    snf = smith_normal_form(rel, bound=snf_bound)
    return snf.rank, snf.torsion


def dimension(group, n, variant, want_torsion=False,
              enum_bound=DEFAULT_ENUM_BOUND, snf_bound=DEFAULT_SNF_BOUND):
    """Brute-force dimension (and optionally torsion) of the presentation,
    over the sign classes for the minus variant."""
    t0 = time.perf_counter()
    variant = Variant.parse(variant)
    if variant is Variant.MINUS:
        reps = sign_class_reps(group, n, enum_bound)
        rel = _sign_class_matrix(group, reps, n)
        count = _key_count(group, reps)
    else:
        system = build_relations(group, n, variant, bound=enum_bound)
        rel, count = system.rel, len(system.basis)
    rank, torsion = _rank_and_torsion(rel, want_torsion, snf_bound)
    ms = (time.perf_counter() - t0) * 1000.0
    return DimensionReport(group, n, variant, "BRUTE", rel.ncols - rank,
                           torsion, count, ms)


def dimension_graded(group, variant, want_torsion=False,
                     enum_bound=DEFAULT_ENUM_BOUND,
                     snf_bound=DEFAULT_SNF_BOUND):
    """Dimension via the determinant grading (n = 2, Z/N x Z/MN, N >= 3).

    All determinant classes are isomorphic, so only the class of 1 is
    presented and the result is scaled by the number of classes.  Still a
    brute-force computation, merely sharded.  A sign flip negates the
    determinant, so the class of 1 is a union of sign classes.
    """
    t0 = time.perf_counter()
    variant = Variant.parse(variant)
    classes = det_classes(group)
    if variant is Variant.MINUS:
        in_class = in_det_class(group, classes[0])
        reps = [r for r in sign_class_reps(group, 2, enum_bound)
                if in_class(r)]
        rel = _sign_class_matrix(group, reps, 2)
        count = _key_count(group, reps)
    else:
        keys = enumerate_det_class(group, classes[0], bound=enum_bound)
        rel = build_relations(group, 2, variant, keys=keys).rel
        count = len(keys)
    rank, per_class = _rank_and_torsion(rel, want_torsion, snf_bound)
    torsion = tuple(sorted(per_class * len(classes)))
    dim = (rel.ncols - rank) * len(classes)
    ms = (time.perf_counter() - t0) * 1000.0
    return DimensionReport(group, 2, variant, "BRUTE", dim, torsion,
                           count * len(classes), ms)


def kernel_generators(group, n, bound=DEFAULT_ENUM_BOUND):
    """Spanning set of the kernel of the plain -> minus projection.

    One formal sum e_key + e_(key with one entry negated) per key and
    position, deduplicated: the rows of `kernel_rows`.
    """
    if n < 2:
        raise ValueError("kernel generators need n >= 2")
    keys = enumerate_generators(group, n, bound=bound)
    return [FormalSum({keys[c]: v for c, v in row.items()})
            for row in kernel_rows(group, n, keys)]


def kernel_rows(group, n, keys):
    """The kernel generators as sparse rows over the indexed keys; they are
    the minus variant's sign rows."""
    codes = [key.codes for key in keys]
    return _sign_rows(group, codes, {t: i for i, t in enumerate(codes)}, n)


def kernel_dimension(group, n, enum_bound=DEFAULT_ENUM_BOUND):
    """dim over Q of the kernel of plain -> minus, as a dimension drop."""
    plain = dimension(group, n, Variant.PLAIN, enum_bound=enum_bound)
    minus = dimension(group, n, Variant.MINUS, enum_bound=enum_bound)
    return plain.dim_q - minus.dim_q


def kernel_span_dimension(group, n, enum_bound=DEFAULT_ENUM_BOUND):
    """Rank added by the kernel generators over the plain relation span."""
    system = build_relations(group, n, Variant.PLAIN, bound=enum_bound)
    if not system.basis:
        return 0
    base = rank_over_Q(system.rel)
    krows = kernel_rows(group, n, system.basis)
    total = rank_over_Q(system.rel.with_rows(krows))
    return total - base


# -- closed forms -------------------------------------------------------------


def _psi_product(n):
    """n * prod over p | n of (1 + 1/p), as an exact integer."""
    num, den = n, 1
    for p in prime_factors(n):
        num *= p + 1
        den *= p
    require(num % den == 0, "psi product of %d is not an integer", n)
    return num // den


def _euler_index(n):
    """n^2 * prod over p | n of (1 - 1/p^2), as an exact integer."""
    val = Fraction(n * n)
    for p in prime_factors(n):
        val *= Fraction(p * p - 1, p * p)
    require(val.denominator == 1, "Euler index of %d is not an integer: %s",
            n, val)
    return int(val)


def _require_integral(group, dim):
    require(dim.denominator == 1,
            "closed-form minus dimension of %s is not an integer: %s",
            group.literal(), dim)


def formula_minus(group):
    """(dim, torsion) of the minus module at n = 2 per the closed forms.

    Covers cyclic groups, Z/2 x Z/2M (M >= 3), Z/N x Z/MN (N >= 3), and the
    finite exceptional list; everything else is zero.
    """
    form = group.invariant_form()
    if len(form) == 0:
        return 0, ()
    if len(form) == 1:
        n = form[0]
        if n in (2, 3):
            return 0, (2,)
        if n == 4:
            return 0, (2, 2)
        phi = totient(n)
        # dim = 1 - (phi(N) [+ phi(N/2)])/2 + N*phi(N)/24 * prod(1 + 1/p)
        quarter = Fraction(phi * _psi_product(n), 24)
        if n % 2:
            dim = Fraction(1) - Fraction(phi, 2) + quarter
            tors = phi - 1
        else:
            phi_half = totient(n // 2)
            dim = Fraction(1) - Fraction(phi + phi_half, 2) + quarter
            tors = phi + phi_half - 1
        _require_integral(group, dim)
        return int(dim), (2,) * tors
    if len(form) == 2:
        n1, n2 = form
        if n2 % n1:
            return 0, ()
        if n1 == 2:
            m = n2 // 2
            if m == 1:
                return 0, (2, 2)
            if m == 2:
                return 0, ()
            # M^2/3 * prod over p | 2M of (1 - 1/p^2) = euler_index(2M)/12
            dim = (Fraction(1) - totient(m) - Fraction(totient(2 * m), 2)
                   + Fraction(_euler_index(2 * m), 12))
            _require_integral(group, dim)
            tors = 2 * totient(m) + totient(2 * m) - 1
            return int(dim), (2,) * tors
        # N >= 3: torsion free, phi(N)/2 isomorphic determinant classes;
        # M^2 N^3/12 * prod over p | MN of (1 - 1/p^2) = N*euler_index(MN)/12
        dim = Fraction(totient(n1), 2) * (
            1 + Fraction(n1 * _euler_index(n2), 12))
        _require_integral(group, dim)
        return int(dim), ()
    return 0, ()


def difference_formula(group):
    """Closed form for dim(plain) - dim(minus) at n = 2.

    Defined for cyclic groups of order > 5 and for Z/p x Z/p.
    """
    form = group.invariant_form()
    if len(form) == 1 and form[0] > 5:
        n = form[0]
        half = Fraction(totient(n), 2)
        if n % 2 == 0:
            half = Fraction(totient(n) + totient(n // 2), 2)
        mix = sum(totient(d) * totient(n // d)
                  for d in divisors(n) if 3 <= d <= n // 3)
        total = half + Fraction(mix, 4)
        require(total.denominator == 1,
                "difference formula of %s is not an integer: %s",
                group.literal(), total)
        return int(total)
    if len(form) == 2 and form[0] == form[1]:
        p = form[0]
        if prime_factors(p) == [p]:
            return (p + 1) * (p - 1) ** 2 // 4
    raise ValueError("no difference closed form for %s" % group.literal())


def pxp_closed_forms(p):
    """(dim plain, dim minus) for Z/p x Z/p at n = 2."""
    return ((p - 1) * (p ** 3 + 6 * p * p - p + 6) // 24,
            (p - 1) * (p ** 3 - p + 12) // 24)


def formula_dimension(group, n, variant, want_torsion=False):
    """Closed-form DimensionReport where the theory provides one.

    The minus variant at n = 2 is covered for every group; the plain
    variant only where the difference formula applies.
    """
    t0 = time.perf_counter()
    variant = Variant.parse(variant)
    if n != 2:
        raise ValueError("closed forms are available only for n = 2")
    mdim, mtors = formula_minus(group)
    if variant is Variant.MINUS:
        dim, torsion = mdim, mtors
    elif variant is Variant.PLAIN:
        dim, torsion = mdim + difference_formula(group), ()
    else:
        raise ValueError("no closed form for variant %s" % variant.value)
    if not want_torsion:
        torsion = ()
    ms = (time.perf_counter() - t0) * 1000.0
    return DimensionReport(group, n, variant, "FORMULA", dim, torsion, 0, ms)
