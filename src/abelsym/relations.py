"""Relation systems presenting the symbol-module variants.

The plain module imposes the blowup relation (every symbol equals the sum of
its two one-step modifications); the minus variant adds the sign relation
(negating one entry negates the symbol); the plus variant exists only for
length-1 symbols and identifies a character with its negative.  Reordering
is not a matrix row here: the basis is already canonical (sorted) keys, so
every relation is taken at every position pair.  Rows are built on the
keys' code tuples, each difference read off the codes' digits, and each
relation once, by rules proved in the builders, as modular-symbols codes
build Manin's relation once per orbit; no pass hashes repeats away after.
The images keep the key's span, so they are looked up in the basis without
re-validating them.  `_blowup_rows` builds the blowups; `build_relations`
appends the minus variant's sign rows from `_sign_rows`, which
`kernel_generators` and the kernel checks read too.  A system holds its
basis as code tuples and builds the keys only when `basis` is read.  The
library's own minus computations (`dimension`, `dimension_graded`,
`iso_check`) fold the sign rows into the columns instead, as
modular-symbols codes quotient by the two-term relations first: with
lo[c] = min(c, -c), a code tuple is (-1)^(entries
with lo[c] != c) times its representative (rep), its sorted lo codes, and
a rep with a self-inverse entry gets 2 e_rep = 0.  One pass over the reps,
never the keys, counts the keys and builds each folded row from the least
sign class its relation touches.

Dimensions over Q come from exact ranks of the relation matrix; torsion of
the presented quotient from its Smith normal form.  The closed forms of the
accompanying theory (minus-variant dimensions and torsion, and the
plain-minus difference) are implemented alongside for cross-checking.
"""

from __future__ import annotations

import enum
import time
from bisect import bisect_left
from fractions import Fraction
from math import prod

from .abelian import code_tuples, negation_codes, parse_group, sum_codes
from .arith import (as_int, divisors, exact_quotient, jordan2, prime_factors,
                    totient)
from .exactla import (DEFAULT_SNF_BOUND, SparseIntMatrix, _nonzero_divisors,
                      _smith_form, sparse_add)
from .symbols import (DEFAULT_ENUM_BOUND, SymbolKey, _builder, _code_sum,
                      _generating_codes, det_class_groups, det_classes,
                      det_graded, replace_code, sign_class_groups)

__all__ = [
    "Variant", "DimensionReport", "build_relations", "dimension",
    "dimension_graded", "formula_dimension", "formula_minus",
    "difference_formula", "pxp_closed_forms", "kernel_dimension",
    "kernel_generators",
]


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
    """Relation rows over columns held as code tuples.

    `codes` lists the columns' code tuples (a key's codes, a coset's quad)
    and `space` is where they are read, as a FormalSum's; `index` takes a
    code tuple to its column.  `basis`, the columns' keys or cosets, is
    built on first read and then kept; a caller's keys are the basis as
    given.
    """

    __slots__ = ("group", "n", "variant", "codes", "space", "rel", "index",
                 "_basis")

    def __init__(self, group, n, variant, codes, space, rel, index):
        self.group, self.n, self.variant = group, n, variant
        self.codes, self.space, self.rel, self.index = codes, space, rel, index
        self._basis = None

    @property
    def basis(self):
        if self._basis is None:
            self._basis = list(map(_builder(self.space), self.codes))
        return self._basis

    def vector(self, fsum):
        """A FormalSum over the basis as a sparse row dict, in the sum's
        order, each code tuple looked up in `index`.  A sum over another
        space raises KeyError, as a tuple outside the basis does, naming
        its first such term.
        """
        index = self.index if fsum.space == self.space else {}
        row = {}
        try:
            for t, c in fsum.codes.items():
                row[index[t]] = c
        except KeyError:
            raise KeyError("key %r is not in the basis"
                           % (_builder(fsum.space)(t),)) from None
        return row

    def __repr__(self):
        return "RelationSystem(%s, n=%d, %s, %d keys, %d rows)" % (
            self.group.literal(), self.n, self.variant.value,
            len(self.codes), self.rel.nrows)


def _blowup_rows(group, codes, index, n):
    """The blowup rows e_t - e_(t, b_i -> b_i - b_j) - e_(t, b_j -> b_j -
    b_i) at every key t and pair i < j, each built once, first occurrences
    in (key, pair) order.

    With a = t[i] <= b = t[j] and x = a - b, read off the codes' digits by
    `sum_codes`, the image at i is t itself iff b = 0 and the one at j iff
    a = 0 (code 0 is the zero character, the least code, so b = 0 forces
    a = 0); the two images are one key iff a = b.  So a = 0 gives the
    one-term row -e(t with a replaced by -b), a = b != 0 gives {k: 1,
    u: -2}, and otherwise the three columns are distinct.  The row depends
    only on a, b and the other entries, and keys are sorted, so pair (i, j)
    repeats (i - 1, j) when t[i - 1] = a and (i, j - 1) when j - 1 > i and
    t[j - 1] = b; those are skipped.  Other rows of two or three terms never
    repeat: their one positive entry is their key's, and at one key their
    columns fix a and b (t less a plus a - b is t less a' plus a' - b' only
    if a' = a and b' = b, as b, b' != 0, and is t less b' plus b' - a' only
    if a = b' and b = a').  One-term rows do repeat at other keys (on
    Z/2 at n = 4, (0,0,1,1) at (0, 1) and (0,0,0,1) at (0, 3)), so each is
    kept once, by its column.  Coefficients sum to -1, so no row is zero or
    another's negative.  At n = 2 the one pair (0, 1) has no earlier pair to
    repeat, so that branch drops the pair loop and sorts both images inline.
    """
    neg = negation_codes(group)
    spread, wrap = sum_codes(group)
    rows, ones = [], set()
    if n == 2:
        for k, (a, b) in enumerate(codes):
            x = wrap[spread[a] + spread[neg[b]]]
            u = index[(x, b) if x <= b else (b, x)]
            if a == 0:
                if u not in ones:
                    ones.add(u)
                    rows.append({u: -1})
            elif a == b:
                rows.append({k: 1, u: -2})
            else:
                y = neg[x]
                rows.append({k: 1, u: -1,
                             index[(a, y) if a <= y else (y, a)]: -1})
        return rows
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for k, t in enumerate(codes):
        for i, j in pairs:
            a, b = t[i], t[j]
            if i and t[i - 1] == a or j > i + 1 and t[j - 1] == b:
                continue
            x = wrap[spread[a] + spread[neg[b]]]
            u = index[replace_code(t, i, x)]
            if a == 0:
                if u not in ones:
                    ones.add(u)
                    rows.append({u: -1})
            elif a == b:
                rows.append({k: 1, u: -2})
            else:
                rows.append({k: 1, u: -1,
                             index[replace_code(t, j, neg[x])]: -1})
    return rows


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


def _sign_class_matrix(group, groups, n):
    """The minus relation matrix over the sorted reps, given as groups, the
    sign rows folded in, and the number of keys the reps stand for.

    Folding ignores negating the whole key and flips off {i, j}, so the
    blowup at any key folds to +- the (i, j) blowup at a rep r, or at r
    with entry j negated (s = -1) unless entry i or j is self-inverse.  A
    rep with a self-inverse entry gets the row {k: 2}.  A blowup row's
    other columns are the classes of x = a - s b, read off the codes'
    digits by `sum_codes`, and y = -x (b - a is -(a - b)).  A rep stands
    for m + 1 keys for each code c with -c != c it holds m times.

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
    this row by row on 273 groups.  The rule reads codes before any index
    lookup: reps are indexed in sorted code order and a <= b, so with
    c = lo[x] the column v = (a, c) sorted precedes k = (a, b) iff c < b,
    and c >= b puts u = (b, c) after k too, all three distinct unless
    a = b or c = b.  The column of (b, c) is the count of reps in the
    groups before b's plus c's place in b's completions, by bisection; it
    is a rep, as it spans with (a, b) and has its determinant up to sign.

    At n >= 3 the proof runs pair by pair: with the other entries held
    fixed, the blowup at positions (i, j) is in Q the triple relation of
    (b, a - s b, -a), whose three pairs, completed by those entries, are
    the classes k, u, v.  So a row is again kept only when k <= u and
    k <= v.  A rep holding the values a, b at several pairs of positions
    builds the same rows at each, so (i, j) is skipped when r[i - 1] = a,
    or j - 1 > i and r[j - 1] = b.  At one rep and pair, rows with k, u, v
    distinct differ in u (a - b = +-(a + b) makes a or b self-inverse).
    Where a column cancels, several reps can make the same one-term row
    (on Z/4 at n = 3 the reps (0, 0, 1) and (0, 1, 1) both give
    +-e(0, 1, 1)); each is kept once, by its column and |coefficient|.
    The tests check on every n >= 3 case they run that no kept row repeats
    up to sign.
    """
    neg = negation_codes(group)
    lo = [min(c, d) for c, d in enumerate(neg)]
    sg = [1 if c == d else -1 for c, d in enumerate(lo)]
    flip = [c != d for c, d in enumerate(neg)]
    spread, wrap = sum_codes(group)
    rows, count = [], 0
    if n == 2:
        first, comps, k = [0] * len(neg), [()] * len(neg), 0
        for (a,), cs in groups:
            first[a], comps[a] = k, cs
            k += len(cs)
        k = 0
        for (a,), cs in groups:
            fa, sa, fk = flip[a], spread[a], first[a]
            for b in cs:
                fb = flip[b]
                both = fa and fb
                if not both:
                    rows.append({k: 2})
                count += (1 + fa) * (1 + fb) if a != b else 1 + 2 * fa
                x = wrap[sa + spread[neg[b]]]   # s = 1: x = a - b
                c = lo[x]
                if c >= b:  # kept where its triple has the least rep
                    u = first[b] + bisect_left(comps[b], c)
                    v = fk + bisect_left(cs, c)
                    su, sv = -sg[x], -sg[neg[x]]
                    rows.append({k: 1, u: su, v: sv} if a != b != c else
                                sparse_add({k: 1}, ((u, su), (v, sv))))
                if both:    # s = -1: x = a + b; else the s = 1 row again
                    x = wrap[sa + spread[b]]
                    c = lo[x]
                    if c >= b:
                        u = first[b] + bisect_left(comps[b], c)
                        v = fk + bisect_left(cs, c)
                        su, sv = sg[x], -sg[neg[x]]
                        rows.append({k: -1, u: su, v: sv} if a != b != c
                                    else sparse_add({k: -1},
                                                    ((u, su), (v, sv))))
                k += 1
        return SparseIntMatrix.trusted(k, rows), count
    reps = code_tuples(groups)
    index = {t: k for k, t in enumerate(reps)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    ones = set()
    for k, r in enumerate(reps):
        if not all(flip[c] for c in r):
            rows.append({k: 2})
        count += prod(r.count(c) + 1 for c in set(r) if flip[c])
        for i, j in pairs:
            a, b = r[i], r[j]
            if i and r[i - 1] == a or j > i + 1 and r[j - 1] == b:
                continue  # the rows at (i - 1, j) or (i, j - 1) again
            # the s = -1 row is the s = 1 row again unless both entries flip
            for s, d in ((1, neg[b]), (-1, b))[:1 + (flip[a] and flip[b])]:
                x = wrap[spread[a] + spread[d]]
                u = index[replace_code(r, i, lo[x])]
                v = index[replace_code(r, j, lo[x])]
                if k > u or k > v:
                    continue  # kept where its triple has the least rep
                row = sparse_add({k: s}, ((u, -s * sg[x]),  # odd sum: never 0
                                          (v, -sg[neg[x]])))
                if len(row) == 1:
                    (c, e), = row.items()
                    if (c, abs(e)) in ones:
                        continue
                    ones.add((c, abs(e)))
                rows.append(row)
    return SparseIntMatrix.trusted(len(reps), rows), count


def _negation_columns(group, n, codes, index):
    """The column of each code tuple's global negation (every entry
    negated, then sorted), or None when one is not a column or every column
    is its own."""
    neg = negation_codes(group)
    get = index.get
    if n == 2:
        sigma = [get((neg[y], neg[x]) if neg[y] <= neg[x] else
                     (neg[x], neg[y])) for x, y in codes]
    else:
        sigma = [get(tuple(sorted([neg[c] for c in t]))) for t in codes]
    if None in sigma or all(s == c for c, s in enumerate(sigma)):
        return None
    return sigma


def build_relations(group, n, variant, keys=None, bound=DEFAULT_ENUM_BOUND):
    """Relation system for (group, n, variant).

    `keys` restricts the basis (used for determinant-class subsystems). It
    must hold length-n keys over `group` and be closed under the rows'
    images, as each determinant class is, since the relations never leave
    one; otherwise ValueError names the first bad key or missing image.
    Without `keys` the basis is enumerated as code tuples.

    Every variant's relations commute with the global sign flip sigma,
    which negates every entry of a key: sigma maps a blowup row to the
    blowup row at the flipped key, a sign row to a sign row, and a plus row
    to its negative.  So the matrix's row span is sigma-invariant, and its
    column map (`_negation_columns`, built with the rows) goes with it for
    `SpanChecker`; there is none when `keys` is not closed under sigma or
    sigma fixes every column (exponent <= 2).

    `SpanChecker` keeps one row of each pair r, +-sigma r by the row's
    first column c: those with sigma(c) >= c.  Proof, row family by
    family.  A blowup row with a key entry (both branches) or a plus row
    starts at its own key k, and sigma r is +- the row built at sigma k
    (at n >= 3 the pair-skip rule builds it at sigma k through another pair
    of positions), which starts at sigma k; so exactly one of the two is
    kept, or the one row when sigma k = k.  A one-term row {u: -1}, kept
    once per column, has {sigma u: -1} among the rows too, and exactly one
    of them is kept.  A sign row {k: 1, j: 1} with k < j, or {k: 2}, starts
    at k.  If it is dropped (sigma k < k), sigma r = {sigma k, sigma j} is
    kept: it starts at m = min(sigma k, sigma j), and if m = sigma k then
    sigma m = k > m, while if m = sigma j < sigma k then sigma m = j > k >
    sigma k > m.  Both rows of a sign pair may be kept; the repeated fold
    is cleared to an empty row by the elimination.  The rule compares
    indices only, so it holds on any sigma-closed `keys` basis in any
    order.
    """
    variant = Variant.parse(variant)
    if variant is Variant.PLUS and n != 1:
        raise ValueError("the plus variant is defined only for n = 1")
    if keys is None:
        codes = code_tuples(_generating_codes(group, n, bound))
    else:
        keys = list(keys)
        for key in keys:
            if (not isinstance(key, SymbolKey) or key.group is not group
                    or len(key.codes) != n):
                raise ValueError("basis key %r is not a length-%d key over "
                                 "%s" % (key, n, group.literal()))
        codes = [key.codes for key in keys]
    index = {t: i for i, t in enumerate(codes)}
    try:
        if variant is Variant.PLUS:
            neg = negation_codes(group)
            rows = [{k: 1, index[(neg[c],)]: -1}
                    for k, (c,) in enumerate(codes) if neg[c] != c]
        else:
            rows = _blowup_rows(group, codes, index, n)
        if variant is Variant.MINUS:
            rows += _sign_rows(group, codes, index, n)
    except KeyError as exc:
        if keys is None:
            raise
        raise ValueError("basis is not closed under the relations: %r is "
                         "missing" % SymbolKey(group, exc.args[0])) from None
    rel = SparseIntMatrix.trusted(len(codes), rows)
    rel._sigma = _negation_columns(group, n, codes, index)
    system = RelationSystem(group, n, variant, codes, (SymbolKey, group), rel,
                            index)
    system._basis = keys
    return system


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
    wanted.  Eliminates `rel`'s rows in place: its callers build it for
    this one call."""
    if not want_torsion:
        return len(_nonzero_divisors(rel.rows, rel.ncols)), ()
    snf = _smith_form(rel, snf_bound)
    return snf.rank, snf.torsion


def dimension(group, n, variant, want_torsion=False,
              enum_bound=DEFAULT_ENUM_BOUND, snf_bound=DEFAULT_SNF_BOUND):
    """Brute-force dimension (and optionally torsion) of the presentation,
    over the sign classes for the minus variant.

    At n = 2 on a group written Z/N x Z/MN with N >= 3 (`det_graded`; 3x9,
    not 9x3) one determinant class is presented and the answer scaled, as
    `dimension_graded` does: the same dimension, torsion and generator
    count, with `snf_bound` checked on that class's system.
    """
    t0 = time.perf_counter()
    variant = Variant.parse(variant)
    # as the walk does, so the graded route refuses n = 2.0 too
    n = as_int(n, "symbol length n must be an integer, got %r", n)
    if n == 2 and det_graded(group):
        return dimension_graded(group, variant, want_torsion, enum_bound,
                                snf_bound)
    if variant is Variant.MINUS:
        groups = sign_class_groups(group, n, enum_bound)
        rel, count = _sign_class_matrix(group, groups, n)
    else:
        system = build_relations(group, n, variant, bound=enum_bound)
        rel, count = system.rel, len(system.codes)
    rank, torsion = _rank_and_torsion(rel, want_torsion, snf_bound)
    ms = (time.perf_counter() - t0) * 1000.0
    return DimensionReport(group, n, variant, "BRUTE", rel.ncols - rank,
                           torsion, count, ms)


def dimension_graded(group, variant, want_torsion=False,
                     enum_bound=DEFAULT_ENUM_BOUND,
                     snf_bound=DEFAULT_SNF_BOUND):
    """Dimension via the determinant grading (n = 2, Z/N x Z/MN, N >= 3).

    The route `dimension` takes at n = 2 on such a group, callable on its
    own; a group of another shape raises ValueError.  All determinant
    classes are isomorphic, so only the class of 1 is presented: the
    dimension and the generator count are scaled by the number of classes,
    and each torsion divisor repeats once per class.  Still a brute-force
    computation, merely sharded.  A sign flip negates the determinant, so
    the class of 1 is a union of sign classes.  The class's code pairs, or
    its sign classes' reps for the minus variant, are built directly by
    `det_class_groups`, so no other pair is walked and no key is built.
    """
    t0 = time.perf_counter()
    variant = Variant.parse(variant)
    classes = det_classes(group)
    if variant is Variant.PLUS:
        raise ValueError("the plus variant is defined only for n = 1")
    if variant is Variant.MINUS:
        groups = det_class_groups(group, classes[0], enum_bound, reps=True)
        rel, count = _sign_class_matrix(group, groups, 2)
    else:
        codes = code_tuples(det_class_groups(group, classes[0], enum_bound))
        index = {t: i for i, t in enumerate(codes)}
        rel = SparseIntMatrix.trusted(
            len(codes), _blowup_rows(group, codes, index, 2))
        count = len(codes)
    rank, per_class = _rank_and_torsion(rel, want_torsion, snf_bound)
    torsion = tuple(sorted(per_class * len(classes)))
    dim = (rel.ncols - rank) * len(classes)
    ms = (time.perf_counter() - t0) * 1000.0
    return DimensionReport(group, 2, variant, "BRUTE", dim, torsion,
                           count * len(classes), ms)


def kernel_generators(group, n, bound=DEFAULT_ENUM_BOUND):
    """Spanning set of the kernel of the plain -> minus projection.

    One formal sum e_key + e_(key with one entry negated) per key and
    position, deduplicated: the minus variant's sign rows.
    """
    if n < 2:
        raise ValueError("kernel generators need n >= 2")
    codes = code_tuples(_generating_codes(group, n, bound))
    index = {t: i for i, t in enumerate(codes)}
    return [_code_sum({codes[c]: Fraction(v) for c, v in row.items()},
                      (SymbolKey, group))
            for row in _sign_rows(group, codes, index, n)]


def kernel_dimension(group, n, enum_bound=DEFAULT_ENUM_BOUND):
    """dim over Q of the kernel of plain -> minus, as a dimension drop."""
    plain = dimension(group, n, Variant.PLAIN, enum_bound=enum_bound)
    minus = dimension(group, n, Variant.MINUS, enum_bound=enum_bound)
    return plain.dim_q - minus.dim_q


# -- closed forms -------------------------------------------------------------


def formula_minus(group):
    """(dim, torsion) of the minus module at n = 2 per the closed forms.

    Covers cyclic groups, Z/2 x Z/2M (M >= 3), Z/N x Z/MN (N >= 3), and the
    finite exceptional list; everything else is zero.  With J_2 Jordan's
    totient (`jordan2`), the dimensions are exact quotients over Z:
    1 - phis/2 + J_2(N)/24 on Z/N, with phis = phi(N), plus phi(N/2) for
    even N, and torsion (Z/2)^(phis - 1) (J_2(N)/24 is phi(N) psi(N)/24);
    1 - phi(M) - phi(2M)/2 + J_2(2M)/12 on Z/2 x Z/2M; and
    phi(N)(12 + N J_2(MN))/24 on Z/N x Z/MN.
    """
    form = group.invariant_form()
    if len(form) == 1:
        n = form[0]
        if n in (2, 3):
            return 0, (2,)
        if n == 4:
            return 0, (2, 2)
        phis = totient(n) + (totient(n // 2) if n % 2 == 0 else 0)
        num, den = 24 - 12 * phis + jordan2(n), 24
        tors = phis - 1
    elif len(form) == 2 and form[0] == 2:
        m = form[1] // 2
        if m == 1:
            return 0, (2, 2)
        if m == 2:
            return 0, ()
        num = 12 - 12 * totient(m) - 6 * totient(2 * m) + jordan2(2 * m)
        den, tors = 12, 2 * totient(m) + totient(2 * m) - 1
    elif len(form) == 2:
        # N >= 3: torsion free, phi(N)/2 isomorphic determinant classes
        n1, n2 = form
        num, den = totient(n1) * (12 + n1 * jordan2(n2)), 24
        tors = 0
    else:
        return 0, ()
    return exact_quotient(num, den, "closed-form minus dimension of %s is "
                          "not an integer: %s", group.literal()), (2,) * tors


def _odd_prime(p):
    return p > 2 and prime_factors(p) == [p]


def difference_formula(group):
    """Closed form for dim(plain) - dim(minus) at n = 2.

    Defined for cyclic groups of order > 5 and for Z/p x Z/p, p an odd
    prime.
    """
    form = group.invariant_form()
    if len(form) == 1 and form[0] > 5:
        n = form[0]
        phis = totient(n) + (totient(n // 2) if n % 2 == 0 else 0)
        mix = sum(totient(d) * totient(n // d)
                  for d in divisors(n) if 3 <= d <= n // 3)
        return exact_quotient(2 * phis + mix, 4, "difference formula of %s "
                              "is not an integer: %s", group.literal())
    if len(form) == 2 and form[0] == form[1] and _odd_prime(form[0]):
        p = form[0]
        return (p + 1) * (p - 1) ** 2 // 4
    raise ValueError("no difference closed form for %s" % group.literal())


def pxp_closed_forms(p):
    """(dim plain, dim minus) for Z/p x Z/p at n = 2, p an odd prime."""
    bad = "the Z/p x Z/p closed forms need an odd prime p, got %r"
    if not _odd_prime(as_int(p, bad, p)):
        raise ValueError(bad % (p,))
    return ((p - 1) * (p ** 3 + 6 * p * p - p + 6) // 24,
            (p - 1) * (p ** 3 - p + 12) // 24)


def formula_dimension(group, n, variant, want_torsion=False):
    """Closed-form DimensionReport where the theory provides one.

    The minus variant at n = 2 is covered for every group; the plain
    variant only where the difference formula applies, and without
    torsion, which its closed form does not give.
    """
    t0 = time.perf_counter()
    variant = Variant.parse(variant)
    n = as_int(n, "symbol length n must be an integer, got %r", n)
    if n != 2:
        raise ValueError("closed forms are available only for n = 2")
    mdim, mtors = formula_minus(group)
    if variant is Variant.MINUS:
        dim, torsion = mdim, mtors
    elif variant is Variant.PLAIN:
        dim, torsion = mdim + difference_formula(group), ()
        if want_torsion:    # after difference_formula's domain check
            raise ValueError("the plain closed form has no torsion part")
    else:
        raise ValueError("no closed form for variant %s" % variant.value)
    if not want_torsion:
        torsion = ()
    ms = (time.perf_counter() - t0) * 1000.0
    return DimensionReport(group, n, variant, "FORMULA", dim, torsion, 0, ms)
