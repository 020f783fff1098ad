"""Splitting and merging symbols along cyclic subgroups.

comultiply splits an n-entry symbol over G across a cyclic subgroup G' of G:
each summand keeps some entries, restricted to the dual of G', on the left,
and pushes the complementary entries, which must annihilate G', to the
quotient G/G' on the right.  multiply goes the other way, summing over all
lifts of the left entries.  nu assembles the sign-reduced left-size-one
comultiplication across every proper cyclic subgroup, psi is its one-sided
rational inverse, and verify_kernel_iso checks that the pair identifies the
kernel of the plain-to-minus projection in degree n with the direct sum of
the products  M_1^+(G') (x) M_{n-1}^-(G/G')  over those subgroups.

The maps run on code tuples (see symbols) with integer coefficients.  A
call lists the proper cyclic subgroups once and builds one `_Split` per
subgroup, kept only for that call: the quotient and Z/d, the annihilator
as ambient code -> quotient code, dual_restrict and the lifts per code,
and the minus reductions of quotient code tuples; one-code right sides
(all of n = 2) are read off a table.  A split runs over a whole code list,
so each battery splits a system once per subgroup and left size and sums
each row's image from the split images by linearity, inline.  The
comultiplication battery lists the plain tensor relations on code tuples
once per order, quotient and left size for both directions.  The
batteries use 2 psi, which has integer coefficients; span
membership is over Q, so the scaling changes no verdict.  The public maps
run the same routines on one-shot tables and return Fraction coefficients;
`multiply`, `psi` and `delta_sum` return FormalSums and `comultiply` and
`nu` TensorSums, which hold code tuples and build their keys only when
read, and the batteries read their relation systems' code tuples, never
their keys.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import gcd

from .abelian import (code_tuples, make_group, negation_codes,
                      proper_cyclic_subgroups, quotient_data, spans_dual)
from .arith import as_int
from .exactla import SparseIntMatrix, SpanChecker, row_signature, sparse_add
from .relations import Variant, _sign_rows, build_relations, dimension
from .symbols import (DEFAULT_ENUM_BOUND, SymbolKey, _builder, _code_sum,
                      sign_class_groups)

__all__ = [
    "TensorSum", "VerificationReport", "comultiply", "delta_sum",
    "minus_reduce", "multiply", "nu", "omega_generators", "plus_reduce",
    "psi", "verify_comultiplication", "verify_kernel_iso",
]
_COUNTS = tuple(map(Fraction, range(5)))    # delta_sum's shared term counts


def _minus_codes(group, codes):
    """minus_reduce on a code tuple over `group`: (rep codes, sign) or None.

    The rep holds min(c, -c) at each entry, which lowers every order
    statistic, so it is the least tuple of the orbit.  Negating a
    self-inverse entry keeps the key and flips the sign: the class is zero.
    Otherwise only negating the entries with -c < c reaches the rep, so the
    sign is the parity of their count.
    """
    neg = negation_codes(group)
    if any(neg[c] == c for c in codes):
        return None
    return (tuple(sorted(min(c, neg[c]) for c in codes)),
            (-1) ** sum(neg[c] < c for c in codes))


def _reduce(group, codes, variant):
    """(codes, sign) of a code tuple over `group` reduced by a variant tag,
    or None when the class is rationally zero (see `_minus_codes`)."""
    if variant is Variant.PLAIN:
        return codes, 1
    if variant is Variant.MINUS:
        return _minus_codes(group, codes)
    if len(codes) != 1:
        raise ValueError("plus reduction applies to single-entry keys only")
    return (min(codes[0], negation_codes(group)[codes[0]]),), 1


def minus_reduce(key):
    """Sign-orbit representative of a key under entrywise negation.

    Negating one entry flips the sign of the class, so the orbit of a key
    under all sign patterns carries a parity.  Returns (rep, sign) where rep
    is the lexicographically least key in the orbit and sign relates the
    input to it, or None when reps of both parities coincide; the class is
    then 2-torsion and rationally zero.
    """
    red = _reduce(key.group, key.codes, Variant.MINUS)
    return None if red is None else (SymbolKey(key.group, red[0]), red[1])


def plus_reduce(key):
    """Representative of a single-entry key under sign identification.

    The plus quotient glues e_a to e_{-a} with coefficient +1, so every
    class survives and the sign is always 1.
    """
    rep, sign = _reduce(key.group, key.codes, Variant.PLUS)
    return (key if rep == key.codes else SymbolKey(key.group, rep)), sign


class TensorSum:
    """Rational combination of (left, right) key pairs with sign reduction.

    Each side carries a variant tag deciding how keys are normalized on
    insertion: PLAIN keeps them as given, PLUS identifies a single entry
    with its negative, MINUS reduces to the sign-orbit representative and
    drops the rationally zero classes.  Like a `FormalSum`, the sum holds
    `codes`, {(left group, left codes, right group, right codes): Fraction},
    and builds its key pairs only when `terms`, `items` or `repr` read them.
    """

    __slots__ = ("left_variant", "right_variant", "codes")

    def __init__(self, left_variant, right_variant, terms=None):
        self.left_variant = Variant.parse(left_variant)
        self.right_variant = Variant.parse(right_variant)
        self.codes = sparse_add({}, self._reduced(terms or ()))

    def _reduced(self, terms):
        """(code pair, coeff) of each nonzero (left, right, coeff) term
        after sign reduction, rationally zero classes dropped."""
        for lkey, rkey, coeff in terms:
            coeff = Fraction(coeff)
            if not coeff:
                continue
            left = _reduce(lkey.group, lkey.codes, self.left_variant)
            right = _reduce(rkey.group, rkey.codes, self.right_variant)
            if left is not None and right is not None:
                yield ((lkey.group, left[0], rkey.group, right[0]),
                       coeff * left[1] * right[1])

    def __add__(self, other):
        if (self.left_variant is not other.left_variant
                or self.right_variant is not other.right_variant):
            raise ValueError("tensor sums carry different variant tags")
        out = TensorSum(self.left_variant, self.right_variant)
        out.codes = sparse_add(dict(self.codes), other.codes.items())
        return out

    def __eq__(self, other):
        return (isinstance(other, TensorSum)
                and self.left_variant is other.left_variant
                and self.right_variant is other.right_variant
                and self.codes == other.codes)

    def is_zero(self):
        return not self.codes

    @property
    def terms(self):
        return {(SymbolKey(lg, l), SymbolKey(rg, r)): c
                for (lg, l, rg, r), c in self.codes.items()}

    def items(self):
        return sorted(self.terms.items())

    def __repr__(self):
        if not self.codes:
            return "TensorSum(0)"
        bits = ["%s*%r(x)%r" % (c, l, r) for (l, r), c in self.items()]
        return "TensorSum(%s)" % " + ".join(bits)


class _Split:
    """Code tables of one proper cyclic subgroup, built for one call; `_one`
    (built on first use) is right((ann[c],)) per annihilator code c.
    `split` takes a whole code list and returns a fresh image per tuple, so
    a battery splits each system once per subgroup and left size."""

    __slots__ = ("sub", "q", "cyc", "emb", "ann", "restrict", "lifts",
                 "_one", "_right")

    def __init__(self, sub):
        q = self.q = quotient_data(sub.ambient, sub)
        d = sub.order
        self.sub, self.cyc = sub, make_group((d,))
        # quotient code -> ambient code; the image is the annihilator
        self.emb = [q.dual_embed(ch).code for ch in q.quotient.characters()]
        self.ann = {c: i for i, c in enumerate(self.emb)}
        restrict = [0]   # sum of digit * (d h / f) mod d, digit by digit
        for f, h in reversed(list(zip(sub.ambient.factors, sub.generator))):
            w = d * h // f
            restrict = [(x * w + r) % d for x in range(f) for r in restrict]
        self.restrict = restrict
        # the least code restricting to a: q.lift_restriction(a).code
        self.lifts = {a: restrict.index(a) for a in range(d) if gcd(a, d) == 1}
        self._one, self._right = None, {}

    def right(self, qcodes):
        """minus_reduce of a sorted quotient code tuple, or None when it is
        rationally zero or does not generate the quotient dual."""
        if qcodes not in self._right:
            quot = self.q.quotient
            chars = quot.characters()
            self._right[qcodes] = (
                _minus_codes(quot, qcodes)
                if spans_dual([chars[c] for c in qcodes], quot) else None)
        return self._right[qcodes]

    def split(self, code_list, nprime):
        """comultiply on each tuple of a list of code tuples, all of one
        length: one {(left residues, right rep): coeff} per tuple."""
        if not code_list:
            return []
        n = len(code_list[0])
        restrict, out = self.restrict, []
        if nprime == n - 1:     # one right entry: read off `_one`
            one = self._one
            if one is None:
                one = self._one = {c: self.right((i,))
                                   for c, i in self.ann.items()}
            if n == 2:          # the other entry is the left one
                for a, b in code_list:
                    image, ra, rb = {}, one.get(a), one.get(b)
                    if ra is not None:
                        image[(restrict[b],), ra[0]] = ra[1]
                    if rb is not None:
                        key = (restrict[a],), rb[0]
                        coeff = image.pop(key, 0) + rb[1]
                        if coeff:
                            image[key] = coeff
                    out.append(image)
                return out
            for codes in code_list:
                image = {}
                for j, c in enumerate(codes):
                    red = one.get(c)
                    if red is not None:
                        rest = [restrict[x] for x in codes]
                        del rest[j]
                        key = tuple(sorted(rest)), red[0]
                        coeff = image.pop(key, 0) + red[1]
                        if coeff:
                            image[key] = coeff
                out.append(image)
            return out
        ann = self.ann
        for codes in code_list:
            image = {}
            inside = [j for j, c in enumerate(codes) if c in ann]
            for right_pos in combinations(inside, n - nprime):
                qcodes = tuple(sorted(ann[codes[j]] for j in right_pos))
                red = self.right(qcodes)
                if red is not None:
                    key = (tuple(sorted(restrict[codes[i]] for i in range(n)
                                        if i not in right_pos)), red[0])
                    coeff = image.pop(key, 0) + red[1]
                    if coeff:
                        image[key] = coeff
            out.append(image)
        return out


def _merge(rec, left, right):
    """multiply on code tuples: {ambient codes: coeff}.  The lifts of a
    residue are the fibre of dual_restrict over it."""
    pushed = tuple(rec.emb[c] for c in right)
    lift_sets = [[c for c, r in enumerate(rec.restrict) if r == a]
                 for a in left]
    return Counter(tuple(sorted(lifts + pushed))
                   for lifts in product(*lift_sets))


def _psi2(rec, a, right):
    """2 psi(sub, a, right) on code tuples: {ambient codes: coeff}."""
    lift = rec.lifts[a]
    pushed = [rec.emb[c] for c in right]
    neg = negation_codes(rec.sub.ambient)
    return Counter(tuple(sorted(pushed + [c])) for c in (lift, neg[lift]))


def _nu(splits, rows):
    """nu on each code-tuple sum {codes: coeff} of a list: per row, one
    {((a,), right rep): coeff} per split, a identified with -a, zero ones
    kept.  Each split runs once, over the rows' distinct tuples."""
    tuples = list(dict.fromkeys(t for row in rows for t in row))
    out = [[] for _ in rows]
    for rec in splits:
        d = rec.sub.order
        images = dict(zip(tuples, rec.split(tuples, 1)))
        for row, comps in zip(rows, out):
            comp = {}
            for codes, coeff in row.items():
                for ((a,), right), c in images[codes].items():
                    key = (min(a, d - a),), right
                    total = comp.pop(key, 0) + c * coeff
                    if total:
                        comp[key] = total
            comps.append(comp)
    return out


def _omega(splits, n):
    """omega_generators with each right key as its code tuple."""
    out = []
    for rec in splits:
        quot = rec.q.quotient   # reps with a self-inverse entry are zero
        units = sorted({min(a, rec.sub.order - a) for a in rec.lifts})
        reps = [t for t in code_tuples(sign_class_groups(quot, n - 1))
                if _minus_codes(quot, t)]
        out += [(rec, a, right) for a in units for right in reps]
    return out


def _formal(group, terms, den=None):
    """FormalSum over `group` of {codes: coeff}, coefficients over den."""
    return _code_sum({t: Fraction(c, den) for t, c in terms.items()},
                     (SymbolKey, group))


def _tensor(left_variant, rec, terms):
    """TensorSum(left_variant, MINUS) of {(left residues, right): coeff}."""
    out = TensorSum(left_variant, Variant.MINUS)
    out.codes = {(rec.cyc, l, rec.q.quotient, r): Fraction(c)
                 for (l, r), c in terms.items()}
    return out


def multiply(sub, left, right):
    """Merge a key over a cyclic subgroup with a key over its quotient.

    Every entry of `left` (a key over Z/d, d the subgroup order) is replaced
    in turn by each of its lifts to the ambient dual; the entries of `right`
    are pulled back along the dual embedding of the quotient.  The result is
    the sum of the canonicalized ambient keys, one per lift tuple, all with
    coefficient one.
    """
    rec = _Split(sub)
    if left.group is not rec.cyc:
        raise ValueError("left key must live over Z/%d" % sub.order)
    if right.group is not rec.q.quotient:
        raise ValueError("right key must live over the quotient %s"
                         % rec.q.quotient.literal())
    return _formal(sub.ambient, _merge(rec, left.codes, right.codes))


def comultiply(sub, key, nprime):
    """Split an ambient key across a cyclic subgroup.

    Sums over the ways to choose `nprime` entry positions for the left
    factor such that the complementary entries all annihilate the subgroup
    and still span the annihilator.  Left entries are restricted to the
    subgroup's dual Z/d, complementary entries are identified with quotient
    characters, and each summand contributes the canonicalized pair with
    coefficient one.  The right side is reduced as a minus-variant key.
    """
    nprime = as_int(nprime, "left size nprime must be an integer, got %r",
                    nprime)
    if not 1 <= nprime < len(key):
        raise ValueError("left size must satisfy 1 <= nprime < n")
    if key.group is not sub.ambient:
        raise ValueError("key does not live over the subgroup's ambient group")
    rec = _Split(sub)
    if rec.q.quotient.order == 1:
        raise ValueError("the quotient is trivial; nothing to push right")
    return _tensor(Variant.PLAIN, rec, rec.split([key.codes], nprime)[0])


def nu(group, n, x):
    """Sign-reduced left-size-one splitting across every cyclic subgroup.

    Returns an ordered mapping from each proper cyclic subgroup of `group`
    (the trivial one included) to the comultiplication of `x` with a single
    left entry, left keys identified with their negatives.  Zero components
    are kept so callers can check vanishing.
    """
    if as_int(n, "symbol length n must be an integer, got %r", n) < 2:
        raise ValueError("the splitting map needs n >= 2")
    for t in x.codes:
        if len(t) != n or x.space != (SymbolKey, group):
            raise ValueError("summand %r does not have length %d over %s"
                             % (_builder(x.space)(t), n, group.literal()))
    splits = [_Split(sub) for sub in proper_cyclic_subgroups(group)]
    comps = _nu(splits, [x.codes])[0]
    return {rec.sub: _tensor(Variant.PLUS, rec, comp)
            for rec, comp in zip(splits, comps)}


def psi(sub, a, b):
    """Merge a unit residue with a quotient key, averaged over both signs.

    `a` is a residue mod the subgroup order d, required to be a unit so that
    its single character spans the dual of Z/d.  A fixed lift of a is chosen
    lexicographically; averaging the merges of the lifts of +-a makes the
    result independent of the sign ambiguity on the minus side.
    """
    d = sub.order
    a = as_int(a, "left residue a must be an integer, got %r", a) % d
    if gcd(a, d) != 1:
        raise ValueError("left residue %d is not a unit mod %d" % (a, d))
    rec = _Split(sub)
    if b.group is not rec.q.quotient:
        raise ValueError("right key must live over the quotient %s"
                         % rec.q.quotient.literal())
    return _formal(sub.ambient, _psi2(rec, a, b.codes), 2)


def delta_sum(key, i=0, j=1):
    """Four-term sign sum over a pair of entry positions.

    Flipping the signs of two fixed entries in all four combinations yields
    a sum that lies in the rational span of the blowup relations for every
    key; the membership is a useful end-to-end exactness probe.  Negating
    the entry at i or j permutes the four terms, so the sum is constant on
    the sign class at (i, j) (all of it at n = 2, where the positions stay
    put), and a `SpanChecker` answers the class's repeats from its memo.
    The sum holds sorted code tuples, which `is_zero` and
    `RelationSystem.vector` read; its keys are built when its terms are read.
    """
    codes, group = key.codes, key.group
    n = len(codes)
    if n < 2:
        raise ValueError("the sign sum needs keys with n >= 2")
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise ValueError("positions must be distinct and within the key")
    neg = negation_codes(group)
    ci, cj = codes[i], codes[j]
    ni, nj = neg[ci], neg[cj]
    # sign flips keep the span: the images need no re-validation
    if n == 2:
        flips = ((ci, nj) if ci <= nj else (nj, ci),
                 (ni, cj) if ni <= cj else (cj, ni),
                 (ni, nj) if ni <= nj else (nj, ni))
    else:
        rest = [c for k, c in enumerate(codes) if k != i and k != j]
        flips = [tuple(sorted(rest + [a, b]))
                 for a, b in ((ci, nj), (ni, cj), (ni, nj))]
    one, (f1, f2, f3) = _COUNTS[1], flips
    counts = {codes: one, f1: one, f2: one, f3: one}
    if len(counts) < 4:     # a term repeats: count them
        counts = dict.fromkeys(counts, 0)
        for t in (codes, f1, f2, f3):
            counts[t] += 1
        for t, c in counts.items():
            counts[t] = _COUNTS[c]
    return _code_sum(counts, (SymbolKey, group))


def omega_generators(group, n):
    """Deterministic spanning family of the split side.

    Yields (sub, residue, right_key) triples: the residue runs over the
    plus-classes of units mod the subgroup order and right_key over the
    degree n-1 quotient keys that are their own sign-orbit representative
    (classes that reduce to zero are dropped).
    """
    if as_int(n, "symbol length n must be an integer, got %r", n) < 2:
        raise ValueError("the split side needs n >= 2")
    splits = [_Split(sub) for sub in proper_cyclic_subgroups(group)]
    return [(rec.sub, a, SymbolKey(rec.q.quotient, right))
            for rec, a, right in _omega(splits, n)]


class VerificationReport:
    """Outcome of a batch of structure-map assertions on one group."""

    __slots__ = ("group", "n", "checks")

    def __init__(self, group, n, checks):
        self.group = group
        self.n = n
        self.checks = list(checks)

    @property
    def ok(self):
        return all(c["status"] == "pass" for c in self.checks)

    def to_json(self):
        return {"group": self.group.literal(), "n": self.n, "ok": self.ok,
                "checks": self.checks}

    def __repr__(self):
        return "VerificationReport(%s, n=%d, %s)" % (
            self.group.literal(), self.n, "ok" if self.ok else "FAIL")


def check_record(name, group, n, lhs, rhs, counterexample=None):
    """One VerificationReport check; it passes iff lhs == rhs."""
    entry = {"check": name, "group": group.literal(), "n": n,
             "status": "pass" if lhs == rhs else "fail",
             "lhs": lhs, "rhs": rhs}
    if counterexample is not None and entry["status"] == "fail":
        entry["counterexample"] = counterexample
    return entry


def verify_kernel_iso(group, n, enum_bound=DEFAULT_ENUM_BOUND):
    """Three checks that the split maps identify the projection kernel.

    (1) the kernel dimension equals the direct-sum dimension count over the
        proper cyclic subgroups,
    (2) nu(2 psi(omega)) returns 2 omega on the nose for every generator of
        the split side, vanishing in all other components,
    (3) psi applied to nu(gamma) differs from gamma by a rational relation
        for every kernel generator gamma (checked on 2 psi, which has
        integer coefficients).
    """
    if n < 2:
        raise ValueError("the kernel checks need n >= 2")
    checks = []
    splits = [_Split(sub) for sub in proper_cyclic_subgroups(group)]
    system = build_relations(group, n, Variant.PLAIN, bound=enum_bound)
    checker = SpanChecker(system.rel)

    lhs = len(system.codes) - checker.rank - dimension(
        group, n, Variant.MINUS, enum_bound=enum_bound).dim_q
    rhs = 0
    dims = {}   # (Z/d, quotient) -> dim M_1^+(Z/d) dim M_{n-1}^-(quotient)
    for rec in splits:
        shape = rec.cyc, rec.q.quotient
        if shape not in dims:
            dims[shape] = (dimension(rec.cyc, 1, Variant.PLUS).dim_q
                           * dimension(rec.q.quotient, n - 1, Variant.MINUS,
                                       enum_bound=enum_bound).dim_q)
        rhs += dims[shape]
    checks.append(check_record("kernel-dimension", group, n, lhs, rhs))

    gens = _omega(splits, n)
    passed = 0
    bad = None
    for (rec, a, right), comps in zip(gens, _nu(
            splits, [_psi2(rec, a, right) for rec, a, right in gens])):
        want = {((a,), right): 2}
        if all(comp == (want if other is rec else {})
               for other, comp in zip(splits, comps)):
            passed += 1
        elif bad is None:
            bad = "sub=%s a=%d right=%r" % (
                rec.sub.generator, a, SymbolKey(rec.q.quotient, right))
    checks.append(check_record("nu-psi-identity", group, n, passed,
                               len(gens), bad))

    # 2 psi nu is linear: the columns the sign rows touch are split once per
    # subgroup, and each image is summed from 2 psi images, each built once
    # per subgroup as (column, coeff) pairs.  The sums here and in
    # verify_comultiplication keep zero entries, which `contains` drops.
    codes, index = system.codes, system.index
    krows = _sign_rows(group, codes, index, n)
    cols = list(dict.fromkeys(c for row in krows for c in row))
    images = {col: {} for col in cols}
    for rec in splits:
        d, psis = rec.sub.order, {}
        for col, split in zip(cols, rec.split([codes[c] for c in cols], 1)):
            image = images[col]
            for ((a,), right), coeff in split.items():
                key = min(a, d - a), right      # nu: a ~ -a
                pairs = psis.get(key)
                if pairs is None:
                    pairs = psis[key] = [(index[t], c) for t, c
                                         in _psi2(rec, *key).items()]
                for t, c in pairs:
                    image[t] = image.get(t, 0) + coeff * c
    passed = 0
    bad = None
    for row in krows:
        diff = {c: -2 * v for c, v in row.items()}  # 2 (psi nu - 1) gamma
        for col, v in row.items():
            for t, c in images[col].items():
                diff[t] = diff.get(t, 0) + v * c
        if not any(diff.values()) or checker.contains(diff):
            passed += 1
        elif bad is None:
            bad = repr(_code_sum({codes[c]: Fraction(v)
                                  for c, v in row.items()}, system.space))
    checks.append(check_record("psi-nu-projection", group, n, passed,
                               len(krows), bad))
    return VerificationReport(group, n, checks)


def _tensor_target(rec, n, k, enum_bound):
    """The plain tensor relations of Z/d in degree k and the quotient in
    degree n - k as (left, right, coeff) terms, the index of the sign-reduced
    pairs, and a SpanChecker on the sign-reduced rows, each once up to sign:
    all depend on Z/d, the quotient and k alone."""
    lsys = build_relations(rec.cyc, k, Variant.PLAIN, bound=enum_bound)
    rsys = build_relations(rec.q.quotient, n - k, Variant.PLAIN,
                           bound=enum_bound)
    lcodes, rcodes = lsys.codes, rsys.codes
    tensor = [[(lcodes[c], r, v) for c, v in row.items()]
              for row in lsys.rel.rows for r in rcodes]
    tensor += [[(l, rcodes[c], v) for c, v in row.items()]
               for l in lcodes for row in rsys.rel.rows]

    # sign-reduced on the right: a row over a right key that is not its
    # own rep is +-1 times a rep's row, or vanishes
    reds = {r: rec.right(r) for r in rcodes}
    pair_index = {pair: i for i, pair in enumerate(
        (l, r) for l in lcodes for r in rcodes if reds[r] == (r, 1))}
    rows = {}
    for terms in tensor:
        row = sparse_add({}, ((pair_index[l, reds[r][0]], v * reds[r][1])
                              for l, r, v in terms if reds[r]))
        if row:
            rows.setdefault(row_signature(row), row)
    checker = SpanChecker(SparseIntMatrix.trusted(len(pair_index),
                                                  list(rows.values())))
    return tensor, pair_index, checker


def verify_comultiplication(group, n, enum_bound=DEFAULT_ENUM_BOUND):
    """Check that both transport directions respect the presentations.

    Pushing any blowup row through comultiply must land in the relation
    span of its target (plain tensor sign-reduced), for every proper cyclic
    subgroup and every left size; merging any relation of the plain tensor
    product through multiply must land back in the blowup span.  Both
    directions read one list of the plain tensor relations, shared, with
    its checker, by the subgroups of one order and quotient.  At n = 2
    neither tensor factor has relations of its own, so the split direction
    requires the pushed rows to vanish outright and the merge direction is
    vacuous.
    """
    if n < 2:
        raise ValueError("comultiplication checks need n >= 2")
    src = build_relations(group, n, Variant.PLAIN, bound=enum_bound)
    src_checker = SpanChecker(src.rel)  # factors at its first query
    fwd_pass = fwd_total = 0
    back_pass = back_total = 0
    fwd_bad = back_bad = None
    targets = {}    # (Z/d, quotient, left size) -> _tensor_target
    for sub in proper_cyclic_subgroups(group):
        rec = _Split(sub)
        for k in range(1, n):
            shape = rec.cyc, rec.q.quotient, k
            if shape not in targets:
                targets[shape] = _tensor_target(rec, n, k, enum_bound)
            tensor, pair_index, tensor_checker = targets[shape]

            images = [[(pair_index[pair], coeff)
                       for pair, coeff in image.items()]
                      for image in rec.split(src.codes, k)]
            for row in src.rel.rows:
                fwd_total += 1
                vec = {}
                for c, v in row.items():
                    for p, coeff in images[c]:
                        vec[p] = vec.get(p, 0) + coeff * v
                if not any(vec.values()) or tensor_checker.contains(vec):
                    fwd_pass += 1
                elif fwd_bad is None:
                    fwd_bad = "sub=%s nprime=%d row=%r" % (
                        sub.generator, k, row)

            merges = {}     # (left, right) -> [(source column, coeff)]
            for terms in tensor:
                back_total += 1
                image = {}
                for l, r, v in terms:
                    pairs = merges.get((l, r))
                    if pairs is None:
                        pairs = merges[l, r] = [(src.index[t], c) for t, c
                                                in _merge(rec, l, r).items()]
                    for t, c in pairs:
                        image[t] = image.get(t, 0) + c * v
                if not any(image.values()) or src_checker.contains(image):
                    back_pass += 1
                elif back_bad is None:
                    back_bad = "sub=%s nprime=%d row=%r" % (
                        sub.generator, k,
                        [(SymbolKey(rec.cyc, l),
                          SymbolKey(rec.q.quotient, r), v)
                         for l, r, v in terms])
    checks = [
        check_record("comultiplication-relations", group, n, fwd_pass,
                     fwd_total, fwd_bad),
        check_record("multiplication-relations", group, n, back_pass,
                     back_total, back_bad),
    ]
    return VerificationReport(group, n, checks)
