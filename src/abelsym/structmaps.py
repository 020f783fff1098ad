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
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import gcd

from .abelian import make_group, proper_cyclic_subgroups, quotient_data
from .exactla import SparseIntMatrix, SpanChecker, sparse_add
from .relations import (Variant, build_relations, dimension,
                        kernel_dimension, kernel_generators)
from .symbols import (DEFAULT_ENUM_BOUND, FormalSum, SymbolKey, canonicalize,
                      enumerate_generators)

__all__ = [
    "TensorSum", "VerificationReport", "check_record", "comultiply",
    "delta_sum", "minus_reduce", "multiply", "nu", "omega_generators",
    "plus_reduce", "psi", "verify_comultiplication", "verify_kernel_iso",
]


def minus_reduce(key):
    """Sign-orbit representative of a key under entrywise negation.

    Negating one entry flips the sign of the class, so the orbit of a key
    under all sign patterns carries a parity.  Returns (rep, sign) where rep
    is the lexicographically least key in the orbit and sign relates the
    input to it, or None when reps of both parities coincide; the class is
    then 2-torsion and rationally zero.
    """
    n = len(key)
    best = None
    parities = None
    for mask in range(1 << n):
        cand = SymbolKey(key.group, sorted(
            (-ch if (mask >> i) & 1 else ch).code for i, ch in enumerate(key)))
        par = bin(mask).count("1") & 1
        if best is None or cand < best:
            best = cand
            parities = {par}
        elif cand == best:
            parities.add(par)
    if len(parities) == 2:
        return None
    return best, (1 if 0 in parities else -1)


def plus_reduce(key):
    """Representative of a single-entry key under sign identification.

    The plus quotient glues e_a to e_{-a} with coefficient +1, so every
    class survives and the sign is always 1.
    """
    if len(key) != 1:
        raise ValueError("plus reduction applies to single-entry keys only")
    ch = key[0]
    rep = min(ch, -ch)
    return (key if rep is ch else SymbolKey(key.group, (rep.code,))), 1


def _reduce(key, variant):
    if variant is Variant.PLAIN:
        return key, 1
    if variant is Variant.PLUS:
        return plus_reduce(key)
    return minus_reduce(key)


class TensorSum:
    """Rational combination of (left, right) key pairs with sign reduction.

    Each side carries a variant tag deciding how keys are normalized on
    insertion: PLAIN keeps them as given, PLUS identifies a single entry
    with its negative, MINUS reduces to the sign-orbit representative and
    drops the rationally zero classes.
    """

    __slots__ = ("left_variant", "right_variant", "terms")

    def __init__(self, left_variant, right_variant, terms=None):
        self.left_variant = Variant.parse(left_variant)
        self.right_variant = Variant.parse(right_variant)
        self.terms = sparse_add({}, self._reduced(terms or ()))

    def _reduced(self, terms):
        """((left, right), coeff) of each nonzero (left, right, coeff) term
        after sign reduction, rationally zero classes dropped."""
        for lkey, rkey, coeff in terms:
            coeff = Fraction(coeff)
            if not coeff:
                continue
            lkey, lsign = _reduce(lkey, self.left_variant)
            right = _reduce(rkey, self.right_variant)
            if right is not None:
                yield (lkey, right[0]), coeff * lsign * right[1]

    def _require_same_tags(self, other):
        if (self.left_variant is not other.left_variant
                or self.right_variant is not other.right_variant):
            raise ValueError("tensor sums carry different variant tags")

    def __add__(self, other):
        self._require_same_tags(other)
        out = TensorSum(self.left_variant, self.right_variant)
        out.terms = sparse_add(dict(self.terms), other.terms.items())
        return out

    def scale(self, k):
        k = Fraction(k)
        out = TensorSum(self.left_variant, self.right_variant)
        if k:
            out.terms = {pair: coeff * k for pair, coeff in self.terms.items()}
        return out

    def __eq__(self, other):
        return (isinstance(other, TensorSum)
                and self.left_variant is other.left_variant
                and self.right_variant is other.right_variant
                and self.terms == other.terms)

    def is_zero(self):
        return not self.terms

    def items(self):
        return sorted(self.terms.items())

    def __repr__(self):
        if not self.terms:
            return "TensorSum(0)"
        bits = ["%s*%r(x)%r" % (c, l, r) for (l, r), c in self.items()]
        return "TensorSum(%s)" % " + ".join(bits)


def multiply(sub, left, right):
    """Merge a key over a cyclic subgroup with a key over its quotient.

    Every entry of `left` (a key over Z/d, d the subgroup order) is replaced
    in turn by each of its lifts to the ambient dual; the entries of `right`
    are pulled back along the dual embedding of the quotient.  The result is
    the sum of the canonicalized ambient keys, one per lift tuple, all with
    coefficient one.
    """
    q = quotient_data(sub.ambient, sub)
    cyc = make_group((sub.order,))
    for ch in left:
        if ch.group is not cyc:
            raise ValueError("left key must live over Z/%d" % sub.order)
    for ch in right:
        if ch.group is not q.quotient:
            raise ValueError("right key must live over the quotient %s"
                             % q.quotient.literal())
    pushed = tuple(q.dual_embed(ch) for ch in right)
    lift_sets = [q.dual_lifts(ch.residues[0]) for ch in left]
    terms = []
    for lifts in product(*lift_sets):
        terms.append((canonicalize(tuple(lifts) + pushed), Fraction(1)))
    return FormalSum(terms)


def comultiply(sub, key, nprime):
    """Split an ambient key across a cyclic subgroup.

    Sums over the ways to choose `nprime` entry positions for the left
    factor such that the complementary entries all annihilate the subgroup
    and still span the annihilator.  Left entries are restricted to the
    subgroup's dual Z/d, complementary entries are identified with quotient
    characters, and each summand contributes the canonicalized pair with
    coefficient one.  The right side is reduced as a minus-variant key.
    """
    n = len(key)
    if not 1 <= nprime < n:
        raise ValueError("left size must satisfy 1 <= nprime < n")
    ambient = sub.ambient
    if key.group is not ambient:
        raise ValueError("key does not live over the subgroup's ambient group")
    q = quotient_data(ambient, sub)
    if q.quotient.order == 1:
        raise ValueError("the quotient is trivial; nothing to push right")
    ann = frozenset(q.annihilator())
    emb_inv = {q.dual_embed(ch): ch for ch in q.quotient.characters()}
    cyc = make_group((sub.order,))
    terms = []
    for right_pos in combinations(range(n), n - nprime):
        rest = [key[j] for j in right_pos]
        if any(ch not in ann for ch in rest):
            continue
        qchars = tuple(emb_inv[ch] for ch in rest)
        try:
            rkey = canonicalize(qchars)
        except ValueError:
            # annihilating entries that do not span the annihilator
            continue
        taken = set(right_pos)
        lchars = tuple(cyc.character((q.dual_restrict(key[i]),))
                       for i in range(n) if i not in taken)
        terms.append((canonicalize(lchars), rkey, Fraction(1)))
    return TensorSum(Variant.PLAIN, Variant.MINUS, terms)


def nu(group, n, x):
    """Sign-reduced left-size-one splitting across every cyclic subgroup.

    Returns an ordered mapping from each proper cyclic subgroup of `group`
    (the trivial one included) to the comultiplication of `x` with a single
    left entry, left keys identified with their negatives.  Zero components
    are kept so callers can check vanishing.
    """
    if n < 2:
        raise ValueError("the splitting map needs n >= 2")
    out = {}
    for sub in proper_cyclic_subgroups(group):
        terms = []
        for key, coeff in x.items():
            if len(key) != n or key.group is not group:
                raise ValueError("summand %r does not have length %d over %s"
                                 % (key, n, group.literal()))
            part = comultiply(sub, key, 1)
            for (lkey, rkey), c in part.terms.items():
                terms.append((lkey, rkey, c * coeff))
        out[sub] = TensorSum(Variant.PLUS, Variant.MINUS, terms)
    return out


def psi(sub, a, b):
    """Merge a unit residue with a quotient key, averaged over both signs.

    `a` is a residue mod the subgroup order d, required to be a unit so that
    its single character spans the dual of Z/d.  A fixed lift of a is chosen
    lexicographically; averaging the merges of the lifts of +-a makes the
    result independent of the sign ambiguity on the minus side.
    """
    d = sub.order
    a = a % d
    if gcd(a, d) != 1:
        raise ValueError("left residue %d is not a unit mod %d" % (a, d))
    q = quotient_data(sub.ambient, sub)
    for ch in b:
        if ch.group is not q.quotient:
            raise ValueError("right key must live over the quotient %s"
                             % q.quotient.literal())
    pushed = tuple(q.dual_embed(ch) for ch in b)
    lift = q.lift_restriction(a)
    return FormalSum([
        (canonicalize((lift,) + pushed), Fraction(1, 2)),
        (canonicalize((-lift,) + pushed), Fraction(1, 2)),
    ])


def delta_sum(key, i=0, j=1):
    """Four-term sign sum over a pair of entry positions.

    Flipping the signs of two fixed entries in all four combinations yields
    a sum that lies in the rational span of the blowup relations for every
    key; the membership is a useful end-to-end exactness probe.
    """
    n = len(key)
    if n < 2:
        raise ValueError("the sign sum needs keys with n >= 2")
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise ValueError("positions must be distinct and within the key")
    terms = []
    for si in (1, -1):
        for sj in (1, -1):
            entries = list(key)
            entries[i] = si * key[i]
            entries[j] = sj * key[j]
            # sign flips keep the span: the image needs no re-validation
            terms.append((SymbolKey(key.group,
                                    sorted(ch.code for ch in entries)),
                          Fraction(1)))
    return FormalSum(terms)


def omega_generators(group, n):
    """Deterministic spanning family of the split side.

    Yields (sub, residue, right_key) triples: the residue runs over the
    plus-classes of units mod the subgroup order and right_key over the
    degree n-1 quotient keys that are their own sign-orbit representative
    (classes that reduce to zero are dropped).
    """
    if n < 2:
        raise ValueError("the split side needs n >= 2")
    out = []
    for sub in proper_cyclic_subgroups(group):
        d = sub.order
        q = quotient_data(group, sub)
        units = sorted({min(a, (d - a) % d)
                        for a in range(d) if gcd(a, d) == 1})
        reps = []
        for rkey in enumerate_generators(q.quotient, n - 1):
            red = minus_reduce(rkey)
            if red is not None and red[0] == rkey:
                reps.append(rkey)
        for a in units:
            for rkey in reps:
                out.append((sub, a, rkey))
    return out


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
        for every kernel generator gamma.
    """
    checks = []
    subs = proper_cyclic_subgroups(group)

    lhs = kernel_dimension(group, n, enum_bound=enum_bound)
    rhs = 0
    for sub in subs:
        q = quotient_data(group, sub)
        dplus = dimension(make_group((sub.order,)), 1, Variant.PLUS).dim_q
        dminus = dimension(q.quotient, n - 1, Variant.MINUS,
                           enum_bound=enum_bound).dim_q
        rhs += dplus * dminus
    checks.append(check_record("kernel-dimension", group, n, lhs, rhs))

    gens = omega_generators(group, n)
    passed = 0
    bad = None
    for sub, a, rkey in gens:
        image = nu(group, n, psi(sub, a, rkey).scale(2))
        cyc = make_group((sub.order,))
        want = TensorSum(Variant.PLUS, Variant.MINUS,
                         [(canonicalize((cyc.character((a,)),)), rkey,
                           Fraction(2))])
        ok = True
        for other, comp in image.items():
            if other.generator == sub.generator:
                ok = ok and comp == want
            else:
                ok = ok and comp.is_zero()
        if ok:
            passed += 1
        elif bad is None:
            bad = "sub=%s a=%d right=%r" % (sub.generator, a, rkey)
    checks.append(check_record("nu-psi-identity", group, n, passed,
                               len(gens), bad))

    system = build_relations(group, n, Variant.PLAIN, bound=enum_bound)
    checker = SpanChecker(system.rel)
    kgens = kernel_generators(group, n, bound=enum_bound)
    passed = 0
    bad = None
    for gamma in kgens:
        recon = FormalSum()
        for sub, comp in nu(group, n, gamma).items():
            for (lkey, rkey), coeff in comp.terms.items():
                recon = recon + psi(sub, lkey[0].residues[0],
                                    rkey).scale(coeff)
        diff = recon - gamma
        if diff.is_zero() or checker.contains(system.vector(diff)):
            passed += 1
        elif bad is None:
            bad = repr(gamma)
    checks.append(check_record("psi-nu-projection", group, n, passed,
                               len(kgens), bad))
    return VerificationReport(group, n, checks)


def verify_comultiplication(group, n, enum_bound=DEFAULT_ENUM_BOUND):
    """Check that both transport directions respect the presentations.

    Pushing any blowup row through comultiply must land in the relation
    span of its target (plain tensor sign-reduced), for every proper cyclic
    subgroup and every left size; merging any relation of the plain tensor
    product through multiply must land back in the blowup span.  At n = 2
    neither tensor factor has relations of its own, so the split direction
    requires the pushed rows to vanish outright and the merge direction is
    vacuous.
    """
    if n < 2:
        raise ValueError("comultiplication checks need n >= 2")
    src = build_relations(group, n, Variant.PLAIN, bound=enum_bound)
    src_checker = SpanChecker(src.rel)
    fwd_pass = fwd_total = 0
    back_pass = back_total = 0
    fwd_bad = back_bad = None
    for sub in proper_cyclic_subgroups(group):
        q = quotient_data(group, sub)
        cyc = make_group((sub.order,))
        for k in range(1, n):
            lsys = build_relations(cyc, k, Variant.PLAIN, bound=enum_bound)
            rsys = build_relations(q.quotient, n - k, Variant.PLAIN,
                                   bound=enum_bound)
            reds = [minus_reduce(rkey) for rkey in rsys.basis]
            rreps = [rkey for rkey, red in zip(rsys.basis, reds)
                     if red is not None and red[0] == rkey]
            pair_index = {}
            for lkey in lsys.basis:
                for rkey in rreps:
                    pair_index[(lkey, rkey)] = len(pair_index)

            rows = []
            for row in lsys.rel.rows:
                for rkey in rreps:
                    rows.append({pair_index[(lsys.basis[c], rkey)]: v
                                 for c, v in row.items()})
            for lkey in lsys.basis:
                for row in rsys.rel.rows:
                    pushed = sparse_add({}, (
                        (pair_index[(lkey, reds[c][0])], v * reds[c][1])
                        for c, v in row.items() if reds[c] is not None))
                    if pushed:
                        rows.append(pushed)
            tensor_checker = SpanChecker(
                SparseIntMatrix(len(rows), len(pair_index), rows))

            split_cache = {}
            for row in src.rel.rows:
                fwd_total += 1
                vec = {}
                for c, v in row.items():
                    key = src.basis[c]
                    image = split_cache.get(key)
                    if image is None:
                        image = comultiply(sub, key, k)
                        split_cache[key] = image
                    sparse_add(vec, ((pair_index[pair], coeff * v)
                                     for pair, coeff in image.terms.items()))
                if not vec or tensor_checker.contains(vec):
                    fwd_pass += 1
                elif fwd_bad is None:
                    fwd_bad = "sub=%s nprime=%d row=%r" % (
                        sub.generator, k, row)

            back_rows = []
            for row in lsys.rel.rows:
                for rkey in rsys.basis:
                    back_rows.append([(lsys.basis[c], rkey, v)
                                      for c, v in row.items()])
            for lkey in lsys.basis:
                for row in rsys.rel.rows:
                    back_rows.append([(lkey, rsys.basis[c], v)
                                      for c, v in row.items()])

            merge_cache = {}
            for triples in back_rows:
                back_total += 1
                image = FormalSum()
                for lkey, rkey, coeff in triples:
                    term = merge_cache.get((lkey, rkey))
                    if term is None:
                        term = multiply(sub, lkey, rkey)
                        merge_cache[(lkey, rkey)] = term
                    image = image + term.scale(coeff)
                if image.is_zero() or src_checker.contains(
                        src.vector(image)):
                    back_pass += 1
                elif back_bad is None:
                    back_bad = "sub=%s nprime=%d row=%r" % (
                        sub.generator, k, triples)
    checks = [
        check_record("comultiplication-relations", group, n, fwd_pass,
                     fwd_total, fwd_bad),
        check_record("multiplication-relations", group, n, back_pass,
                     back_total, back_bad),
    ]
    return VerificationReport(group, n, checks)
