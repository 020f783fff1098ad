"""Reference structure maps over Character objects.

The split and merge maps as they were written before they moved to code
tuples: every key is built from characters, canonicalized (sign flips,
which keep the span, skip the validation), and reduced by the
character-based sign orbits below; QuotientData supplies the
annihilator, the dual embedding and the lifts.  Formal sums come back as
FormalSum and tensor sums as plain {(left, right): Fraction} dicts, so no
code-tuple routine of abelsym takes part.  Tests compare the maps of
abelsym.structmaps with these.
"""

from fractions import Fraction
from itertools import combinations, product
from math import gcd

from abelsym.abelian import make_group, proper_cyclic_subgroups, quotient_data
from abelsym.exactla import sparse_add
from abelsym.relations import Variant
from abelsym.symbols import (FormalSum, SymbolKey, canonicalize,
                             enumerate_generators)


def minus_reduce(key):
    """(rep, sign) of the key's sign orbit, or None when it is 2-torsion."""
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
    ch = key[0]
    rep = min(ch, -ch)
    return (key if rep is ch else SymbolKey(key.group, (rep.code,))), 1


def tensor(left_variant, terms):
    """{(left, right): coeff} of (left, right, coeff) terms, the left side
    reduced per its variant and the right side as a minus key."""
    out = {}
    for lkey, rkey, coeff in terms:
        coeff = Fraction(coeff)
        if not coeff:
            continue
        lsign = 1
        if left_variant is Variant.PLUS:
            lkey, lsign = plus_reduce(lkey)
        right = minus_reduce(rkey)
        if right is not None:
            sparse_add(out, (((lkey, right[0]), coeff * lsign * right[1]),))
    return out


def multiply(sub, left, right):
    q = quotient_data(sub.ambient, sub)
    pushed = tuple(q.dual_embed(ch) for ch in right)
    lift_sets = [q.dual_lifts(ch.residues[0]) for ch in left]
    return FormalSum([(canonicalize(tuple(lifts) + pushed), Fraction(1))
                      for lifts in product(*lift_sets)])


def comultiply(sub, key, nprime):
    n = len(key)
    q = quotient_data(sub.ambient, sub)
    ann = frozenset(q.annihilator())
    emb_inv = {q.dual_embed(ch): ch for ch in q.quotient.characters()}
    cyc = make_group((sub.order,))
    terms = []
    for right_pos in combinations(range(n), n - nprime):
        rest = [key[j] for j in right_pos]
        if any(ch not in ann for ch in rest):
            continue
        try:
            rkey = canonicalize(tuple(emb_inv[ch] for ch in rest))
        except ValueError:
            continue
        lchars = tuple(cyc.character((q.dual_restrict(key[i]),))
                       for i in range(n) if i not in right_pos)
        terms.append((canonicalize(lchars), rkey, Fraction(1)))
    return tensor(Variant.PLAIN, terms)


def nu(group, n, x):
    out = {}
    for sub in proper_cyclic_subgroups(group):
        terms = []
        for key, coeff in x.items():
            for (lkey, rkey), c in comultiply(sub, key, 1).items():
                terms.append((lkey, rkey, c * coeff))
        out[sub] = tensor(Variant.PLUS, terms)
    return out


def psi(sub, a, b):
    d = sub.order
    a = a % d
    q = quotient_data(sub.ambient, sub)
    pushed = tuple(q.dual_embed(ch) for ch in b)
    lift = q.lift_restriction(a)
    return FormalSum([
        (canonicalize((lift,) + pushed), Fraction(1, 2)),
        (canonicalize((-lift,) + pushed), Fraction(1, 2)),
    ])


def delta_sum(key, i=0, j=1):
    terms = []
    for si in (1, -1):
        for sj in (1, -1):
            entries = list(key)
            entries[i] = si * key[i]
            entries[j] = sj * key[j]
            terms.append((SymbolKey(key.group,
                                    sorted(ch.code for ch in entries)),
                          Fraction(1)))
    return FormalSum(terms)


def omega_generators(group, n):
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
