"""Canonical symbol keys, formal sums, and the determinant grading.

A symbol is an n-tuple of characters that together generate the dual group.
Reordering a tuple does not change the symbol, so tuples are kept sorted;
the sorted tuple is the canonical key and doubles as the free-module basis
element.  A key stores each character as its integer code (its position in
group.characters()), so a key is a sorted code tuple plus its group, and
sorted code tuples order exactly as sorted character tuples.  Whether a
tuple generates the dual is checked where keys enter from outside, in
`canonicalize`, `enumerate_generators`, `sign_class_groups` and
`det_class_groups`; code that derives keys from keys by blowups and sign
flips, which keep the span, builds them directly.  Formal sums, relation
systems and the tensor sums of structmaps hold code tuples too, plus the
groups or space they are read in, and build keys only when read; a key or
coset computes its hash only when asked, and no library path asks.  For
groups of the bi-cyclic shape Z/N x Z/MN (N >= 3) the pairs additionally
carry a determinant invariant in (Z/N)^x, well defined up to sign, which
grades the whole module; `det_class_groups` builds one class's pairs
directly.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import partial
from math import gcd, prod

from .abelian import (code_tuples, generating_code_groups, negation_codes,
                      spans_dual)
from .arith import as_int, prime_factors
from .exactla import BoundExceeded, sparse_add

__all__ = [
    "SymbolKey", "FormalSum", "DetClass", "canonicalize",
    "enumerate_generators", "det_class", "enumerate_det_class",
]

# |G|^n above this refuses to enumerate; desk-scale guard only.
DEFAULT_ENUM_BOUND = 10_000_000


class SymbolKey:
    """Sorted tuple of character codes, over a group, generating its dual.

    `codes` is the sorted code tuple; `entries`, indexing and iteration give
    the characters.  Keys over different groups are never equal, and keys
    order by (group factors, codes).  The constructor checks nothing: not
    that the codes are sorted, in range or generating.  `canonicalize` is
    the checked entry point.  Its hash is computed when asked: the library
    keys its dicts on code tuples.
    """

    __slots__ = ("group", "codes")

    def __init__(self, group, codes):
        self.group = group
        self.codes = tuple(codes)

    def __hash__(self):
        return hash((self.group, self.codes))

    def __eq__(self, other):
        return (isinstance(other, SymbolKey) and self.codes == other.codes
                and self.group is other.group)

    def __lt__(self, other):
        return ((self.group.factors, self.codes)
                < (other.group.factors, other.codes))

    def __le__(self, other):
        return ((self.group.factors, self.codes)
                <= (other.group.factors, other.codes))

    def __len__(self):
        return len(self.codes)

    @property
    def entries(self):
        chars = self.group.characters()
        return tuple(chars[c] for c in self.codes)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.group.characters()[self.codes[i]]

    def replace(self, i, char):
        """New (raw, unsorted) character tuple with entry i replaced."""
        entries = list(self.entries)
        entries[i] = char
        return tuple(entries)

    def __repr__(self):
        return "<%s>" % ", ".join(
            "(%s)" % ",".join(map(str, ch.residues)) for ch in self.entries)


def replace_code(codes, i, code):
    """The sorted code tuple with entry i replaced by `code`."""
    if len(codes) == 2:  # the hot case, without a sort
        other = codes[1 - i]
        return (code, other) if code <= other else (other, code)
    out = list(codes)
    out[i] = code
    out.sort()
    return tuple(out)


def canonicalize(raw):
    """Sort a character tuple into its canonical key.

    Rejects tuples that do not generate the dual group; those are not
    symbols at all.
    """
    if isinstance(raw, SymbolKey):
        return raw
    entries = tuple(raw)
    if not entries:
        raise ValueError("a symbol needs at least one character")
    group = entries[0].group
    if not spans_dual(entries, group):
        raise ValueError("characters %r do not generate the dual group"
                         % (entries,))
    return SymbolKey(group, sorted(ch.code for ch in entries))


def enumerate_generators(group, n, bound=DEFAULT_ENUM_BOUND):
    """All canonical symbol keys for (group, n), in sorted order.

    The candidates are the sorted n-multisets of characters, which are
    exactly the canonical tuples; generating_code_groups keeps those that
    generate the dual group.
    """
    return [SymbolKey(group, codes)
            for codes in code_tuples(_generating_codes(group, n, bound))]


def sign_class_groups(group, n, bound=DEFAULT_ENUM_BOUND):
    """The sign classes' reps as `generating_code_groups` groups.

    A key's sign class holds the keys that differ from it by negating
    entries, and its rep is the tuple of the codes lo[c] = min(c, -c).
    Negation keeps the span, so a rep generates exactly when its keys do:
    the reps are the generating tuples over the codes c = lo[c], in key
    order.
    """
    return _generating_codes(group, n, bound, [
        c for c, d in enumerate(negation_codes(group)) if c <= d])


def _generating_codes(group, n, bound, codes=None):
    """generating_code_groups(group, n, codes) once |G|^n is within the
    bound."""
    n = as_int(n, "symbol length n must be an integer, got %r", n)
    if n < 1:
        raise ValueError("symbol length n must be >= 1")
    _check_enum_bound(group, n, bound)
    return generating_code_groups(group, n, codes)


def _check_enum_bound(group, n, bound):
    """Refuse an enumeration of n-tuples over the group past the bound."""
    if group.order ** n > bound:
        raise BoundExceeded(
            "enumeration size |G|^n = %d exceeds the bound %d"
            % (group.order ** n, bound))


class FormalSum:
    """Finitely supported rational combination of symbol keys or cosets.

    A sum is `codes`, a {code tuple: Fraction} dict, plus `space`, where the
    tuples are read: (SymbolKey, group) for keys and (CosetSymbol, level)
    for cosets, whose code tuple is the quad.  `is_zero`, `==`, `+`, `-`,
    `scale` and `RelationSystem.vector` read the codes; `terms`, `items` and
    `repr` build the keys or cosets each time they are read.  A sum's terms
    lie in one space, and only the zero sum adds to a sum over another.
    """

    __slots__ = ("codes", "space")

    def __init__(self, terms=None):
        if isinstance(terms, dict):
            terms = terms.items()
        self.space = None
        pairs = []
        for term, coeff in terms or ():
            if isinstance(term, SymbolKey):
                t, space = term.codes, (SymbolKey, term.group)
            else:
                t, space = term.quad(), (type(term), term.level)
            if self.space not in (None, space):
                raise ValueError("term %r is off the sum's space" % (term,))
            self.space = space
            pairs.append((t, Fraction(coeff)))
        self.codes = sparse_add({}, pairs)

    @classmethod
    def of(cls, key, coeff=1):
        return cls({key: Fraction(coeff)})

    def __add__(self, other):
        if self.codes and other.codes and self.space != other.space:
            raise ValueError("cannot add sums over different spaces")
        return _code_sum(sparse_add(dict(self.codes), other.codes.items()),
                         self.space if self.codes else other.space)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, k):
        k = Fraction(k)
        return _code_sum({t: c * k for t, c in self.codes.items()} if k
                         else {}, self.space)

    def __eq__(self, other):
        return (isinstance(other, FormalSum) and self.codes == other.codes
                and (not self.codes or self.space == other.space))

    def is_zero(self):
        return not self.codes

    @property
    def terms(self):
        if not self.codes:
            return {}
        build = _builder(self.space)
        return {build(t): c for t, c in self.codes.items()}

    def items(self):
        return self.terms.items()

    def __repr__(self):
        if not self.codes:
            return "FormalSum(0)"
        build = _builder(self.space)
        return "FormalSum(%s)" % " + ".join(
            "%s*%r" % (c, build(t)) for t, c in sorted(self.codes.items()))


def _code_sum(codes, space):
    """The FormalSum of {code tuple: Fraction} `codes` over `space`, as is."""
    fsum = object.__new__(FormalSum)
    fsum.codes, fsum.space = codes, space
    return fsum


def _builder(space):
    """The function building the key or coset of a code tuple in `space`,
    unchecked: keys through `SymbolKey`, cosets through `_unchecked`."""
    cls, where = space
    return partial(cls if cls is SymbolKey else cls._unchecked, where)


class DetClass:
    """Determinant value in (Z/N)^x identified with its negative."""

    __slots__ = ("modulus", "k")

    def __init__(self, modulus, k):
        k %= modulus
        if gcd(k, modulus) != 1:
            raise ValueError("determinant %d is not a unit mod %d"
                             % (k, modulus))
        self.modulus = modulus
        self.k = min(k, (modulus - k) % modulus)

    def __eq__(self, other):
        return (isinstance(other, DetClass)
                and self.modulus == other.modulus and self.k == other.k)

    def __hash__(self):
        return hash((self.modulus, self.k))

    def __lt__(self, other):
        return (self.modulus, self.k) < (other.modulus, other.k)

    def __repr__(self):
        return "DetClass(%d mod %d)" % (self.k, self.modulus)


def det_classes(group):
    """All determinant classes for a bi-cyclic group, sorted by k."""
    n_small, _ = _bicyclic_form(group)
    ks = sorted({min(k, n_small - k)
                 for k in range(1, n_small) if gcd(k, n_small) == 1})
    return [DetClass(n_small, k) for k in ks]


def det_graded(group):
    """True iff the group is literally Z/N x Z/MN with N >= 3, trivial
    factors aside: the shape the determinant grading reads (3x9, not 9x3,
    whose invariant form is the same)."""
    factors = [f for f in group.factors if f > 1]
    return (len(factors) == 2 and factors[0] >= 3
            and not factors[1] % factors[0])


def _bicyclic_form(group):
    """The pair (N, MN) when the group is literally Z/N x Z/MN, N >= 3."""
    factors = tuple(f for f in group.factors if f > 1)
    if len(factors) != 2:
        raise ValueError("group %s is not of bi-cyclic rank-2 form"
                         % group.literal())
    if not det_graded(group):
        raise ValueError(
            "group %s is not of the form Z/N x Z/MN with N >= 3"
            % group.literal())
    return factors


def _code_det(codes, n_small, n_big):
    """Determinant mod N of a code pair over Z/N x Z/MN: the code of the
    character (a, c) is a MN + c, whatever trivial factors stand around."""
    a1, c1 = divmod(codes[0], n_big)
    a2, c2 = divmod(codes[1], n_big)
    return (a1 * c2 - a2 * c1) % n_small


def det_class(key):
    """Determinant invariant of a length-2 key over Z/N x Z/MN, N >= 3."""
    if len(key.codes) != 2:
        raise ValueError("the determinant grading needs n = 2")
    n_small, n_big = _bicyclic_form(key.group)
    return DetClass(n_small, _code_det(key.codes, n_small, n_big))


def det_class_groups(group, k, bound=DEFAULT_ENUM_BOUND, reps=False):
    """The generating code pairs of determinant class k over Z/N x Z/MN,
    N >= 3, as (prefix, completions) groups in the order of
    `generating_code_groups`; with `reps`, the sign classes' reps alone, as
    `sign_class_groups` lists them.

    The pairs are built, not filtered.  For a first code x = (a1, c1) and
    each a2 >= a1, a1 c2 - a2 c1 = t mod N with t = k or N - k is solved for
    c2 as `_coset_quads` solves for d: with g = gcd(a1, N) it needs g to
    divide t + a2 c1, which fixes a2 mod g (c1 is a unit mod g, or x is 0
    at a prime of N and has no completion), and then fixes c2 mod N/g.
    The two t give different residues (N does not divide 2k at N >= 3), so
    no pair comes twice.  A unit determinant settles generation at the
    primes of N (see spans_dual); a prime of M that does not divide N
    needs c1 or c2 nonzero mod it.  So before that test the completions
    of x depend on c1 only mod N: they are sorted once per (a1, c1 mod N),
    then cut at x and tested per x.  k is an int or a `DetClass`; a group
    of another shape or a class of another modulus raises ValueError
    before |G|^2 is checked against the bound.
    """
    n_small, n_big = _bicyclic_form(group)
    if not isinstance(k, DetClass):
        k = DetClass(n_small, k)
    elif k.modulus != n_small:
        raise ValueError("determinant class has modulus %d, expected %d"
                         % (k.modulus, n_small))
    _check_enum_bound(group, 2, bound)
    dets = (k.k, n_small - k.k)
    neg = negation_codes(group)
    # per c, the product of the primes of M off N that divide it
    lone = [p for p in prime_factors(n_big) if n_small % p]
    zeros = [prod(p for p in lone if not c % p) for c in range(n_big)]
    out = []
    for a1 in range(n_small):
        g = gcd(a1, n_small)
        step = n_small // g
        inv = pow(a1 // g, -1, step)
        shared = {}     # c1 mod N -> the completions of (a1, c1), uncut
        for c1 in range(n_big):
            x = a1 * n_big + c1
            if reps and neg[x] < x:
                continue
            comp = shared.get(c1 % n_small)
            if comp is None:
                comp = []
                if gcd(c1, g) == 1:     # else x is 0 at a prime of N
                    back = pow(c1, -1, g)   # g | t + a2 c1 fixes a2 mod g
                    for t in dets:
                        for a2 in range(a1 + (-t * back - a1) % g,
                                        n_small, g):
                            comp += range(a2 * n_big
                                          + (t + a2 * c1) // g * inv % step,
                                          (a2 + 1) * n_big, step)
                    if reps:
                        comp = [y for y in comp if y <= neg[y]]
                    comp.sort()
                shared[c1 % n_small] = comp
            comp = comp[bisect_left(comp, x):]
            z = zeros[c1]       # z divides MN: gcd(z, y) = gcd(z, c2)
            if z > 1:
                comp = [y for y in comp if gcd(z, y) == 1]
            if comp:
                out.append(((x,), comp))
    return out


def enumerate_det_class(group, k, bound=DEFAULT_ENUM_BOUND):
    """Canonical length-2 keys in one determinant class, built by
    `det_class_groups`.

    Over all classes these lists partition enumerate_generators(group, 2).
    """
    return [SymbolKey(group, codes)
            for codes in code_tuples(det_class_groups(group, k, bound))]
