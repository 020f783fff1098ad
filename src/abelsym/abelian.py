"""Finite abelian groups, their characters, cyclic subgroups and quotients.

A group is a product of cyclic factors Z/n_1 x ... x Z/n_r in the order the
caller gave them.  Characters are identified with residue tuples through the
pairing <b, g> = sum b_i g_i / n_i mod 1, which makes the dual group an
explicit copy of the group itself.  Each character also has an integer code,
the mixed-radix value of its residue tuple (first factor most significant),
which is its position in the lexicographic list `characters()`; hot loops
work on codes through the negation and sum tables built here.
Whether characters generate the dual is decided one prime at a time
(`spans_dual`).  Quotient presentations are derived from Smith normal forms
with recorded transforms, so projection and the dual-side
embedding/restriction maps are all constructive.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod

from .arith import as_int, prime_factors
from .exactla import dense_snf_with_transforms, require

__all__ = [
    "GroupDescriptor", "Character", "SubgroupHandle", "QuotientData",
    "make_group", "parse_group", "pairing", "spans_dual",
    "proper_cyclic_subgroups", "quotient_data",
]

# Enumerations over elements and subgroups stay total only for desk-scale
# groups; make_group refuses anything larger.
MAX_ORDER = 10_000

_group_cache = {}


def make_group(orders):
    """Group descriptor for Z/orders[0] x Z/orders[1] x ...

    Factors are kept verbatim for display and coordinates; the invariant
    factor chain d_1 | d_2 | ... is derived once via Smith normal form.
    Orders are integers >= 1 with a product of at most MAX_ORDER.
    """
    factors = tuple(as_int(x, "cyclic factor orders must be integers, "
                              "got %r", x) for x in orders)
    if not factors:
        raise ValueError("a group needs at least one cyclic factor")
    if any(f < 1 for f in factors):
        raise ValueError("cyclic factor orders must be >= 1")
    if prod(factors) > MAX_ORDER:
        raise ValueError(
            "group order %d exceeds the configured limit %d"
            % (prod(factors), MAX_ORDER))
    key = factors
    grp = _group_cache.get(key)
    if grp is None:
        grp = GroupDescriptor(factors)
        _group_cache[key] = grp
    return grp


def parse_group(text):
    """Parse the group literal syntax 'n1xn2x...', e.g. '3x9' or '16'."""
    parts = text.lower().split("x")
    try:
        orders = [int(p) for p in parts]
    except ValueError:
        raise ValueError("bad group literal %r; expected e.g. '5' or '3x9'"
                         % (text,)) from None
    return make_group(orders)


class GroupDescriptor:
    """A finite abelian group presented as a product of cyclic factors."""

    __slots__ = ("factors", "invariant_factors", "order", "rank",
                 "prime_slots", "_places", "_chars")

    def __init__(self, factors):
        self.factors = tuple(factors)
        self.order = prod(self.factors)
        diag = [[0] * len(self.factors) for _ in self.factors]
        for i, f in enumerate(self.factors):
            diag[i][i] = f
        d, _, _ = dense_snf_with_transforms(diag)
        self.invariant_factors = tuple(d[i][i] for i in range(len(self.factors)))
        self.rank = sum(1 for f in self.invariant_factors if f > 1)
        # (p, positions of the factors divisible by p) for each p | order:
        # G/pG is F_p^k with one coordinate per such factor
        self.prime_slots = tuple(
            (p, tuple(i for i, f in enumerate(self.factors) if f % p == 0))
            for p in prime_factors(self.order))
        places = [1]
        for f in reversed(self.factors[1:]):
            places.append(places[-1] * f)
        self._places = tuple(reversed(places))
        self._chars = None

    def __repr__(self):
        return "GroupDescriptor(%s)" % "x".join(str(f) for f in self.factors)

    def literal(self):
        return "x".join(str(f) for f in self.factors)

    @property
    def exponent(self):
        return self.invariant_factors[-1]

    def invariant_form(self):
        """Invariant factors with trivial entries dropped."""
        return tuple(f for f in self.invariant_factors if f > 1)

    def reduce(self, residues):
        """The residue tuple reduced mod the factors, one int per factor;
        `code`, `character`, `element_order` and `SubgroupHandle` read it."""
        if len(residues) != len(self.factors):
            raise ValueError("residue tuple %r does not have one coordinate "
                             "per factor of %s" % (tuple(residues),
                                                   self.literal()))
        return tuple(as_int(r, "residues must be integers, got %r", r) % f
                     for r, f in zip(residues, self.factors))

    def elements(self):
        """All residue tuples in lexicographic order."""
        return product(*(range(f) for f in self.factors))

    def character(self, residues):
        """Interned character with the given residue tuple, read from
        `characters()`: the first call builds them all (<= MAX_ORDER)."""
        return self.characters()[self.code(residues)]

    def characters(self):
        """All characters in lexicographic residue order, indexed by code."""
        if self._chars is None:
            self._chars = tuple(Character(self, r) for r in self.elements())
        return self._chars

    def code(self, residues):
        """Mixed-radix code of a residue tuple (reduced first)."""
        return sum(r * w for r, w in zip(self.reduce(residues), self._places))

    def zero(self):
        return self.character((0,) * len(self.factors))

    def element_order(self, residues):
        res = self.reduce(residues)
        return lcm(*(f // gcd(r, f) for r, f in zip(res, self.factors)))


class Character:
    """Character of a finite abelian group, stored as a residue tuple.

    chi(e_i) = exp(2 pi i residues[i] / factors[i]).  Instances are interned
    per group, so identity comparison and dict lookups are cheap.  `code` is
    the character's index in group.characters().
    """

    __slots__ = ("group", "residues", "code")

    def __init__(self, group, residues):
        self.group = group
        self.residues = residues
        self.code = group.code(residues)

    def __hash__(self):
        return hash(self.residues)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Character)
            and self.group is other.group
            and self.residues == other.residues)

    def __lt__(self, other):
        return ((self.group.factors, self.residues)
                < (other.group.factors, other.residues))

    def __le__(self, other):
        return ((self.group.factors, self.residues)
                <= (other.group.factors, other.residues))

    def __add__(self, other):
        if self.group is not other.group:
            raise ValueError("characters belong to different groups")
        return self.group.character(
            tuple(a + b for a, b in zip(self.residues, other.residues)))

    def __sub__(self, other):
        if self.group is not other.group:
            raise ValueError("characters belong to different groups")
        return self.group.character(
            tuple(a - b for a, b in zip(self.residues, other.residues)))

    def __neg__(self):
        return self.group.character(tuple(-a for a in self.residues))

    def __mul__(self, k):
        return self.group.character(tuple(k * a for a in self.residues))

    __rmul__ = __mul__

    def is_zero(self):
        return not any(self.residues)

    def order(self):
        return self.group.element_order(self.residues)

    def __repr__(self):
        return "chi%r" % (self.residues,)


def pairing(b, g):
    """<b, g> = sum b_i g_i / n_i as a rational in [0, 1)."""
    grp = b.group
    if len(g) != len(grp.factors):
        raise ValueError("element has wrong number of coordinates")
    total = Fraction(0)
    for bi, gi, ni in zip(b.residues, grp.reduce(g), grp.factors):
        total += Fraction(bi * gi, ni)
    return total % 1


def spans_dual(chars, group=None):
    """True iff the characters generate the whole dual group.

    By Nakayama's lemma a family generates a finite abelian group G iff its
    image generates G/pG for every prime p dividing |G|.  G/pG is F_p^k, one
    coordinate per factor divisible by p, read off as the residue mod p, so
    the test is an F_p-rank count per prime; fewer than k characters never
    span.
    """
    chars = list(chars)
    if group is None:
        if not chars:
            raise ValueError("cannot infer the group from an empty list")
        group = chars[0].group
    for ch in chars:
        if ch.group is not group:
            raise ValueError("character belongs to a different group")
    slots = group.prime_slots
    if any(len(chars) < len(pos) for _, pos in slots):
        return False
    for p, pos in slots:
        basis = ()
        for ch in chars:
            basis = _fp_extend(basis, [ch.residues[i] % p for i in pos], p)
        if len(basis) < len(pos):
            return False
    return True


def _fp_reduce(basis, vec, p):
    """The remainder of `vec` over F_p against a basis as `_fp_extend`'s."""
    for piv, row in basis:
        c = vec[piv]
        if c:
            vec = [(x - c * y) % p for x, y in zip(vec, row)]
    return vec


def _fp_extend(basis, vec, p):
    """Reduced echelon basis of span(basis) + <vec> over F_p.

    A basis is a tuple of (pivot, row) pairs sorted by pivot, each row
    monic at its pivot and zero at the other pivots, so equal spans have
    equal bases.  `vec` holds residues in [0, p).
    """
    if len(basis) == len(vec):
        return basis
    vec = _fp_reduce(basis, vec, p)
    for piv, lead in enumerate(vec):
        if lead:
            break
    else:
        return basis
    if lead != 1:
        inv = pow(lead, -1, p)
        vec = [x * inv % p for x in vec]
    new = tuple(vec)
    out = [(q, tuple((x - row[piv] * y) % p for x, y in zip(row, new))
            if row[piv] else row) for q, row in basis]
    out.append((piv, new))
    out.sort()
    return tuple(out)


def code_tuples(groups):
    """The code tuples of (prefix, completions) groups, in order."""
    return [p + (c,) for p, cs in groups for c in cs]


def generating_code_groups(group, n, codes=None):
    """The generating sorted code n-tuples, in order, as (prefix, sorted
    nonempty list of the codes c >= prefix[-1] completing it) groups.

    spans_dual made incremental: nondecreasing code tuples are walked
    position by position, carrying the prefix's span in each G/pG.  A prefix
    is dropped once the positions left cannot fill some G/pG.  The first
    position reads each code's span from a table per prime, one `_fp_extend`
    per distinct image; the last reads, per prefix span, the list of the
    codes that complete it: those leaving a remainder in each G/pG where it
    is one dimension short.  `codes`, strictly increasing in range(|G|),
    restricts the entries to those codes, keeping the order.
    """
    order = group.order
    if codes is None:
        codes = range(order)
    elif any(not 0 <= c < d for c, d in zip(codes, list(codes[1:]) + [order])):
        raise ValueError("codes must be strictly increasing in range(%d)"
                         % order)
    slots = group.prime_slots
    if any(n < len(pos) for _, pos in slots):
        return []
    # per prime: each code's image in G/pG, digit by digit as codes are
    # built (see negation_codes), and the distinct images of `codes`; per
    # code of `codes`: its span alone in each G/pG, or None if it is 0 in
    # a G/pG that takes all n positions
    images, distinct, firsts = [], [], []
    for p, pos in slots:
        img = [()]
        for i, f in reversed(list(enumerate(group.factors))):
            img = ([(d % p,) + x for d in range(f) for x in img]
                   if i in pos else img * f)
        seen = {img[c] for c in codes}
        first = {v: _fp_extend((), v, p) if any(v) or len(pos) < n else None
                 for v in seen}
        images.append(img)
        distinct.append(seen)
        firsts.append([first[img[c]] for c in codes])
    firsts = [None if None in s else s
              for s in zip(*firsts)] or [()] * len(codes)
    steps = [{} for _ in slots]     # memoized span steps per prime
    lasts = {}                      # span -> the codes completing it
    out = []

    def extend(state, code):
        nxt = []
        for k, (p, _) in enumerate(slots):
            key = (state[k], images[k][code])
            basis = steps[k].get(key)
            if basis is None:
                basis = steps[k][key] = _fp_extend(key[0], key[1], p)
            nxt.append(basis)
        return tuple(nxt)

    def last_codes(state):
        comp = list(codes)
        for (p, pos), basis, img, seen in zip(slots, state, images, distinct):
            if len(basis) < len(pos):
                good = {v for v in seen if any(_fp_reduce(basis, v, p))}
                comp = [c for c in comp if img[c] in good]
        return comp

    if n == 1:
        comp = last_codes(tuple(() for _ in slots))
        return [((), comp)] if comp else []

    def walk(prefix, state, start):
        left = n - len(prefix)
        for i in range(start, len(codes)):
            c = codes[i]
            nxt = extend(state, c) if prefix else firsts[i]
            if nxt is None or prefix and any(
                    len(pos) - len(b) >= left
                    for b, (_, pos) in zip(nxt, slots)):
                continue
            if left > 2:
                walk(prefix + (c,), nxt, i)
                continue
            comp = lasts.get(nxt)   # one position left: its completions
            if comp is None:
                comp = lasts[nxt] = last_codes(nxt)
            comp = comp[bisect_left(comp, c):]
            if comp:
                out.append((prefix + (c,), comp))

    walk((), (), 0)
    del walk    # the closure refers to itself: free it by reference count
    return out


@functools.cache
def negation_codes(group):
    """neg[c] = code of -chi, for chi the character of code c: one tuple
    per group, shared by every caller (groups are interned)."""
    neg, size = [0], 1
    for f in reversed(group.factors):
        neg = [(-d % f) * size + x for d in range(f) for x in neg]
        size *= f
    return tuple(neg)


def sum_codes(group):
    """(spread, wrap), wrap[spread[a] + spread[b]] = code of chi_a + chi_b:
    spread puts each digit d < f in a field of width 2f - 1, where two never
    carry, and wrap takes each field mod f (on Z/N, (a + b) % N)."""
    spread, wrap, size, width = [0], [0], 1, 1
    for f in reversed(group.factors):
        spread = [d * width + x for d in range(f) for x in spread]
        wrap = [d % f * size + x for d in range(2 * f - 1) for x in wrap]
        size, width = size * f, width * (2 * f - 1)
    return spread, wrap


class SubgroupHandle:
    """Cyclic subgroup <generator> of an ambient group."""

    __slots__ = ("ambient", "generator", "order")

    def __init__(self, ambient, generator):
        self.ambient = ambient
        self.generator = ambient.reduce(generator)
        self.order = ambient.element_order(generator)

    def elements(self):
        """The subgroup's elements as a frozenset of residue tuples."""
        g = self.generator
        factors = self.ambient.factors
        out = set()
        cur = tuple(0 for _ in factors)
        for _ in range(self.order):
            out.add(cur)
            cur = tuple((a + b) % f for a, b, f in zip(cur, g, factors))
        return frozenset(out)

    def is_trivial(self):
        return self.order == 1

    def __repr__(self):
        return "SubgroupHandle(<%s> of order %d in %s)" % (
            ",".join(map(str, self.generator)), self.order,
            self.ambient.literal())


def proper_cyclic_subgroups(group):
    """One handle per distinct proper cyclic subgroup, trivial included.

    Generators are deduplicated by comparing element sets; the surviving
    representative is the lexicographically least generator of maximal use,
    i.e. the first one found in element order.
    """
    seen = {}
    for g in group.elements():
        h = SubgroupHandle(group, g)
        if h.order == group.order:
            continue  # not proper
        key = h.elements()
        if key not in seen:
            seen[key] = h
    return sorted(seen.values(), key=lambda h: (h.order, h.generator))


class QuotientData:
    """Constructive presentation of G/G' with the dual-side maps.

    The quotient is read off the Smith normal form U*A*V = D of the relation
    matrix A = [diag(factors); generator].  For an ambient element x, the
    class of x*V in the diagonal presentation gives project(x).  dual_embed
    sends a quotient character to the ambient character pulling back through
    project (its image is exactly the annihilator of G'), and dual_restrict
    evaluates an ambient character on the subgroup generator.
    """

    __slots__ = ("ambient", "sub", "quotient", "_V", "_divs", "_kept")

    def __init__(self, ambient, sub):
        self.ambient = ambient
        self.sub = sub
        factors = ambient.factors
        r = len(factors)
        mat = [[0] * r for _ in range(r + 1)]
        for i, f in enumerate(factors):
            mat[i][i] = f
        mat[r] = list(sub.generator)
        d, _, v = dense_snf_with_transforms(mat)
        divs = [d[i][i] for i in range(r)]
        self._V = v
        self._divs = divs
        self._kept = [i for i, di in enumerate(divs) if di > 1]
        quot_factors = [divs[i] for i in self._kept]
        self.quotient = make_group(quot_factors or [1])

    def project(self, element):
        """Image of an ambient element (residue tuple) in the quotient."""
        v = self._V
        r = len(self.ambient.factors)
        coords = []
        for i in self._kept:
            coords.append(
                sum(element[j] * v[j][i] for j in range(r)) % self._divs[i])
        return tuple(coords) if coords else (0,)

    def dual_embed(self, qchar):
        """Quotient character -> ambient character vanishing on the subgroup."""
        if qchar.group is not self.quotient:
            raise ValueError("character does not live on the quotient")
        v = self._V
        factors = self.ambient.factors
        res = []
        for j, nj in enumerate(factors):
            acc = 0
            for pos, i in enumerate(self._kept):
                num = v[j][i] * nj
                di = self._divs[i]
                require(num % di == 0, "quotient transform of %r by %r is "
                        "not integral: V[%d][%d] * %d = %d, divisor %d",
                        factors, self.sub.generator, j, i, nj, num, di)
                acc += qchar.residues[pos] * (num // di)
            res.append(acc % nj)
        return self.ambient.character(tuple(res))

    def dual_restrict(self, char):
        """Restriction of an ambient character to Z/d, d = subgroup order."""
        if char.group is not self.ambient:
            raise ValueError("character does not live on the ambient group")
        d = self.sub.order
        acc = 0
        for ci, hi, ni in zip(char.residues, self.sub.generator,
                              self.ambient.factors):
            acc += ci * (d * hi // ni)
        return acc % d

    def annihilator(self):
        """All ambient characters vanishing on the subgroup, sorted."""
        return sorted(self.dual_embed(q) for q in self.quotient.characters())

    def lift_restriction(self, a):
        """Least ambient character restricting to a: the first residue
        tuple r of ambient.elements(), the order of characters(), with
        sum r_i * w_i = a mod d, where w_i = d*generator_i/factors[i]."""
        d = self.sub.order
        a %= d
        w = [d * hi // ni
             for hi, ni in zip(self.sub.generator, self.ambient.factors)]
        for res in self.ambient.elements():
            if sum(ri * wi for ri, wi in zip(res, w)) % d == a:
                return self.ambient.character(res)
        raise ValueError("residue %d not attained by any character" % a)

    def dual_lifts(self, a):
        """All ambient characters restricting to a, sorted."""
        base = self.lift_restriction(a)
        return sorted(base + ann for ann in self.annihilator())


def quotient_data(group, sub):
    """Quotient presentation of group/<sub> with constructive dual maps."""
    if sub.ambient is not group:
        raise ValueError("subgroup handle belongs to a different group")
    return QuotientData(group, sub)
