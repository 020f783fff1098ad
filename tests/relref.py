"""Reference generation test and relation builder over Character objects.

Independent of abelsym's code tuples and per-prime test: generation is read
off a dense Smith normal form, and the relation templates are instantiated
on character tuples at every ordered position pair, each image sorted and
validated.  Tests compare abelsym's symbol keys and relation rows with these.
`full_sign_class_fold` is the minus fold over sign-class reps with every
folded blowup row kept, as built from each rep it touches; tests compare the
fold that builds each n = 2 row once against it.
"""

from itertools import combinations_with_replacement

from abelsym.abelian import difference_codes, make_group, negation_codes
from abelsym.exactla import dense_snf_with_transforms, sparse_add
from abelsym.relations import Variant
from abelsym.symbols import replace_code

# presentations that are not invariant factor chains: factors out of
# divisibility order, coprime splittings, trivial factors
NON_INVARIANT = ((2, 3), (3, 2), (4, 2), (1, 5), (3, 1, 3), (2, 3, 2),
                 (4, 2, 2), (2, 6), (6, 4), (4, 6), (3, 4), (2, 5, 2))


def invariant_chains(limit):
    """All invariant factor chains d_1 | d_2 | ... with product <= limit."""
    out = []

    def grow(chain, size):
        if chain:
            out.append(chain)
        low = chain[-1] if chain else 2
        d = low
        while size * d <= limit:
            grow(chain + (d,), size * d)
            d += low if chain else 1

    grow((), 1)
    return out


def presentations(limit):
    """The groups of order <= limit, as invariant chains and as the
    non-invariant presentations above."""
    return [make_group(f) for f in invariant_chains(limit)
            + [f for f in NON_INVARIANT if _order(f) <= limit]]


def _order(factors):
    out = 1
    for f in factors:
        out *= f
    return out


def reference_spans_dual(chars, group):
    """True iff the residue rows, stacked over diag(factors), have the
    Smith form of the identity."""
    r = len(group.factors)
    mat = [list(ch.residues) for ch in chars]
    mat.extend([0] * i + [f] + [0] * (r - i - 1)
               for i, f in enumerate(group.factors))
    d, _, _ = dense_snf_with_transforms(mat)
    return all(d[i][i] == 1 for i in range(r))


class ReferenceBuilder:
    """Keys of one (group, n) and the rows of each variant, on characters."""

    def __init__(self, group, n):
        self.group = group
        self.n = n
        self._spans = {}
        self.keys = [combo for combo in combinations_with_replacement(
            group.characters(), n) if self._generates(combo)]
        self._blowups = list(self._blowup_templates())

    def _generates(self, combo):
        found = self._spans.get(combo)
        if found is None:
            found = self._spans[combo] = reference_spans_dual(
                combo, self.group)
        return found

    def _canonical(self, raw):
        key = tuple(sorted(raw))
        if not self._generates(key):
            raise ValueError("image %r does not generate the dual" % (key,))
        return key

    def _blowup_templates(self):
        n = self.n
        for key in self.keys:
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    left, right = list(key), list(key)
                    left[i] = key[i] - key[j]
                    right[j] = key[j] - key[i]
                    yield [(key, 1), (self._canonical(left), -1),
                           (self._canonical(right), -1)]

    def _sign_templates(self):
        for key in self.keys:
            for i in range(self.n):
                flipped = list(key)
                flipped[i] = -key[i]
                yield [(key, 1), (self._canonical(flipped), 1)]

    def rows(self, variant):
        """The variant's rows as lists of (column, coefficient) items."""
        if variant is Variant.PLAIN:
            relations = self._blowups
        elif variant is Variant.MINUS:
            relations = self._blowups + list(self._sign_templates())
        else:
            relations = [[(key, 1), (self._canonical([-key[0]]), -1)]
                         for key in self.keys]
        index = {key: i for i, key in enumerate(self.keys)}
        rows = []
        seen = set()
        for parts in relations:
            row = {}
            for key, coeff in parts:
                i = index[key]
                val = row.get(i, 0) + coeff
                if val:
                    row[i] = val
                elif i in row:
                    del row[i]
            if not row:
                continue
            sig = tuple(sorted(row.items()))
            if sig not in seen:
                seen.add(sig)
                rows.append(list(row.items()))
        return rows

    def basis(self):
        """The keys as tuples of residue tuples."""
        return [tuple(ch.residues for ch in key) for key in self.keys]


def full_sign_class_fold(group, reps, n):
    """Rows of the minus fold over the sorted reps, every folded blowup row
    kept: the (i, j) blowup at rep r, and at r with entry j negated unless
    entry i or j is self-inverse, plus {k: 2} for a rep with a self-inverse
    entry."""
    neg = negation_codes(group)
    lo = [min(c, d) for c, d in enumerate(neg)]
    sg = [1 if c == d else -1 for c, d in enumerate(lo)]
    diff = difference_codes(group)
    index = {t: k for k, t in enumerate(reps)}
    rows = []
    for k, r in enumerate(reps):
        if any(neg[c] == c for c in r):
            rows.append({k: 2})
        for i in range(n):
            for j in range(i + 1, n):
                a, b = r[i], r[j]
                for s, bs in ((1, b), (-1, neg[b])):
                    if s < 0 and (neg[a] == a or bs == b):
                        break
                    x, y = diff[a][bs], diff[bs][a]
                    rows.append(sparse_add({k: s}, (
                        (index[replace_code(r, i, lo[x])], -s * sg[x]),
                        (index[replace_code(r, j, lo[y])], -sg[y]))))
    return rows
