"""Reference enumerations of the level family, by scans and union-finds.

`scan_coset_quads` tests every quad (a, b, c, d) for determinant 1 mod N
and gcd(c, d, MN) = 1, and `union_find_cusps` and `union_find_eps_fixed`
join each point to its translate and its negative and read the classes
off the roots, as abelsym did before it solved for d and walked each orbit
once.
`two_sided_row_classes` builds both signed tuples of a row and keeps the
lesser.  Tests compare abelsym's enumerations with these.
"""

from math import gcd


def scan_coset_quads(n, m):
    """The coset quads of level (n, m), sorted, by a scan of all quads."""
    k = n * m
    bottoms = [(c, d) for c in range(k) for d in range(k)
               if gcd(c, d, k) == 1]
    return [(a, b, c, d) for a in range(n) for b in range(n)
            for c, d in bottoms if (a * d - b * c) % n == 1]


def _union_find_classes(points, links):
    """The classes of `points` under the links, pairs of indices into it,
    as a set of frozensets, by a union-find."""
    parent = list(range(len(points)))

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]   # path halving
        return x

    for i, j in links:
        parent[find(i)] = find(j)
    classes = {}
    for i, p in enumerate(points):
        classes.setdefault(find(i), set()).add(p)
    return {frozenset(c) for c in classes.values()}


def union_find_cusps(n, m):
    """Orbits of the cosets under (1, 1; 0, 1) and -I, as sets of quads."""
    quads = scan_coset_quads(n, m)
    k = n * m
    index = {s: i for i, s in enumerate(quads)}
    links = [link for i, (a, b, c, d) in enumerate(quads) for link in (
        (i, index[(a, (a + b) % n, c, (c + d) % k)]),
        (i, index[(-a % n, -b % n, -c % k, -d % k)]))]
    return _union_find_classes(quads, links)


def union_find_eps_fixed(m):
    """(classes, fixed): the classes of pairs (a, c) mod 2m under a -> a + 2c
    and -1, as sets of pairs, and the number of them that the involution
    (a, c) -> (-a, c) keeps."""
    k = 2 * m
    pairs = [(a, c) for a in range(k) for c in range(k)
             if gcd(a, c, k) == 1]
    index = {p: i for i, p in enumerate(pairs)}
    links = [link for i, (a, c) in enumerate(pairs) for link in (
        (i, index[(-a % k, -c % k)]), (i, index[((a + 2 * c) % k, c)]))]
    classes = _union_find_classes(pairs, links)
    fixed = sum(1 for cls in classes
                if all((-a % k, c) in cls for a, c in cls))
    return classes, fixed


def two_sided_row_classes(rows, twos):
    """The nonzero rows up to sign and to even entries on the columns in
    `twos`, each as the lesser of its two signed tuples."""
    def signed(row, s):
        return tuple(sorted((c, v % 2 if c in twos else s * v)
                            for c, v in row.items() if c not in twos or v % 2))
    return {min(signed(row, 1), signed(row, -1)) for row in rows} - {()}
