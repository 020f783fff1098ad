"""Canonical keys, enumeration counts, formal sums, determinant grading."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from abelsym.abelian import make_group
from abelsym.congruence import CosetSymbol
from abelsym.exactla import BoundExceeded
from abelsym.relations import Variant, build_relations
from abelsym.symbols import (DetClass, FormalSum, SymbolKey, _generating_codes,
                             canonicalize, det_class, det_class_groups,
                             det_classes, enumerate_det_class,
                             enumerate_generators, sign_class_groups)
from relref import filter_groups, in_det_class


def test_canonicalize_sorts_and_validates():
    g = make_group((5,))
    a, b = g.character((3,)), g.character((1,))
    key = canonicalize((a, b))
    assert key.entries == (b, a)
    assert canonicalize(key) is key  # passthrough
    with pytest.raises(ValueError):
        canonicalize(())
    with pytest.raises(ValueError):
        canonicalize((g.character((0,)),))  # does not span the dual


def test_symbol_key_protocol():
    g = make_group((5,))
    key = canonicalize((g.character((1,)), g.character((2,))))
    assert len(key) == 2
    assert key[0].residues == (1,)
    assert list(key) == list(key.entries)
    other = canonicalize((g.character((1,)), g.character((3,))))
    assert key < other
    assert key <= key
    raw = key.replace(1, g.character((4,)))
    assert isinstance(raw, tuple)  # replace returns an unsorted raw tuple
    assert raw == (g.character((1,)), g.character((4,)))


def test_symbol_keys_over_different_groups_differ():
    g, h = make_group((5,)), make_group((7,))
    kg = canonicalize((g.character((1,)), g.character((2,))))
    kh = canonicalize((h.character((1,)), h.character((2,))))
    assert kg.codes == kh.codes == (1, 2)
    assert kg != kh
    assert kg == SymbolKey(g, (1, 2))
    assert len({kg, kh, SymbolKey(g, (1, 2))}) == 2


def test_symbol_key_hash_agrees_across_constructors():
    # a key hashes (group, codes) when asked: the keys of canonicalize,
    # enumerate_generators and RelationSystem.basis for one tuple hash
    # equal and make one set entry
    for group, n in ((make_group((5, 5)), 2), (make_group((2, 6)), 3)):
        keys = enumerate_generators(group, n)
        basis = build_relations(group, n, Variant.PLAIN).basis
        assert basis == keys
        for key, from_basis in zip(keys, basis):
            same = [key, canonicalize(key.entries), from_basis]
            assert len({hash(k) for k in same}) == 1
            assert len(set(same)) == 1
        assert len(set(keys) | set(basis)) == len(keys)


def _cyclic_pair_count(n):
    # independent count of sorted pairs (a <= b) with gcd(a, b, n) = 1
    return sum(1 for a in range(n) for b in range(a, n)
               if gcd(gcd(a, b), n) == 1)


def test_enumerate_generators_cyclic_counts():
    for n in (2, 3, 5, 7, 9):
        g = make_group((n,))
        keys = enumerate_generators(g, 2)
        assert len(keys) == _cyclic_pair_count(n)
        assert keys == sorted(keys)
    assert len(enumerate_generators(make_group((5,)), 2)) == 14


def test_enumerate_generators_needs_full_rank():
    g = make_group((2, 2, 2))
    assert enumerate_generators(g, 2) == []  # rank 3 dual, two entries
    assert len(enumerate_generators(g, 3)) > 0


def test_enumerate_generators_guards():
    g = make_group((5, 25))
    with pytest.raises(BoundExceeded):
        enumerate_generators(g, 2, bound=100)
    with pytest.raises(ValueError):
        enumerate_generators(g, 0)


def test_formal_sum_basics():
    g = make_group((5,))
    k1 = canonicalize((g.character((1,)),))
    k2 = canonicalize((g.character((2,)),))
    s = FormalSum([(k1, 1), (k2, Fraction(1, 2)), (k1, -1)])
    assert s.terms == {k2: Fraction(1, 2)}
    assert (s - s).is_zero()
    assert FormalSum.of(k1, 0).is_zero()
    assert s.scale(2) == FormalSum({k2: 1})
    assert s + s == s.scale(2)


def test_formal_sum_one_space():
    # terms over two groups, or a key with a coset, make no sum; nonzero
    # sums over different spaces do not add; the zero sum adds to any
    g5, g7 = make_group((5,)), make_group((7,))
    k5 = canonicalize((g5.character((1,)),))
    k7 = canonicalize((g7.character((1,)),))
    coset = CosetSymbol(1, 0, 0, 1, (5, 1))
    for terms in ([(k5, 1), (k7, 2)], [(k5, 1), (coset, 1)],
                  [(coset, 1), (CosetSymbol(1, 0, 0, 1, (5, 2)), 1)]):
        with pytest.raises(ValueError):
            FormalSum(terms)
    x, y, z = FormalSum.of(k5), FormalSum.of(k7, 2), FormalSum.of(coset)
    for a, b in ((x, y), (y, x), (x, z), (z, y)):
        with pytest.raises(ValueError):
            a + b
        with pytest.raises(ValueError):
            a - b
    for s in (x, y, z):
        for zero in (FormalSum(), x - x, z.scale(0)):
            assert zero + s == s and s + zero == s and s - zero == s
            assert repr(zero + s) == repr(s)
    assert (x - x) + y == y and y != x and x != z


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(-4, 4)),
                max_size=8),
       st.lists(st.tuples(st.integers(0, 3), st.integers(-4, 4)),
                max_size=8),
       st.integers(-3, 3))
def test_formal_sum_module_axioms(ta, tb, k):
    g = make_group((5,))
    keys = [canonicalize((g.character((r,)),)) for r in (1, 2, 3, 4)]
    x = FormalSum([(keys[i], c) for i, c in ta])
    y = FormalSum([(keys[i], c) for i, c in tb])
    assert x + y == y + x
    assert (x + y) - y == x
    assert (x + y).scale(k) == x.scale(k) + y.scale(k)
    if k:
        assert x.scale(k).scale(Fraction(1, k)) == x
    else:
        assert x.scale(k).is_zero()


def test_det_class_values():
    g = make_group((3, 9))
    key = canonicalize((g.character((1, 1)), g.character((0, 1))))
    # det = 1*1 - 1*0 = 1 mod 3
    assert det_class(key) == DetClass(3, 1)
    # swapping rows or negating one entry flips the sign, same class
    flipped = canonicalize((g.character((2, 8)), g.character((0, 1))))
    assert det_class(flipped) == det_class(key)
    with pytest.raises(ValueError):
        DetClass(3, 0)  # not a unit


def test_det_classes_catalog():
    assert [c.k for c in det_classes(make_group((3, 3)))] == [1]
    assert [c.k for c in det_classes(make_group((5, 25)))] == [1, 2]
    assert [c.k for c in det_classes(make_group((7, 7)))] == [1, 2, 3]
    with pytest.raises(ValueError):
        det_classes(make_group((2, 4)))  # needs N >= 3
    with pytest.raises(ValueError):
        det_classes(make_group((9,)))


def test_det_classes_partition_keys():
    for factors in ((3, 3), (3, 9), (4, 8)):
        g = make_group(factors)
        allkeys = enumerate_generators(g, 2)
        chunks = [enumerate_det_class(g, c) for c in det_classes(g)]
        assert sum(len(ch) for ch in chunks) == len(allkeys)
        assert sorted(k for ch in chunks for k in ch) == allkeys
        for ch, cls in zip(chunks, det_classes(g)):
            assert all(det_class(k) == cls for k in ch)


def test_det_class_sizes_equal():
    # multiplication by a unit permutes keys, so the classes have one size
    g = make_group((5, 25))
    sizes = {c.k: len(enumerate_det_class(g, c)) for c in det_classes(g)}
    assert len(set(sizes.values())) == 1


def _char_det_class(key):
    """The determinant class read from the key's characters."""
    n_small = key.group.invariant_form()[0]
    pos = [i for i, f in enumerate(key.group.factors) if f > 1]
    a, b = key.entries
    det = (a.residues[pos[0]] * b.residues[pos[1]]
           - a.residues[pos[1]] * b.residues[pos[0]])
    return DetClass(n_small, det)


def test_det_class_matches_characters():
    # every Z/N x Z/MN with N >= 3 of order <= 81, one presentation with a
    # trivial factor in front
    groups = [(n, n * m) for n in range(3, 10) for m in range(1, 10)
              if n * n * m <= 81] + [(1, 3, 6)]
    assert len(groups) == 23
    for factors in groups:
        g = make_group(factors)
        keys = enumerate_generators(g, 2)
        for key in keys:
            assert det_class(key) == _char_det_class(key)
        for cls in det_classes(g):
            assert enumerate_det_class(g, cls) == [
                key for key in keys if _char_det_class(key) == cls]


def _assert_class_walk_matches_filter(limit):
    """det_class_groups against the class cut from all generating pairs,
    and from the sign classes' reps, for every class of Z/N x Z/NM with
    N = 3..12 and N^2 M <= limit, and of two presentations with a trivial
    factor; the number of cases compared."""
    groups = [(n, n * m) for n in range(3, 13)
              for m in range(1, limit // (n * n) + 1)]
    cases = 0
    for factors in groups + [(1, 5, 5), (5, 1, 10)]:
        g = make_group(factors)
        pairs = _generating_codes(g, 2, g.order ** 2)
        reps = sign_class_groups(g, 2)
        for cls in det_classes(g):
            keep = in_det_class(g, cls)
            assert det_class_groups(g, cls) == filter_groups(pairs, keep), (
                factors, cls)
            assert det_class_groups(g, cls, reps=True) == filter_groups(
                reps, keep), (factors, cls)
            cases += 2
    return cases


def test_det_class_groups_match_filtered_pairs():
    assert _assert_class_walk_matches_filter(200) == 180 + 8
    g = make_group((5, 10))
    assert det_class_groups(g, 2) == det_class_groups(g, DetClass(5, 3))
    for factors, k in (((2, 4), 1), ((3, 3, 3), 1), ((6, 3), 1),
                       ((9,), 1), ((3, 9), 3)):
        with pytest.raises(ValueError):
            det_class_groups(make_group(factors), k)
    with pytest.raises(ValueError):
        det_class_groups(make_group((3, 9)), DetClass(5, 1))
    with pytest.raises(BoundExceeded):
        det_class_groups(make_group((3, 9)), 1, bound=27 ** 2 - 1)


@pytest.mark.slow
def test_det_class_groups_match_filtered_pairs_wide():
    assert _assert_class_walk_matches_filter(800) == 758 + 8
