"""Groups, characters, subgroups, quotients, and the dual-side maps."""

import gc
from fractions import Fraction
from functools import partial
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from itertools import combinations_with_replacement

from abelsym.abelian import (SubgroupHandle, code_tuples,
                             generating_code_groups, make_group,
                             negation_codes, pairing, parse_group,
                             proper_cyclic_subgroups, quotient_data,
                             spans_dual, sum_codes)
from abelsym import congruence
from abelsym.relations import dimension
from abelsym.symbols import enumerate_generators
from relref import presentations, reference_spans_dual


def test_make_group_basics():
    g = make_group((2, 4))
    assert g.order == 8
    assert g.rank == 2
    assert g.invariant_factors == (2, 4)
    assert g.exponent == 4
    assert make_group((2, 4)) is g  # interned

    # non-invariant factor order still normalizes
    assert make_group((6, 4)).invariant_form() == (2, 12)
    assert make_group((1,)).rank == 0


def test_make_group_validation():
    with pytest.raises(ValueError):
        make_group(())
    with pytest.raises(ValueError):
        make_group((0,))
    with pytest.raises(ValueError):
        make_group((101, 101))  # over the default order limit


@pytest.mark.parametrize("func, args, match", [
    (make_group, ((2.5, 4),), "cyclic factor orders must be integers"),
    (enumerate_generators, (make_group((5,)), 2.5), "symbol length n"),
    (dimension, (make_group((5,)), 2.0, "minus"), "symbol length n"),
    (congruence.eps_fixed, (3.0,), "M > 2"),
] + [(getattr(congruence, name), (3.0, 1), "level needs integers")
     for name in ("manin_space", "cusp_orbit_count", "iso_check",
                  "coset_index", "cusp_formula", "genus",
                  "level_invariants")],
    ids=lambda v: getattr(v, "__name__", None))
def test_non_integer_sizes_are_refused(func, args, match):
    # an integral float is no size either: each entry point refuses it
    # rather than answer for the truncated value or fail inside range()
    with pytest.raises(ValueError, match=match):
        func(*args)


def test_int_likes_pass_as_sizes():
    np = pytest.importorskip("numpy")
    g5 = make_group((5,))
    assert make_group((np.int64(2), np.int8(4))) is make_group((2, 4))
    assert (enumerate_generators(g5, np.int64(2))
            == enumerate_generators(g5, 2))
    assert congruence.coset_index(np.int64(3), np.int16(2)) == \
        congruence.coset_index(3, 2)


def test_parse_group():
    assert parse_group("3x9").factors == (3, 9)
    assert parse_group("16").factors == (16,)
    with pytest.raises(ValueError):
        parse_group("3x")
    with pytest.raises(ValueError):
        parse_group("abc")


def test_characters_and_arithmetic():
    g = make_group((2, 4))
    chars = g.characters()
    assert len(chars) == 8
    a = g.character((1, 3))
    assert a is g.character((3, 7))  # reduced mod factors, interned
    assert (-a).residues == (1, 1)
    assert (a + a).residues == (0, 2)
    assert (3 * a).residues == (1, 1)
    assert a.order() == 4
    assert g.zero().is_zero()


def test_pairing_values():
    g = make_group((2, 4))
    b = g.character((1, 1))
    assert pairing(b, (1, 0)) == Fraction(1, 2)
    assert pairing(b, (1, 2)) == 0
    assert pairing(b, (0, 3)) == Fraction(3, 4)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 1),
       st.integers(0, 3))
def test_pairing_bilinear(r1, r2, g1, g2):
    g = make_group((2, 4))
    b1 = g.character(divmod(r1, 4))
    b2 = g.character(divmod(r2, 4))
    x = (g1, g2)
    assert (pairing(b1 + b2, x)) == (pairing(b1, x) + pairing(b2, x)) % 1


def test_spans_dual_cyclic():
    g = make_group((6,))
    one = g.character((1,))
    two = g.character((2,))
    three = g.character((3,))
    assert spans_dual((one,), g)
    assert not spans_dual((two,), g)
    assert spans_dual((two, three), g)  # gcd(2,3,6) = 1
    assert not spans_dual((two, two), g)


def test_spans_dual_rank_two_and_three():
    g = make_group((3, 3))
    assert spans_dual((g.character((1, 0)), g.character((0, 1))), g)
    assert not spans_dual((g.character((1, 0)), g.character((2, 0))), g)
    h = make_group((2, 2, 2))
    cols = (h.character((1, 0, 0)), h.character((0, 1, 0)),
            h.character((0, 0, 1)))
    assert spans_dual(cols, h)
    assert not spans_dual(cols[:2], h)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5))
def test_spans_dual_single_char_gcd_rule(a, b):
    # one character spans the dual of a cyclic group iff it is a unit
    g = make_group((6,))
    ch = g.character((a,))
    assert spans_dual((ch,), g) == (gcd(a, 6) == 1)
    # for rank 2 a single character never spans
    h = make_group((2, 4))
    assert not spans_dual((h.character((a, b)),), h)


def test_spans_dual_matches_dense_reference():
    # every n-multiset, n = 1..3, over all groups of order <= 16, rank 3
    # and 4 and non-invariant presentations included; the walk in
    # generating_code_groups must keep exactly the spanning ones, in order.
    # n = 4 on 2x2x2x2 and 2x2x4 is where a three-dimensional prefix basis
    # meets the last position's remainder test
    groups = presentations(16)
    literals = {g.literal() for g in groups}
    assert {"2x2x2x2", "2x2x4", "2x3", "4x2", "3x1x3"} <= literals
    for g in groups:
        chars = g.characters()
        top = 4 if g.literal() in ("2x2x2x2", "2x2x4") else 3
        for n in range(1, top + 1):
            kept = []
            for combo in combinations_with_replacement(chars, n):
                want = reference_spans_dual(combo, g)
                assert spans_dual(combo, g) == want, (g, combo)
                assert spans_dual(combo[::-1], g) == want, (g, combo)
                if want:
                    kept.append(tuple(ch.code for ch in combo))
            assert code_tuples(generating_code_groups(g, n)) == kept, (g, n)


def test_generating_code_tuples_leaves_no_cycle():
    # the recursive walk's closure refers to itself; once the walk is done
    # the reference is dropped, so reference counting frees its tables and
    # the collector finds nothing (3,928 objects over these four walks
    # while the closure held itself)
    gc.collect()
    gc.disable()
    try:
        for chain in ((36,), (6, 6), (2, 4, 4), (81,)):
            generating_code_groups(make_group(chain), 2)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_generating_code_groups_checks_codes():
    # the groups and the fold's column positions rely on sorted codes; an
    # unsorted list once gave wrong tuples without an error
    g = make_group((2, 4))
    assert code_tuples(generating_code_groups(g, 2, [1, 3, 5])) == [
        t for t in code_tuples(generating_code_groups(g, 2))
        if set(t) <= {1, 3, 5}]
    assert generating_code_groups(g, 2, []) == []
    assert generating_code_groups(make_group((8,)), 1, (3, 4)) == [
        ((), [3])]
    for codes in ([3, 1, 5], [1, 1, 3], [-1, 3], [1, 8], [8]):
        with pytest.raises(ValueError, match="strictly increasing"):
            generating_code_groups(g, 2, codes)


def test_character_codes():
    g = make_group((3, 1, 4))
    chars = g.characters()
    assert [ch.code for ch in chars] == list(range(12))
    assert g.code((1, 5, 7)) == chars.index(g.character((1, 0, 3)))
    neg = negation_codes(g)
    for a in chars:
        assert chars[neg[a.code]] is -a


@pytest.mark.parametrize("factors", [(2, 4), (6,), (3, 9), (1, 5)])
def test_one_character_table(factors):
    # character() reads characters(), reduced residues or not
    g = make_group(factors)
    for r in g.elements():
        for res in (r, tuple(x + f for x, f in zip(r, g.factors))):
            assert g.character(res) is g.characters()[g.code(res)]


@pytest.mark.parametrize("residues", [(1, 2, 3), (1,)])
@pytest.mark.parametrize("entry", ["code", "character", "element_order",
                                   "SubgroupHandle"])
def test_residue_tuples_of_the_wrong_length_are_refused(entry, residues):
    # a zip over the factors would read (1, 2, 3) as (1, 2) and (1,) as
    # (1, 0) on Z/2 x Z/4
    g = make_group((2, 4))
    call = (partial(SubgroupHandle, g) if entry == "SubgroupHandle"
            else getattr(g, entry))
    with pytest.raises(ValueError, match="one coordinate per factor of 2x4"):
        call(residues)


@pytest.mark.parametrize("residues", [(0.5, 0), (1.0, 0)])
@pytest.mark.parametrize("entry", ["code", "character", "element_order",
                                   "SubgroupHandle", "pairing"])
def test_non_integer_residues_are_refused(entry, residues):
    # on Z/2 x Z/4 a float residue gave a float code naming another element
    # (0.5, 0) -> 2.0, the code of (0, 2), or raised TypeError
    g = make_group((2, 4))
    call = {"SubgroupHandle": partial(SubgroupHandle, g),
            "pairing": partial(pairing, g.character((1, 1)))}.get(entry)
    with pytest.raises(ValueError, match="residues must be integers"):
        (call or getattr(g, entry))(residues)


def test_int_like_residues_become_ints():
    np = pytest.importorskip("numpy")
    g = make_group((2, 4))
    code = g.code((np.int64(1), np.int64(3)))
    assert code == 7 and type(code) is int
    assert g.reduce((True, np.int16(5))) == (1, 1)
    assert all(type(r) is int for r in g.reduce((True, np.int16(5))))


def test_negation_codes_shared_and_read_only():
    # one table per group, the same object on every call, which no caller
    # can change; negation is an involution
    for g in presentations(40):
        neg = negation_codes(g)
        assert negation_codes(g) is neg, g
        assert type(neg) is tuple, g
        assert all(neg[neg[c]] == c for c in range(g.order)), g
        assert len(neg) == g.order, g


def test_sum_codes():
    # every presentation: the spread digits of two codes add without
    # carries, and wrap reads the sum's code, and with the negation table
    # the difference; Z/N reads (a + b) % N
    for g in presentations(40):
        chars = g.characters()
        spread, wrap = sum_codes(g)
        neg = negation_codes(g)
        assert [[wrap[spread[a.code] + spread[b.code]] for b in chars]
                for a in chars] == [[(a + b).code for b in chars]
                                    for a in chars], g
        assert [[wrap[spread[a.code] + spread[neg[b.code]]] for b in chars]
                for a in chars] == [[(a - b).code for b in chars]
                                    for a in chars], g
        assert len(wrap) < 2 ** len(g.factors) * g.order, g
    spread, wrap = sum_codes(make_group((7,)))
    assert spread == list(range(7)) and wrap == [c % 7 for c in range(13)]


def test_proper_cyclic_subgroups_cyclic():
    g = make_group((12,))
    subs = proper_cyclic_subgroups(g)
    assert [s.order for s in subs] == [1, 2, 3, 4, 6]
    assert subs[0].is_trivial()
    assert all(s.ambient is g for s in subs)


def test_proper_cyclic_subgroups_rank_two():
    g = make_group((2, 4))
    subs = proper_cyclic_subgroups(g)
    # orders: 1, then (1,0),(0,2),(1,2) of order 2, then (0,1),(1,1) of 4
    assert [s.order for s in subs] == [1, 2, 2, 2, 4, 4]
    seen = {frozenset(s.elements()) for s in subs}
    assert len(seen) == 6  # no duplicate subgroups


def test_quotient_data_maps():
    g = make_group((9,))
    sub = [s for s in proper_cyclic_subgroups(g) if s.order == 3][0]
    q = quotient_data(g, sub)
    assert q.quotient.order == 3

    # annihilator = characters vanishing on the subgroup
    ann = q.annihilator()
    assert sorted(ch.residues[0] for ch in ann) == [0, 3, 6]

    # dual_embed is a section of nothing on the subgroup side: embedded
    # characters restrict to zero, and embedding then inverting is exact
    for qch in q.quotient.characters():
        emb = q.dual_embed(qch)
        assert emb in ann
        assert q.dual_restrict(emb) == 0

    # dual_restrict and the lift maps are mutually consistent
    for a in range(sub.order):
        lift = q.lift_restriction(a)
        assert q.dual_restrict(lift) == a
        lifts = q.dual_lifts(a)
        assert lift == lifts[0]  # lex-least comes first
        assert len(lifts) == g.order // sub.order
        assert all(q.dual_restrict(ch) == a for ch in lifts)


def test_lift_restriction_is_the_least_character():
    # every a mod d on every proper cyclic subgroup of every group of order
    # <= 24: the lift is the first character of characters() over a
    cases = 0
    for g in presentations(24):
        for sub in proper_cyclic_subgroups(g):
            q = quotient_data(g, sub)
            for a in range(sub.order):
                least = next(ch for ch in g.characters()
                             if q.dual_restrict(ch) == a)
                assert q.lift_restriction(a) == least
                assert q.lift_restriction(a - sub.order) == least
                cases += 1
    assert cases == 900


def test_quotient_of_rank_two_group():
    g = make_group((2, 4))
    sub = [s for s in proper_cyclic_subgroups(g)
           if s.order == 2 and s.generator == (0, 2)][0]
    q = quotient_data(g, sub)
    assert q.quotient.order == 4
    # projection is a homomorphism onto the quotient
    seen = {q.project(x) for x in g.elements()}
    assert len(seen) == 4
    assert q.project(sub.generator) == q.project((0, 0))


def test_quotient_data_validation():
    g = make_group((4,))
    h = make_group((8,))
    sub = proper_cyclic_subgroups(h)[0]
    with pytest.raises(ValueError):
        quotient_data(g, sub)
