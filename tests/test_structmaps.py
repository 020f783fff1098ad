"""Splitting/merging maps, sign reduction, and the kernel identification."""

import json
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

import structref
from abelsym import relations, structmaps
from abelsym.abelian import (make_group, proper_cyclic_subgroups,
                             quotient_data)
from abelsym.congruence import CosetSymbol, manin_space
from abelsym.exactla import SpanChecker
from abelsym.relations import (Variant, build_relations, kernel_dimension,
                               kernel_generators)
from abelsym.structmaps import (TensorSum, _Split, _tensor, comultiply,
                                delta_sum, minus_reduce, multiply, nu,
                                omega_generators, plus_reduce, psi,
                                verify_comultiplication, verify_kernel_iso)
from abelsym.symbols import (FormalSum, SymbolKey, canonicalize,
                             enumerate_generators)
from relref import presentations
from test_congruence import run_optimized


def _key(group, *residue_tuples):
    return canonicalize(tuple(group.character(r) for r in residue_tuples))


def _sub_of_order(group, order):
    return [s for s in proper_cyclic_subgroups(group) if s.order == order][0]


def test_minus_reduce():
    g3 = make_group((3,))
    one = _key(g3, (1,))
    two = _key(g3, (2,))
    assert minus_reduce(one) == (one, 1)
    assert minus_reduce(two) == (one, -1)
    # over Z/2 negation fixes the key with odd parity: rationally zero
    g2 = make_group((2,))
    assert minus_reduce(_key(g2, (1,))) is None
    # a two-entry key reaches its representative along a unique parity
    g9 = make_group((9,))
    key = _key(g9, (1,), (3,))
    rep, sign = minus_reduce(key)
    assert rep == key and sign == 1
    rep2, sign2 = minus_reduce(_key(g9, (3,), (8,)))
    assert rep2 == key and sign2 == -1  # flip the 8 to 1


def test_plus_reduce():
    g3 = make_group((3,))
    two = _key(g3, (2,))
    rep, sign = plus_reduce(two)
    assert rep == _key(g3, (1,)) and sign == 1
    with pytest.raises(ValueError):
        plus_reduce(_key(make_group((9,)), (1,), (3,)))


def test_tensor_sum_reduction_and_cancellation():
    g3 = make_group((3,))
    one, two = _key(g3, (1,)), _key(g3, (2,))
    # (2)(x)(2) reduces to -(1)(x)(1) on a plus/minus pair of tags
    s = TensorSum(Variant.PLUS, Variant.MINUS,
                  [(two, two, 1), (one, one, 1)])
    assert s.is_zero()
    # a rationally-zero right key is dropped on insertion
    g2 = make_group((2,))
    t = TensorSum(Variant.PLUS, Variant.MINUS,
                  [(one, _key(g2, (1,)), 5)])
    assert t.is_zero()
    # on a minus left side as well
    assert TensorSum(Variant.MINUS, Variant.MINUS,
                     [(_key(g2, (1,)), one, 5)]).is_zero()
    mismatch = TensorSum(Variant.PLAIN, Variant.MINUS)
    with pytest.raises(ValueError):
        s + mismatch


def test_tensor_sum_addition_equality_and_repr():
    # comultiply images on Z/9 over its subgroup of order 3, each one term
    # +-<(1)>(x)<(1)>, summed term by term
    g9 = make_group((9,))
    sub = _sub_of_order(g9, 3)
    s, t, u = (comultiply(sub, _key(g9, (a,), (b,)), 1)
               for a, b in ((1, 3), (1, 6), (3, 4)))
    cyc = make_group((3,))  # both Z/d and the quotient
    pair = (_key(cyc, (1,)), _key(cyc, (1,)))
    assert s.terms == {pair: 1} and t.terms == {pair: -1}
    assert (s + u).terms == {pair: 2}
    assert (s + t).is_zero() and s + t == TensorSum(Variant.PLAIN,
                                                     Variant.MINUS)
    assert s + u == u + s and s == u and s != t
    assert s + TensorSum(Variant.PLAIN, Variant.MINUS) == s
    # the sum is a new object: its operands keep their terms
    assert s.terms == {pair: 1} and u.terms == {pair: 1}
    assert s != TensorSum(Variant.PLUS, Variant.MINUS, [(*pair, 1)])
    assert s != s.terms
    assert repr(s + u) == "TensorSum(2*<(1)>(x)<(1)>)"
    assert repr(s + t) == "TensorSum(0)"


def test_multiply_sums_over_lifts():
    g9 = make_group((9,))
    sub = _sub_of_order(g9, 3)
    cyc = make_group((3,))
    left = _key(cyc, (1,))
    right = _key(cyc, (1,))  # quotient of C_9 by order 3 is again C_3
    merged = multiply(sub, left, right)
    want = FormalSum([(_key(g9, (1,), (3,)), 1),
                      (_key(g9, (3,), (4,)), 1),
                      (_key(g9, (3,), (7,)), 1)])
    assert merged == want
    with pytest.raises(ValueError):
        multiply(sub, _key(g9, (1,), (3,)), right)  # left not over Z/3


def test_comultiply_single_split():
    g9 = make_group((9,))
    sub = _sub_of_order(g9, 3)
    cyc = make_group((3,))
    image = comultiply(sub, _key(g9, (1,), (3,)), 1)
    assert image.items() == [((_key(cyc, (1,)), _key(cyc, (1,))),
                              Fraction(1))]
    # no entry annihilates the subgroup: the image is zero
    assert comultiply(sub, _key(g9, (1,), (1,)), 1).is_zero()
    with pytest.raises(ValueError):
        comultiply(sub, _key(g9, (1,), (3,)), 2)  # nprime must be < n


def test_multiply_comultiply_validation():
    g9 = make_group((9,))
    g12 = make_group((12,))
    sub = _sub_of_order(g9, 3)
    with pytest.raises(ValueError):
        comultiply(sub, _key(g12, (1,), (4,)), 1)


def test_nu_keeps_zero_components():
    g9 = make_group((9,))
    x = (FormalSum.of(_key(g9, (1,), (3,)))
         + FormalSum.of(_key(g9, (1,), (6,))))
    comps = nu(g9, 2, x)
    by_order = {sub.order: comp for sub, comp in comps.items()}
    assert set(by_order) == {1, 3}
    # the two summands split oppositely across the order-3 subgroup
    assert by_order[3].is_zero()
    assert not by_order[1].is_zero()
    with pytest.raises(ValueError):
        nu(g9, 3, x)  # summand length mismatch
    with pytest.raises(ValueError):
        nu(g9, 1, FormalSum())


def test_psi_frozen_value():
    g9 = make_group((9,))
    sub = _sub_of_order(g9, 3)
    cyc = make_group((3,))
    out = psi(sub, 1, _key(cyc, (1,)))
    want = FormalSum([(_key(g9, (1,), (3,)), Fraction(1, 2)),
                      (_key(g9, (3,), (8,)), Fraction(1, 2))])
    assert out == want
    assert repr(out) == "FormalSum(1/2*<(1), (3)> + 1/2*<(3), (8)>)"
    with pytest.raises(ValueError):
        psi(sub, 0, _key(cyc, (1,)))  # residue must be a unit
    with pytest.raises(ValueError):
        psi(sub, 1, _key(g9, (1,)))  # right key must live on the quotient


def test_psi_lift_choice_is_a_relation():
    # moving the chosen lift by an annihilator element changes psi by a
    # rational combination of blowup rows only
    g9 = make_group((9,))
    sub = _sub_of_order(g9, 3)
    cyc = make_group((3,))
    rkey = _key(cyc, (1,))
    q = quotient_data(g9, sub)
    pushed = tuple(q.dual_embed(ch) for ch in rkey)
    lift = q.lift_restriction(1) + q.dual_embed(cyc.character((1,)))
    alt = FormalSum([(canonicalize((lift,) + pushed), Fraction(1, 2)),
                     (canonicalize((-lift,) + pushed), Fraction(1, 2))])
    system = build_relations(g9, 2, Variant.PLAIN)
    diff = alt - psi(sub, 1, rkey)
    assert not diff.is_zero()
    assert SpanChecker(system.rel).contains(system.vector(diff))


def test_psi_sign_compatibility():
    # psi at -a agrees with psi at a modulo the plain relations
    g12 = make_group((12,))
    sub = _sub_of_order(g12, 4)
    cyc3 = make_group((3,))
    rkey = _key(cyc3, (1,))
    system = build_relations(g12, 2, Variant.PLAIN)
    checker = SpanChecker(system.rel)
    diff = psi(sub, 1, rkey) - psi(sub, 3, rkey)
    assert diff.is_zero() or checker.contains(system.vector(diff))


def test_delta_sum_degenerate_and_membership():
    g22 = make_group((2, 2))
    key = _key(g22, (1, 0), (0, 1))
    assert delta_sum(key) == FormalSum.of(key, 4)  # signs are no-ops mod 2

    g9 = make_group((9,))
    system = build_relations(g9, 2, Variant.PLAIN)
    checker = SpanChecker(system.rel)
    for key in system.basis:
        image = delta_sum(key)
        assert image.is_zero() or checker.contains(system.vector(image))


def test_delta_sum_positions():
    g22 = make_group((2, 2))
    keys = build_relations(g22, 3, Variant.PLAIN).basis
    system = build_relations(g22, 3, Variant.PLAIN)
    checker = SpanChecker(system.rel)
    for key in keys[:6]:
        for i, j in ((0, 1), (0, 2), (1, 2)):
            image = delta_sum(key, i, j)
            assert image.is_zero() or checker.contains(system.vector(image))
    with pytest.raises(ValueError):
        delta_sum(keys[0], 1, 1)
    with pytest.raises(ValueError):
        delta_sum(keys[0], 0, 3)


def _same_as_built(key, group, other):
    """`key` is equal, hash-equal and ordered against `other` like the key
    SymbolKey builds from a list of its codes, and holds a sorted tuple."""
    built = SymbolKey(group, list(key.codes))
    assert key == built and hash(key) == hash(built)
    assert key.group is group and type(key.codes) is tuple
    assert list(key.codes) == sorted(key.codes)
    assert ((key < other, other < key, key <= other)
            == (built < other, other < built, built <= other))


def test_delta_sum_keys_match_built_keys():
    # every key of enumerate_generators and every term of delta_sum, at
    # every position pair, on every n = 2 presentation of order <= 36 and
    # every n = 3 one of order <= 12
    nothing = FormalSum()
    for group, n in ([(g, 2) for g in presentations(36)]
                     + [(g, 3) for g in presentations(12)]):
        keys = enumerate_generators(group, n)
        system = build_relations(group, n, Variant.PLAIN, keys=keys)
        seen = set()
        for k, key in enumerate(keys):
            _same_as_built(key, group, keys[k - 1])
            assert k == 0 or keys[k - 1] < key
        for key in keys:
            for i, j in combinations(range(n), 2):
                terms = delta_sum(key, i, j).terms
                assert next(iter(terms)) is key     # unflipped, not rebuilt
                for term in terms:
                    _same_as_built(term, group, key)
                # a fresh sum, held as code tuples, against the sum built
                # from its keys: vector and is_zero read its codes
                fresh = delta_sum(key, i, j)
                got, zero = system.vector(fresh), fresh.is_zero()
                built = FormalSum(dict(fresh.terms))
                want = system.vector(built)
                assert list(got.items()) == list(want.items())
                assert zero is built.is_zero()
                assert fresh == built and built == fresh
                assert fresh + nothing == built
                # repr and scale read the built terms as == does: once per
                # set of columns (the sum is constant on a sign class)
                if frozenset(got) not in seen:
                    seen.add(frozenset(got))
                    assert repr(fresh) == repr(built)
                    assert fresh.scale(2) == built.scale(2)


def _count_key_builds(monkeypatch):
    """The list that every SymbolKey build appends its codes to from now
    on: every key, checked or not, is built through `__init__`."""
    built, init = [], SymbolKey.__init__

    def counted_init(key, group, codes):
        built.append(codes)
        init(key, group, codes)

    monkeypatch.setattr(SymbolKey, "__init__", counted_init)
    return built


def test_delta_probe_builds_no_key(monkeypatch):
    # delta_sum, is_zero and vector run on code tuples alone; reading the
    # terms then builds every key but the caller's
    group = make_group((5, 5))
    keys = enumerate_generators(group, 2)
    system = build_relations(group, 2, Variant.PLAIN, keys=keys)
    built = _count_key_builds(monkeypatch)
    for key in keys:
        image = delta_sum(key)
        assert not image.is_zero()
        assert len(system.vector(image)) == 4
    assert built == []
    assert len(image.terms) == 4 and len(built) == 3


def test_tensor_sums_build_no_key_until_read(monkeypatch):
    # comultiply, nu and TensorSum from key triples hold code tuples:
    # is_zero, == and + build no key; terms, items and repr build the key
    # pairs, equal to the reference's.  The triples hold a PLUS left side,
    # a right side that is rationally zero, and pairs over Z/3 and over
    # Z/5 with equal codes, which stay two terms
    g9, g3, g5, g2 = (make_group((k,)) for k in (9, 3, 5, 2))
    sub = _sub_of_order(g9, 3)
    key = _key(g9, (1,), (3,))
    x = FormalSum([(key, 1), (_key(g9, (3,), (4,)), Fraction(-1, 2))])
    one3, two3, one5, four5 = (_key(g, (a,)) for g, a in
                               ((g3, 1), (g3, 2), (g5, 1), (g5, 4)))
    triples = [(two3, two3, 1), (one3, _key(g2, (1,)), 5),
               (one5, one5, 3), (four5, four5, Fraction(1, 2)),
               (one3, two3, 0)]
    want = ([structref.comultiply(sub, key, 1)]
            + list(structref.nu(g9, 2, x).values())
            + [structref.tensor(Variant.PLUS, triples)])
    assert want[-1] == {(one3, one3): -1, (one5, one5): Fraction(5, 2)}

    built = _count_key_builds(monkeypatch)
    sums = ([comultiply(sub, key, 1)] + list(nu(g9, 2, x).values())
            + [TensorSum(Variant.PLUS, Variant.MINUS, triples)])
    for tsum, ref in zip(sums, want):
        assert tsum.is_zero() is not bool(ref)
        assert tsum == tsum + TensorSum(tsum.left_variant, Variant.MINUS)
        assert (tsum + tsum == tsum) is not bool(ref)
    assert built == []
    for tsum, ref in zip(sums, want):
        _same_terms(tsum.terms, ref)
        assert len(built) == 2 * len(ref)
        assert tsum.items() == sorted(ref.items())
        built.clear()
    assert repr(sums[-1]) == "TensorSum(-1*<(1)>(x)<(1)> + 5/2*<(1)>(x)<(1)>)"
    assert len(built) == 4


def test_keys_cosets_and_characters_order_across_groups():
    # keys order by (group factors, codes), so a sum's items and repr do
    # not depend on the order its triples were given
    k3, k5 = _key(make_group((3,)), (1,)), _key(make_group((5,)), (1,))
    assert k3.codes == k5.codes and k3 != k5
    assert k3 < k5 and k3 <= k5 and not k5 < k3 and not k5 <= k3
    triples = [(k3, k3, 1), (k5, k5, 2)]
    sums = [TensorSum(Variant.PLUS, Variant.MINUS, t)
            for t in (triples, triples[::-1])]
    assert sums[0] == sums[1]
    assert sums[0].items() == sums[1].items()
    assert repr(sums[0]) == repr(sums[1]) == (
        "TensorSum(1*<(1)>(x)<(1)> + 2*<(1)>(x)<(1)>)")
    # cosets by (level, quad), characters by (group factors, residues)
    one, two = (CosetSymbol(1, 0, 0, 1, level) for level in ((3, 2), (2, 3)))
    assert two < one and not one < two
    chi3, chi5 = (make_group((k,)).character((1,)) for k in (3, 5))
    assert chi3 < chi5 and chi3 <= chi5 and not chi5 < chi3


def test_bases_built_only_when_read(monkeypatch):
    # relation systems, plain dimensions, kernel generators and Manin
    # spaces build no key or coset; reading `basis` builds each once, and
    # a caller's keys are the basis as given
    group = make_group((5, 5))
    keys = enumerate_generators(group, 2)
    built = _count_key_builds(monkeypatch)
    coset_set = CosetSymbol._set

    def counted_set(sym, *quad_level):
        built.append(quad_level)
        coset_set(sym, *quad_level)

    monkeypatch.setattr(CosetSymbol, "_set", counted_set)
    system = build_relations(group, 2, Variant.PLAIN)
    assert relations.dimension(group, 2, Variant.PLAIN).dim_q == 46
    gens = kernel_generators(group, 2)
    manin, _ = manin_space(11, 1)
    assert built == []
    for basis_of, count in ((system, len(keys)), (manin, 1320)):
        basis = basis_of.basis
        assert len(built) == len(basis) == count
        assert basis_of.basis is basis and len(built) == count
        built.clear()
    assert system.basis == keys
    assert len(gens[0].terms) == len(built) == 2
    given = build_relations(group, 2, Variant.PLAIN, keys=keys)
    assert all(given.basis[i] is key for i, key in enumerate(keys))


def test_vector_error_matches_key_path():
    # a sum held as code tuples raises the key path's KeyError: over
    # another group, with codes outside the basis (n = 3 on an n = 2
    # system), and on a Manin system, whose index holds quads
    g55, g33 = make_group((5, 5)), make_group((3, 3))
    manin, _ = manin_space(11, 1)
    cases = [(build_relations(g55, 2, Variant.PLAIN), g33, 2),
             (build_relations(g33, 2, Variant.PLAIN), g33, 3),
             (manin, g55, 2), (manin, manin.group, 2)]
    for system, group, n in cases:
        key = enumerate_generators(group, n)[0]
        messages = []
        for image in (delta_sum(key), FormalSum(dict(delta_sum(key).terms))):
            with pytest.raises(KeyError) as err:
                system.vector(image)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("'key <")


def test_split_restrict_table_matches_dual_restrict():
    # restrict, built digit by digit, against dual_restrict per character;
    # the lifts read off it, against lift_restriction up to order 36
    for group in presentations(60):
        for sub in proper_cyclic_subgroups(group):
            q = quotient_data(group, sub)
            split = _Split(sub)
            assert split.restrict == [q.dual_restrict(ch)
                                      for ch in group.characters()]
            if group.order <= 36:
                d = sub.order
                assert split.lifts == {
                    a: q.lift_restriction(a).code
                    for a in range(d) if gcd(a, d) == 1}, (group, sub)


@pytest.mark.parametrize("factors, n", [((5, 5), 2), ((3, 9), 2), ((25,), 2),
                                        ((3, 3), 3)])
def test_split_matches_reference_on_battery_groups(factors, n):
    # the battery groups, above the order limits of the test below; one
    # _Split per subgroup serves every key and left size, as in a battery
    group = make_group(factors)
    keys = enumerate_generators(group, n)
    for sub in proper_cyclic_subgroups(group):
        rec = _Split(sub)
        for nprime in range(1, n):
            for key in keys:
                got = _tensor(Variant.PLAIN, rec,
                              rec.split(key.codes, nprime)).terms
                _same_terms(got, structref.comultiply(sub, key, nprime))


def test_omega_generators_count_matches_kernel():
    for factors in ((7,), (9,), (12,), (3, 3)):
        g = make_group(factors)
        gens = omega_generators(g, 2)
        assert len(gens) == kernel_dimension(g, 2)
    gens9 = omega_generators(make_group((9,)), 2)
    assert [(s.order, a) for s, a, _ in gens9] == [(1, 0)] * 3 + [(3, 1)]


def test_verify_kernel_iso_battery():
    expected = {(7,): 3, (9,): 4, (12,): 5, (3, 3): 4}
    for factors, dim in expected.items():
        report = verify_kernel_iso(make_group(factors), 2)
        assert report.ok, report.to_json()
        kd = [c for c in report.checks if c["check"] == "kernel-dimension"]
        assert kd[0]["lhs"] == dim
    # empty degree: no keys at all, every check passes vacuously
    report = verify_kernel_iso(make_group((2, 2)), 3)
    assert report.ok
    assert report.to_json()["checks"][0]["lhs"] == 0


def test_verify_comultiplication_battery():
    # every presentation of order <= 32 at n = 2 and <= 12 at n = 3, the
    # non-invariant ones included
    for group, n in ([(g, 2) for g in presentations(32)]
                     + [(g, 3) for g in presentations(12)]):
        report = verify_comultiplication(group, n)
        assert report.ok, report.to_json()
        if n == 2:
            back = [c for c in report.checks
                    if c["check"] == "multiplication-relations"][0]
            assert back["lhs"] == back["rhs"] == 0  # vacuous at n = 2
    with pytest.raises(ValueError):
        verify_comultiplication(make_group((9,)), 1)


def _same_terms(new, ref):
    """Equal terms, each coefficient a Fraction as in the reference."""
    assert new == ref
    assert all(type(c) is Fraction for c in new.values())


@pytest.mark.parametrize("n, limit", [(2, 16), (3, 9)])
def test_code_tuple_maps_match_reference(n, limit):
    # every map against its character-based reference, over every proper
    # cyclic subgroup of every group of order <= limit
    for group in presentations(limit):
        keys = enumerate_generators(group, n)
        for key in keys:
            assert minus_reduce(key) == structref.minus_reduce(key)
            for i, j in combinations(range(n), 2):
                _same_terms(delta_sum(key, i, j).terms,
                            structref.delta_sum(key, i, j).terms)
        x = FormalSum([(key, Fraction(k % 5 - 2, k % 3 + 1))
                       for k, key in enumerate(keys[:12])])
        for gamma in kernel_generators(group, n)[:3] + [x]:
            got = [(s.generator, comp.terms)
                   for s, comp in nu(group, n, gamma).items()]
            want = [(s.generator, comp)
                    for s, comp in structref.nu(group, n, gamma).items()]
            assert [g for g, _ in got] == [g for g, _ in want]
            for (_, comp), (_, ref) in zip(got, want):
                _same_terms(comp, ref)
        assert ([(s.generator, a, r) for s, a, r in omega_generators(group, n)]
                == [(s.generator, a, r)
                    for s, a, r in structref.omega_generators(group, n)])
        for sub in proper_cyclic_subgroups(group):
            quot = quotient_data(group, sub).quotient
            cyc = make_group((sub.order,))
            for nprime in range(1, n):
                for key in keys:
                    _same_terms(comultiply(sub, key, nprime).terms,
                                structref.comultiply(sub, key, nprime))
                for left in enumerate_generators(cyc, nprime):
                    for right in enumerate_generators(quot, n - nprime):
                        _same_terms(multiply(sub, left, right).terms,
                                    structref.multiply(sub, left, right).terms)
            d = sub.order
            for right in enumerate_generators(quot, n - 1):
                for a in range(d):
                    if gcd(a, d) == 1:
                        _same_terms(psi(sub, a, right).terms,
                                    structref.psi(sub, a, right).terms)


def test_minus_reduce_matches_sign_search_at_higher_n():
    # the min(c, -c) rule against the reference's search over all 2^n sign
    # patterns, on every key at n = 4 and 5 over the groups of order <= 6
    count = 0
    for n in (4, 5):
        for group in presentations(6):
            for key in enumerate_generators(group, n):
                assert minus_reduce(key) == structref.minus_reduce(key), key
                count += 1
    assert count == 1572


@pytest.mark.parametrize("factors", [(5,), (6,), (2, 4), (3, 3)])
def test_omega_generators_match_reference_at_n4(factors):
    group = make_group(factors)
    assert ([(s.generator, a, r) for s, a, r in omega_generators(group, 4)]
            == [(s.generator, a, r)
                for s, a, r in structref.omega_generators(group, 4)])


# The check lists of both batteries, captured before the maps moved to code
# tuples; every field is compared.
PINNED_RECORDS = {
    ((9,), 2): [
        {"check": "kernel-dimension", "group": "9",
         "n": 2, "status": "pass", "lhs": 4, "rhs": 4},
        {"check": "nu-psi-identity", "group": "9",
         "n": 2, "status": "pass", "lhs": 4, "rhs": 4},
        {"check": "psi-nu-projection", "group": "9",
         "n": 2, "status": "pass", "lhs": 39, "rhs": 39},
        {"check": "comultiplication-relations", "group": "9",
         "n": 2, "status": "pass", "lhs": 72, "rhs": 72},
        {"check": "multiplication-relations", "group": "9",
         "n": 2, "status": "pass", "lhs": 0, "rhs": 0},
    ],
    ((2, 4), 2): [
        {"check": "kernel-dimension", "group": "2x4",
         "n": 2, "status": "pass", "lhs": 2, "rhs": 2},
        {"check": "nu-psi-identity", "group": "2x4",
         "n": 2, "status": "pass", "lhs": 2, "rhs": 2},
        {"check": "psi-nu-projection", "group": "2x4",
         "n": 2, "status": "pass", "lhs": 16, "rhs": 16},
        {"check": "comultiplication-relations", "group": "2x4",
         "n": 2, "status": "pass", "lhs": 72, "rhs": 72},
        {"check": "multiplication-relations", "group": "2x4",
         "n": 2, "status": "pass", "lhs": 0, "rhs": 0},
    ],
    ((3, 3), 2): [
        {"check": "kernel-dimension", "group": "3x3",
         "n": 2, "status": "pass", "lhs": 4, "rhs": 4},
        {"check": "nu-psi-identity", "group": "3x3",
         "n": 2, "status": "pass", "lhs": 4, "rhs": 4},
        {"check": "psi-nu-projection", "group": "3x3",
         "n": 2, "status": "pass", "lhs": 24, "rhs": 24},
        {"check": "comultiplication-relations", "group": "3x3",
         "n": 2, "status": "pass", "lhs": 120, "rhs": 120},
        {"check": "multiplication-relations", "group": "3x3",
         "n": 2, "status": "pass", "lhs": 0, "rhs": 0},
    ],
    ((3, 3), 3): [
        {"check": "kernel-dimension", "group": "3x3",
         "n": 3, "status": "pass", "lhs": 3, "rhs": 3},
        {"check": "nu-psi-identity", "group": "3x3",
         "n": 3, "status": "pass", "lhs": 10, "rhs": 10},
        {"check": "psi-nu-projection", "group": "3x3",
         "n": 3, "status": "pass", "lhs": 180, "rhs": 180},
        {"check": "comultiplication-relations", "group": "3x3",
         "n": 3, "status": "pass", "lhs": 3120, "rhs": 3120},
        {"check": "multiplication-relations", "group": "3x3",
         "n": 3, "status": "pass", "lhs": 88, "rhs": 88},
    ],
}


@pytest.mark.parametrize("case", sorted(PINNED_RECORDS))
def test_battery_records_pinned(case):
    factors, n = case
    group = make_group(factors)
    checks = (verify_kernel_iso(group, n).checks
              + verify_comultiplication(group, n).checks)
    assert checks == PINNED_RECORDS[case]


def _shift_kernel_dimension(monkeypatch):
    # the plain dimension, and with it the kernel dimension, read one higher
    real = SpanChecker.rank
    monkeypatch.setattr(SpanChecker, "rank",
                        property(lambda self: real.fget(self) - 1))


def _double_lift(monkeypatch):
    # the lift of a restricts to 2a, which is not +-a mod 5
    real = _Split.__init__

    def doubled(self, sub):
        real(self, sub)
        d = sub.order
        self.lifts = {a: self.restrict.index(2 * a % d) for a in self.lifts}
    monkeypatch.setattr(_Split, "__init__", doubled)


def _refuse_spans(monkeypatch):
    monkeypatch.setattr(SpanChecker, "contains", lambda self, row: False)


def _flip_blowup_sign(monkeypatch):
    # the third term of each three-term blowup row gets the wrong sign
    real = relations._blowup_rows

    def flipped(*args):
        rows = real(*args)
        for row in rows:
            if len(row) == 3:
                col = list(row)[2]
                row[col] = -row[col]
        return rows
    monkeypatch.setattr(relations, "_blowup_rows", flipped)


# One injected failure per check: (patch, battery, group, n, the battery's
# full check list as captured before the maps moved to code tuples).
INJECTED = {
    "kernel-dimension": (_shift_kernel_dimension, verify_kernel_iso, (9,), 2, [
        {"check": "kernel-dimension", "group": "9",
         "n": 2, "status": "fail", "lhs": 5, "rhs": 4},
        {"check": "nu-psi-identity", "group": "9",
         "n": 2, "status": "pass", "lhs": 4, "rhs": 4},
        {"check": "psi-nu-projection", "group": "9",
         "n": 2, "status": "pass", "lhs": 39, "rhs": 39},
    ]),
    "nu-psi-identity": (_double_lift, verify_kernel_iso, (15,), 2, [
        {"check": "kernel-dimension", "group": "15",
         "n": 2, "status": "pass", "lhs": 8, "rhs": 8},
        {"check": "nu-psi-identity", "group": "15",
         "n": 2, "status": "fail", "lhs": 6, "rhs": 8,
         "counterexample": "sub=(3,) a=1 right=<(1)>"},
        {"check": "psi-nu-projection", "group": "15",
         "n": 2, "status": "fail", "lhs": 88, "rhs": 100,
         "counterexample": "FormalSum(1*<(1), (5)> + 1*<(5), (14)>)"},
    ]),
    "psi-nu-projection": (_refuse_spans, verify_kernel_iso, (2, 4), 2, [
        {"check": "kernel-dimension", "group": "2x4",
         "n": 2, "status": "pass", "lhs": 2, "rhs": 2},
        {"check": "nu-psi-identity", "group": "2x4",
         "n": 2, "status": "pass", "lhs": 2, "rhs": 2},
        {"check": "psi-nu-projection", "group": "2x4",
         "n": 2, "status": "fail", "lhs": 2, "rhs": 16,
         "counterexample": "FormalSum(1*<(0,1), (1,0)> + 1*<(0,3), (1,0)>)"},
    ]),
    "comultiplication-relations": (
        _flip_blowup_sign, verify_comultiplication, (3, 3), 2, [
        {"check": "comultiplication-relations", "group": "3x3",
         "n": 2, "status": "fail", "lhs": 72, "rhs": 120,
         "counterexample": "sub=(0, 1) nprime=1 row={1: 1, 17: -1, 0: 1}"},
        {"check": "multiplication-relations", "group": "3x3",
         "n": 2, "status": "pass", "lhs": 0, "rhs": 0},
        ]),
    "multiplication-relations": (
        _refuse_spans, verify_comultiplication, (3, 3), 3, [
        {"check": "comultiplication-relations", "group": "3x3",
         "n": 3, "status": "fail", "lhs": 2520, "rhs": 3120,
         "counterexample": "sub=(0, 0) nprime=1 row={0: 1, 14: -1, 2: -1}"},
        {"check": "multiplication-relations", "group": "3x3",
         "n": 3, "status": "fail", "lhs": 0, "rhs": 88,
         "counterexample": (
             "sub=(0, 0) nprime=1 row=[(<(0)>, <(0,1), (1,0)>, 1), (<(0)>, "
             "<(1,0), (2,1)>, -1), (<(0)>, <(0,1), (1,2)>, -1)]")},
        ]),
}


@pytest.mark.parametrize("check", sorted(INJECTED))
def test_battery_injected_failures(check, monkeypatch):
    patch, battery, factors, n, want = INJECTED[check]
    patch(monkeypatch)
    checks = battery(make_group(factors), n).checks
    assert checks == want
    assert [c["status"] for c in checks if c["check"] == check] == ["fail"]


def test_batteries_agree_under_optimize():
    # python -O strips assert statements, so no structure-map check, nor
    # the checks inside the quotient maps, may rest on one
    want = [verify_kernel_iso(make_group((5, 5)), 2).to_json(),
            verify_comultiplication(make_group((3, 3)), 3).to_json()]
    assert run_optimized("""
        import json
        from abelsym.abelian import make_group
        from abelsym.structmaps import (verify_comultiplication,
                                        verify_kernel_iso)
        if __debug__:
            raise SystemExit(2)
        got = [verify_kernel_iso(make_group((5, 5)), 2).to_json(),
               verify_comultiplication(make_group((3, 3)), 3).to_json()]
        raise SystemExit(0 if got == json.loads(%r) else 1)
    """ % json.dumps(want)) == 0


def test_forward_check_reads_each_image(monkeypatch):
    # one extra term in the image of the key (1, 5) over Z/5 x Z/5: at
    # n = 2 the pushed rows must vanish, so each row holding that key fails
    real = _Split.split

    def split(self, codes, nprime):
        image = real(self, codes, nprime)
        if codes == (1, 5) and image:
            pair = min(image)
            image = {**image, pair: image[pair] + 1}
        return image
    monkeypatch.setattr(_Split, "split", split)
    fwd = verify_comultiplication(make_group((5, 5)), 2).checks[0]
    assert fwd["check"] == "comultiplication-relations"
    assert fwd["status"] == "fail" and fwd["lhs"] < fwd["rhs"]
    assert fwd["counterexample"].startswith("sub=")


def test_back_check_reads_each_merge(monkeypatch):
    # one extra term in the first nonzero merge image over Z/3 x Z/3 at
    # n = 3: each tensor relation holding that pair leaves the blowup span
    real = structmaps._merge
    hit = []

    def merge(rec, left, right):
        image = real(rec, left, right)
        if image and not hit:
            hit.append((rec.sub.generator, left, right))
            image[min(image)] += 1
        return image
    monkeypatch.setattr(structmaps, "_merge", merge)
    back = verify_comultiplication(make_group((3, 3)), 3).checks[1]
    assert hit and back["check"] == "multiplication-relations"
    assert back["status"] == "fail" and back["lhs"] < back["rhs"]
    assert back["counterexample"].startswith("sub=")
