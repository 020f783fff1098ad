"""Coset symbols, Manin relation spaces, cusp counting, level bookkeeping."""

import ast
import hashlib
import os
import subprocess
import sys
import textwrap
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import abelsym
from abelsym.abelian import make_group
from abelsym.congruence import (CosetSymbol, IntMatrix2, coset_index,
                                coset_of, cusp_count, cusp_formula,
                                cusp_orbit_count, enumerate_cosets,
                                eps_fixed, gamma_member, genus, iso_check,
                                level2_consistency, level_invariants,
                                lift_coset, manin_space)
from abelsym.relations import Variant, formula_dimension

# index of the level subgroup, frozen against the enumeration
COSET_COUNTS = {
    (2, 1): 6, (3, 1): 24, (4, 1): 48, (5, 1): 120,
    (2, 2): 24, (3, 2): 72, (2, 3): 48, (3, 3): 216, (2, 4): 96,
}


def test_coset_enumeration_matches_index():
    for (n, m), count in COSET_COUNTS.items():
        cosets = enumerate_cosets(n, m)
        assert len(cosets) == count == coset_index(n, m)
        assert cosets == sorted(cosets)
        assert len(set(cosets)) == count
        # the enumeration skips validation; the constructor redoes it
        assert all(CosetSymbol(*s.quad(), s.level) == s for s in cosets)


def test_coset_symbol_validation():
    with pytest.raises(ValueError):
        CosetSymbol(0, 0, 0, 0, (3, 1))  # determinant 0
    with pytest.raises(ValueError):
        CosetSymbol(1, 0, 0, 5, (3, 1))  # residue out of range
    with pytest.raises(ValueError):
        # det = 4 = 1 mod 3, but both columns are even in the second slot
        CosetSymbol(1, 0, 0, 4, (3, 2))
    s = CosetSymbol(1, 0, 0, 1, (3, 2))
    assert s.quad() == (1, 0, 0, 1)


def test_gamma_member():
    assert gamma_member(IntMatrix2.identity(), 3, 2)
    assert gamma_member(IntMatrix2(19, 3, 6, 1), 3, 2)
    assert not gamma_member(IntMatrix2(1, 1, 0, 1), 3, 2)
    assert not gamma_member(IntMatrix2(1, 0, 1, 1), 3, 2)


def test_lift_round_trip_exhaustive():
    for n, m in ((2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (2, 3)):
        for s in enumerate_cosets(n, m):
            mat = lift_coset(s)
            assert mat.a * mat.d - mat.b * mat.c == 1
            assert coset_of(mat, n, m) == s


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 95), st.integers(-2, 2), st.integers(-2, 2))
def test_coset_invariant_under_member_action(i, x, y):
    # left multiplication by a member of the subgroup fixes the symbol
    n, m = 2, 4
    k = n * m
    cosets = enumerate_cosets(n, m)
    s = cosets[i % len(cosets)]
    member = IntMatrix2(1, x * n, 0, 1) @ IntMatrix2(1, 0, y * k, 1)
    assert gamma_member(member, n, m)
    assert coset_of(member @ lift_coset(s), n, m) == s


def test_manin_dimensions():
    for (n, m), dim in (((3, 1), 3), ((4, 1), 5), ((5, 1), 11),
                        ((3, 3), 19)):
        system, rep = manin_space(n, m)
        assert rep.dim_q == dim
        assert rep.torsion == ()
        assert rep.method == "MANIN"
        assert len(system.basis) == COSET_COUNTS[(n, m)]


def test_manin_repeat_rows_only_at_level_2_1():
    # one turn and one split row per coset, plus a swap row with_O; at
    # (2, 1), MN = 2 makes -s = s and relation_rows drops 3 repeats, so a
    # Manin-side fold must not drop its repeat check without replacing it.
    # No other level of coset index <= 6,000 repeats a row.
    for level, with_O, built, kept in (((2, 1), False, 12, 9),
                                       ((2, 1), True, 18, 15),
                                       ((2, 2), True, 72, 72),
                                       ((3, 1), False, 48, 48)):
        system, _ = manin_space(*level, with_O=with_O)
        per_coset = 3 if with_O else 2
        assert (per_coset * len(system.basis), system.rel.nrows) \
            == (built, kept), level


def test_manin_matches_genus_bookkeeping():
    # dim = 2g + cusps - 1 with both quantities from closed forms, N >= 3
    for n, m in ((3, 1), (4, 1), (5, 1)):
        _, rep = manin_space(n, m)
        assert rep.dim_q == 2 * genus(n, m) + cusp_formula(n, m) - 1


def test_cusp_routes_agree_at_m_equal_one():
    assert cusp_count(3, 1) == 4
    assert cusp_count(4, 1) == 6
    assert cusp_count(5, 1) == 12


def test_cusp_routes_disagree_at_higher_m():
    # the closed form undercounts once M >= 2; the orbit count is the truth
    cases = {(2, 2): (3, 4), (3, 2): (6, 8), (2, 3): (4, 6),
             (3, 3): (12, 18), (2, 4): (6, 10)}
    for (n, m), (formula, orbits) in cases.items():
        assert cusp_formula(n, m) == formula
        assert cusp_orbit_count(n, m) == orbits
        with pytest.raises(AssertionError):
            cusp_count(n, m)


def test_cusp_formula_non_integral():
    # the closed form is not even integral at (2, 5): 36/5
    with pytest.raises(AssertionError):
        cusp_formula(2, 5)
    assert cusp_orbit_count(2, 5) == 12
    with pytest.raises(ValueError):
        cusp_formula(2, 1)  # MN < 3


def test_eps_fixed_table():
    assert [eps_fixed(m) for m in range(3, 11)] == [6, 8, 12, 8, 18, 16,
                                                    18, 16]
    with pytest.raises(ValueError):
        eps_fixed(2)


def test_level_invariants():
    inv = level_invariants(3, 1)
    assert (inv.index, inv.cusps, inv.genus) == (24, 4, 0)
    assert inv.fixed_cusps is None
    inv2 = level_invariants(2, 3)
    assert inv2.genus is None
    assert inv2.fixed_cusps == 6
    assert inv2.to_json()["cusps"] == 4
    with pytest.raises(ValueError):
        level_invariants(2, 1)


def test_level2_consistency_values():
    assert level2_consistency(3) == {
        "m": 3, "genus": 0, "cusps": 6, "fixed_cusps": 6, "dim": 5,
        "dim_minus": 0}
    assert level2_consistency(4) == {
        "m": 4, "genus": 0, "cusps": 10, "fixed_cusps": 8, "dim": 9,
        "dim_minus": 1}
    assert level2_consistency(5) == {
        "m": 5, "genus": 1, "cusps": 12, "fixed_cusps": 12, "dim": 13,
        "dim_minus": 1}


def test_swap_quotient_disagrees_with_closed_form_at_2x4():
    # measured truth at level (2, 2): three 2-torsion classes the closed
    # form does not see
    _, rep = manin_space(2, 2, with_O=True)
    assert (rep.dim_q, rep.torsion) == (0, (2, 2, 2))
    form = formula_dimension(make_group((2, 4)), 2, Variant.MINUS,
                             want_torsion=True)
    assert (form.dim_q, form.torsion) == (0, ())
    assert rep.torsion != form.torsion


def test_iso_check():
    for n, m in ((3, 1), (4, 1), (2, 2), (2, 3)):
        rep = iso_check(n, m)
        assert rep.ok
        assert rep.to_json()["ok"]
    rep23 = iso_check(2, 3)
    assert rep23.dim_symbols == rep23.dim_cosets == 0
    assert rep23.torsion_symbols == rep23.torsion_cosets == (2,) * 5
    assert rep23.cosets == 2 * rep23.keys  # double cover at N = 2


def run_optimized(code):
    """Exit code of `code` run by a fresh `python -O` on this abelsym."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(abelsym.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", textwrap.dedent(code)],
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    return proc.returncode


# Each patch breaks one span direction of iso_check's stacked rank
# comparison; (patch, level, start of the message that must fire).
SPAN_FAILURES = [
    # a stacked rank above the coset rank: symbols outside the coset span
    ("""
        real = C.rank_over_Q
        C.rank_over_Q = lambda mat: real(mat) + 1
    """, (7, 2), "symbol relations leave"),
    # without the sign rows the symbol span misses the coset turn rows
    ("""
        real = C.build_relations
        C.build_relations = lambda g, n, v, keys: real(g, n, "plain",
                                                       keys=keys)
    """, (7, 2), "coset relations leave"),
    ("""
        real = C.rank_over_Q
        C.rank_over_Q = lambda mat: real(mat) + 1
    """, (2, 8), "projected coset relations leave"),
]


def test_iso_check_span_failure_raises_under_optimize():
    # the span checks must not be assert statements, which -O strips
    for patch, level, message in SPAN_FAILURES:
        assert run_optimized("""
import abelsym
from abelsym import congruence as C
%s
try:
    C.iso_check%r
except abelsym.ConsistencyError as exc:
    raise SystemExit(0 if str(exc).startswith(%r) else 2)
raise SystemExit(1)
""" % (textwrap.dedent(patch), level, message)) == 0, message


def test_cusp_route_checks_raise_under_optimize():
    # orbits give 8 cusps at (3, 2) and the formula 6; at (2, 5) the
    # formula is 36/5, which must not be truncated to 7
    assert run_optimized("""
        from abelsym.congruence import cusp_count, cusp_formula
        for route, level in ((cusp_count, (3, 2)), (cusp_formula, (2, 5))):
            try:
                route(*level)
            except AssertionError:
                continue
            raise SystemExit(1)
    """) == 0


def test_level2_consistency_raises_under_optimize():
    # one fixed cusp too many breaks the parity and swap-quotient checks
    code = """
        import abelsym
        from abelsym import congruence
        real = congruence.eps_fixed
        congruence.eps_fixed = lambda m: real(m) + 1
        try:
            congruence.level2_consistency(3)
        except abelsym.ConsistencyError:
            raise SystemExit(0)
        raise SystemExit(1)
    """
    assert run_optimized(code) == 0
    assert run_optimized(code.replace("+ 1", "+ 0")) == 1


def test_no_assert_statements_in_the_library():
    # python -O strips assert statements, so no check may be one; the
    # docstrings still say "asserts", hence a syntax walk, not a grep
    src = os.path.dirname(os.path.abspath(abelsym.__file__))
    found = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                tree = ast.parse(fh.read(), name)
            found += ["%s:%d" % (name, node.lineno)
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert found == []


# Each patch breaks one dependency of a route so that its check must fire.
BROKEN_ROUTES = {
    "gamma_member": ("""
        def forged(self, a, b, c, d):  # no determinant check
            self.a, self.b, self.c, self.d = a, b, c, d
        C.IntMatrix2.__init__ = forged
    """, "C.gamma_member(C.IntMatrix2(3, 0, 0, 1), 2, 2)"),
    "lift_coset": ("C.coset_of = lambda mat, n, m: None",
                   "C.lift_coset(C.enumerate_cosets(3, 2)[0])"),
    "coset_index": ("C.prime_factors = lambda k: [5]",
                    "C.coset_index(2, 1)"),
    "enumerate_cosets": ("""
        real = C.coset_index
        C.coset_index = lambda n, m: real(n, m) + 1
    """, "C.enumerate_cosets(3, 1)"),
    "manin_space": ("C._coset_quads = lambda n, m, bound: [(0, 0, 0, 0)]",
                    "C.manin_space(3, 1)"),
    "genus": ("C.prime_factors = lambda k: [5]", "C.genus(3, 1)"),
    "level_invariants": ("C.cusp_formula = lambda n, m: 5",
                         "C.level_invariants(3, 1)"),
    "iso_check": ("C.IsoReport.ok = property(lambda self: False)",
                  "C.iso_check(3, 1)"),
    "iso_check_n2": ("C.IsoReport.ok = property(lambda self: False)",
                     "C.iso_check(2, 2)"),
    # keys of determinant class 2 have no coset to go to
    "iso_check_bijection": ("""
        real = C.enumerate_det_class
        C.enumerate_det_class = lambda g, k, bound: real(g, 2, bound=bound)
    """, "C.iso_check(5, 1)"),
    # a key listed twice goes to one coset twice
    "iso_check_distinct": ("""
        real = C.enumerate_det_class
        C.enumerate_det_class = lambda g, k, bound: real(g, k)[:1] + real(g, k)
    """, "C.iso_check(5, 1)"),
    # one coset repeated in place of another: its key is covered three times
    "iso_check_n2_cover": ("""
        real = C.manin_space

        def skewed(*args, **kwargs):
            system, report = real(*args, **kwargs)
            system.basis[0] = system.basis[1]
            return system, report
        C.manin_space = skewed
    """, "C.iso_check(2, 3)"),
}


@pytest.mark.parametrize("route", sorted(BROKEN_ROUTES))
def test_congruence_checks_raise_under_optimize(route):
    patch, call = BROKEN_ROUTES[route]
    assert run_optimized("""
import abelsym
from abelsym import congruence as C
%s
try:
    %s
except abelsym.ConsistencyError:
    raise SystemExit(0)
raise SystemExit(1)
""" % (textwrap.dedent(patch), call)) == 0


def test_quotient_checks_raise_under_optimize():
    # a greedy lift that stalls and a quotient transform that is not
    # integral must raise, not build a wrong character
    assert run_optimized("""
        import abelsym
        from abelsym import abelian, make_group, proper_cyclic_subgroups
        g = make_group((2, 4))
        sub = [s for s in proper_cyclic_subgroups(g)
               if s.generator == (0, 2)][0]
        q = abelian.quotient_data(g, sub)
        real_gcd = abelian.gcd
        # tails 1 | 2 | 2 where the true ones are 1 | 1 | 2
        abelian.gcd = lambda x, y: {(1, 2): 2, (0, 2): 1}.get(
            (x, y), real_gcd(x, y))
        try:
            q.lift_restriction(1)
            raise SystemExit(1)
        except abelsym.ConsistencyError:
            abelian.gcd = real_gcd
        real_snf = abelian.dense_snf_with_transforms

        def skewed(mat):
            d, u, v = real_snf(mat)
            v[0][-1] += 1  # V[0][1] * 2 is then not a multiple of 4
            return d, u, v
        abelian.dense_snf_with_transforms = skewed
        try:
            abelsym.verify_kernel_iso(g, 2)
        except abelsym.ConsistencyError:
            raise SystemExit(0)
        raise SystemExit(1)
    """) == 0


ROUTES = """
    from itertools import product
    from abelsym import (SpanChecker, Variant, build_relations, delta_sum,
                         dimension, enumerate_generators, make_group,
                         smith_normal_form, spans_dual,
                         verify_comultiplication, verify_kernel_iso)

    def answers():
        rep = dimension(make_group((2, 4)), 2, Variant.MINUS,
                        want_torsion=True)
        system = build_relations(make_group((3, 3)), 3, Variant.MINUS)
        g = make_group((2, 2, 2))
        spans = [spans_dual([g.character(r) for r in rows], g)
                 for rows in product(g.elements(), repeat=3)]
        small = build_relations(make_group((2, 4)), 2, Variant.MINUS)
        # half its rows are e_s +- e_t: the two-term contraction merges 27
        # of its 39 columns
        rel = build_relations(make_group((9,)), 2, Variant.MINUS).rel
        checker = SpanChecker(rel)
        members = [checker.contains({i: 1, j: s})
                   for i in range(rel.ncols) for j in range(i, rel.ncols)
                   for s in (1, -1)]
        g33 = make_group((3, 3))
        batteries = (verify_kernel_iso(g33, 2).checks
                     + verify_comultiplication(g33, 2).checks)
        deltas = [sorted((k.codes, c.numerator, c.denominator)
                         for k, c in delta_sum(key).items())
                  for key in enumerate_generators(make_group((9,)), 2)]
        # 6,279 rows, most of them repeated up to sign after the contraction
        big = build_relations(make_group((79,)), 2, Variant.MINUS).rel
        big_snf = smith_normal_form(big, bound=10_000)
        # dimension() folds the sign rows into the columns; the key basis
        # keeps them as rows
        folded = [dimension(make_group(f), 2, Variant.MINUS,
                            want_torsion=True) for f in ((79,), (2, 4))]
        keyed = [(m.ncols - snf.rank, snf.torsion) for m, snf in
                 ((big, big_snf), (small.rel, smith_normal_form(small.rel)))]
        return (rep.dim_q, rep.torsion,
                [key.codes for key in system.basis],
                [list(row.items()) for row in system.rel.rows], spans,
                [list(row.items()) for row in small.rel.rows],
                rel.rows, smith_normal_form(rel).divisors, members,
                batteries, deltas, big_snf.divisors,
                [(r.dim_q, r.torsion) for r in folded], keyed)
"""


def test_int_routes_under_optimize():
    # the code-tuple enumeration, assembly, per-prime test, sign rows,
    # two-term contraction and its dropped repeats, structure-map batteries,
    # delta sums and the sign-class fold give the same answers with asserts
    # stripped, so none of them rests on an assert
    scope = {}
    exec(textwrap.dedent(ROUTES), scope)
    want = scope["answers"]()
    assert want[:2] == (0, (2, 2, 2)) and sum(want[4]) == 168
    assert len(want[5]) == 28 and sum(len(row) == 2 for row in want[6]) == 39
    assert want[7].count(2) == 5 and any(want[8]) and not all(want[8])
    assert [c["status"] for c in want[9]] == ["pass"] * 5
    assert len(want[10]) == 39 and want[10][0] == [((0, 1), 2, 1),
                                                    ((0, 8), 2, 1)]
    assert [want[11].count(d) for d in (1, 2, 0)] == [2860, 77, 222]
    assert want[12] == want[13] == [(222, (2,) * 77), (0, (2, 2, 2))]
    assert run_optimized(textwrap.dedent(ROUTES) + """
raise SystemExit(0 if answers() == %r else 1)
""" % (want,)) == 0


def test_genus_domain():
    with pytest.raises(ValueError):
        genus(2, 3)
    assert genus(3, 1) == 0
    assert genus(5, 1) == 0
    # at (3, 3) the genus and cusp closed forms are both off, in ways that
    # cancel in 2g + cusps - 1: formula pair (4, 12) and true pair (1, 18)
    # give the same Manin dimension 19
    assert genus(3, 3) == 4
    assert 2 * 4 + cusp_formula(3, 3) - 1 == 19
    assert 2 * 1 + cusp_orbit_count(3, 3) - 1 == 19


def test_matrix2_validation():
    with pytest.raises(ValueError):
        IntMatrix2(1, 0, 0, 2)
    m = IntMatrix2(1, 1, 0, 1) @ IntMatrix2(1, 0, 1, 1)
    assert (m.a, m.b, m.c, m.d) == (2, 1, 1, 1)


# Frozen from the object-based coset code: for each level the iso report's
# keys, cosets, dimension and number of Z/2 torsion factors, the cusp
# orbits, and the Manin space's dimension, torsion and row count, plain and
# then (at N = 2) with the swap rows.
PINNED_LEVELS = {
    (3, 1): ((24, 24, 3, 0), 4, [(3, (), 48)]),
    (4, 1): ((48, 48, 5, 0), 6, [(5, (), 96)]),
    (5, 1): ((120, 120, 11, 0), 12, [(11, (), 240)]),
    (3, 2): ((72, 72, 7, 0), 8, [(7, (), 144)]),
    (5, 3): ((960, 960, 81, 0), 48, [(81, (), 1920)]),
    (2, 2): ((12, 24, 0, 3), 4, [(3, (), 48), (0, (2,) * 3, 72)]),
    (2, 3): ((24, 48, 0, 5), 6, [(5, (), 96), (0, (2,) * 5, 144)]),
    (2, 4): ((48, 96, 1, 7), 10, [(9, (), 192), (1, (2,) * 7, 288)]),
    (2, 5): ((72, 144, 1, 11), 12, [(13, (), 288), (1, (2,) * 11, 432)]),
    (2, 6): ((96, 192, 5, 7), 16, [(17, (), 384), (5, (2,) * 7, 576)]),
}
# sha256 of the Manin rows of PINNED_LEVELS, in that order, each row's
# entries in insertion order
MANIN_ROWS_SHA256 = (
    "dd71159aa1d3d1a51738691d4d8125a669b5a3e389511ea5ccc0763eee29fe05")


def test_pinned_level_values():
    parts = []
    for (n, m), (iso, cusps, manin) in PINNED_LEVELS.items():
        keys, cosets, dim, twos = iso
        tors = [2] * twos
        assert iso_check(n, m).to_json() == {
            "N": n, "M": m, "group": "%dx%d" % (n, n * m), "keys": keys,
            "cosets": cosets, "dim_symbols": dim, "dim_cosets": dim,
            "torsion_symbols": tors, "torsion_cosets": tors, "ok": True}
        assert cusp_orbit_count(n, m) == cusps
        for with_O, want in zip((False, True), manin):
            system, rep = manin_space(n, m, with_O=with_O)
            assert (rep.dim_q, rep.torsion, system.rel.nrows) == want
            assert system.basis == enumerate_cosets(n, m)
            parts.append([list(row.items()) for row in system.rel.rows])
    digest = hashlib.sha256(repr(parts).encode()).hexdigest()
    assert digest == MANIN_ROWS_SHA256


def test_cosets_match_validating_constructor():
    for n, m in PINNED_LEVELS:
        k = n * m
        brute = []
        for quad in product(range(n), range(n), range(k), range(k)):
            try:
                brute.append(CosetSymbol(*quad, (n, m)))
            except ValueError:
                pass
        assert enumerate_cosets(n, m) == brute
