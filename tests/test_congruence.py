"""Coset symbols, Manin relation spaces, cusp counting, level bookkeeping."""

import ast
import hashlib
import os
import subprocess
import sys
import textwrap
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import abelsym
from abelsym import congruence as C
from abelsym.abelian import make_group, spans_dual
from abelsym.congruence import (CosetSymbol, IntMatrix2, coset_index,
                                coset_of, cusp_count, cusp_formula,
                                cusp_orbit_count, enumerate_cosets,
                                eps_fixed, gamma_member, genus, iso_check,
                                level2_consistency, level_invariants,
                                lift_coset, manin_space)
from abelsym.exactla import smith_normal_form
from abelsym.relations import (Variant, build_relations, dimension,
                               dimension_graded, formula_dimension)
from abelsym.symbols import FormalSum, SymbolKey

# every level of coset index <= 6,000
WIDE_LEVELS = [(n, m) for n in range(2, 30) for m in range(1, 60)
               if coset_index(n, m) <= 6000]

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
    # det = 3 = 1 mod 2, but 3 divides both c and d
    with pytest.raises(ValueError, match=r"^columns \(1,3\), \(0,3\) do "
                       "not generate the dual group$"):
        CosetSymbol(1, 0, 3, 3, (2, 3))


def _check_coset_rule(levels):
    """CosetSymbol accepts a determinant-one quad iff `spans_dual` does
    on its columns; returns the number of quads checked."""
    count = 0
    for n, m in levels:
        k = n * m
        grp = make_group((n, k))
        for a, b, c, d in product(range(n), range(n), range(k), range(k)):
            if (a * d - b * c) % n != 1:
                continue
            count += 1
            want = spans_dual((grp.character((a, c)),
                               grp.character((b, d))), grp)
            try:
                CosetSymbol(a, b, c, d, (n, m))
            except ValueError:
                assert not want, (a, b, c, d, n, m)
            else:
                assert want, (a, b, c, d, n, m)
    return count


def test_coset_symbol_accepts_what_spans_dual_accepts():
    levels = [(n, m) for n in range(2, 8) for m in range(1, 5)]
    assert _check_coset_rule(levels) == 20340


@pytest.mark.slow
def test_coset_symbol_accepts_what_spans_dual_accepts_wide():
    levels = [(n, m) for n in range(2, 10) for m in range(1, 7)]
    assert _check_coset_rule(levels) == 155610


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


def test_coset_hash_agrees_across_constructors():
    # a coset hashes its quad and level when asked: the checked
    # constructor, _unchecked and the lift round trip hash equal and make
    # one set entry, for every coset of the level
    n, m = 3, 2
    cosets = enumerate_cosets(n, m)
    for s in cosets:
        same = [s, CosetSymbol(*s.quad(), (n, m)),
                CosetSymbol._unchecked((n, m), s.quad()),
                coset_of(lift_coset(s), n, m)]
        assert len({hash(t) for t in same}) == 1
        assert len(set(same)) == 1
    assert len(set(cosets)) == len(cosets) == coset_index(n, m)


@pytest.mark.slow
def test_lift_round_trip_wide():
    # every coset of the 98 levels of index <= 6,000: 224,646 lifts
    count = 0
    for n, m in WIDE_LEVELS:
        for s in enumerate_cosets(n, m):
            mat = lift_coset(s)
            assert mat.a * mat.d - mat.b * mat.c == 1
            assert coset_of(mat, n, m) == s
            count += 1
    assert (len(WIDE_LEVELS), count) == (98, 224646)


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
    # (2, 1), MN = 2 makes -s = s, and manin_space builds only 9 rows (15
    # with the swap): it skips the turn row of a coset s' whose turn is an
    # earlier coset and -s' = s', as that row is the earlier coset's turn
    # row again.  No other level of coset index <= 6,000 repeats a row.
    for level, with_O, built, kept in (((2, 1), False, 12, 9),
                                       ((2, 1), True, 18, 15),
                                       ((2, 2), True, 72, 72),
                                       ((3, 1), False, 48, 48)):
        system, _ = manin_space(*level, with_O=with_O)
        per_coset = 3 if with_O else 2
        assert (per_coset * len(system.basis), system.rel.nrows) \
            == (built, kept), level


def test_manin_rows_built_on_first_read(monkeypatch):
    real, calls = C._manin_rows, []

    def counted(*args):
        calls.append(args[0])
        return real(*args)
    monkeypatch.setattr(C, "_manin_rows", counted)
    system, rep = manin_space(5, 1)
    assert (len(system.basis), system.rel.nrows, system.rel.ncols,
            rep.dim_q) == (120, 240, 120, 11)
    assert calls == []
    rows = system.rel.rows
    assert calls == [(5, 1)] and len(rows) == 240
    assert system.rel.rows is rows and calls == [(5, 1)]


def _assert_rows_counted(levels):
    """Once read, the unfolded rows number `rel.nrows`, plain and, at N = 2,
    with the swap."""
    for n, m in levels:
        for with_O in ((False, True) if n == 2 else (False,)):
            rel = manin_space(n, m, with_O=with_O)[0].rel
            assert len(rel.rows) == rel.nrows, (n, m, with_O)


def test_manin_rows_match_their_count():
    levels = [level for level in WIDE_LEVELS if coset_index(*level) <= 1500]
    assert len(levels) == 42
    _assert_rows_counted(levels)


@pytest.mark.slow
def test_manin_rows_match_their_count_wide():
    _assert_rows_counted(WIDE_LEVELS)


def test_manin_space_peak_memory_below_its_rows():
    # the report and the basis must not cost what the unfolded rows hold
    tracemalloc.start()
    try:
        system, _ = manin_space(11, 2)
        assert (len(system.basis), system.rel.nrows) == (3960, 7920)
        peak = tracemalloc.get_traced_memory()[1]
        assert len(system.rel.rows) == 7920
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert peak < 0.6 * held, (peak, held)


def test_manin_system_vector():
    system, _ = manin_space(3, 1)
    basis = system.basis
    assert system.vector(FormalSum({basis[0]: 1, basis[5]: -2})) == {
        0: 1, 5: -2}
    # a quad of the basis at another level; and a symbol key
    foreign = CosetSymbol(1, 0, 0, 1, (3, 2))
    assert foreign.quad() in system.index
    key = build_relations(make_group((3, 3)), 2, Variant.PLAIN).basis[0]
    for other in (foreign, key):
        with pytest.raises(KeyError):
            system.vector(FormalSum.of(other))


def test_manin_vector_refuses_colliding_keys():
    # a key whose codes equal a coset quad is not a coset: each of the 87
    # sorted quads at level (11, 1), as an unchecked key over 11x11, raises
    # the KeyError that names it
    system, _ = manin_space(11, 1)
    quads = [q for q in system.index if list(q) == sorted(q)]
    assert len(quads) == 87
    for quad in quads:
        key = SymbolKey(system.group, quad)
        with pytest.raises(KeyError) as err:
            system.vector(FormalSum.of(key))
        assert str(err.value) == repr("key %r is not in the basis" % (key,))


def _assert_fold_matches_unfolded(levels):
    """manin_space reports the Smith form of its turn-orbit fold; it must
    equal that of the unfolded system it returns, plain and, at N = 2,
    with the swap, whose torsion level2_consistency checks as well."""
    for n, m in levels:
        for with_O in ((False, True) if n == 2 else (False,)):
            system, rep = manin_space(n, m, with_O=with_O, snf_bound=20000)
            snf = smith_normal_form(system.rel, bound=20000)
            assert (rep.dim_q, rep.torsion) == (
                system.rel.ncols - snf.rank, snf.torsion), (n, m, with_O)
        if n == 2 and m > 2:
            level2_consistency(m)


def test_manin_fold_matches_unfolded_smith_form():
    levels = [level for level in WIDE_LEVELS if coset_index(*level) <= 1500]
    assert len(levels) == 42
    _assert_fold_matches_unfolded(levels)


@pytest.mark.slow
def test_manin_fold_matches_unfolded_smith_form_wide():
    _assert_fold_matches_unfolded(WIDE_LEVELS)


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


@pytest.mark.slow
def test_iso_check_wide():
    # the larger Manin spaces outgrow the default Smith form guard
    assert len(WIDE_LEVELS) == 98
    for n, m in WIDE_LEVELS:
        assert iso_check(n, m, snf_bound=20000).ok, (n, m)


def run_optimized(code):
    """Exit code of `code` run by a fresh `python -O` on this abelsym."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(abelsym.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", textwrap.dedent(code)],
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    return proc.returncode


# Each patch breaks one check of iso_check's row-set comparison, at N >= 3
# and at N = 2; (patch, level, start of the message that must fire).
# The symbol fold with its signs dropped presents a module where negating
# an entry keeps the symbol, as a plain presentation has it.
PLAIN_SYMBOLS = """
    real = C._sign_class_matrix

    def unsigned(*args):
        rel, keys = real(*args)
        rel.rows = [{c: abs(v) for c, v in row.items()} for row in rel.rows]
        return rel, keys
    C._sign_class_matrix = unsigned
"""
# a doubled row leaves the span over Q, and even the lattice, as it was;
# it is one with an entry off the {k: 2} columns, as otherwise doubling it
# gives a multiple of the {k: 2} rows, which is no fault
DOUBLED_SYMBOL_ROW = """
    real = C._sign_class_matrix

    def doubled(*args):
        rel, keys = real(*args)
        twos = C._two_columns(rel.rows)
        row = next(r for r in reversed(rel.rows) if not twos.issuperset(r))
        return rel.with_rows([{c: 2 * v for c, v in row.items()}]), keys
    C._sign_class_matrix = doubled
"""
# without its {k: 2} rows the coset fold loses the swap quotient's
# 2-torsion; the rows compared mod 2 on those columns would still match
DROPPED_TWO_ROWS = """
    real = C._coset_fold

    def dropped(*args):
        reps, rel = real(*args)
        rows = [row for row in rel.rows if list(row.values()) != [2]]
        return reps, C.SparseIntMatrix.trusted(rel.ncols, rows)
    C._coset_fold = dropped
"""
SPAN_FAILURES = [
    # the unsigned symbol rows miss the signed coset rows
    (PLAIN_SYMBOLS, (7, 2), "coset relations missing"),
    (PLAIN_SYMBOLS, (2, 8), "coset relations missing"),
    (DOUBLED_SYMBOL_ROW, (7, 2), "symbol relations missing"),
    (DOUBLED_SYMBOL_ROW, (2, 8), "symbol relations missing"),
    (DROPPED_TWO_ROWS, (2, 8), "columns with 2 e = 0 differ"),
]


def test_iso_check_span_failure_raises_under_optimize():
    # the row checks must not be assert statements, which -O strips
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
    # a lift that passes the exact determinant check, then has d moved, so
    # its rows no longer reduce to the symbol
    "lift_coset": ("""
        class Shifted(C.IntMatrix2):
            def __init__(self, a, b, c, d):
                super().__init__(a, b, c, d)
                self.d = d + 1
        C.IntMatrix2 = Shifted
    """, "C.lift_coset(C.enumerate_cosets(3, 2)[0])"),
    # a nudge that leaves the bottom row with a common factor, once the
    # coset is built
    "lift_coset_nudge": ("""
        S = C.enumerate_cosets(3, 2)[0]
        C.gcd = lambda *args: 2
    """, "C.lift_coset(S)"),
    "coset_index": ("C.prime_factors = lambda k: [5]",
                    "C.coset_index(2, 1)"),
    "enumerate_cosets": ("""
        real = C.coset_index
        C.coset_index = lambda n, m: real(n, m) + 1
    """, "C.enumerate_cosets(3, 1)"),
    "manin_space": ("C._coset_quads = lambda n, m, bound: [(0, 0, 0, 0)]",
                    "C.manin_space(3, 1)"),
    # a build of the unfolded rows that drops one, read back
    "manin_rows": ("""
        real = C._manin_rows
        C._manin_rows = lambda *args: real(*args)[1:]
    """, "C.manin_space(3, 1)[0].rel.rows"),
    "genus": ("C.prime_factors = lambda k: [5]", "C.genus(3, 1)"),
    "level_invariants": ("C.cusp_formula = lambda n, m: 5",
                         "C.level_invariants(3, 1)"),
    "iso_check": ("C.IsoReport.ok = property(lambda self: False)",
                  "C.iso_check(3, 1)"),
    "iso_check_n2": ("C.IsoReport.ok = property(lambda self: False)",
                     "C.iso_check(2, 2)"),
    # sign classes of determinant class 2 have no turn orbit to go to
    "iso_check_bijection": ("""
        real = C.in_det_class
        C.in_det_class = lambda g, k: real(g, 2)
    """, "C.iso_check(5, 1)"),
    # a group of sign classes listed twice: one orbit goes to the second
    # copy of each of its classes only
    "iso_check_distinct": ("""
        real = C.sign_class_groups
        C.sign_class_groups = lambda g, n, bound: (real(g, n, bound)[:1]
                                                   + real(g, n, bound))
    """, "C.iso_check(5, 1)"),
    # one orbit rep repeated in place of another: its class is hit twice
    "iso_check_n2_cover": ("""
        real = C._coset_fold

        def skewed(*args):
            reps, rel = real(*args)
            reps[0] = reps[1]
            return reps, rel
        C._coset_fold = skewed
    """, "C.iso_check(2, 3)"),
    # an extra orbit with no rows: both row sets stay equal and every class
    # is still hit, but one of them twice, which only the cover count sees
    "iso_check_cover": ("""
        real = C._coset_fold

        def padded(*args):
            reps, rel = real(*args)
            return reps + reps[:1], rel
        C._coset_fold = padded
    """, "C.iso_check(5, 1)"),
}


# The start of the message that must fire, where one check is meant.
ROUTE_MESSAGES = {route: "turn orbits cover" for route in (
    "iso_check_bijection", "iso_check_distinct", "iso_check_n2_cover",
    "iso_check_cover")}
ROUTE_MESSAGES["manin_rows"] = "deferred build gave 47 rows"
ROUTE_MESSAGES["lift_coset"] = (
    "lift IntMatrix2(3, 1, 2, 2) of CosetSymbol(0, 1; 2, 1 | level (3, 2)) "
    "reduces to (0, 1, 2, 2)")
ROUTE_MESSAGES["lift_coset_nudge"] = (
    "CosetSymbol(0, 1; 2, 1 | level (3, 2)): bottom row (2, 13) is not "
    "coprime")


@pytest.mark.parametrize("route", sorted(BROKEN_ROUTES))
def test_congruence_checks_raise_under_optimize(route):
    patch, call = BROKEN_ROUTES[route]
    assert run_optimized("""
import abelsym
from abelsym import congruence as C
%s
try:
    %s
except abelsym.ConsistencyError as exc:
    raise SystemExit(0 if str(exc).startswith(%r) else 2)
raise SystemExit(1)
""" % (textwrap.dedent(patch), call, ROUTE_MESSAGES.get(route, ""))) == 0


def test_quotient_checks_raise_under_optimize():
    # a quotient transform that is not integral must raise, not build a
    # wrong character
    assert run_optimized("""
        import abelsym
        from abelsym import abelian, make_group
        g = make_group((2, 4))
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
        # half its rows are e_s +- e_t, which the engine pivots on as on
        # any other rows
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
        # 6,279 rows over the key basis, its sign rows included
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
    # elimination of two-term rows, structure-map batteries,
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


def test_second_call_gives_the_same_answer():
    # each call eliminates the folds it built in place; a fold that leaked
    # into state shared between calls would reach the second one consumed
    calls = [
        lambda: dimension(make_group((12,)), 2, Variant.MINUS,
                          want_torsion=True),
        lambda: dimension(make_group((2, 4)), 2, Variant.MINUS,
                          want_torsion=True),
        lambda: dimension_graded(make_group((5, 5)), Variant.MINUS),
        lambda: manin_space(11, 1)[1],
        lambda: iso_check(7, 2),
    ]
    for call in calls:
        first, second = (dict(call().to_json(), ms=None) for _ in range(2))
        assert first == second
