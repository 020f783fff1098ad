"""Relation systems, brute dimensions, torsion, and the closed forms."""

import pytest
from hypothesis import given, settings, strategies as st

from abelsym import relations
from abelsym.abelian import make_group, negation_codes
from abelsym.exactla import BoundExceeded, smith_normal_form
from abelsym.relations import (DimensionReport, Variant, build_relations,
                               difference_formula, dimension,
                               dimension_graded, formula_dimension,
                               formula_minus, kernel_dimension,
                               kernel_generators, kernel_span_dimension,
                               pxp_closed_forms)
from abelsym.symbols import (canonicalize, det_class, det_classes,
                             enumerate_det_class, enumerate_generators,
                             in_det_class, sign_class_reps)
from rankref import reference_rank
from relref import (NON_INVARIANT, ReferenceBuilder, full_sign_class_fold,
                    invariant_chains, presentations)

# (N, dim plain, dim minus) at n = 2, frozen from exact rank computations.
CYCLIC_TABLE = (
    (2, 0, 0), (3, 1, 0), (4, 1, 0), (5, 2, 0), (6, 2, 0), (7, 3, 0),
    (8, 3, 0), (9, 5, 1), (10, 4, 0), (11, 6, 1), (12, 7, 2),
)


def test_cyclic_dimension_table():
    for n, dim, dim_minus in CYCLIC_TABLE:
        g = make_group((n,))
        assert dimension(g, 2, Variant.PLAIN).dim_q == dim
        assert dimension(g, 2, Variant.MINUS).dim_q == dim_minus


def test_minus_torsion_brute_values():
    # all torsion in the minus presentation is 2-torsion
    assert dimension(make_group((9,)), 2, Variant.MINUS,
                     want_torsion=True).torsion == (2,) * 5
    assert dimension(make_group((12,)), 2, Variant.MINUS,
                     want_torsion=True).torsion == (2,) * 5
    assert dimension(make_group((7,)), 2, Variant.MINUS,
                     want_torsion=True).torsion == (2,) * 5
    # the plain presentation carries 2-torsion of its own
    assert dimension(make_group((5,)), 2, Variant.PLAIN,
                     want_torsion=True).torsion == (2, 2, 2)


def test_formula_minus_exceptional_list():
    assert formula_minus(make_group((2,))) == (0, (2,))
    assert formula_minus(make_group((3,))) == (0, (2,))
    assert formula_minus(make_group((4,))) == (0, (2, 2))
    assert formula_minus(make_group((2, 2))) == (0, (2, 2))
    # Z/2 x Z/2M with M = 3: torsion only
    assert formula_minus(make_group((2, 6))) == (0, (2,) * 5)
    # rank 3 falls outside every covered family
    assert formula_minus(make_group((2, 2, 2))) == (0, ())


def test_formula_vs_brute_cyclic():
    for n in range(2, 14):
        g = make_group((n,))
        brute = dimension(g, 2, Variant.MINUS, want_torsion=True)
        assert (brute.dim_q, brute.torsion) == formula_minus(g)


def test_formula_vs_brute_bicyclic():
    for factors in ((2, 8), (3, 9), (4, 8)):
        g = make_group(factors)
        brute = dimension(g, 2, Variant.MINUS, want_torsion=True)
        assert (brute.dim_q, brute.torsion) == formula_minus(g)


def test_plain_formula_assembles_from_minus():
    for n in (7, 9, 12):
        g = make_group((n,))
        rep = formula_dimension(g, 2, Variant.PLAIN)
        assert rep.dim_q == (formula_minus(g)[0] + difference_formula(g))
        assert rep.dim_q == dimension(g, 2, Variant.PLAIN).dim_q
        assert rep.method == "FORMULA"


def test_difference_formula_domain():
    with pytest.raises(ValueError):
        difference_formula(make_group((4,)))  # cyclic order <= 5
    with pytest.raises(ValueError):
        difference_formula(make_group((2, 4)))  # unequal factors
    assert difference_formula(make_group((7,))) == 3
    assert difference_formula(make_group((5, 5))) == 24


def test_pxp_closed_forms():
    assert pxp_closed_forms(5) == (46, 22)
    assert pxp_closed_forms(7) == (159, 87)
    g = make_group((5, 5))
    assert dimension(g, 2, Variant.PLAIN).dim_q == 46
    assert dimension(g, 2, Variant.MINUS).dim_q == 22
    assert difference_formula(g) == 46 - 22


def test_dimension_graded_matches_plain_brute():
    for factors in ((3, 6), (3, 9), (4, 8)):
        g = make_group(factors)
        for variant in (Variant.PLAIN, Variant.MINUS):
            graded = dimension_graded(g, variant, want_torsion=True)
            full = dimension(g, 2, variant, want_torsion=True)
            assert graded.dim_q == full.dim_q
            assert graded.torsion == full.torsion
            assert graded.generator_count == full.generator_count


def test_relation_rows_respect_det_grading():
    # both relation templates preserve the determinant class, which is what
    # makes the graded computation sound
    g = make_group((3, 9))
    keys = enumerate_det_class(g, 1)
    for key in keys[:40]:
        cls = det_class(key)
        for i in range(2):
            j = 1 - i
            moved = canonicalize(key.replace(i, key[i] - key[j]))
            assert det_class(moved) == cls
            flipped = canonicalize(key.replace(i, -key[i]))
            assert det_class(flipped) == cls


def test_kernel_dimension_two_routes():
    for factors in ((9,), (12,), (2, 4)):
        g = make_group(factors)
        assert kernel_dimension(g, 2) == kernel_span_dimension(g, 2)


def test_kernel_generators_shape():
    g = make_group((9,))
    gens = kernel_generators(g, 2)
    assert gens  # nonempty for C_9
    for f in gens:
        # e_key + e_flipped, collapsing to 2*e_key when the flip fixes key
        if len(f.terms) == 2:
            assert all(c == 1 for _, c in f.items())
        else:
            assert list(f.terms.values()) == [2]
    with pytest.raises(ValueError):
        kernel_generators(g, 1)


def test_plus_variant_restrictions():
    g = make_group((5,))
    rep = dimension(g, 1, Variant.PLUS)
    assert rep.dim_q == 2  # orbits {1,4} and {2,3} of negation on units
    with pytest.raises(ValueError):
        build_relations(g, 2, Variant.PLUS)
    with pytest.raises(ValueError):
        formula_dimension(g, 3, Variant.MINUS)
    with pytest.raises(ValueError):
        formula_dimension(g, 2, Variant.PLUS)


def test_variant_parse():
    assert Variant.parse("minus") is Variant.MINUS
    assert Variant.parse(Variant.PLAIN) is Variant.PLAIN
    with pytest.raises(ValueError):
        Variant.parse("spam")


def test_relation_system_vector():
    g = make_group((5,))
    sys5 = build_relations(g, 1, Variant.PLAIN)
    key = sys5.basis[0]
    from abelsym.symbols import FormalSum
    assert sys5.vector(FormalSum.of(key, 3)) == {0: 3}
    foreign = canonicalize((make_group((7,)).character((1,)),))
    with pytest.raises(KeyError):
        sys5.vector(FormalSum.of(foreign))


def test_dimension_report_json_round_trip():
    rep = dimension(make_group((9,)), 2, Variant.MINUS, want_torsion=True)
    back = DimensionReport.from_json(rep.to_json())
    assert back.group is rep.group
    assert back.dim_q == rep.dim_q
    assert back.torsion == rep.torsion
    assert back.variant is rep.variant
    assert back.method == rep.method


def test_enum_bound_propagates():
    with pytest.raises(BoundExceeded):
        dimension(make_group((5, 25)), 2, Variant.PLAIN, enum_bound=10)


@settings(max_examples=12, deadline=None)
@given(st.integers(2, 11))
def test_plain_dimensions_match_reference_rank(n):
    # without torsion the rank comes from rank_over_Q, with it from the
    # Smith form; both must match an independent elimination
    g = make_group((n,))
    system = build_relations(g, 2, Variant.PLAIN)
    want = len(system.basis) - reference_rank(system.rel.rows)
    assert dimension(g, 2, Variant.PLAIN).dim_q == want
    assert dimension(g, 2, Variant.PLAIN, want_torsion=True).dim_q == want


# (n, variants, largest group order); the character-based reference takes
# 10 s at n = 3 up to order 24, so n = 3 stops at order 16
@pytest.mark.parametrize("n, variants, limit", [
    (1, (Variant.PLAIN, Variant.MINUS, Variant.PLUS), 24),
    (2, (Variant.PLAIN, Variant.MINUS), 24),
    (3, (Variant.PLAIN, Variant.MINUS), 16)])
def test_build_relations_matches_reference(n, variants, limit):
    # same basis and same rows, in the same order and with the same dict
    # order, as the character-based builder
    for g in presentations(limit):
        ref = ReferenceBuilder(g, n)
        for variant in variants:
            system = build_relations(g, n, variant)
            assert [tuple(ch.residues for ch in key)
                    for key in system.basis] == ref.basis(), (g, variant)
            assert [list(row.items()) for row in system.rel.rows] \
                == ref.rows(variant), (g, variant)


def _key_basis_minus(g, n, keys=None):
    """(dim, torsion, keys) of the minus system over the key basis, with
    its sign rows, from its Smith form."""
    system = build_relations(g, n, Variant.MINUS, keys=keys)
    snf = smith_normal_form(system.rel, bound=10 ** 6)
    return len(system.basis) - snf.rank, snf.torsion, len(system.basis)


_FOLD_CASES = (
    [(f, 1) for f in invariant_chains(81)]
    + [(f, 2) for f in invariant_chains(81) + list(NON_INVARIANT)]
    + [(f, 3) for f in invariant_chains(24)]
    + [((k,), 4) for k in range(2, 9)] + [((2, 2), 4), ((2, 4), 4)])


def test_sign_class_fold_matches_key_basis():
    # dimension() eliminates over the sign classes; the key basis with its
    # sign rows must give the same module.  At n = 2 only Z/2 x Z/4 leaves
    # the closed form, as in criterion 04.
    chains = invariant_chains(81)
    off_formula = []
    for factors, n in _FOLD_CASES:
        g = make_group(factors)
        rep = dimension(g, n, Variant.MINUS, want_torsion=True,
                        snf_bound=10 ** 6)
        assert (rep.dim_q, rep.torsion, rep.generator_count) \
            == _key_basis_minus(g, n), (factors, n)
        if n == 2 and factors in chains:
            formula = formula_dimension(g, 2, Variant.MINUS, want_torsion=True)
            if (rep.dim_q, rep.torsion) != (formula.dim_q, formula.torsion):
                off_formula.append(g.literal())
    assert off_formula == ["2x4"]


def test_graded_sign_class_fold_matches_key_basis_classes():
    # every determinant class, presented over its keys with its sign rows,
    # against the graded fold of the class of 1 scaled by the class count
    graded = 0
    for factors in invariant_chains(81):
        if len(factors) != 2 or factors[0] < 3:
            continue
        g = make_group(factors)
        rep = dimension_graded(g, Variant.MINUS, want_torsion=True)
        dim, torsion, gens = 0, (), 0
        for cls in det_classes(g):
            d, t, k = _key_basis_minus(g, 2, enumerate_det_class(g, cls))
            dim, torsion, gens = dim + d, torsion + t, gens + k
            graded += 1
        assert (rep.dim_q, rep.torsion, rep.generator_count) \
            == (dim, tuple(sorted(torsion)), gens), factors
    assert graded == 30


def test_sign_class_fold_of_2x4():
    # the torsion that the closed form misses: five sign classes
    g = make_group((2, 4))
    assert relations._sign_class_matrix(
        g, sign_class_reps(g, 2), 2).ncols == 5
    rep = dimension(g, 2, Variant.MINUS, want_torsion=True)
    assert (rep.dim_q, rep.torsion, rep.generator_count) == (0, (2, 2, 2), 12)


def test_sign_class_reps_match_filtered_keys():
    # the rep walk is the key walk filtered to codes c = lo[c], in order,
    # and the reps' sign patterns count the keys
    for factors, n in _FOLD_CASES:
        g = make_group(factors)
        neg = negation_codes(g)
        keys = enumerate_generators(g, n)
        reps = sign_class_reps(g, n)
        assert reps == [key.codes for key in keys
                        if all(c <= neg[c] for c in key.codes)], (factors, n)
        assert relations._key_count(g, reps) == len(keys), (factors, n)


def _mod2_signature(row, two):
    """The row up to sign, its entries on the columns in `two` mod 2."""
    sigs = []
    for sign in (1, -1):
        sig = tuple((c, v % 2 if c in two else sign * v)
                    for c, v in sorted(row.items()))
        sigs.append(tuple(item for item in sig if item[1]))
    return min(sigs)


def _assert_fold_lattice_equal(g, reps, what):
    """The kept rows are rows of the full fold, and every full row is +- a
    kept row plus even entries on the {c: 2} columns, which the kept
    {c: 2} rows span: the two row lattices are equal."""
    kept = relations._sign_class_matrix(g, reps, 2).rows
    full = full_sign_class_fold(g, reps, 2)
    exact = {tuple(sorted(row.items())) for row in full}
    assert all(tuple(sorted(row.items())) in exact for row in kept), what
    two = {c for row in kept if len(row) == 1
           for c, v in row.items() if v == 2}
    reduced = {_mod2_signature(row, two) for row in kept}
    assert all(_mod2_signature(row, two) in reduced for row in full), what
    return len(kept), len(full)


def _sweep_fold_systems():
    """(group, reps) for the order <= 81 groups at n = 2, then every
    determinant class of the bi-cyclic ones."""
    for factors in invariant_chains(81):
        g = make_group(factors)
        reps = sign_class_reps(g, 2)
        yield g, reps
        if len(factors) == 2 and factors[0] >= 3:
            for cls in det_classes(g):
                in_class = in_det_class(g, cls)
                yield g, [r for r in reps if in_class(r)]


def test_sign_class_fold_lattice_matches_full_fold():
    kept = full = systems = 0
    for g, reps in _sweep_fold_systems():
        k, f = _assert_fold_lattice_equal(g, reps, g.literal())
        kept, full, systems = kept + k, full + f, systems + 1
    assert systems == 149 + 30
    assert kept < full


@pytest.mark.slow
def test_sign_class_fold_lattice_matches_full_fold_wide():
    # the 124 of the fold docstring's 273 groups beyond order 81
    wide = ([(k,) for k in range(82, 200)]
            + [(11, 11), (13, 13), (3, 30), (4, 40), (2, 90), (6, 24)])
    for factors in wide:
        g = make_group(factors)
        _assert_fold_lattice_equal(g, sign_class_reps(g, 2), factors)


def test_key_basis_snf_bound():
    # the key basis of Z/9 minus, sign rows included, is 75 x 39
    rel = build_relations(make_group((9,)), 2, Variant.MINUS).rel
    with pytest.raises(BoundExceeded) as exc:
        smith_normal_form(rel, bound=40)
    assert str(exc.value) == "smith_normal_form bound exceeded: 75x39 > 40"
