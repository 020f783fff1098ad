"""Relation systems, brute dimensions, torsion, and the closed forms."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from abelsym import relations
from abelsym.abelian import code_tuples, make_group, negation_codes
from abelsym.congruence import coset_index, cusp_formula, genus
from abelsym.exactla import (BoundExceeded, ConsistencyError,
                             smith_normal_form)
from abelsym.relations import (DimensionReport, Variant, build_relations,
                               difference_formula, dimension,
                               dimension_graded, formula_dimension,
                               formula_minus, kernel_dimension,
                               kernel_generators, pxp_closed_forms)
from abelsym.symbols import (canonicalize, det_class, det_classes,
                             enumerate_det_class, enumerate_generators,
                             sign_class_groups)
from rankref import reference_rank
from relref import (NON_INVARIANT, ReferenceBuilder, filter_groups,
                    first_up_to_sign, full_sign_class_fold, hash_set_rows,
                    in_det_class, invariant_chains, kernel_span_dimension,
                    presentations)

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


def test_plain_formula_refuses_torsion():
    # the plain closed form gives no torsion, and the brute route finds
    # some on every Z/N with N >= 5; the minus form still gives its own
    g = make_group((13,))
    with pytest.raises(ValueError, match="no torsion part"):
        formula_dimension(g, 2, Variant.PLAIN, want_torsion=True)
    assert dimension(g, 2, Variant.PLAIN, want_torsion=True).torsion
    rep = formula_dimension(g, 2, Variant.PLAIN)
    assert rep.dim_q == dimension(g, 2, Variant.PLAIN).dim_q
    assert rep.torsion == ()
    rep = formula_dimension(g, 2, Variant.MINUS, want_torsion=True)
    assert (rep.dim_q, rep.torsion) == formula_minus(g)


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


def test_pxp_forms_refuse_other_p():
    # the forms hold for odd primes only; elsewhere they are not integers
    # (3/2 and 3/4 at p = 2) or not the brute values ((11, 5) at p = 4,
    # (273, 165) at p = 9), so they refuse rather than floor
    for p in (2, 4, 9, 1, 3.0):
        with pytest.raises(ValueError, match="need an odd prime p"):
            pxp_closed_forms(p)
    g = make_group((2, 2))
    assert (dimension(g, 2, Variant.PLAIN).dim_q,
            dimension(g, 2, Variant.MINUS).dim_q) == (0, 0)
    with pytest.raises(ValueError, match="no difference closed form for 2x2"):
        difference_formula(g)
    with pytest.raises(ValueError, match="no difference closed form for 2x2"):
        formula_dimension(g, 2, Variant.PLAIN)
    assert pxp_closed_forms(3) == (7, 3)


def test_formula_dimension_refuses_non_integer_n():
    # as dimension() does: 2.0 is not a symbol length
    g = make_group((7,))
    for route in (dimension, formula_dimension):
        with pytest.raises(ValueError, match="symbol length n must be an "
                           "integer, got 2.0"):
            route(g, 2.0, Variant.MINUS)
    assert formula_dimension(g, 2, Variant.MINUS).to_json()["n"] == 2


def _closed_form_cases():
    """(function, arguments) over the closed forms' wide range: groups of
    every shape they cover or refuse, and levels where they are and are
    not integers."""
    cyclic = [(n,) for n in range(1, 400)]
    bicyclic = [(a, a * b) for a in range(2, 30) for b in range(1, 200)
                if a * b < 200]
    for factors in cyclic + bicyclic:
        yield formula_minus, (make_group(factors),)
    pxp = [(p, p) for p in (3, 5, 7, 11, 13)]
    for factors in cyclic[:299] + pxp:
        yield difference_formula, (make_group(factors),)
    for form in (coset_index, cusp_formula, genus):
        for n in range(2, 40):
            for m in range(1, 40):
                yield form, (n, m)


# sha256 of (function, arguments, value or exception type and message) over
# `_closed_form_cases`, as computed when the closed forms multiplied
# Fractions prime by prime
CLOSED_FORMS_SHA256 = (
    "d25f842b65a1ac333f75c6d1f1dc4fd96a894c65a6f44b582f227628ef9363d1")


def test_closed_forms_pinned():
    out = []
    for form, args in _closed_form_cases():
        try:
            got = repr(form(*args))
        except (ValueError, ConsistencyError) as exc:
            got = "%s: %s" % (type(exc).__name__, exc)
        shown = tuple(a.literal() if hasattr(a, "literal") else a
                      for a in args)
        out.append((form.__name__, shown, got))
    assert len(out) == 5725
    digest = hashlib.sha256(repr(out).encode()).hexdigest()
    assert digest == CLOSED_FORMS_SHA256


def _key_basis(g, variant):
    """(dim, torsion, keys) of the n = 2 system over all keys, from its
    Smith form: no determinant class, no sign-class fold."""
    system = build_relations(g, 2, variant)
    snf = smith_normal_form(system.rel, bound=10 ** 6)
    return len(system.codes) - snf.rank, snf.torsion, len(system.codes)


def test_dimension_graded_matches_plain_brute():
    for factors in ((3, 6), (3, 9), (4, 8)):
        g = make_group(factors)
        for variant in (Variant.PLAIN, Variant.MINUS):
            graded = dimension_graded(g, variant, want_torsion=True)
            assert (graded.dim_q, graded.torsion, graded.generator_count) \
                == _key_basis(g, variant), (factors, variant)


def test_dimension_matches_key_basis_on_graded_groups():
    # dimension() presents one determinant class of Z/N x Z/MN, N >= 3;
    # every such group of order <= 81, against the key basis of all classes
    seen = 0
    for factors in invariant_chains(81):
        if len(factors) != 2 or factors[0] < 3:
            continue
        g = make_group(factors)
        for variant in (Variant.PLAIN, Variant.MINUS):
            rep = dimension(g, 2, variant, want_torsion=True)
            assert (rep.dim_q, rep.torsion, rep.generator_count) \
                == _key_basis(g, variant), (factors, variant)
        seen += 1
    assert seen == 22


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


# n = 4 is where one-term rows repeat at keys that the rule "a zero entry
# next to b: keep iff b <= -b" would not catch, 1-7 per group here
_ROW_CASES = ([(make_group(f), 2) for f in invariant_chains(81)]
              + [(g, 3) for g in presentations(24)]
              + [(make_group(f), 4) for f in [(k,) for k in range(2, 9)]
                 + [(2, 2), (2, 4), (4, 2), (3, 1, 3)]])


def test_blowup_rows_match_hash_set_builder():
    # each row built once by rule, against every template at every key with
    # a set dropping the repeats: the same rows, row order and dict order
    # (the plain rows are the minus key basis less its sign rows), and no
    # row repeats up to sign
    for g, n in _ROW_CASES:
        keys = enumerate_generators(g, n)
        rows = build_relations(g, n, Variant.MINUS, keys=keys).rel.rows
        assert [list(row.items()) for row in rows] == [
            list(row.items()) for row in hash_set_rows(
                g, keys, n, Variant.MINUS)], (g.literal(), n)
        assert len(first_up_to_sign(rows)) == len(rows), (g.literal(), n)


def test_build_relations_checks_the_given_basis():
    # a basis that is not closed under the rows' images, keys of the wrong
    # length and keys over another group are refused with a ValueError
    g7 = make_group((7,))
    keys = enumerate_generators(g7, 2)
    with pytest.raises(ValueError, match=r"^basis is not closed under the "
                       r"relations: <\(2\), \(5\)> is missing$"):
        build_relations(g7, 2, Variant.PLAIN, keys=keys[:len(keys) // 2])
    with pytest.raises(ValueError, match=r"^basis key <\(0\), \(0\), "
                       r"\(1\)> is not a length-2 key over 7$"):
        build_relations(g7, 2, Variant.PLAIN,
                        keys=enumerate_generators(g7, 3))
    with pytest.raises(ValueError, match=r"^basis key <\(0\), \(1\)> is "
                       r"not a length-2 key over 2x2$"):
        build_relations(make_group((2, 2)), 2, Variant.PLAIN,
                        keys=enumerate_generators(make_group((4,)), 2))
    with pytest.raises(ValueError, match="not a length-2 key"):
        build_relations(g7, 2, Variant.PLAIN, keys=[k.codes for k in keys])
    # the plus and sign rows' images are checked as well
    singles = enumerate_generators(g7, 1)
    for variant in (Variant.PLUS, Variant.MINUS):
        with pytest.raises(ValueError, match=r"<\(6\)> is missing$"):
            build_relations(g7, 1, variant, keys=singles[:3])


def test_build_relations_on_closed_bases():
    # a full basis gives the enumerated system's rows; the determinant
    # classes of 5x5 at minus split the key-basis rows between them
    g = make_group((5, 5))
    full = build_relations(g, 2, Variant.MINUS,
                           keys=enumerate_generators(g, 2))
    assert [list(row.items()) for row in full.rel.rows] == [
        list(row.items())
        for row in build_relations(g, 2, Variant.MINUS).rel.rows]
    split = []
    for cls in det_classes(g):
        keys = enumerate_det_class(g, cls)
        system = build_relations(g, 2, Variant.MINUS, keys=keys)
        assert system.basis == keys
        split += [sorted((full.index[keys[c].codes], v)
                         for c, v in row.items()) for row in system.rel.rows]
    assert len(split) == 480
    assert sorted(split) == sorted(sorted(row.items())
                                   for row in full.rel.rows)


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
    rel, keys = relations._sign_class_matrix(g, sign_class_groups(g, 2), 2)
    assert (rel.ncols, keys) == (5, 12)
    rep = dimension(g, 2, Variant.MINUS, want_torsion=True)
    assert (rep.dim_q, rep.torsion, rep.generator_count) == (0, (2, 2, 2), 12)


def test_sign_class_reps_match_filtered_keys():
    # the rep walk is the key walk filtered to codes c = lo[c], in order,
    # its groups flatten to the reps, and the fold counts the keys by the
    # reps' sign patterns
    for factors, n in _FOLD_CASES:
        g = make_group(factors)
        neg = negation_codes(g)
        keys = enumerate_generators(g, n)
        want = [key.codes for key in keys
                if all(c <= neg[c] for c in key.codes)]
        groups = sign_class_groups(g, n)
        assert code_tuples(groups) == want, (factors, n)
        prefixes = [p for p, _ in groups]
        assert prefixes == sorted(set(prefixes)), (factors, n)
        for p, cs in groups:
            assert cs and cs == sorted(set(cs)) and cs[:1] >= list(p[-1:]), \
                (factors, n, p)
        assert relations._sign_class_matrix(g, groups, n)[1] == len(keys), \
            (factors, n)


def _mod2_signature(row, two):
    """The row up to sign, its entries on the columns in `two` mod 2."""
    sigs = []
    for sign in (1, -1):
        sig = tuple((c, v % 2 if c in two else sign * v)
                    for c, v in sorted(row.items()))
        sigs.append(tuple(item for item in sig if item[1]))
    return min(sigs)


def _assert_fold_lattice_equal(g, groups, what, n=2):
    """The kept rows are rows of the full fold, and every full row is +- a
    kept row plus even entries on the {c: 2} columns, which the kept
    {c: 2} rows span: the two row lattices are equal."""
    kept = relations._sign_class_matrix(g, groups, n)[0].rows
    full = full_sign_class_fold(g, code_tuples(groups), n)
    exact = {tuple(sorted(row.items())) for row in full}
    assert all(tuple(sorted(row.items())) in exact for row in kept), what
    two = {c for row in kept if len(row) == 1
           for c, v in row.items() if v == 2}
    reduced = {_mod2_signature(row, two) for row in kept}
    assert all(_mod2_signature(row, two) in reduced for row in full), what
    return len(kept), len(full)


def _sweep_fold_systems():
    """(group, rep groups) for the order <= 81 groups at n = 2, then every
    determinant class of the bi-cyclic ones."""
    for factors in invariant_chains(81):
        g = make_group(factors)
        groups = sign_class_groups(g, 2)
        yield g, groups
        if len(factors) == 2 and factors[0] >= 3:
            for cls in det_classes(g):
                yield g, filter_groups(groups, in_det_class(g, cls))


def test_sign_class_fold_lattice_matches_full_fold():
    kept = full = systems = 0
    for g, groups in _sweep_fold_systems():
        k, f = _assert_fold_lattice_equal(g, groups, g.literal())
        kept, full, systems = kept + k, full + f, systems + 1
    assert systems == 149 + 30
    assert kept < full


def test_sign_class_fold_on_every_presentation():
    # the fold's digit arithmetic on trivial and out-of-order factors,
    # which the invariant chains above never have
    literals = set()
    for g in presentations(40):
        groups = sign_class_groups(g, 2)
        _assert_fold_lattice_equal(g, groups, g.literal())
        assert relations._sign_class_matrix(g, groups, 2)[1] \
            == len(enumerate_generators(g, 2)), g.literal()
        literals.add(g.literal())
    assert {"4x2", "3x1x3", "1x5", "2x5x2"} <= literals


# sha256 of the n = 2 folds of `_sweep_fold_systems`, entries, entry order
# and row order included, as built when the fold looked u and v up before
# testing its once-rule
SWEEP_FOLD_SHA256 = (
    "48e79db33ba5c067aa8a530d9702f058aa28a6b9e5f3afa97e248e66feb1de89")


def test_sign_class_fold_pinned():
    folds = [[list(row.items()) for row in
              relations._sign_class_matrix(g, groups, 2)[0].rows]
             for g, groups in _sweep_fold_systems()]
    assert sum(map(len, folds)) == 22142
    digest = hashlib.sha256(repr(folds).encode()).hexdigest()
    assert digest == SWEEP_FOLD_SHA256


def _assert_fold_once(g, n):
    """The fold at n >= 3 spans the full fold's lattice and keeps no row
    twice up to sign; returns (kept, full) counts."""
    groups = sign_class_groups(g, n)
    counts = _assert_fold_lattice_equal(g, groups, (g.literal(), n), n)
    rows = relations._sign_class_matrix(g, groups, n)[0].rows
    assert len(first_up_to_sign(rows)) == len(rows), (g.literal(), n)
    return counts


def test_sign_class_fold_drops_repeats_beyond_n_2():
    counts = {(factors, n): _assert_fold_once(make_group(factors), n)
              for factors, n in _FOLD_CASES if n >= 3}
    assert counts[(5,), 3] == (19, 47)
    assert counts[(9,), 3] == (66, 171)
    for n, want in ((3, (8361, 21662)), (4, (635, 2117))):
        at_n = [c for (_, m), c in counts.items() if m == n]
        assert tuple(map(sum, zip(*at_n))) == want
    for g in presentations(16):  # trivial and out-of-order factors too
        _assert_fold_once(g, 3)
    for factors in ((4, 2), (3, 1, 3)):
        _assert_fold_once(make_group(factors), 4)


def test_sign_class_fold_repeats_at_n_2():
    # the n = 2 fold is pinned by SWEEP_FOLD_SHA256; of all its groups of
    # order <= 81 only Z/4 keeps a row twice up to sign, the one-term rows
    # {1: 1} from the rep (0, 1) and {1: -1} from (1, 1)
    repeats = {}
    for g in presentations(81):
        rows = relations._sign_class_matrix(g, sign_class_groups(g, 2), 2)[0]
        extra = rows.nrows - len(first_up_to_sign(rows.rows))
        if extra:
            repeats[g.literal()] = extra
    assert repeats == {"4": 1}


@pytest.mark.slow
def test_sign_class_fold_drops_repeats_at_n_3_wide():
    # tier 1 stops at order 24
    for g in map(make_group, invariant_chains(40)):
        if g.order > 24:
            _assert_fold_once(g, 3)


@pytest.mark.slow
def test_sign_class_fold_lattice_matches_full_fold_wide():
    # the 124 of the fold docstring's 273 groups beyond order 81
    wide = ([(k,) for k in range(82, 200)]
            + [(11, 11), (13, 13), (3, 30), (4, 40), (2, 90), (6, 24)])
    for factors in wide:
        g = make_group(factors)
        _assert_fold_lattice_equal(g, sign_class_groups(g, 2), factors)


def test_graded_snf_bound_reads_one_class():
    # dimension() presents one of the two determinant classes of 5x5, so
    # the bound is checked on that class's 20 x 30 fold, where the whole
    # 40 x 60 fold once raised under any bound below 60
    g = make_group((5, 5))
    rep = dimension(g, 2, Variant.MINUS, want_torsion=True, snf_bound=30)
    assert (rep.dim_q, rep.torsion, rep.generator_count) == (22, (), 240)
    with pytest.raises(BoundExceeded) as exc:
        dimension(g, 2, Variant.MINUS, want_torsion=True, snf_bound=29)
    assert str(exc.value) == "smith_normal_form bound exceeded: 20x30 > 29"


def test_graded_route_refuses_a_float_n():
    # the walk refuses n = 2.0; the graded route, which skips the walk,
    # refuses it the same way rather than answer on 3x9 alone
    for factors in ((3, 9), (2, 4)):
        for variant in (Variant.PLAIN, Variant.MINUS):
            with pytest.raises(ValueError, match="got 2.0"):
                dimension(make_group(factors), 2.0, variant)


def test_key_basis_snf_bound():
    # the key basis of Z/9 minus, sign rows included, is 75 x 39
    rel = build_relations(make_group((9,)), 2, Variant.MINUS).rel
    with pytest.raises(BoundExceeded) as exc:
        smith_normal_form(rel, bound=40)
    assert str(exc.value) == "smith_normal_form bound exceeded: 75x39 > 40"
