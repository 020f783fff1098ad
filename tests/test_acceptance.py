"""Acceptance suite: ten gated criteria, one verdict line each.

Each test prints `criterion NN <name> PASS|FAIL` before asserting (visible
under -s), and the conftest terminal summary re-derives the same lines from
the recorded outcomes so they survive output capture in a plain pytest run.
Two criteria fail by design and are left failing on purpose: the
minus-variant closed form misses the 2-torsion of Z/2 x Z/4 (criterion 04),
and the closed-form cusp count disagrees with the actual orbit count at
levels with M >= 2 (criterion 06).  The failures are real properties of the
formulas, measured here against independent brute-force routes; see the
tests for the pinned counterexamples.
"""

from abelsym.abelian import make_group
from abelsym.arith import totient
from abelsym.congruence import (coset_index, coset_of, cusp_formula,
                                cusp_orbit_count, enumerate_cosets, genus,
                                iso_check, level2_consistency, lift_coset,
                                manin_space)
from abelsym.exactla import SpanChecker, rank_over_Q
from abelsym.relations import (Variant, build_relations, difference_formula,
                               dimension, dimension_graded,
                               formula_dimension, pxp_closed_forms)
from abelsym.structmaps import delta_sum, verify_kernel_iso
from abelsym.symbols import det_classes, enumerate_det_class

SNF_BOUND = 20000  # the order-81 systems outgrow the default guard

# (d, d_minus) at n = 2 for C_N, frozen from exact computations
CYCLIC_PAIRS = {
    2: (0, 0), 3: (1, 0), 4: (1, 0), 5: (2, 0), 7: (3, 0), 9: (5, 1),
    11: (6, 1), 12: (7, 2), 13: (8, 2), 16: (10, 3), 17: (13, 5),
    19: (16, 7),
}

# (d, d_minus) at n = 2 for Z/N1 x Z/N2, frozen from exact computations
BICYCLIC_PAIRS = {
    (2, 2): (0, 0), (2, 4): (2, 0), (2, 6): (3, 0), (2, 8): (6, 1),
    (2, 10): (7, 1), (2, 16): (21, 9), (3, 3): (7, 3), (3, 6): (15, 7),
    (3, 9): (37, 19), (3, 27): (235, 163), (4, 8): (33, 17),
    (4, 16): (105, 65), (4, 32): (353, 257), (5, 25): (702, 502),
    (6, 36): (577, 433),
}

PXP_PAIRS = {5: (46, 22), 7: (159, 87)}


def _verdict(num, name, ok):
    print("\ncriterion %02d %s %s" % (num, name, "PASS" if ok else "FAIL"))


def invariant_chains(limit):
    """All invariant factor chains d_1 | d_2 | ... with product <= limit."""
    out = []
    stack = [((), 1)]
    while stack:
        chain, prod = stack.pop()
        if chain:
            out.append(chain)
            low = step = chain[-1]
        else:
            low, step = 2, 1
        d = low
        while prod * d <= limit:
            stack.append((chain + (d,), prod * d))
            d += step
    return sorted(out, key=lambda c: (len(c), c))


def test_criterion_01_cyclic_table():
    bad = []
    for n, (dim, dim_minus) in sorted(CYCLIC_PAIRS.items()):
        g = make_group((n,))
        got = (dimension(g, 2, Variant.PLAIN).dim_q,
               dimension(g, 2, Variant.MINUS).dim_q)
        if got != (dim, dim_minus):
            bad.append((n, got, (dim, dim_minus)))
    _verdict(1, "cyclic-table", not bad)
    assert not bad, bad


def test_criterion_02_bicyclic_table():
    bad = []
    for (n1, n2), want in sorted(BICYCLIC_PAIRS.items()):
        g = make_group((n1, n2))
        dims = []
        for variant in (Variant.PLAIN, Variant.MINUS):
            if n1 >= 3:
                rep = dimension_graded(g, variant, snf_bound=SNF_BOUND)
            else:
                rep = dimension(g, 2, variant, snf_bound=SNF_BOUND)
            dims.append(rep.dim_q)
        if tuple(dims) != want:
            bad.append(((n1, n2), tuple(dims), want))
    _verdict(2, "bicyclic-table", not bad)
    assert not bad, bad


def test_criterion_03_pxp_identities():
    bad = []
    for p, want in sorted(PXP_PAIRS.items()):
        g = make_group((p, p))
        got = (dimension(g, 2, Variant.PLAIN).dim_q,
               dimension(g, 2, Variant.MINUS).dim_q)
        closed = pxp_closed_forms(p)
        if not (got == want == closed):
            bad.append((p, got, closed, want))
    _verdict(3, "pxp-identities", not bad)
    assert not bad, bad


def test_criterion_04_formula_vs_brute():
    # the closed form must match brute force on dimension and torsion for
    # every abelian group of order <= 81; it does not: the zero claim for
    # Z/2 x Z/4 misses the measured torsion (2, 2, 2), so this criterion
    # fails honestly at exactly that group
    bad = []
    for chain in invariant_chains(81):
        g = make_group(chain)
        brute = dimension(g, 2, Variant.MINUS, want_torsion=True,
                          snf_bound=SNF_BOUND)
        formula = formula_dimension(g, 2, Variant.MINUS, want_torsion=True)
        if (brute.dim_q, brute.torsion) != (formula.dim_q, formula.torsion):
            bad.append((g.literal(), (brute.dim_q, brute.torsion),
                        (formula.dim_q, formula.torsion)))
    _verdict(4, "formula-vs-brute", not bad)
    assert not bad, bad


def test_criterion_05_torsion_claims():
    bad = []
    for n in range(5, 17):
        g = make_group((n,))
        got = dimension(g, 2, Variant.MINUS, want_torsion=True,
                        snf_bound=SNF_BOUND).torsion
        count = totient(n) - 1 if n % 2 else totient(n) + totient(n // 2) - 1
        if got != (2,) * count:
            bad.append((n, got, count))
    for n1 in range(3, 13):
        for n2 in range(n1, 13, n1):
            rep = dimension_graded(make_group((n1, n2)), Variant.MINUS,
                                   want_torsion=True, snf_bound=SNF_BOUND)
            if rep.torsion != ():
                bad.append(((n1, n2), rep.torsion, ()))
    _verdict(5, "torsion-claims", not bad)
    assert not bad, bad


def test_criterion_06_congruence_machinery():
    # the closed-form cusp count disagrees with the orbit count whenever
    # M >= 2, so this criterion fails honestly at (3,2), (2,3) and (3,3);
    # every other sub-check, including the Manin dimension bookkeeping
    # built from the same formulas, passes
    bad = []
    for n, m in ((3, 1), (4, 1), (5, 1), (3, 2), (2, 3), (3, 3)):
        cosets = enumerate_cosets(n, m)
        if len(cosets) != coset_index(n, m):
            bad.append(("coset-count", n, m))
        if any(coset_of(lift_coset(s), n, m) != s for s in cosets):
            bad.append(("lift-round-trip", n, m))
        try:
            formula = cusp_formula(n, m)
        except AssertionError:
            bad.append(("cusp-formula-integrality", n, m))
        else:
            orbits = cusp_orbit_count(n, m)
            if formula != orbits:
                bad.append(("cusp-count", n, m, formula, orbits))
        if n >= 3:
            _, rep = manin_space(n, m, snf_bound=SNF_BOUND)
            if rep.dim_q != 2 * genus(n, m) + cusp_formula(n, m) - 1:
                bad.append(("manin-dimension", n, m, rep.dim_q))
            if rep.torsion != ():
                bad.append(("manin-torsion", n, m, rep.torsion))
    for m in (3, 4, 5):
        try:
            level2_consistency(m, snf_bound=SNF_BOUND)
        except AssertionError as exc:
            bad.append(("level2-consistency", m, str(exc)))
    _verdict(6, "congruence-machinery", not bad)
    assert not bad, bad


def test_criterion_07_isomorphism_suites():
    bad = []
    for n, m in ((3, 1), (5, 1), (2, 3)):
        if not iso_check(n, m, snf_bound=SNF_BOUND).ok:
            bad.append(("iso", n, m))
    for factors in ((5, 5), (4, 8)):
        g = make_group(factors)
        classes = det_classes(g)
        keys = enumerate_det_class(g, classes[0])
        system = build_relations(g, 2, Variant.MINUS, keys=keys)
        class_dim = len(keys) - rank_over_Q(system.rel)
        # all classes over the key basis: dimension() itself grades here
        whole = build_relations(g, 2, Variant.MINUS)
        full = len(whole.codes) - rank_over_Q(whole.rel)
        if full != (totient(factors[0]) // 2) * class_dim:
            bad.append(("grading", factors, full, class_dim))
    _verdict(7, "isomorphism-suites", not bad)
    assert not bad, bad


def test_criterion_08_kernel_isomorphism():
    bad = []
    for factors in ((7,), (9,), (12,), (2, 8), (3, 3), (5, 5)):
        report = verify_kernel_iso(make_group(factors), 2)
        if not report.ok:
            bad.append((factors, 2, report.to_json()))
    report = verify_kernel_iso(make_group((2, 2)), 3)
    if not report.ok:
        bad.append(((2, 2), 3, report.to_json()))
    _verdict(8, "kernel-isomorphism", not bad)
    assert not bad, bad


def test_criterion_09_delta_vanishing():
    bad = []
    for chain in invariant_chains(36):
        g = make_group(chain)
        system = build_relations(g, 2, Variant.PLAIN)
        checker = SpanChecker(system.rel)
        for key in system.basis:
            image = delta_sum(key)
            if not (image.is_zero()
                    or checker.contains(system.vector(image))):
                bad.append((g.literal(), repr(key)))
    _verdict(9, "delta-vanishing", not bad)
    assert not bad, bad


def test_criterion_10_difference_formula():
    bad = []
    for n in (7, 9, 11, 12, 13, 16, 17, 19):
        dim, dim_minus = CYCLIC_PAIRS[n]
        got = difference_formula(make_group((n,)))
        if got != dim - dim_minus:
            bad.append((n, got, dim - dim_minus))
    for p, (dim, dim_minus) in sorted(PXP_PAIRS.items()):
        want = (p + 1) * (p - 1) ** 2 // 4
        got = difference_formula(make_group((p, p)))
        if not (got == want == dim - dim_minus):
            bad.append((p, got, want, dim - dim_minus))
    _verdict(10, "difference-formula", not bad)
    assert not bad, bad
