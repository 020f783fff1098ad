"""Exact linear algebra: ranks, span membership, Smith normal form."""

import hashlib
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from abelsym import Variant, build_relations, make_group, manin_space
from abelsym.exactla import (BoundExceeded, SparseIntMatrix, SpanChecker,
                             _contract_two_term, dense_snf_with_transforms,
                             rank_over_Q, row_span_membership,
                             smith_normal_form)
from abelsym.relations import _sign_class_matrix
from abelsym.symbols import sign_class_reps
from rankref import reference_det, reference_rank
from relref import invariant_chains


def mat(rows):
    ncols = max((len(r) for r in rows), default=0)
    return SparseIntMatrix(
        len(rows), ncols,
        [{j: v for j, v in enumerate(r) if v} for r in rows])


def test_rank_simple():
    assert rank_over_Q(mat([[1, 2], [2, 4]])) == 1
    assert rank_over_Q(mat([[1, 0], [0, 1]])) == 2
    assert rank_over_Q(mat([[0, 0]])) == 0
    assert rank_over_Q(SparseIntMatrix(0, 3, [])) == 0


def test_rank_matches_reference():
    rows = [[2, 4, 6], [3, 5, 7], [5, 9, 13]]  # row3 = row1 + row2
    assert rank_over_Q(mat(rows)) == reference_rank(rows) == 2


def test_span_membership():
    m = mat([[1, 2, 0], [0, 1, 1]])
    assert row_span_membership(m, [1, 3, 1])
    assert row_span_membership(m, [2, 4, 0])
    assert not row_span_membership(m, [0, 0, 1])
    assert row_span_membership(m, [0, 0, 0])


def test_span_membership_fractions():
    m = mat([[2, 0, 0], [0, 3, 0]])
    checker = SpanChecker(m)
    assert checker.contains({0: Fraction(1, 2), 1: Fraction(1, 3)})
    assert checker.contains({0: 1}) and checker.contains({1: Fraction(5, 7)})
    assert not checker.contains({0: Fraction(1, 2), 2: Fraction(1, 3)})


def test_snf_known_matrices():
    # [[2,4],[6,8]]: gcd of entries 2, |det| 8, so divisors (2, 4)
    res = smith_normal_form(mat([[2, 4], [6, 8]]))
    assert res.divisors == (2, 4)
    assert res.rank == 2
    assert res.torsion == (2, 4)

    res = smith_normal_form(mat([[1, 0, 0], [0, 3, 0]]))
    assert res.divisors == (1, 3)
    assert res.torsion == (3,)

    res = smith_normal_form(mat([[0, 0], [0, 0]]))
    assert res.rank == 0
    assert res.torsion == ()


def test_snf_divisor_chain_property():
    res = smith_normal_form(mat([[6, 10], [15, 4], [2, 8]]))
    nonzero = [d for d in res.divisors if d]
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0


def test_snf_bound():
    with pytest.raises(BoundExceeded):
        smith_normal_form(mat([[1, 2], [3, 4]]), bound=1)


def test_snf_bound_is_on_the_input_shape():
    # 12 two-term +-1 rows over 4 columns contract to a single {root: 2}
    # row, but the bound caps the matrix as given
    rows = [[1, (-1) ** i, 0, 0] for i in range(10)] + [[0, 1, 1, 0],
                                                        [0, 0, 1, -1]]
    m = mat(rows)
    assert smith_normal_form(m, bound=12).divisors == (1, 1, 1, 2)
    with pytest.raises(BoundExceeded, match="12x4 > 11"):
        smith_normal_form(m, bound=11)


def test_dense_snf_transforms_reconstruct():
    a = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    d, u, v = dense_snf_with_transforms([row[:] for row in a])
    # u @ a @ v == d must hold exactly
    n = len(a)
    ua = [[sum(u[i][k] * a[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]
    uav = [[sum(ua[i][k] * v[k][j] for k in range(n)) for j in range(n)]
           for i in range(n)]
    assert uav == d
    diag = [d[i][i] for i in range(n)]
    for x, y in zip(diag, diag[1:]):
        if x:
            assert y % x == 0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                min_size=1, max_size=5))
def test_rank_unchanged_by_row_shuffle(rows):
    m = mat(rows)
    r = rank_over_Q(m)
    shuffled = mat(list(reversed(rows)))
    assert rank_over_Q(shuffled) == r
    # appending a row already in the span keeps the rank
    assert rank_over_Q(m.with_rows([dict(m.rows[0])])) == r


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3),
                min_size=1, max_size=4))
def test_snf_rank_matches_reference_rank(rows):
    m = mat(rows)
    assert smith_normal_form(m).rank == rank_over_Q(m) == reference_rank(rows)


def _matrix_rows(draw, nrows, ncols, unit_free):
    """Entries in [-9, 9]; unit_free ones avoid +-1, so elimination leaves
    a residue."""
    entry = st.integers(-9, 9)
    if unit_free:
        entry = entry.filter(lambda v: v not in (1, -1))
    return draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))


@st.composite
def _snf_cases(draw):
    """Small integer matrices, scaled by a content c, some with no unit."""
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows = _matrix_rows(draw, nrows, ncols, draw(st.booleans()))
    c = draw(st.sampled_from([1, 2, 3, 6]))
    return [[c * v for v in row] for row in rows]


def _dense_divisors(rows):
    d, _, _ = dense_snf_with_transforms([row[:] for row in rows])
    width = min(len(rows), len(rows[0]))
    return tuple(d[k][k] for k in range(width))


@settings(max_examples=150, deadline=None)
@given(_snf_cases())
def test_snf_matches_dense_reference(rows):
    # content c > 1 exercises peeling; rows without +-1 entries and content
    # 1 exercise the gcd steps that make a unit entry
    assert smith_normal_form(mat(rows)).divisors == _dense_divisors(rows)


def test_snf_residue_without_unit_entries():
    rows = [[6, 10], [15, 4], [2, 8]]  # content 1, no +-1 entry
    assert smith_normal_form(mat(rows)).divisors == _dense_divisors(rows)
    assert smith_normal_form(mat([[2, 0], [0, 3]])).divisors == (1, 6)
    assert smith_normal_form(mat([[4, 6], [6, 4]])).divisors == (2, 10)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_snf_of_larger_dense_matrices(data):
    # too large for the dense reference, whose entries blow up from 5x5 on;
    # the divisors still multiply to |det| and the first is the content
    n = data.draw(st.integers(5, 8))
    rows = _matrix_rows(data.draw, n, n, unit_free=True)
    res = smith_normal_form(mat(rows))
    det = abs(reference_det(rows))
    if det:
        assert res.rank == len(rows)
        product = 1
        for d in res.divisors:
            product *= d
        assert product == det
    else:
        assert res.rank == reference_rank(rows) < len(rows)
    content = 0
    for row in rows:
        content = gcd(content, *row)
    assert res.divisors[0] == content


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_span_membership_matches_reference_rank(data):
    nrows, ncols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5))
    rows = _matrix_rows(data.draw, nrows, ncols, unit_free=True)
    query = data.draw(st.lists(st.integers(-9, 9), min_size=ncols,
                               max_size=ncols))
    member = reference_rank(rows + [query]) == reference_rank(rows)
    assert SpanChecker(mat(rows)).contains(query) == member
    # a combination of the rows is always a member
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=nrows,
                                max_size=nrows))
    combo = [sum(c * row[j] for c, row in zip(coeffs, rows))
             for j in range(ncols)]
    assert SpanChecker(mat(rows)).contains(combo)


def test_span_membership_is_over_Q():
    assert SpanChecker(mat([[2]])).contains([1])
    assert SpanChecker(mat([[2, 0], [0, 3]])).contains([1, 1])
    assert not SpanChecker(mat([[2, 4], [4, 8]])).contains([1, 3])


def test_matrix_validation():
    with pytest.raises(ValueError):
        SparseIntMatrix(1, 2, [{5: 1}])
    with pytest.raises(ValueError):
        SparseIntMatrix(2, 2, [{0: 1}])
    m = SparseIntMatrix(2, 2, [{0: 3, 1: 0}, {1: -1}])
    assert m.rows == [{0: 3}, {1: -1}]  # the explicit zero is dropped
    assert m.nnz() == 2


@st.composite
def _two_term_cases(draw):
    """Rows that are mostly e_a +- e_b: chains over a few columns, closing
    rows whose signs may or may not cancel, repeats with one sign flipped,
    and a few random rows with copies of them, shuffled together."""
    ncols = draw(st.integers(2, 7))
    col = st.integers(0, ncols - 1)
    sign = st.sampled_from([1, -1])
    two = []
    for _ in range(draw(st.integers(0, 2))):
        chain = draw(st.lists(col, min_size=2, max_size=ncols, unique=True))
        if draw(st.booleans()):
            chain.append(chain[0])  # the closing row of a cycle
        two += [(a, b) for a, b in zip(chain, chain[1:])]
    two += draw(st.lists(st.tuples(col, col).filter(lambda p: p[0] != p[1]),
                         max_size=5))
    rows = []
    for a, b in two:
        row = [0] * ncols
        row[a], row[b] = draw(sign), draw(sign)
        rows.append(row)
        if draw(st.integers(0, 3)) == 0:
            again = row[:]
            again[b] *= draw(sign)  # flipped: {root: 2}; same: dropped
            rows.append(again)
    loose = draw(st.lists(st.lists(st.integers(-4, 4), min_size=ncols,
                                   max_size=ncols), max_size=3))
    rows += loose
    for row in loose:
        # repeats, some negated, and repeats with the entry at a joined
        # column a moved to its partner b: equal only after the remap
        if draw(st.booleans()):
            rows.append([v * draw(sign) for v in row])
        movable = [(a, b) for x, y in two for a, b in ((x, y), (y, x))
                   if row[a] and not row[b]]
        if movable and draw(st.booleans()):
            a, b = draw(st.sampled_from(movable))
            pair = next(r for r in rows if r[a] in (1, -1)
                        and r[b] in (1, -1) and len([v for v in r if v]) == 2)
            again = [v * draw(sign) for v in row]
            again[b] = -pair[a] * pair[b] * again[a]
            again[a] = 0
            rows.append(again)
    if not rows:
        rows = [[0] * ncols]
    return draw(st.permutations(rows))


@settings(max_examples=150, deadline=None)
@given(_two_term_cases())
def test_snf_with_two_term_rows_matches_dense_reference(rows):
    res = smith_normal_form(mat(rows))
    assert res.divisors == _dense_divisors(rows)
    assert res.rank == reference_rank(rows)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_span_membership_with_two_term_rows(data):
    rows = data.draw(_two_term_cases())
    ncols = len(rows[0])
    checker = SpanChecker(mat(rows))
    merged = sorted({c for row in rows if len([v for v in row if v]) == 2
                     and all(v in (0, 1, -1) for v in row)
                     for c, v in enumerate(row) if v})
    queries = [data.draw(st.lists(st.integers(-3, 3), min_size=ncols,
                                  max_size=ncols))]
    if merged:
        # supported only on columns the contraction joined
        only = data.draw(st.lists(st.sampled_from(merged), min_size=1,
                                  max_size=3))
        query = [0] * ncols
        for c in only:
            query[c] += data.draw(st.sampled_from([1, -1, 2]))
        queries.append(query)
    for query in queries:
        member = reference_rank(rows + [query]) == reference_rank(rows)
        assert checker.contains(query) == member
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(rows),
                                max_size=len(rows)))
    combo = [sum(c * row[j] for c, row in zip(coeffs, rows))
             for j in range(ncols)]
    assert checker.contains(combo)


def test_contraction_alone_settles_the_matrix():
    # e0 = -e1 = -e2 = e3, e4 = e5; the row e0 - e3 closes its cycle
    rows = [[1, 1, 0, 0, 0, 0], [0, 1, -1, 0, 0, 0], [0, 0, 1, 1, 0, 0],
            [1, 0, 0, -1, 0, 0], [0, 0, 0, 0, 1, -1], [0, 1, 0, 1, 0, 0]]
    merges, rest = _contract_two_term(mat(rows).rows, None)
    assert (merges, rest) == (4, [])
    res = smith_normal_form(mat(rows))
    assert res.divisors == _dense_divisors(rows) == (1, 1, 1, 1, 0, 0)
    checker = SpanChecker(mat(rows))
    assert checker.contains([0, 0, 1, 1, 0, 0])
    assert checker.contains([3, 0, 0, -3, 2, -2])
    assert not checker.contains([0, 0, 1, -1, 0, 0])
    assert not checker.contains([1, 0, 0, 0, 0, 0])
    assert not checker.contains([0, 0, 0, 0, 1, 1])


def _distinct_up_to_sign(rows):
    seen = set()
    for row in rows:
        for sign in (1, -1):
            if frozenset((c, sign * v) for c, v in row.items()) in seen:
                return False
        seen.add(frozenset(row.items()))
    return True


def test_contraction_keeps_each_row_once():
    # e0 = -e3, so e0 + e1 + e2 and e1 + e2 - e3 both land on
    # e1 + e2 - e3, and so does the negative of the second
    rows = [[1, 0, 0, 1, 0], [1, 1, 1, 0, 0], [0, 1, 1, -1, 0],
            [0, 0, 1, 0, 2], [0, -1, -1, 1, 0]]
    pivots = []
    merges, rest = _contract_two_term(mat(rows).rows, pivots)
    assert merges == 1 and pivots == [(0, {0: 1, 3: 1})]
    assert rest == [{1: 1, 2: 1, 3: -1}, {2: 1, 4: 2}]
    assert smith_normal_form(mat(rows)).divisors == _dense_divisors(rows)
    checker = SpanChecker(mat(rows))
    assert checker.rank == reference_rank(rows) == 3
    assert checker.contains([0, 1, 1, -1, 0])
    assert not checker.contains([0, 1, 0, 0, 0])


def test_contraction_copies_plain_rows_and_folds_repeats():
    # plain rows (nothing to join, each summing to -1) come back as they
    # are; the n = 3 sign-class fold of Z/5 also has no two-term row, but
    # 22 of its 47 rows repeat others up to sign
    plain = build_relations(make_group((9,)), 2, Variant.PLAIN).rel.rows
    assert _contract_two_term(plain, None) == (0, plain)
    g = make_group((5,))
    fold = _sign_class_matrix(g, sign_class_reps(g, 3), 3)
    merges, rest = _contract_two_term(fold.rows, None)
    assert (merges, fold.nrows, len(rest)) == (0, 47, 25)
    assert _distinct_up_to_sign(rest)


@settings(max_examples=100, deadline=None)
@given(_two_term_cases())
def test_contraction_returns_no_repeats(rows):
    # every remapped row is kept once up to sign, unless nothing is joined
    # and every row sums to -1: then the nonzero rows come back as copies
    rows = mat(rows).rows
    merges, rest = _contract_two_term(rows, None)
    kept = [row for row in rows if row]
    assert all(rest)
    if not merges and all(sum(row.values()) == -1 for row in kept):
        assert rest == kept and all(a is not b for a, b in zip(rest, kept))
    else:
        assert _distinct_up_to_sign(rest)


@settings(max_examples=80, deadline=None)
@given(st.one_of(_snf_cases(), _two_term_cases()))
def test_span_checker_rank_matches_reference(rows):
    assert SpanChecker(mat(rows)).rank == reference_rank(rows)


def test_span_checker_rank_on_relation_matrices():
    rel = build_relations(make_group((9,)), 2, Variant.MINUS).rel
    manin, _ = manin_space(2, 8)
    for m in (rel, manin.rel):
        assert SpanChecker(m).rank == rank_over_Q(m) > 0


# sha256 of the Smith divisors below, as computed before the contraction
# dropped repeated rows: minus and plain at n = 2 for every group of order
# <= 40, then the Manin spaces at levels (11, 1), (7, 2) and (2, 8)
ENGINE_DIVISORS_SHA256 = (
    "7d11079f6b477a8a95cee1d2b0a967cd567ecee928d73bec14adfb11f769aa2b")


def test_engine_divisors_pinned():
    parts = []
    for chain in invariant_chains(40):
        group = make_group(chain)
        for variant in (Variant.MINUS, Variant.PLAIN):
            rel = build_relations(group, 2, variant).rel
            parts.append((chain, variant.name,
                          smith_normal_form(rel).divisors))
    for level in ((11, 1), (7, 2), (2, 8)):
        system, _ = manin_space(*level)
        parts.append((level, "MANIN", smith_normal_form(system.rel).divisors))
    digest = hashlib.sha256(repr(parts).encode()).hexdigest()
    assert digest == ENGINE_DIVISORS_SHA256
