"""Exact linear algebra: ranks, span membership, Smith normal form."""

import hashlib
import random
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from abelsym import (Variant, build_relations, delta_sum,
                     enumerate_generators, exactla, make_group, manin_space)
from abelsym.exactla import (BoundExceeded, ConsistencyError,
                             SparseIntMatrix, SpanChecker, _integerize,
                             _table_contains, _unit_eliminate,
                             dense_snf_with_transforms,
                             rank_over_Q, row_signature, row_span_membership,
                             smith_normal_form, sparse_add)
from abelsym.relations import _sign_class_matrix
from abelsym.symbols import (det_classes, enumerate_det_class,
                             sign_class_groups)
from rankref import reference_det, reference_rank, reference_rank_mod_p
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
    # 12 rows over 4 columns, 10 of them e0 +- e1, have only 4 divisors,
    # but the bound caps the matrix as given
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


def _assert_verdicts(checker, query, member, combo):
    """The checker's verdict on the query is `member` as a vector, as a
    dict (left unchanged), negated, scaled by 2 and by 1/3, and again once
    the member `combo` was asked in between."""
    as_dict = {j: v for j, v in enumerate(query) if v}
    copy = dict(as_dict)
    asks = [query, as_dict, {j: -v for j, v in as_dict.items()},
            [2 * v for v in query],
            {j: Fraction(v, 3) for j, v in as_dict.items()}]
    for ask in asks:
        assert checker.contains(ask) == member
    assert as_dict == copy
    assert checker.contains(combo)
    for ask in asks:
        assert checker.contains(ask) == member


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_span_membership_matches_reference_rank(data):
    nrows, ncols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5))
    rows = _matrix_rows(data.draw, nrows, ncols, unit_free=True)
    query = data.draw(st.lists(st.integers(-9, 9), min_size=ncols,
                               max_size=ncols))
    member = reference_rank(rows + [query]) == reference_rank(rows)
    checker = SpanChecker(mat(rows))
    # a combination of the rows is always a member
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=nrows,
                                max_size=nrows))
    combo = [sum(c * row[j] for c, row in zip(coeffs, rows))
             for j in range(ncols)]
    _assert_verdicts(checker, query, member, combo)


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
    # integral entries of any rational type are kept as ints
    m = SparseIntMatrix(1, 2, [{0: Fraction(4, 2), 1: True}])
    assert m.rows == [{0: 2, 1: 1}] and type(m.rows[0][1]) is int
    for entry in (0.5, 2.0, Fraction(1, 2), "1"):
        with pytest.raises(ValueError):
            SparseIntMatrix(1, 2, [{0: entry, 1: 1}])
    # a column index must be an integer, and is kept as a plain int
    for col in (1.0, 0.5, "a", (0,)):
        with pytest.raises(ValueError):
            SparseIntMatrix(1, 3, [{col: 1, 0: 1}])
    with pytest.raises(ValueError):
        rank_over_Q(SparseIntMatrix(1, 3, [{1.0: 1, 0: 1}]))
    m = SparseIntMatrix(1, 3, [{True: 5, 2: 1}])
    assert m.rows == [{1: 5, 2: 1}] and type(list(m.rows[0])[0]) is int


def test_span_queries_reject_non_rational_entries():
    # e0 is not in the span of {0: 1, 1: 1} and {1: 2, 2: 1}; int(0.5)
    # would turn the query {0: 0.5} into the zero row, a member
    checker = SpanChecker(mat([[1, 1, 0], [0, 2, 1]]))
    assert not checker.contains({0: Fraction(1, 2)})
    for query in ({0: 0.5}, [0.5, 0, 0], {0: 1, 1: 0.0}, [1, 0.0, 0],
                  {0: "1"}):
        with pytest.raises(ValueError):
            checker.contains(query)


def test_span_query_columns_are_checked():
    checker = SpanChecker(mat([[1, 1, 0], [0, 2, 1]]))
    assert checker.contains({0: 1, 1: 1}) and checker.contains({})
    for query in ({5: 1}, {3: 1}, {-1: 1}, {0: 1, 3: 0}, [1, 0],
                  [1, 0, 0, 0], {0.5: 1}, {1.0: 1}, {"a": 1}, {(0,): 1},
                  {0: 1, 0.5: 0}):
        with pytest.raises(ValueError):
            checker.contains(query)
    assert checker.contains({True: 2, 2: 1})   # True is column 1


def test_integerize():
    assert _integerize({0: Fraction(1, 2), 3: Fraction(-2, 3), 5: 4},
                       6) == {0: 3, 3: -4, 5: 24}
    assert _integerize({0: 0, 1: Fraction(0), 2: 3}, 3) == {2: 3}
    row = _integerize({True: True, 2: Fraction(1, 3)}, 3)
    assert row == {1: 3, 2: 1} and all(type(k) is type(v) is int
                                       for k, v in row.items())
    assert list(_integerize({5: 1, 2: Fraction(1, 2), 4: -1}, 6)) == [5, 2, 4]


def test_integerize_mixed_rows():
    # ints scale by the lcm of the Fraction denominators, in column order
    row = {4: 3, 1: Fraction(1, 4), 0: -2, 3: Fraction(-5, 6), 2: 0}
    out = _integerize(row, 5)
    assert out == {4: 36, 1: 3, 0: -24, 3: -10}
    assert list(out) == [4, 1, 0, 3]
    assert row == {4: 3, 1: Fraction(1, 4), 0: -2, 3: Fraction(-5, 6), 2: 0}
    # True, a Fraction with denominator 1 and zeros of either type
    out = _integerize({2: True, 0: Fraction(3, 1), 1: Fraction(0), 3: 0}, 4)
    assert out == {2: 1, 0: 3} and list(out) == [2, 0]
    assert all(type(v) is int for v in out.values())
    assert _integerize({0: 0, 1: Fraction(0)}, 2) == {}
    # a zero entry's column is still checked
    for row, message in (({0: 1, 1: 0.5}, "query entries must be int or "
                          "Fraction"),
                         ({0: 1, 0.5: 1}, "query column 0.5 is not an "
                          "integer"),
                         ({Fraction(1, 2): 1}, "query column Fraction(1, 2) "
                          "is not an integer"),
                         ({0: 1, 2: 0}, "query column 2 out of range for 2 "
                          "columns")):
        with pytest.raises(ValueError) as exc:
            _integerize(row, 2)
        assert str(exc.value) == message


def test_span_checker_reduces_each_distinct_query_once(monkeypatch):
    checker = SpanChecker(mat([[1, 1, 0], [0, 2, 1]]))
    reduced = []
    real = exactla._table_contains     # every memo miss goes through it
    monkeypatch.setattr(exactla, "_table_contains", lambda table, row:
                        reduced.append(dict(row)) or real(table, row))
    asks = [({0: 1}, False), ({0: -1}, False),
            ([Fraction(1, 3), 0, 0], False), ({0: 2, 1: 2}, True),
            ({0: 1, 1: 1}, True), ({0: -1, 1: -1}, True), ({0: 1}, False),
            ({}, True), ([0, -1, Fraction(-1, 2)], True), ({1: 2, 2: 1}, True)]
    for query, member in asks:
        assert checker.contains(query) == member
    # e0; 2 e0 + 2 e1 and e0 + e1, whose signatures differ; 2 e1 + e2
    assert reduced == [{0: 1}, {0: 2, 1: 2}, {0: 1, 1: 1}, {1: -2, 2: -1}]
    # the verdicts live on the checker: a new one reduces again
    fresh = SpanChecker(mat([[1, 1, 0], [0, 2, 1]]))
    assert fresh._verdicts == {} and not fresh.contains({0: -1})


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
            again[b] *= draw(sign)  # flipped: 2 e_b = 0; same: a repeat
            rows.append(again)
    loose = draw(st.lists(st.lists(st.integers(-4, 4), min_size=ncols,
                                   max_size=ncols), max_size=3))
    rows += loose
    for row in loose:
        # repeats, some negated, and repeats with the entry at a column a
        # moved to its two-term partner b: equal modulo that two-term row
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
        # supported only on columns that two-term rows tie together
        only = data.draw(st.lists(st.sampled_from(merged), min_size=1,
                                  max_size=3))
        query = [0] * ncols
        for c in only:
            query[c] += data.draw(st.sampled_from([1, -1, 2]))
        queries.append(query)
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(rows),
                                max_size=len(rows)))
    combo = [sum(c * row[j] for c, row in zip(coeffs, rows))
             for j in range(ncols)]
    for query in queries:
        member = reference_rank(rows + [query]) == reference_rank(rows)
        _assert_verdicts(checker, query, member, combo)


def test_contraction_alone_settles_the_matrix():
    # two-term rows only: e0 = -e1 = -e2 = e3, e4 = e5, and the row e0 - e3
    # closes its cycle; the engine pivots on them as on any other rows
    rows = [[1, 1, 0, 0, 0, 0], [0, 1, -1, 0, 0, 0], [0, 0, 1, 1, 0, 0],
            [1, 0, 0, -1, 0, 0], [0, 0, 0, 0, 1, -1], [0, 1, 0, 1, 0, 0]]
    res = smith_normal_form(mat(rows))
    assert res.divisors == _dense_divisors(rows) == (1, 1, 1, 1, 0, 0)
    checker = SpanChecker(mat(rows))
    assert checker.contains([0, 0, 1, 1, 0, 0])
    assert checker.contains([3, 0, 0, -3, 2, -2])
    assert not checker.contains([0, 0, 1, -1, 0, 0])
    assert not checker.contains([1, 0, 0, 0, 0, 0])
    assert not checker.contains([0, 0, 0, 0, 1, 1])


def test_contraction_keeps_each_row_once():
    # e0 = -e3 makes e0 + e1 + e2 and e1 + e2 - e3 one relation, which the
    # last row repeats negated: the rank counts it once
    rows = [[1, 0, 0, 1, 0], [1, 1, 1, 0, 0], [0, 1, 1, -1, 0],
            [0, 0, 1, 0, 2], [0, -1, -1, 1, 0]]
    assert smith_normal_form(mat(rows)).divisors == _dense_divisors(rows)
    checker = SpanChecker(mat(rows))
    assert checker.rank == reference_rank(rows) == 3
    assert checker.contains([0, 1, 1, -1, 0])
    assert not checker.contains([0, 1, 0, 0, 0])


@settings(max_examples=80, deadline=None)
@given(st.one_of(_snf_cases(), _two_term_cases()))
def test_span_checker_rank_matches_reference(rows):
    assert SpanChecker(mat(rows)).rank == reference_rank(rows)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_snf_cases(), _two_term_cases()))
@example([[0, 2], [2, 2]])
@example([[0, 0, 0, 0, 2, -1], [0, 0, 0, 0, -3, 1]])
def test_unit_elimination_invariants(rows):
    # the residue has no unit entry left for a missed pivot, and content 1
    # once peeled; each pivot row is a unit at its own column and clear of
    # the columns pivoted before it, which SpanChecker relies on.  The two
    # examples keep a unit entry in the residue if a column whose count
    # fell is not put back into its bucket, or if the search for the least
    # count does not go back down to it.
    m = mat(rows)
    pivots = []
    divisors, _, residue = _unit_eliminate(m.rows, m.ncols, pivots)
    assert len(divisors) == len(pivots)
    content = 0
    for row in residue:
        assert row and all(v not in (0, 1, -1) for v in row.values())
        content = gcd(content, *row.values())
    assert content == (1 if residue else 0)
    earlier = set()
    for pc, row in pivots:
        assert row[pc] in (1, -1) and 0 not in row.values()
        assert earlier.isdisjoint(row)
        earlier.add(pc)


def test_unit_elimination_tie_goes_to_the_row_that_entered_first():
    # columns 2 and 3 hold only even entries and are skipped; column 1
    # pivots on row 0, whose column 0 fills into row 2, so column 0 then
    # holds row 5 and after it row 2, out of row-id order.  Both have a
    # unit entry there and two entries: row 5 entered first and is taken
    rows = [{0: 1, 1: 1}, {}, {1: 1, 2: 2}, {}, {}, {0: 1, 3: 2}]
    pivots = []
    divisors, scale, residue = _unit_eliminate(rows, 4, pivots)
    assert pivots[:2] == [(1, {0: 1, 1: 1}), (0, {3: 2, 0: 1})]
    assert list(pivots[1][1]) == [3, 0]    # the pivot entry last
    assert (divisors, scale, residue) == ([1, 1, 2], 2, [])


def _row_items(rows):
    return [list(row.items()) for row in rows]


def test_elimination_leaves_its_input_rows_unchanged():
    # the engine eliminates in place; the public entry points copy a
    # caller's rows first: the rows, key order included, read the same
    # after the rank, the Smith form, a span checker with its queries and
    # a one-shot membership.  The last matrix has no unit entry, so the
    # residue rounds run too
    for m in (_minus_fold(make_group((2, 4))),
              build_relations(make_group((12,)), 2, Variant.PLAIN).rel,
              mat([[2, 3], [3, 2]])):
        before = _row_items(m.rows)
        rank_over_Q(m)
        assert _row_items(m.rows) == before
        smith_normal_form(m)
        assert _row_items(m.rows) == before
        checker = SpanChecker(m)
        queries = [dict(row) for row in m.rows] + [{c: 1}
                                                   for c in range(m.ncols)]
        asked = _row_items(queries)
        for q in queries:
            checker.contains(q)
            row_span_membership(m, q)
        assert _row_items(queries) == asked
        assert _row_items(m.rows) == before


def test_span_checker_rank_on_relation_matrices():
    rel = build_relations(make_group((9,)), 2, Variant.MINUS).rel
    manin, _ = manin_space(2, 8)
    for m in (rel, manin.rel):
        assert SpanChecker(m).rank == rank_over_Q(m) > 0


# sha256 of the Smith divisors below, as computed before the engine's former
# two-term contraction dropped repeated rows: minus and plain at n = 2 for
# every group of order <= 40, then the Manin spaces at levels (11, 1), (7, 2)
# and (2, 8)
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


# sha256 of the Smith divisors of five large systems with torsion, computed
# with the engine before it took its pivots from column-count buckets
LARGE_DIVISORS_SHA256 = (
    "d355afef98388bca4aa05486035a11f6212ee7c2cce48ed598126a33b3e92f80")


def _minus_fold(group, n=2):
    return _sign_class_matrix(group, sign_class_groups(group, n), n)[0]


# sha256 of the engine's pivot records, (divisors, scale, each pivot column
# with its row's sorted entries, residue), computed with the bucket engine
# whose columns keep their live rows as dict keys in entry order, so a tie
# goes to the row that entered the column first: the n = 2 minus fold and
# plain system of every group of order <= 40, then the Manin spaces at
# levels (11, 1), (7, 2) and (2, 8)
PIVOT_RECORDS_SHA256 = (
    "c6050ed91f522bb952b2dc96adec4c92bb37fcee0182110b0ddeab32a813f705")


def test_engine_pivot_records_pinned():
    systems = []
    for chain in invariant_chains(40):
        group = make_group(chain)
        systems += [_minus_fold(group),
                    build_relations(group, 2, Variant.PLAIN).rel]
    for level in ((11, 1), (7, 2), (2, 8)):
        systems.append(manin_space(*level)[0].rel)
    digest = hashlib.sha256()
    for m in systems:
        pivots = []
        divisors, scale, residue = _unit_eliminate(m.rows, m.ncols, pivots)
        digest.update(repr((divisors, scale, [(pc, sorted(row.items()))
                                              for pc, row in pivots],
                            residue)).encode())
    assert digest.hexdigest() == PIVOT_RECORDS_SHA256


@pytest.mark.slow
def test_large_engine_divisors_pinned():
    parts = []
    for chain, n, variant in (((251,), 2, "PLAIN"), ((31,), 3, "PLAIN"),
                              ((11, 11), 2, "PLAIN"), ((23, 23), 2, "MINUS"),
                              ((1009,), 2, "MINUS")):
        group = make_group(chain)
        if variant == "MINUS":
            rel = _minus_fold(group, n)
        else:
            rel = build_relations(group, n, Variant.PLAIN).rel
        parts.append((chain, n, variant,
                      smith_normal_form(rel, bound=10 ** 6).divisors))
    digest = hashlib.sha256(repr(parts).encode()).hexdigest()
    assert digest == LARGE_DIVISORS_SHA256


def _prime_factors(n):
    primes, p = set(), 2
    while p * p <= n:
        while n % p == 0:
            primes.add(p)
            n //= p
        p += 1
    return primes | ({n} if n > 1 else set())


def _assert_p_local_ranks(rel, label):
    """rank_Q - rank_{F_p} is the number of Smith divisors that p divides,
    for each prime p of the torsion and for the least prime dividing none;
    the F_p ranks come from rankref, not from the engine."""
    snf = smith_normal_form(rel)
    nonzero = [d for d in snf.divisors if d]
    primes = set().union(*map(_prime_factors, snf.torsion))
    q = 2
    while q in primes or _prime_factors(q) != {q}:
        q += 1
    for p in sorted(primes) + [q]:
        assert (snf.rank - reference_rank_mod_p(rel.rows, p)
                == sum(d % p == 0 for d in nonzero)), (label, p)


def test_p_local_ranks_certify_smith_forms():
    for chain in invariant_chains(40):
        group = make_group(chain)
        _assert_p_local_ranks(_minus_fold(group), (chain, "minus fold"))
        _assert_p_local_ranks(build_relations(group, 2, Variant.PLAIN).rel,
                              (chain, "plain"))
    for level in ((11, 1), (7, 2), (2, 8)):
        _assert_p_local_ranks(manin_space(*level)[0].rel, level)


@pytest.mark.slow
def test_p_local_ranks_on_larger_groups():
    # the minus folds of the rest of the sweep population; plain systems
    # only up to order 56, as the mod-p echelon fills in beyond
    for chain in invariant_chains(81):
        if prod(chain) > 40:
            group = make_group(chain)
            _assert_p_local_ranks(_minus_fold(group), (chain, "minus fold"))
            if prod(chain) <= 56:
                _assert_p_local_ranks(
                    build_relations(group, 2, Variant.PLAIN).rel,
                    (chain, "plain"))


# -- the sign-flip involution and the split checker -------------------------


def _full_checker(m):
    """A checker on the same rows with no involution: the full path only."""
    return SpanChecker(SparseIntMatrix.trusted(m.ncols, m.rows))


def _involution_systems(limit, low=1, cubic=None):
    """Plus at n = 1, plain and minus at n = 2 and 3 (n = 3 only up to
    order `cubic`, if given) over the groups of order low..limit."""
    for chain in invariant_chains(limit):
        group = make_group(chain)
        if group.order < low:
            continue
        yield group, build_relations(group, 1, Variant.PLUS)
        for n in (2, 3)[:1 + (cubic is None or group.order <= cubic)]:
            for variant in (Variant.PLAIN, Variant.MINUS):
                yield group, build_relations(group, n, variant)


def test_relation_involution_contract():
    systems = 0
    for group, system in _involution_systems(24):
        rel = system.rel
        sigma = rel._sigma
        assert sigma is None or type(sigma) is list   # built with the rows
        # the column of each key negated entry by entry, through characters
        want = [system.index[tuple(sorted((-ch).code for ch in key))]
                for key in system.basis]
        if all(s == c for c, s in enumerate(want)):  # exponent <= 2, or empty
            assert sigma is None
            continue
        systems += 1
        assert sigma == want
        assert all(sigma[s] == c for c, s in enumerate(sigma))
        rows = {row_signature(row) for row in rel.rows}
        full = _full_checker(rel)
        for row in rel.rows:
            image = {sigma[c]: v for c, v in row.items()}
            assert row_signature(image) in rows or full.contains(image)
    assert systems > 100


def test_relation_involution_absent_off_closed_bases():
    group = make_group((7,))
    keys = enumerate_generators(group, 1)   # no plain rows at n = 1
    assert build_relations(group, 1, Variant.PLAIN,
                           keys=keys[:3]).rel._sigma is None
    assert build_relations(group, 1, Variant.PLAIN,
                           keys=keys).rel._sigma == [5, 4, 3, 2, 1, 0]
    # the validating constructor and with_rows leave no involution
    rel = build_relations(group, 2, Variant.PLAIN).rel
    assert rel._sigma is not None
    assert SparseIntMatrix(1, 2, [{0: 1}])._sigma is None
    assert rel.with_rows([{0: 1}])._sigma is None


def test_non_involution_raises_consistency_error():
    rel = build_relations(make_group((5,)), 2, Variant.PLAIN).rel
    cycle = SparseIntMatrix.trusted(rel.ncols, rel.rows)
    cycle._sigma = [0] + [1 + (c % (rel.ncols - 1))
                          for c in range(1, rel.ncols)]
    with pytest.raises(ConsistencyError):
        SpanChecker(cycle).contains({0: 1})


def _split_queries(system, sigma, seed):
    """Fixed queries on a system: sigma-invariant ones (the delta probes at
    n = 2, e_c + e_(sigma c), symmetrized random rows) first, then the rest
    (the delta probes at n >= 3, where sigma also negates the entries the
    sum leaves alone, unit columns, e_c - e_(sigma c), random rows)."""
    rng = random.Random(seed)
    ncols = system.rel.ncols
    deltas = [system.vector(image) for image in map(delta_sum,
                                                    system.basis)
              if not image.is_zero()] if system.n >= 2 else []
    invariant, others = (deltas, []) if system.n == 2 else ([], deltas)
    invariant += [{c: 1, sigma[c]: 1} if sigma[c] != c else {c: 1}
                  for c in range(ncols)]
    others += [{c: 1} for c in range(ncols)]
    others += [{c: 1, sigma[c]: -1} for c in range(ncols) if sigma[c] != c]
    for _ in range(40):
        row = {}
        for c in rng.sample(range(ncols), min(3, ncols)):
            row[c] = rng.choice((-2, -1, 1, 3))
        others.append(row)
        sym = {}
        for c, v in row.items():
            sym[c] = sym.get(c, 0) + v
            sym[sigma[c]] = sym.get(sigma[c], 0) + v
        invariant.append({c: v for c, v in sym.items() if v})
    return invariant, others


def _assert_split_verdicts(limit, low=1, n=2, variant=Variant.PLAIN):
    for chain in invariant_chains(limit):
        group = make_group(chain)
        if group.order < low:
            continue
        system = build_relations(group, n, variant)
        rel = system.rel
        sigma = rel._sigma
        full = _full_checker(rel)
        split = SpanChecker(rel)
        if sigma is None:
            sigma = list(range(rel.ncols))
        invariant, others = _split_queries(system, sigma, group.order)
        for q in invariant:
            assert split.contains(q) == full.contains(q), (chain, q)
        if rel._sigma is not None:   # the half answered them all
            assert split._full is None and split._half is not None, chain
        for q in others:
            assert split.contains(q) == full.contains(q), (chain, q)
        assert split.rank == full.rank == rank_over_Q(rel)


def test_split_checker_agrees_with_full_checker():
    _assert_split_verdicts(24)


@pytest.mark.slow
def test_split_checker_agrees_on_larger_groups():
    _assert_split_verdicts(56, low=25)


@pytest.mark.parametrize("limit, n, variant", [
    (24, 2, Variant.MINUS),     # sign rows enter the half
    (16, 3, Variant.PLAIN),     # one-term rows on columns sigma moves
    (24, 1, Variant.PLUS)])     # every row folds to zero
def test_split_checker_agrees_beyond_plain_n_2(limit, n, variant):
    _assert_split_verdicts(limit, n=n, variant=variant)


@pytest.mark.slow
def test_split_checker_agrees_beyond_plain_n_2_on_larger_groups():
    _assert_split_verdicts(56, low=25, variant=Variant.MINUS)
    _assert_split_verdicts(24, low=17, n=3)


def _first(row):
    return next(iter(row))


def _fold(row, sigma):
    """The row summed over the sigma-orbits, at each orbit's least column."""
    fold = {}
    for c, v in row.items():
        c = min(c, sigma[c])
        fold[c] = fold.get(c, 0) + v
    return {c: v for c, v in fold.items() if v}


def _half_rows(monkeypatch, rel):
    """The rows a checker hands its half's elimination, recorded in place
    of eliminating them."""
    handed = []
    monkeypatch.setattr(exactla, "_normal_form_table",
                        lambda rows, ncols: handed.extend(rows))
    SpanChecker(rel)._half_table()
    return handed


def _assert_one_row_per_pair(monkeypatch, rel, label):
    """The half folds exactly the rows whose first column c has sigma(c) >=
    c; a dropped row folds to a kept row's fold, and its sigma-image is
    +- a kept row.  Gives the number of half rows."""
    sigma = rel._sigma
    kept, dropped = [], []
    for row in rel.rows:
        (kept if sigma[_first(row)] >= _first(row) else dropped).append(row)
    handed = _half_rows(monkeypatch, rel)
    assert handed == [f for f in (_fold(row, sigma) for row in kept)
                      if f], label
    folds = {frozenset(row.items()) for row in handed}
    rows = {frozenset(row.items()) for row in kept}
    for row in dropped:
        fold = _fold(row, sigma)
        assert not fold or frozenset(fold.items()) in folds, (label, row)
        image = [(sigma[c], v) for c, v in row.items()]
        assert (frozenset(image) in rows
                or frozenset((c, -v) for c, v in image) in rows), (label, row)
    return len(handed)


def _pair_rule_systems(limit, low=1, cubic=None):
    """The `_involution_systems` with an involution, and at low = 1 the
    determinant-class bases of 5x5 at minus, one of them reordered."""
    for _, system in _involution_systems(limit, low, cubic):
        if system.rel._sigma is not None:
            yield system
    if low == 1:
        group = make_group((5, 5))
        for cls in det_classes(group):
            yield build_relations(group, 2, Variant.MINUS,
                                  keys=enumerate_det_class(group, cls))
        yield build_relations(group, 2, Variant.MINUS,
                              keys=enumerate_det_class(group, 1)[::-1])


def test_half_folds_one_row_per_sigma_pair(monkeypatch):
    systems = 0
    for system in _pair_rule_systems(24):
        _assert_one_row_per_pair(monkeypatch, system.rel, system)
        systems += 1
    assert systems == 146 + 3      # the groups, then the 5x5 bases


@pytest.mark.slow
def test_half_folds_one_row_per_sigma_pair_on_larger_groups(monkeypatch):
    # n = 3 only up to order 36: its systems grow as the cube of the order
    for system in _pair_rule_systems(56, low=25, cubic=36):
        _assert_one_row_per_pair(monkeypatch, system.rel, system)


def test_half_row_count_on_the_delta_systems(monkeypatch):
    # the plain n = 2 systems with an involution, as the delta probes use:
    # one row per pair gives as many half rows as there are distinct folds
    counts, distinct = [], 0
    for chain in invariant_chains(36):
        rel = build_relations(make_group(chain), 2, Variant.PLAIN).rel
        sigma = rel._sigma
        if sigma is not None:
            counts.append(_assert_one_row_per_pair(monkeypatch, rel, chain))
            distinct += len({frozenset(_fold(row, sigma).items())
                             for row in rel.rows} - {frozenset()})
    assert len(counts) == 50
    assert sum(counts) == distinct == 4546


# -- the normal-form table --------------------------------------------------


def _assert_table_certified(table, rows, ncols, label):
    """Certify a table against the matrix with these rows without the
    routine that built it: each NF(c) lies off the pivot columns, there are
    as many pivots as rank_over_Q counts, and the rows e_c - NF(c), cleared
    of denominators, leave that rank unchanged when stacked onto the
    matrix.  They are then a basis of the span, the identity at the pivot
    columns, so q lies in the span iff q - sum_c q[c] (e_c - NF(c))
    vanishes.  `_table_contains` must agree on each e_c and each row plus a
    unit column, and hold each row and the sum and the difference of each
    two neighbouring rows."""
    m = SparseIntMatrix.trusted(ncols, rows)
    rank = rank_over_Q(m)
    assert len(table) == rank, label
    basis = {}
    for c, image in table.items():
        assert not image.keys() & table.keys(), (label, c)
        basis[c] = sparse_add({c: 1}, ((k, -w) for k, w in image.items()))
    assert rank_over_Q(m.with_rows(_integerize(b, ncols)
                                   for b in basis.values())) == rank, label
    rng = random.Random(ncols)
    members = list(rows)
    for a, b in zip(rows, rows[1:]):
        members.append(sparse_add(dict(a), b.items()))
        members.append(sparse_add(dict(a), ((c, -v) for c, v in b.items())))
    others = [{c: 1} for c in range(ncols)]
    others += [sparse_add(dict(row), ((rng.randrange(ncols), 1),))
               for row in rows]
    for q in members + others:
        rest = dict(q)
        for c, v in q.items():
            if c in basis:
                sparse_add(rest, ((k, -v * w) for k, w in basis[c].items()))
        assert _table_contains(table, q) == (not rest), (label, q)
    assert all(_table_contains(table, q) for q in members), label


def _assert_tables_certified(rel, label):
    """The full factorization's table, and the half's where the matrix
    has an involution."""
    checker = SpanChecker(rel)
    _assert_table_certified(checker._full_table(), rel.rows, rel.ncols,
                            label)
    sigma = rel._sigma
    if sigma is not None:
        folds = [f for f in (_fold(row, sigma) for row in rel.rows) if f]
        _assert_table_certified(checker._half_table(), folds, rel.ncols,
                                (label, "half"))


def _table_systems(limit, low, families):
    """The systems of each (n, variant) family over the groups of order
    low..limit."""
    for chain in invariant_chains(limit):
        group = make_group(chain)
        if group.order >= low:
            for n, variant in families:
                yield (chain, n, variant.name), build_relations(
                    group, n, variant).rel


SQUARE = ((2, Variant.PLAIN), (2, Variant.MINUS))
CUBIC = ((3, Variant.PLAIN),)


def test_normal_form_table_is_certified():
    # plain n = 3 only up to order 16, as its systems grow as the cube
    for label, rel in (list(_table_systems(24, 1, SQUARE))
                       + list(_table_systems(16, 1, CUBIC))):
        _assert_tables_certified(rel, label)
    for level in ((11, 1), (7, 2), (2, 8)):
        _assert_tables_certified(manin_space(*level)[0].rel, level)


@pytest.mark.slow
def test_normal_form_table_is_certified_on_larger_groups():
    for label, rel in (list(_table_systems(56, 25, SQUARE))
                       + list(_table_systems(24, 17, CUBIC))):
        _assert_tables_certified(rel, label)


def test_normal_form_table_under_residue_pivots():
    # peeling leaves these with unit pivots, so their tables are integral
    for rows, query, member in (([[2]], [1], True),
                                ([[2, 4], [4, 8]], [1, 3], False),
                                ([[1, 1, 0], [0, 2, 1]],
                                 {0: Fraction(1, 2)}, False)):
        checker = SpanChecker(mat(rows))
        assert checker.contains(query) == member
        assert all(type(w) is int for image in checker._full_table().values()
                   for w in image.values())
    # content 1 and no unit entry: the residue echelon's pivots are not
    # units, and their normal forms hold Fractions; in the last case the
    # second row is reduced against the first row's pivot
    for rows, query, member in (([[2, 3]], [4, 6], True),
                                ([[2, 3]], [1, 1], False),
                                ([[2, 3, 0], [0, 2, 3]], [2, 5, 3], True),
                                ([[2, 3, 0], [0, 2, 3]], [0, 0, 1], False),
                                ([[6, 10, 15]], [3, 5, Fraction(15, 2)],
                                 True),
                                ([[2, 3, 5], [3, 5, 2]], [1, 2, -3], True)):
        m = mat(rows)
        checker = SpanChecker(m)
        assert checker.contains(query) == member, rows
        table = checker._full_table()
        assert any(type(w) is Fraction for image in table.values()
                   for w in image.values()), rows
        _assert_table_certified(table, m.rows, m.ncols, rows)
