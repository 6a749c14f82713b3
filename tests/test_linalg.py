"""Exact rank computation: fixed oracles and sampled invariance properties."""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from eqlab.linalg import (
    ParamMatrix,
    RationalMatrix,
    generic_rank,
    rank_exact,
)

F = Fraction


def matrix(rows):
    """A RationalMatrix of int or Fraction rows, one run per entry."""
    return RationalMatrix.from_runs(
        [[(F(x).denominator, [F(x).numerator]) for x in row] for row in rows])


def fraction_rank(rows):
    """Rank by Gaussian elimination in Fractions, an independent oracle."""
    a = [[F(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(a[0])):
        pivot = next((r for r in range(rank, len(a)) if a[r][c]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        for r in range(rank + 1, len(a)):
            f = a[r][c] / a[rank][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def identity(n):
    return matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])


class TestRankExact:
    def test_identity(self):
        assert rank_exact(identity(3)) == 3

    def test_zero(self):
        assert rank_exact(matrix([[0] * 7] * 4)) == 0

    def test_proportional_rows(self):
        m = matrix([[1, 2], [2, 4]])
        assert rank_exact(m) == 1

    def test_fractional_entries(self):
        m = matrix([
            [F(1, 2), F(1, 3), 0],
            [F(1, 4), F(1, 6), 0],
            [0, 0, F(5, 7)],
        ])
        assert rank_exact(m) == 2

    def test_rectangular_full_rank(self):
        m = matrix([[1, 0, 2, 5], [0, 3, 1, 1]])
        assert rank_exact(m) == 2

    def test_needs_column_pivoting(self):
        m = matrix([
            [0, 0, 1],
            [0, 0, 2],
            [0, 0, 3],
        ])
        assert rank_exact(m) == 1


small_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def fraction_rows(draw):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    return [[draw(small_fracs) for _ in range(cols)] for _ in range(rows)]


nonzero_fracs = small_fracs.filter(lambda r: r != 0)


@st.composite
def shuffled_scaled_matrices(draw):
    entries = draw(fraction_rows())
    perm = draw(st.permutations(range(len(entries))))
    scales = [draw(nonzero_fracs) for _ in entries]
    rows = [[scales[i] * e for e in entries[perm[i]]]
            for i in range(len(entries))]
    return matrix(entries), matrix(rows)


@settings(max_examples=60)
@given(shuffled_scaled_matrices())
def test_rank_invariant_under_row_permutation_and_scaling(pair):
    m, reshuffled = pair
    assert rank_exact(reshuffled) == rank_exact(m)


@st.composite
def column_permuted_matrices(draw):
    entries = draw(fraction_rows())
    perm = draw(st.permutations(range(len(entries[0]))))
    permuted = matrix([[row[c] for c in perm] for row in entries])
    return matrix(entries), permuted


@settings(max_examples=60)
@given(column_permuted_matrices())
def test_rank_invariant_under_column_permutation(pair):
    m, permuted = pair
    assert rank_exact(permuted) == rank_exact(m)


# rank 2 whose column contents are 1: dividing a column by its smallest
# entry instead of its content floors (2, 3) to (1, 1) and loses the rank
CONTENT_ONE = [[2, 1], [3, 1]]


@st.composite
def column_scaled_matrices(draw):
    """An integer matrix, and the same after positive row scales and
    nonzero column scales, with zero columns and columns sharing a factor
    among them."""
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    entries = [[draw(st.integers(-9, 9)) for _ in range(cols)]
               for _ in range(rows)]
    for c in range(cols):
        # a zero column, a plain one, or one whose entries share a factor
        factor = draw(st.sampled_from((0, 1, 6)))
        for row in entries:
            row[c] *= factor
    row_scales = [draw(st.integers(1, 12)) for _ in range(rows)]
    col_scales = [draw(st.integers(-12, 12).filter(bool)) for _ in range(cols)]
    scaled = [[r * k * x for k, x in zip(col_scales, row)]
              for r, row in zip(row_scales, entries)]
    return entries, scaled


@settings(max_examples=80)
@given(column_scaled_matrices())
@example((CONTENT_ONE, CONTENT_ONE))
@example(([[2, 0, 6], [3, 0, 9], [4, 0, 6]], [[2, 0, 18], [9, 0, 81],
                                               [4, 0, 18]]))
def test_rank_invariant_under_row_and_column_scales(case):
    entries, scaled = case
    assert rank_exact(matrix(scaled)) == fraction_rank(entries)
    assert rank_exact(matrix(entries)) == fraction_rank(scaled)


# affine entries: (constant, coefficient of each parameter)
U, V, ZERO = (0, 1, 0), (0, 0, 1), (0, 0, 0)
UV_POINT = {"u": F(3, 2), "v": F(1)}


class TestGenericRank:
    def test_diagonal_parameter(self):
        m = ParamMatrix.from_integer_rows(("u", "v"), [[U, ZERO], [ZERO, U]])
        assert generic_rank(m, [UV_POINT]) == 2

    def test_identical_rows(self):
        m = ParamMatrix.from_integer_rows(("u", "v"), [[U, U], [U, U]])
        assert generic_rank(m, [UV_POINT, {"u": F(5), "v": F(-2)}]) == 1

    def test_trials_must_be_positive(self):
        m = ParamMatrix.from_integer_rows(("u", "v"), [[U]])
        with pytest.raises(ValueError, match="at least one substitution"):
            generic_rank(m, [])

    def test_monotone_in_trials_and_bounds_single_substitution(self):
        u, one = (0, 1), (1, 0)
        m = ParamMatrix.from_integer_rows(("u",), [[u, one], [one, u]])
        # rank 1 where u = 1 or u = -1, rank 2 elsewhere
        points = [{"u": F(1)}, {"u": F(-1)}, {"u": F(7, 3)}]
        r1 = generic_rank(m, points[:1])
        r3 = generic_rank(m, points)
        assert r1 == 1 <= r3 == 2
        single = rank_exact(m.substitute({"u": F(1)}))
        assert r3 >= single

    def test_substitution_determinism(self):
        m = ParamMatrix.from_integer_rows(("u", "v"), [[U, V], [V, U]])
        points = [{"u": F(1), "v": F(1)}, UV_POINT]
        assert generic_rank(m, points) == generic_rank(m, points[::-1]) == 2

    def test_maximum_of_the_substitution_ranks(self):
        # rows (u, 1), (1, u), (v, 0): rank 1 at u = +-1 with v = 0, else 2
        m = ParamMatrix.from_integer_rows(
            ("u", "v"), [[U, (1, 0, 0)], [(1, 0, 0), U], [V, ZERO]])
        points = [{"u": F(1), "v": F(0)}, {"u": F(-1), "v": F(2)},
                  {"u": F(2), "v": F(0)}, UV_POINT]
        for k in range(1, len(points) + 1):
            ranks = [rank_exact(m.substitute(v)) for v in points[:k]]
            assert generic_rank(m, points[:k]) == max(ranks)
        assert [rank_exact(m.substitute(v)) for v in points] == [1, 2, 2, 2]


class TestParamMatrix:
    def test_affine_substitution(self):
        # entries (1 + 6u - 2v, 4v); the values' common denominator is 6,
        # and the row comes back times 6
        m = ParamMatrix.from_integer_rows(("u", "v"),
                                          [[(1, 6, -2), (0, 0, 4)]])
        point = {"u": F(3, 2), "v": F(1, 3)}
        assert m.substitute(point).nums == ((6 * (1 + 9 - F(2, 3)),
                                             6 * F(4, 3)),)

    def test_substitute_coerces_each_value(self):
        # ints and bools count as rationals, any other type is refused
        m = ParamMatrix.from_integer_rows(("u", "v"), [[(1, 2, 3)]])
        assert m.substitute({"u": 2, "v": True}).nums == ((8,),)
        with pytest.raises(TypeError, match="float"):
            m.substitute({"u": 0.5, "v": 1})

    def test_missing_parameter_value(self):
        m = ParamMatrix.from_integer_rows(("u",), [[(0, 1)]])
        with pytest.raises(ValueError, match="no values"):
            m.substitute({})

    def test_entry_length_checked(self):
        with pytest.raises(ValueError, match="entry length"):
            ParamMatrix.from_integer_rows(("u", "v"), [[(0, 1, 2, 3)]])


# The integer path: rows given as runs of (den, numerators), with mixed
# denominators across runs and rows, and rows that are entirely zero.

@st.composite
def integer_runs(draw):
    """Rows of runs sharing one run-width pattern, and the same rows as
    Fraction entries."""
    widths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    rows, fraction_rows = [], []
    for _ in range(draw(st.integers(1, 5))):
        zero_row = draw(st.booleans()) and draw(st.booleans())
        runs = []
        for width in widths:
            den = draw(st.integers(1, 12))
            nums = [0] * width if zero_row else draw(
                st.lists(st.integers(-20, 20), min_size=width, max_size=width))
            runs.append((den, nums))
        rows.append(runs)
        fraction_rows.append([F(n, den) for den, nums in runs for n in nums])
    return rows, fraction_rows


# rank 2, with a zero column between two pivot columns: the elimination
# moves past it without a column swap
DEFICIENT_RUNS = [[(1, [1, 0]), (2, [2, 3])],
                  [(1, [2, 0]), (1, [2, 3])],
                  [(3, [1, 0]), (1, [1, 1])]]


@settings(max_examples=80)
@given(integer_runs())
@example((DEFICIENT_RUNS, [[1, 0, 1, F(3, 2)], [2, 0, 2, 3], [F(1, 3), 0, 1, 1]]))
def test_runs_match_fraction_rows(case):
    rows, fraction_rows = case
    m = RationalMatrix.from_runs(rows)
    assert (m.rows, m.cols) == (len(fraction_rows), len(fraction_rows[0]))
    # each row is stored times the lcm of its run denominators
    assert m.nums == tuple(tuple(lcm(*(den for den, _ in runs)) * x
                                 for x in row)
                           for runs, row in zip(rows, fraction_rows))
    assert rank_exact(m) == fraction_rank(fraction_rows)


class TestRunsValidation:
    def test_nonpositive_denominator(self):
        for den in (0, -3):
            with pytest.raises(ValueError, match="positive"):
                RationalMatrix.from_runs([[(1, [1, 2]), (den, [3])]])

    def test_ragged_rows(self):
        with pytest.raises(ValueError, match="ragged"):
            RationalMatrix.from_runs([[(1, [1, 2])], [(2, [1])]])

    def test_empty_matrix(self):
        with pytest.raises(ValueError, match="at least one row"):
            RationalMatrix.from_runs([])
        for empty_row in ([], [(1, [])]):
            with pytest.raises(ValueError, match="positive"):
                RationalMatrix.from_runs([empty_row])


@st.composite
def affine_substitutions(draw):
    """An integer-row ParamMatrix, parameter values, and each entry
    evaluated in Fractions."""
    params = ("a", "b", "c")[:draw(st.integers(1, 3))]
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    integer_rows = []
    for _ in range(rows):
        zero_row = draw(st.booleans()) and draw(st.booleans())
        entry = st.tuples(*[st.integers(-9, 9)] * (len(params) + 1))
        integer_rows.append(
            [(0,) * (len(params) + 1)] * cols if zero_row
            else draw(st.lists(entry, min_size=cols, max_size=cols)))
    point = {p: draw(small_fracs | st.integers(-5, 5)) for p in params}
    expected = [e[0] + sum(k * point[p] for k, p in zip(e[1:], params))
                for entries in integer_rows for e in entries]
    return params, integer_rows, point, expected


@settings(max_examples=80)
@given(affine_substitutions())
def test_substitute_matches_fraction_evaluation(case):
    """Each entry at the point, times the values' common denominator."""
    params, integer_rows, point, expected = case
    m = ParamMatrix.from_integer_rows(params, integer_rows)
    scale = lcm(*(F(x).denominator for x in point.values()))
    assert [e for row in m.substitute(point).nums for e in row] == [
        scale * e for e in expected]
    assert (m.rows, m.cols) == (len(integer_rows), len(integer_rows[0]))


class TestIntegerRowsValidation:
    def test_ragged_rows(self):
        with pytest.raises(ValueError, match="ragged"):
            ParamMatrix.from_integer_rows(("u",), [[(1, 2)], [(1, 2), (0, 1)]])

    def test_entry_length(self):
        with pytest.raises(ValueError, match="entry length"):
            ParamMatrix.from_integer_rows(("u", "v"), [[(1, 2)]])

    def test_empty_matrix(self):
        with pytest.raises(ValueError, match="at least one row"):
            ParamMatrix.from_integer_rows(("u",), [])
        with pytest.raises(ValueError, match="positive"):
            ParamMatrix.from_integer_rows(("u",), [[]])
