"""Exact rank computation: fixed oracles and sampled invariance properties."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eqlab.linalg import (
    ParamMatrix,
    RationalMatrix,
    generic_rank,
    rank_exact,
)

F = Fraction


def identity(n):
    return RationalMatrix.from_rows([[1 if i == j else 0 for j in range(n)]
                                     for i in range(n)])


class TestRankExact:
    def test_identity(self):
        assert rank_exact(identity(3)) == 3

    def test_zero(self):
        assert rank_exact(RationalMatrix.from_rows([[0] * 7] * 4)) == 0

    def test_proportional_rows(self):
        m = RationalMatrix.from_rows([[1, 2], [2, 4]])
        assert rank_exact(m) == 1

    def test_fractional_entries(self):
        m = RationalMatrix.from_rows([
            [F(1, 2), F(1, 3), 0],
            [F(1, 4), F(1, 6), 0],
            [0, 0, F(5, 7)],
        ])
        assert rank_exact(m) == 2

    def test_rectangular_full_rank(self):
        m = RationalMatrix.from_rows([[1, 0, 2, 5], [0, 3, 1, 1]])
        assert rank_exact(m) == 2

    def test_needs_column_pivoting(self):
        m = RationalMatrix.from_rows([
            [0, 0, 1],
            [0, 0, 2],
            [0, 0, 3],
        ])
        assert rank_exact(m) == 1


small_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def matrices(draw):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    return RationalMatrix.from_rows(
        [[draw(small_fracs) for _ in range(cols)] for _ in range(rows)])


nonzero_fracs = small_fracs.filter(lambda r: r != 0)


@st.composite
def shuffled_scaled_matrices(draw):
    m = draw(matrices())
    perm = draw(st.permutations(range(m.rows)))
    scales = [draw(nonzero_fracs) for _ in range(m.rows)]
    rows = [[scales[i] * e for e in m.row(perm[i])] for i in range(m.rows)]
    return m, RationalMatrix.from_rows(rows)


@settings(max_examples=60)
@given(shuffled_scaled_matrices())
def test_rank_invariant_under_row_permutation_and_scaling(pair):
    m, reshuffled = pair
    assert rank_exact(reshuffled) == rank_exact(m)


@st.composite
def column_permuted_matrices(draw):
    m = draw(matrices())
    perm = draw(st.permutations(range(m.cols)))
    permuted = RationalMatrix.from_rows(
        [[m[r, c] for c in perm] for r in range(m.rows)])
    return m, permuted


@settings(max_examples=60)
@given(column_permuted_matrices())
def test_rank_invariant_under_column_permutation(pair):
    m, permuted = pair
    assert rank_exact(permuted) == rank_exact(m)


# affine entries: (constant, coefficient of each parameter)
U, V, ZERO = (0, 1, 0), (0, 0, 1), (0, 0, 0)


class TestGenericRank:
    def test_diagonal_parameter(self):
        m = ParamMatrix(2, 2, ("u", "v"), [U, ZERO, ZERO, U])
        assert generic_rank(m, trials=3, seed=1) == 2

    def test_identical_rows(self):
        m = ParamMatrix(2, 2, ("u", "v"), [U, U, U, U])
        assert generic_rank(m, trials=3, seed=1) == 1

    def test_trials_must_be_positive(self):
        m = ParamMatrix(1, 1, ("u", "v"), [U])
        with pytest.raises(ValueError):
            generic_rank(m, trials=0)

    def test_monotone_in_trials_and_bounds_single_substitution(self):
        u, one = (0, 1), (1, 0)
        m = ParamMatrix(2, 2, ("u",), [u, one, one, u])
        r1 = generic_rank(m, trials=1, seed=3)
        r10 = generic_rank(m, trials=10, seed=3)
        assert r1 <= r10 == 2
        single = rank_exact(m.substitute({"u": F(1)}))
        assert r10 >= single

    def test_substitution_determinism(self):
        m = ParamMatrix(2, 2, ("u", "v"), [U, V, V, U])
        assert generic_rank(m, trials=4, seed=9) == generic_rank(m, trials=4, seed=9)


class TestParamMatrix:
    def test_affine_substitution(self):
        m = ParamMatrix(1, 2, ("u", "v"), [(F(1, 2), 3, -1), (0, 0, 2)])
        values = {"u": F(3, 2), "v": F(1, 3)}
        assert m.substitute(values).row(0) == [F(1, 2) + F(9, 2) - F(1, 3),
                                               F(2, 3)]

    def test_missing_parameter_value(self):
        m = ParamMatrix(1, 1, ("u",), [(0, 1)])
        with pytest.raises(ValueError, match="no values"):
            m.substitute({})

    def test_entry_length_checked(self):
        with pytest.raises(ValueError, match="entry length"):
            ParamMatrix(1, 1, ("u", "v"), [(0, 1)])


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


@settings(max_examples=80)
@given(integer_runs())
def test_runs_match_fraction_rows(case):
    rows, fraction_rows = case
    m = RationalMatrix.from_runs(rows)
    reference = RationalMatrix.from_rows(fraction_rows)
    assert (m.rows, m.cols) == (reference.rows, reference.cols)
    assert m.entries == reference.entries
    assert rank_exact(m) == rank_exact(reference)
    assert all(den > 0 for den in m.dens)


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
        den = draw(st.integers(1, 12))
        zero_row = draw(st.booleans()) and draw(st.booleans())
        entry = st.tuples(*[st.integers(-9, 9)] * (len(params) + 1))
        entries = ([(0,) * (len(params) + 1)] * cols if zero_row
                   else draw(st.lists(entry, min_size=cols, max_size=cols)))
        integer_rows.append((den, entries))
    values = {p: draw(small_fracs) for p in params}
    expected = [F(e[0], den) + sum(F(k, den) * values[p]
                                   for k, p in zip(e[1:], params))
                for den, entries in integer_rows for e in entries]
    return params, integer_rows, values, expected


@settings(max_examples=80)
@given(affine_substitutions())
def test_substitute_matches_fraction_evaluation(case):
    params, integer_rows, values, expected = case
    m = ParamMatrix.from_integer_rows(params, integer_rows)
    assert m.substitute(values).entries == tuple(expected)
    # the Fraction constructor stores the same matrix
    fraction_entries = [tuple(F(k, den) for k in e)
                        for den, entries in integer_rows for e in entries]
    same = ParamMatrix(m.rows, m.cols, params, fraction_entries)
    assert same.substitute(values).entries == tuple(expected)
    assert all(same[r, c] == m[r, c]
               for r in range(m.rows) for c in range(m.cols))


class TestIntegerRowsValidation:
    def test_nonpositive_denominator(self):
        with pytest.raises(ValueError, match="positive"):
            ParamMatrix.from_integer_rows(("u",), [(0, [(1, 2)])])

    def test_ragged_rows(self):
        with pytest.raises(ValueError, match="ragged"):
            ParamMatrix.from_integer_rows(("u",), [(1, [(1, 2)]),
                                                   (1, [(1, 2), (0, 1)])])

    def test_entry_length(self):
        with pytest.raises(ValueError, match="entry length"):
            ParamMatrix.from_integer_rows(("u", "v"), [(1, [(1, 2)])])

    def test_empty_matrix(self):
        with pytest.raises(ValueError, match="at least one row"):
            ParamMatrix.from_integer_rows(("u",), [])
        with pytest.raises(ValueError, match="positive"):
            ParamMatrix.from_integer_rows(("u",), [(1, [])])
