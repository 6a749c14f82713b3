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
    return RationalMatrix(n, n, [1 if i == j else 0
                                 for i in range(n) for j in range(n)])


class TestRankExact:
    def test_identity(self):
        assert rank_exact(identity(3)) == 3

    def test_zero(self):
        assert rank_exact(RationalMatrix(4, 7, [0] * 28)) == 0

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
    entries = [draw(small_fracs) for _ in range(rows * cols)]
    return RationalMatrix(rows, cols, entries)


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
