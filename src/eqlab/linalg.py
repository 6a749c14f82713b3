"""Exact rank computation over the rationals.

Two flavors are needed by the rank claims under verification: plain rank
of a rational matrix, and generic rank of a matrix whose entries are
affine in a handful of named parameters, ranked at random rational
values of them.  Both reduce to fraction-free (Bareiss) elimination on
integers, the only elimination routine in the package.  A matrix is
stored as one integer row over one positive denominator per row, so the
elimination reads the integer rows as they are: scaling a row by a
positive integer does not change the rank, and the elimination then
performs exact integer division only.  Both matrix types are built from
integers, such as a tensor's numerators over its denominator, and no
entry is ever held as a ``Fraction``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from typing import Sequence

from .jets import _exact, _set_slots


def _check_positive(den: int) -> None:
    if den <= 0:
        raise ValueError(f"row denominators must be positive, got {den}")


class RationalMatrix:
    """Dense rows x cols matrix over Q.

    Row r is stored as integer numerators ``nums[r]`` over one positive
    denominator ``dens[r]``, so entry (r, c) is ``nums[r][c] / dens[r]``.
    Instances are immutable, and ``from_runs`` is the one constructor.
    """

    __slots__ = ("rows", "cols", "dens", "nums")

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    @classmethod
    def from_runs(cls, rows: Sequence[Sequence[tuple[int, Sequence[int]]]]
                  ) -> "RationalMatrix":
        """Matrix from integer runs: row r is its runs laid end to end, and
        a run ``(den, nums)`` holds the entries ``nums[k] / den``."""
        integer_rows = []
        for runs in rows:
            for den, _ in runs:
                _check_positive(den)
            row_den = lcm(*(den for den, _ in runs))
            nums: list[int] = []
            for den, run in runs:
                f = row_den // den
                nums.extend(run if f == 1 else [f * x for x in run])
            integer_rows.append((row_den, nums))
        if not integer_rows:
            raise ValueError("need at least one row")
        cols = len(integer_rows[0][1])
        if cols < 1:
            raise ValueError("matrix dimensions must be positive")
        if any(len(nums) != cols for _, nums in integer_rows):
            raise ValueError("ragged rows")
        m = object.__new__(cls)
        _set_slots(m, len(integer_rows), cols,
                   tuple(den for den, _ in integer_rows),
                   tuple(tuple(nums) for _, nums in integer_rows))
        return m


def rank_exact(m: RationalMatrix) -> int:
    """Rank over Q via fraction-free elimination: column by column, the
    first nonzero row at or below the current rank is the pivot."""
    a = [list(row) for row in m.nums]
    rank, prev = 0, 1
    for c in range(m.cols):
        pivot = next((r for r in range(rank, m.rows) if a[r][c]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        p = a[rank][c]
        for i in range(rank + 1, m.rows):
            for j in range(c + 1, m.cols):
                # Bareiss step: the quotient is an exact minor
                a[i][j] = (a[i][j] * p - a[i][c] * a[rank][j]) // prev
            a[i][c] = 0
        prev = p
        rank += 1
    return rank


class ParamMatrix:
    """Matrix whose entries are affine in a tuple of named parameters.

    Row r is stored over one positive denominator ``dens[r]``.
    ``coeffs[r]`` holds one integer tuple per entry: the constant, then
    one coefficient per parameter, in the order of ``params``, each over
    ``dens[r]``.  Instances are immutable, and ``from_integer_rows`` is
    the one constructor.
    """

    __slots__ = ("rows", "cols", "params", "dens", "coeffs")

    @classmethod
    def from_integer_rows(cls, params: tuple[str, ...],
                          rows: Sequence[tuple[int, Sequence[Sequence[int]]]]
                          ) -> "ParamMatrix":
        """Matrix from ``(den, entries)`` rows, each entry an integer tuple
        (constant, one coefficient per parameter) over the row's ``den``."""
        if not rows:
            raise ValueError("need at least one row")
        cols = len(rows[0][1])
        if cols < 1:
            raise ValueError("matrix dimensions must be positive")
        for den, entries in rows:
            _check_positive(den)
            if len(entries) != cols:
                raise ValueError("ragged rows")
            if any(len(e) != len(params) + 1 for e in entries):
                raise ValueError("entry length is not one plus the parameter count")
        m = object.__new__(cls)
        _set_slots(m, len(rows), cols, tuple(params),
                   tuple(den for den, _ in rows),
                   tuple(tuple(tuple(e) for e in entries) for _, entries in rows))
        return m

    def __setattr__(self, name, value):
        raise AttributeError("ParamMatrix is immutable")

    def substitute(self, values: dict[str, Fraction]) -> RationalMatrix:
        missing = [p for p in self.params if p not in values]
        if missing:
            raise ValueError(f"no values for parameters {missing}")
        # one common denominator for the values: the k-th value is
        # point[k + 1] / scale, and point[0] = scale carries the constant
        xs = [_exact(values[p]) for p in self.params]
        scale = lcm(*(x.denominator for x in xs))
        point = (scale, *(x.numerator * (scale // x.denominator) for x in xs))
        return RationalMatrix.from_runs(
            [[(den * scale,
               [sum(c * x for c, x in zip(e, point) if c) for e in row])]
             for den, row in zip(self.dens, self.coeffs)])


def random_substitution(params: Sequence[str], rng: random.Random) -> dict[str, Fraction]:
    # numerators and denominators uniform in [1, 10^6]; positive values are
    # as generic as signed ones for rank purposes
    return {p: Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
            for p in params}


def generic_rank(m: ParamMatrix, trials: int = 5, seed: int = 0) -> int:
    """Maximum rank over independent random rational parameter substitutions.

    Specializing parameters can only lower the rank, so the observed
    maximum is the generic rank unless every trial landed on the measure
    zero degeneracy locus.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = random.Random(seed)
    best = 0
    for _ in range(trials):
        values = random_substitution(m.params, rng)
        best = max(best, rank_exact(m.substitute(values)))
    return best
