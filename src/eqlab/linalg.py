"""Exact rank computation over the rationals.

Two flavors are needed by the rank claims under verification: plain rank
of a rational matrix, and generic rank of a matrix whose entries are
affine in a handful of named parameters, ranked at given rational
values of them.  Both reduce to fraction-free (Bareiss) elimination on
integers, the only elimination routine in the package.  A matrix is
stored as integer rows alone: scaling a row by a positive integer, or a
column by a nonzero one, does not change the rank, so a rational row is
stored as its numerators over the row's common denominator, and the
denominator is dropped.  The elimination then performs exact integer
division only, and no entry is ever held as a ``Fraction``.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul
from typing import TYPE_CHECKING, Sequence

from .jets import _exact, _set_slots

if TYPE_CHECKING:
    from fractions import Fraction


class RationalMatrix:
    """Dense rows x cols integer matrix, ranked as a matrix over Q.

    Row r, ``nums[r]``, stands for its rational row times a positive
    integer, which keeps the rank.  Instances are immutable, and
    ``from_runs`` is the one constructor.
    """

    __slots__ = ("rows", "cols", "nums")

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    @classmethod
    def from_runs(cls, rows: Sequence[Sequence[tuple[int, Sequence[int]]]]
                  ) -> "RationalMatrix":
        """Matrix from integer runs: row r is its runs laid end to end, and
        a run ``(den, nums)`` holds the entries ``nums[k] / den``.  Each
        row is stored times the lcm of its run denominators."""
        integer_rows = []
        for runs in rows:
            for den, _ in runs:
                if den <= 0:
                    raise ValueError(
                        f"row denominators must be positive, got {den}")
            row_den = lcm(*(den for den, _ in runs))
            nums: list[int] = []
            for den, run in runs:
                f = row_den // den
                nums.extend(run if f == 1 else [f * x for x in run])
            integer_rows.append(tuple(nums))
        if not integer_rows:
            raise ValueError("need at least one row")
        cols = len(integer_rows[0])
        if cols < 1:
            raise ValueError("matrix dimensions must be positive")
        if any(len(nums) != cols for nums in integer_rows):
            raise ValueError("ragged rows")
        m = object.__new__(cls)
        _set_slots(m, len(integer_rows), cols, tuple(integer_rows))
        return m


def rank_exact(m: RationalMatrix) -> int:
    """Rank over Q via fraction-free elimination: column by column, the
    first nonzero row at or below the current rank is the pivot.  Each
    column is first divided by its content, a nonzero column scale."""
    contents = [gcd(*col) or 1 for col in zip(*m.nums)]
    a = [[x // g for x, g in zip(row, contents)] for row in m.nums]
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

    ``coeffs[r]`` holds one integer tuple per entry: the constant, then
    one coefficient per parameter, in the order of ``params``.  A row
    stands for its rational row times a positive integer, as in
    ``RationalMatrix``.  Instances are immutable, and ``from_integer_rows``
    is the one constructor.
    """

    __slots__ = ("rows", "cols", "params", "coeffs")

    @classmethod
    def from_integer_rows(cls, params: tuple[str, ...],
                          rows: Sequence[Sequence[Sequence[int]]]
                          ) -> "ParamMatrix":
        """Matrix from entry rows, each entry an integer tuple (constant,
        one coefficient per parameter)."""
        if not rows:
            raise ValueError("need at least one row")
        cols = len(rows[0])
        if cols < 1:
            raise ValueError("matrix dimensions must be positive")
        for entries in rows:
            if len(entries) != cols:
                raise ValueError("ragged rows")
            if any(len(e) != len(params) + 1 for e in entries):
                raise ValueError("entry length is not one plus the parameter count")
        m = object.__new__(cls)
        _set_slots(m, len(rows), cols, tuple(params),
                   tuple(tuple(tuple(e) for e in entries) for entries in rows))
        return m

    def __setattr__(self, name, value):
        raise AttributeError("ParamMatrix is immutable")

    def substitute(self, values: dict[str, Fraction]) -> RationalMatrix:
        """The matrix at ``values``, each row times the values' common
        denominator."""
        missing = [p for p in self.params if p not in values]
        if missing:
            raise ValueError(f"no values for parameters {missing}")
        # one common denominator for the values: the k-th value is
        # point[k + 1] / scale, and point[0] = scale carries the constant
        xs = [_exact(values[p]) for p in self.params]
        scale = lcm(*(x.denominator for x in xs))
        point = (scale, *(x.numerator * (scale // x.denominator) for x in xs))
        return RationalMatrix.from_runs(
            [[(1, [sum(map(mul, e, point)) for e in row])]
             for row in self.coeffs])


def generic_rank(m: ParamMatrix, substitutions: Sequence[dict[str, Fraction]]
                 ) -> int:
    """Maximum rank over the given parameter substitutions.

    Specializing parameters can only lower the rank, so over independent
    random substitutions the maximum is the generic rank unless every one
    landed on the measure zero degeneracy locus.
    """
    if not substitutions:
        raise ValueError("need at least one substitution")
    return max(rank_exact(m.substitute(values)) for values in substitutions)
