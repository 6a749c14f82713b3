"""Exact rank computation over the rationals.

Two flavors are needed by the rank claims under verification: plain rank
of a rational matrix, and generic rank of a matrix whose entries are
affine in a handful of named parameters, ranked at random rational
values of them.  Both reduce to fraction-free (Bareiss) elimination on
integers, the only elimination routine in the package.  A matrix is
stored as one integer row over one positive denominator per row, so the
elimination reads the integer rows as they are: scaling a row by a
positive integer does not change the rank, and the elimination then
performs exact integer division only.  Callers that hold integers, such
as a tensor's numerators over its denominator, build the rows without a
``Fraction`` per entry.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from typing import Sequence

from .jets import _set_slots, as_rational


def _over_lcm(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """``values`` as integer numerators over the lcm of their denominators."""
    den = lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def _check_positive(den: int) -> None:
    if den <= 0:
        raise ValueError(f"row denominators must be positive, got {den}")


class RationalMatrix:
    """Dense rows x cols matrix over Q.

    Row r is stored as integer numerators ``nums[r]`` over one positive
    denominator ``dens[r]``, so entry (r, c) is ``nums[r][c] / dens[r]``.
    ``entries``, ``m[r, c]`` and ``row`` are ``Fraction`` views.
    Instances are immutable.
    """

    __slots__ = ("rows", "cols", "dens", "nums")

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    @property
    def entries(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, den) for den, row in zip(self.dens, self.nums)
                     for n in row)

    def __getitem__(self, pos: tuple[int, int]) -> Fraction:
        r, c = pos
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"position {pos!r} out of range")
        return Fraction(self.nums[r][c], self.dens[r])

    def row(self, r: int) -> list[Fraction]:
        return [self[r, c] for c in range(self.cols)]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Fraction | int]]) -> "RationalMatrix":
        return cls.from_runs(
            [[_over_lcm([as_rational(e) for e in row])] for row in rows])

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
    """Rank over Q via fraction-free elimination with full pivoting."""
    a = [list(row) for row in m.nums]
    rows, cols = m.rows, m.cols
    rank = 0
    prev = 1
    while rank < min(rows, cols):
        pivot = None
        for i in range(rank, rows):
            for j in range(rank, cols):
                if a[i][j] != 0:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        pi, pj = pivot
        if pi != rank:
            a[pi], a[rank] = a[rank], a[pi]
        if pj != rank:
            for row in a:
                row[pj], row[rank] = row[rank], row[pj]
        p = a[rank][rank]
        for i in range(rank + 1, rows):
            for j in range(rank + 1, cols):
                # Bareiss step: the quotient is an exact minor
                a[i][j] = (a[i][j] * p - a[i][rank] * a[rank][j]) // prev
            a[i][rank] = 0
        prev = p
        rank += 1
    return rank


class ParamMatrix:
    """Matrix whose entries are affine in a tuple of named parameters.

    Row r is stored over one positive denominator ``dens[r]``.
    ``coeffs[r]`` holds one integer tuple per entry: the constant, then
    one coefficient per parameter, in the order of ``params``, each over
    ``dens[r]``.  ``m[r, c]`` is the entry's tuple as ``Fraction``s.
    """

    __slots__ = ("rows", "cols", "params", "dens", "coeffs")

    def __init__(self, rows: int, cols: int, params: tuple[str, ...],
                 entries: Sequence[Sequence[Fraction | int]]):
        entries = [[as_rational(c) for c in e] for e in entries]
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        integer_rows = []
        for r in range(rows):
            block = entries[r * cols:(r + 1) * cols]
            den = lcm(*(c.denominator for e in block for c in e))
            integer_rows.append((den, [[c.numerator * (den // c.denominator)
                                        for c in e] for e in block]))
        self._fill(params, integer_rows)

    def _fill(self, params: tuple[str, ...],
              integer_rows: Sequence[tuple[int, Sequence[Sequence[int]]]]) -> None:
        if not integer_rows:
            raise ValueError("need at least one row")
        cols = len(integer_rows[0][1])
        if cols < 1:
            raise ValueError("matrix dimensions must be positive")
        for den, entries in integer_rows:
            _check_positive(den)
            if len(entries) != cols:
                raise ValueError("ragged rows")
            if any(len(e) != len(params) + 1 for e in entries):
                raise ValueError("entry length is not one plus the parameter count")
        _set_slots(self, len(integer_rows), cols, tuple(params),
                   tuple(den for den, _ in integer_rows),
                   tuple(tuple(tuple(e) for e in entries)
                         for _, entries in integer_rows))

    @classmethod
    def from_integer_rows(cls, params: tuple[str, ...],
                          rows: Sequence[tuple[int, Sequence[Sequence[int]]]]
                          ) -> "ParamMatrix":
        """Matrix from ``(den, entries)`` rows, each entry an integer tuple
        (constant, one coefficient per parameter) over the row's ``den``."""
        m = object.__new__(cls)
        m._fill(params, rows)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("ParamMatrix is immutable")

    def __getitem__(self, pos: tuple[int, int]) -> tuple[Fraction, ...]:
        r, c = pos
        den = self.dens[r]
        return tuple(Fraction(x, den) for x in self.coeffs[r][c])

    def substitute(self, values: dict[str, Fraction]) -> RationalMatrix:
        missing = [p for p in self.params if p not in values]
        if missing:
            raise ValueError(f"no values for parameters {missing}")
        # one common denominator for the values: the k-th value is
        # point[k + 1] / scale, and point[0] = scale carries the constant
        xs = [as_rational(values[p]) for p in self.params]
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
