"""Exact rank computation over the rationals.

Two flavors are needed by the rank claims under verification: plain rank
of a matrix of Fractions, and generic rank of a matrix whose entries are
affine in a handful of named parameters, ranked at random rational
values of them.  Both reduce to fraction-free (Bareiss) elimination on
integers, the only elimination routine in the package: rows are first
scaled by the least common multiple of their denominators, which does not
change the rank, and the elimination then performs exact integer division
only.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Sequence

from .jets import as_rational


class RationalMatrix:
    """Dense rows x cols matrix of Fractions, entries row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[Fraction | int]):
        if rows < 1 or cols < 1:
            raise ValueError("matrix dimensions must be positive")
        entries = tuple(as_rational(e) for e in entries)
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    def __getitem__(self, pos: tuple[int, int]) -> Fraction:
        r, c = pos
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"position {pos!r} out of range")
        return self.entries[r * self.cols + c]

    def row(self, r: int) -> list[Fraction]:
        return [self[r, c] for c in range(self.cols)]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Fraction | int]]) -> "RationalMatrix":
        if not rows:
            raise ValueError("need at least one row")
        width = len(rows[0])
        flat = []
        for row in rows:
            if len(row) != width:
                raise ValueError("ragged rows")
            flat.extend(row)
        return cls(len(rows), width, flat)


def _integer_rows(m: RationalMatrix) -> list[list[int]]:
    # scaling a row by a positive integer preserves rank
    out = []
    for r in range(m.rows):
        row = m.row(r)
        scale = math.lcm(*(e.denominator for e in row)) if row else 1
        out.append([int(e * scale) for e in row])
    return out


def rank_exact(m: RationalMatrix) -> int:
    """Rank over Q via fraction-free elimination with full pivoting."""
    a = _integer_rows(m)
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

    Each entry is a tuple: the constant, then one coefficient per
    parameter, in the order of ``params``.
    """

    __slots__ = ("rows", "cols", "params", "entries")

    def __init__(self, rows: int, cols: int, params: tuple[str, ...],
                 entries: Sequence[Sequence[Fraction | int]]):
        entries = tuple(tuple(as_rational(c) for c in e) for e in entries)
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        if any(len(e) != len(params) + 1 for e in entries):
            raise ValueError("entry length is not one plus the parameter count")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "params", tuple(params))
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("ParamMatrix is immutable")

    def __getitem__(self, pos: tuple[int, int]) -> tuple[Fraction, ...]:
        r, c = pos
        return self.entries[r * self.cols + c]

    def substitute(self, values: dict[str, Fraction]) -> RationalMatrix:
        missing = [p for p in self.params if p not in values]
        if missing:
            raise ValueError(f"no values for parameters {missing}")
        point = (1, *(values[p] for p in self.params))
        return RationalMatrix(
            self.rows, self.cols,
            [sum(c * x for c, x in zip(e, point) if c) for e in self.entries])


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
