"""Truncated multivariate Taylor expansions with exact rational coefficients.

Every scalar quantity in this package is a jet: the expansion of a field
around the coordinate origin, truncated above a declared total degree and
carrying ``Fraction`` coefficients.  Arithmetic is exact.  Differentiation
lowers the order by one and binary operations take the minimum of the two
orders, so a value always knows how many of its derivatives are still
trustworthy.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from typing import Iterable, Iterator, Mapping

Rational = Fraction


class DimensionMismatchError(ValueError):
    """Operands disagree on the number of coordinates."""


class OrderExhaustedError(ValueError):
    """A derivative was requested of a jet that has no derivatives left."""


class NotInvertibleError(ValueError):
    """Inversion of a jet whose value at the base point is zero."""


def as_rational(value: int | Fraction) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class JetScalar:
    """A polynomial in ``dim`` coordinates, truncated above total degree ``order``.

    ``coeffs`` maps exponent tuples of length ``dim`` to nonzero Fractions;
    absent entries are zero.  Instances are immutable by convention: no
    method mutates ``coeffs`` after construction.
    """

    __slots__ = ("dim", "order", "coeffs")

    def __init__(self, dim: int, order: int,
                 coeffs: Mapping[tuple[int, ...], Fraction | int] | None = None):
        if dim < 1:
            raise ValueError("dim must be at least 1")
        if order < 0:
            raise ValueError("order must be nonnegative")
        clean: dict[tuple[int, ...], Fraction] = {}
        for alpha, value in (coeffs or {}).items():
            alpha = tuple(alpha)
            if len(alpha) != dim or any(e < 0 for e in alpha):
                raise ValueError(f"bad multi-index {alpha!r} for dim {dim}")
            if sum(alpha) > order:
                raise ValueError(f"multi-index {alpha!r} exceeds order {order}")
            value = as_rational(value)
            if value != 0:
                clean[alpha] = value
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("JetScalar is immutable")

    @classmethod
    def zero(cls, dim: int, order: int) -> "JetScalar":
        return cls(dim, order)

    @classmethod
    def constant(cls, dim: int, order: int, value: Fraction | int) -> "JetScalar":
        return cls(dim, order, {(0,) * dim: as_rational(value)})

    @classmethod
    def coordinate(cls, dim: int, order: int, k: int) -> "JetScalar":
        """The coordinate function x_k (0-based k) as a jet."""
        if not 0 <= k < dim:
            raise ValueError(f"coordinate index {k} out of range for dim {dim}")
        if order < 1:
            raise ValueError("a coordinate jet needs order >= 1")
        alpha = tuple(1 if i == k else 0 for i in range(dim))
        return cls(dim, order, {alpha: Fraction(1)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, JetScalar):
            return NotImplemented
        return (self.dim == other.dim and self.order == other.order
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.dim, self.order, frozenset(self.coeffs.items())))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = JetScalar.constant(self.dim, self.order, other)
        if not isinstance(other, JetScalar):
            return NotImplemented
        return jet_add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = JetScalar.constant(self.dim, self.order, other)
        if not isinstance(other, JetScalar):
            return NotImplemented
        return jet_add(self, jet_neg(other))

    def __neg__(self):
        return jet_neg(self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return jet_scale(other, self)
        if not isinstance(other, JetScalar):
            return NotImplemented
        return jet_mul(self, other)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        if not self.coeffs:
            body = "0"
        else:
            parts = []
            for alpha in sorted(self.coeffs):
                mono = "*".join(f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
                                for i, e in enumerate(alpha) if e)
                c = str(self.coeffs[alpha])
                parts.append(f"{c}*{mono}" if mono else c)
            body = " + ".join(parts)
        return f"JetScalar({body}; dim={self.dim}, order={self.order})"

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "order": self.order,
            "coeffs": [
                {"alpha": list(alpha),
                 "num": str(self.coeffs[alpha].numerator),
                 "den": str(self.coeffs[alpha].denominator)}
                for alpha in sorted(self.coeffs)
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "JetScalar":
        coeffs = {}
        for entry in obj["coeffs"]:
            den = int(entry["den"])
            if den == 0:
                raise ValueError("jet coefficient has denominator 0")
            coeffs[tuple(entry["alpha"])] = Fraction(int(entry["num"]), den)
        return cls(int(obj["dim"]), int(obj["order"]), coeffs)


def _require_same_dim(a: JetScalar, b: JetScalar) -> None:
    if a.dim != b.dim:
        raise DimensionMismatchError(f"jet dims differ: {a.dim} vs {b.dim}")


def jet_add(a: JetScalar, b: JetScalar) -> JetScalar:
    """Coefficientwise sum, truncated to the smaller order."""
    _require_same_dim(a, b)
    order = min(a.order, b.order)
    coeffs = {alpha: c for alpha, c in a.coeffs.items() if sum(alpha) <= order}
    for alpha, c in b.coeffs.items():
        if sum(alpha) > order:
            continue
        total = coeffs.get(alpha, Fraction(0)) + c
        if total:
            coeffs[alpha] = total
        else:
            coeffs.pop(alpha, None)
    return JetScalar(a.dim, order, coeffs)


def jet_sum(terms: Iterable[JetScalar]) -> JetScalar:
    """Left-to-right sum of a nonempty sequence: one ``jet_add`` per extra term."""
    return reduce(jet_add, terms)


def jet_neg(a: JetScalar) -> JetScalar:
    return JetScalar(a.dim, a.order, {alpha: -c for alpha, c in a.coeffs.items()})


def jet_scale(c: Fraction | int, a: JetScalar) -> JetScalar:
    c = as_rational(c)
    if c == 0:
        return JetScalar.zero(a.dim, a.order)
    return JetScalar(a.dim, a.order, {alpha: c * v for alpha, v in a.coeffs.items()})


def jet_mul(a: JetScalar, b: JetScalar) -> JetScalar:
    """Cauchy product truncated to the smaller order."""
    _require_same_dim(a, b)
    order = min(a.order, b.order)
    coeffs: dict[tuple[int, ...], Fraction] = {}
    for alpha, ca in a.coeffs.items():
        da = sum(alpha)
        if da > order:
            continue
        for beta, cb in b.coeffs.items():
            if da + sum(beta) > order:
                continue
            gamma = tuple(x + y for x, y in zip(alpha, beta))
            total = coeffs.get(gamma, Fraction(0)) + ca * cb
            if total:
                coeffs[gamma] = total
            else:
                del coeffs[gamma]
    return JetScalar(a.dim, order, coeffs)


def jet_partial(a: JetScalar, k: int) -> JetScalar:
    """Formal partial derivative with respect to coordinate k (0-based)."""
    if not 0 <= k < a.dim:
        raise ValueError(f"coordinate index {k} out of range for dim {a.dim}")
    if a.order < 1:
        raise OrderExhaustedError("cannot differentiate an order-0 jet")
    coeffs: dict[tuple[int, ...], Fraction] = {}
    for alpha, c in a.coeffs.items():
        if alpha[k] == 0:
            continue
        beta = tuple(e - 1 if i == k else e for i, e in enumerate(alpha))
        coeffs[beta] = c * alpha[k]
    return JetScalar(a.dim, a.order - 1, coeffs)


def jet_inverse(a: JetScalar) -> JetScalar:
    """Multiplicative inverse up to the truncation order.

    Uses the geometric series around the base value: with a = a0(1 + u),
    1/a = (1/a0) * sum_i (-u)^i, and u has no constant term so the series
    terminates at the truncation order.
    """
    a0 = value_at_base(a)
    if a0 == 0:
        raise NotInvertibleError("jet has zero value at the base point")
    base = (0,) * a.dim
    u = JetScalar(a.dim, a.order, {alpha: c for alpha, c in a.coeffs.items()
                                   if alpha != base})
    result = JetScalar.constant(a.dim, a.order, 1 / a0)
    term = result
    for _ in range(a.order):
        term = jet_scale(-1 / a0, jet_mul(term, u))
        if term.is_zero():
            break
        result = jet_add(result, term)
    return result


def value_at_base(a: JetScalar) -> Fraction:
    return a.coeffs.get((0,) * a.dim, Fraction(0))


def multi_indices(dim: int, order: int) -> Iterator[tuple[int, ...]]:
    """All exponent tuples of length dim with total degree at most order."""
    def rec(prefix: tuple[int, ...], remaining: int, budget: int):
        if remaining == 0:
            yield prefix
            return
        for e in range(budget + 1):
            yield from rec(prefix + (e,), remaining - 1, budget - e)
    return rec((), dim, order)
