"""Truncated multivariate Taylor expansions with exact rational coefficients.

Every scalar quantity in this package is a jet: the expansion of a field
around the coordinate origin, truncated above a declared total degree.
Arithmetic is exact.  Differentiation lowers the order by one and binary
operations take the minimum of the two orders, so a value always knows
how many of its derivatives are still trustworthy.

A jet stores its coefficients as integer numerators over one shared
positive denominator, on a graded monomial basis: the exponent tuples of
total degree at most ``order``, ordered by degree first.  The basis of a
lower order is therefore a prefix of the basis of a higher one, and
truncation is a slice.  The per-``(dim, order)`` tables (the basis, the
product pairs and the derivative maps) are built once and cached.  This
is truncated Taylor arithmetic in the sense of Griewank & Walther,
*Evaluating Derivatives* (2nd ed.), ch. 13, kept fraction-free in the
manner of Bareiss: one gcd per result instead of one per coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from itertools import combinations_with_replacement
from math import comb, gcd, lcm
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


def basis_size(dim: int, order: int) -> int:
    """Number of monomials in ``dim`` coordinates of total degree <= ``order``."""
    return comb(dim + order, order)


@cache
def graded_basis(dim: int, order: int) -> tuple[tuple[int, ...], ...]:
    """Exponent tuples of total degree <= order, by degree, then descending.

    The basis of ``(dim, order)`` is a prefix of the basis of
    ``(dim, order + 1)``.
    """
    basis = []
    for degree in range(order + 1):
        for picks in combinations_with_replacement(range(dim), degree):
            alpha = [0] * dim
            for k in picks:
                alpha[k] += 1
            basis.append(tuple(alpha))
    return tuple(basis)


# Bound on the (i, j) pairs of one product table, basis_size(2 * dim, order):
# the dense form costs memory and time in the declared order, not in the
# terms a jet actually has, so a declared order must stay in reach.
MAX_PRODUCT_PAIRS = 10**6


@cache
def _basis_index(dim: int, order: int) -> dict[tuple[int, ...], int]:
    if basis_size(2 * dim, order) > MAX_PRODUCT_PAIRS:
        raise ValueError(f"a jet of dim {dim} and order {order} is too large: "
                         f"its products exceed {MAX_PRODUCT_PAIRS} term pairs")
    return {alpha: i for i, alpha in enumerate(graded_basis(dim, order))}


@cache
def _mul_table(dim: int, order: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For each left factor index i, the (j, k) with basis[i] + basis[j] = basis[k].

    Only pairs whose degrees fit the order are listed.
    """
    basis = graded_basis(dim, order)
    index = _basis_index(dim, order)
    return tuple(
        tuple((j, index[tuple(x + y for x, y in zip(alpha, beta))])
              for j, beta in enumerate(basis[:basis_size(dim, order - sum(alpha))]))
        for alpha in basis)


@cache
def _partial_table(dim: int, order: int, k: int) -> tuple[tuple[int, int], ...]:
    """For each monomial of order - 1, the (source index, factor) of d/dx_k."""
    index = _basis_index(dim, order)
    table = []
    for beta in graded_basis(dim, order - 1):
        alpha = beta[:k] + (beta[k] + 1,) + beta[k + 1:]
        table.append((index[alpha], alpha[k]))
    return tuple(table)


class JetScalar:
    """A polynomial in ``dim`` coordinates, truncated above total degree ``order``.

    The value is ``nums[i] / den`` on the monomial ``graded_basis(dim,
    order)[i]``.  ``nums`` is a tuple of ints, one per basis monomial, and
    ``den`` a positive int.  The form is canonical: ``gcd(den, *nums) == 1``,
    and the zero jet has ``den == 1``, so equal jets have equal fields.
    ``coeffs`` is derived on demand: a fresh dict from exponent tuples to
    the nonzero ``Fraction`` coefficients.  Instances are immutable.
    """

    __slots__ = ("dim", "order", "den", "nums")

    def __init__(self, dim: int, order: int,
                 coeffs: Mapping[tuple[int, ...], Fraction | int] | None = None):
        if dim < 1:
            raise ValueError("dim must be at least 1")
        if order < 0:
            raise ValueError("order must be nonnegative")
        index = _basis_index(dim, order)
        values: dict[int, Fraction] = {}
        for alpha, value in (coeffs or {}).items():
            alpha = tuple(alpha)
            if len(alpha) != dim or any(e < 0 for e in alpha):
                raise ValueError(f"bad multi-index {alpha!r} for dim {dim}")
            if sum(alpha) > order:
                raise ValueError(f"multi-index {alpha!r} exceeds order {order}")
            if alpha not in index:
                raise ValueError(f"bad multi-index {alpha!r} for dim {dim}")
            value = as_rational(value)
            if value != 0:
                values[index[alpha]] = value
        den = lcm(*(v.denominator for v in values.values()))
        nums = [0] * len(index)
        for i, v in values.items():
            nums[i] = v.numerator * (den // v.denominator)
        _set_dim(self, dim)
        _set_order(self, order)
        _set_den(self, den)
        _set_nums(self, tuple(nums))

    def __setattr__(self, name, value):
        raise AttributeError("JetScalar is immutable")

    @property
    def coeffs(self) -> dict[tuple[int, ...], Fraction]:
        den = self.den
        return {alpha: Fraction(n, den)
                for alpha, n in zip(graded_basis(self.dim, self.order), self.nums)
                if n}

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
        return not any(self.nums)

    def __eq__(self, other) -> bool:
        if not isinstance(other, JetScalar):
            return NotImplemented
        return (self.dim == other.dim and self.order == other.order
                and self.den == other.den and self.nums == other.nums)

    def __hash__(self) -> int:
        return hash((self.dim, self.order, self.den, self.nums))

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
        coeffs = self.coeffs
        if not coeffs:
            body = "0"
        else:
            parts = []
            for alpha in sorted(coeffs):
                mono = "*".join(f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
                                for i, e in enumerate(alpha) if e)
                c = str(coeffs[alpha])
                parts.append(f"{c}*{mono}" if mono else c)
            body = " + ".join(parts)
        return f"JetScalar({body}; dim={self.dim}, order={self.order})"

    def to_json(self) -> dict:
        coeffs = self.coeffs
        return {
            "dim": self.dim,
            "order": self.order,
            "coeffs": [
                {"alpha": list(alpha),
                 "num": str(coeffs[alpha].numerator),
                 "den": str(coeffs[alpha].denominator)}
                for alpha in sorted(coeffs)
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


# Slot setters: the trusted constructor writes past the immutability guard.
_set_dim = JetScalar.dim.__set__
_set_order = JetScalar.order.__set__
_set_den = JetScalar.den.__set__
_set_nums = JetScalar.nums.__set__
_new_jet = object.__new__


def _jet(dim: int, order: int, den: int, nums) -> JetScalar:
    """Trusted constructor: ``nums`` fits the basis and ``den > 0``.

    Divides out ``gcd(den, *nums)``, which leaves the canonical form.
    """
    g = gcd(den, *nums)
    if g != 1:
        den //= g
        nums = [n // g for n in nums]
    jet = _new_jet(JetScalar)
    _set_dim(jet, dim)
    _set_order(jet, order)
    _set_den(jet, den)
    _set_nums(jet, tuple(nums))
    return jet


def _require_same_dim(a: JetScalar, b: JetScalar) -> None:
    if a.dim != b.dim:
        raise DimensionMismatchError(f"jet dims differ: {a.dim} vs {b.dim}")


def jet_add(a: JetScalar, b: JetScalar) -> JetScalar:
    """Coefficientwise sum, truncated to the smaller order."""
    _require_same_dim(a, b)
    order = min(a.order, b.order)
    # zip stops at the shorter vector, which is the lower-order basis
    da, db = a.den, b.den
    if da == db:
        return _jet(a.dim, order, da, [x + y for x, y in zip(a.nums, b.nums)])
    g = gcd(da, db)
    fa, fb = db // g, da // g
    return _jet(a.dim, order, da * fa,
                [x * fa + y * fb for x, y in zip(a.nums, b.nums)])


def jet_sum(terms: Iterable[JetScalar]) -> JetScalar:
    """Left-to-right sum of a nonempty sequence: one ``jet_add`` per extra term."""
    return reduce(jet_add, terms)


def jet_neg(a: JetScalar) -> JetScalar:
    return _jet(a.dim, a.order, a.den, [-x for x in a.nums])


def jet_scale(c: Fraction | int, a: JetScalar) -> JetScalar:
    c = as_rational(c)
    p = c.numerator
    return _jet(a.dim, a.order, a.den * c.denominator, [p * x for x in a.nums])


def jet_mul(a: JetScalar, b: JetScalar) -> JetScalar:
    """Cauchy product truncated to the smaller order."""
    _require_same_dim(a, b)
    order = min(a.order, b.order)
    table = _mul_table(a.dim, order)
    bn = b.nums
    nums = [0] * len(table)
    # zip stops at the end of the table, so a longer a is truncated
    for x, row in zip(a.nums, table):
        if x:
            for j, k in row:
                nums[k] += x * bn[j]
    return _jet(a.dim, order, a.den * b.den, nums)


def jet_partial(a: JetScalar, k: int) -> JetScalar:
    """Formal partial derivative with respect to coordinate k (0-based)."""
    if not 0 <= k < a.dim:
        raise ValueError(f"coordinate index {k} out of range for dim {a.dim}")
    if a.order < 1:
        raise OrderExhaustedError("cannot differentiate an order-0 jet")
    nums = a.nums
    return _jet(a.dim, a.order - 1, a.den,
                [nums[i] * f for i, f in _partial_table(a.dim, a.order, k)])


def jet_truncate(a: JetScalar, order: int) -> JetScalar:
    """The same jet with every term above total degree ``order`` dropped."""
    if not 0 <= order <= a.order:
        raise ValueError(f"cannot truncate an order-{a.order} jet to order {order}")
    return _jet(a.dim, order, a.den, a.nums[:basis_size(a.dim, order)])


def jet_inverse(a: JetScalar) -> JetScalar:
    """Multiplicative inverse up to the truncation order.

    Uses the geometric series around the base value: with a = a0(1 + u),
    1/a = (1/a0) * sum_i (-u)^i, and u has no constant term so the series
    terminates at the truncation order.
    """
    a0 = value_at_base(a)
    if a0 == 0:
        raise NotInvertibleError("jet has zero value at the base point")
    u = _jet(a.dim, a.order, a.den, (0,) + a.nums[1:])
    result = JetScalar.constant(a.dim, a.order, 1 / a0)
    term = result
    for _ in range(a.order):
        term = jet_scale(-1 / a0, jet_mul(term, u))
        if term.is_zero():
            break
        result = jet_add(result, term)
    return result


def value_at_base(a: JetScalar) -> Fraction:
    return Fraction(a.nums[0], a.den)


def multi_indices(dim: int, order: int) -> Iterator[tuple[int, ...]]:
    """All exponent tuples of length dim with total degree at most order."""
    def rec(prefix: tuple[int, ...], remaining: int, budget: int):
        if remaining == 0:
            yield prefix
            return
        for e in range(budget + 1):
            yield from rec(prefix + (e,), remaining - 1, budget - e)
    return rec((), dim, order)
