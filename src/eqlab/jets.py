"""Truncated multivariate Taylor expansions with exact rational coefficients.

Every scalar quantity in this package is a jet: the expansion of a field
around the coordinate origin, truncated above a declared total degree.
:class:`JetScalar` is a value with one constructor.  The arithmetic is
exact and is this module's functions: the ring ``jet_add``, ``jet_neg``,
``jet_scale`` and ``jet_mul``, ``jet_partial`` and ``jet_inverse``.
Differentiation lowers the order by one and binary operations take the
minimum of the two orders, so a value always knows how many of its
derivatives are still trustworthy.

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

from functools import cache
from itertools import combinations_with_replacement
from math import comb, gcd, lcm
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:
    from fractions import Fraction


class DimensionMismatchError(ValueError):
    """Operands disagree on the number of coordinates."""


class OrderExhaustedError(ValueError):
    """A derivative was requested of a jet that has no derivatives left."""


class NotInvertibleError(ValueError):
    """Inversion of a jet whose value at the base point is zero."""


def _exact(value: int | Fraction) -> int | Fraction:
    """``value`` as an exact rational: an int or a ``Fraction`` as it is,
    a bool as a ``Fraction``; any other type raises ``TypeError``.
    Callers read only ``numerator`` and ``denominator``, so integer
    arithmetic never imports ``fractions``."""
    if type(value) is int:
        return value
    from fractions import Fraction

    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


# Cap on the dim of a loaded document and of ``--dim``.  At dim 7 the
# heaviest command, ``verify --order 3``, takes 21 s and 300 MB per
# instance; each further dim multiplies that (README table).
MAX_DIM = 7

# Cap on the order of a loaded connection, the highest ``--order``; with
# the cap lifted, a verify of a dim-7 order-4 pair takes 79 s and 965 MB
# (README).
MAX_ORDER = 3


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

# Bound on the numerators of one tensor contraction's result, dim ** rank
# times the basis size: the result is held whole.  The largest result of
# any verify, ranks or synth run at MAX_DIM is a rank-4 field at order 2,
# 7 ** 4 * 36 = 86436 numerators.
MAX_CONTRACT_OUTPUT = 10**6


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
    the nonzero ``Fraction`` coefficients.  Instances are immutable.  The
    one constructor takes coefficients by multi-index; a jet has no
    arithmetic operators, the module's ``jet_*`` functions are its ring.
    """

    __slots__ = ("dim", "order", "den", "nums")

    def __init__(self, dim: int, order: int,
                 coeffs: Mapping[tuple[int, ...], Fraction | int] | None = None):
        entries = {}
        for alpha, value in (coeffs or {}).items():
            value = _exact(value)
            entries[tuple(alpha)] = (value.numerator, value.denominator)
        # each value is in lowest terms, so the placement is canonical
        den, nums = _placed(dim, order, entries)
        _set_slots(self, dim, order, den, tuple(nums))

    def __setattr__(self, name, value):
        raise AttributeError("JetScalar is immutable")

    @property
    def coeffs(self) -> dict[tuple[int, ...], Fraction]:
        from fractions import Fraction

        den = self.den
        return {alpha: Fraction(n, den)
                for alpha, n in zip(graded_basis(self.dim, self.order), self.nums)
                if n}

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __eq__(self, other) -> bool:
        if not isinstance(other, JetScalar):
            return NotImplemented
        return (self.dim == other.dim and self.order == other.order
                and self.den == other.den and self.nums == other.nums)

    def __hash__(self) -> int:
        return hash((self.dim, self.order, self.den, self.nums))

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


def _set_slots(obj, *values) -> None:
    """Writes ``values`` to ``obj``'s slots in ``__slots__`` order, past the
    immutability guard: the way in of the trusted constructors."""
    for name, value in zip(type(obj).__slots__, values):
        object.__setattr__(obj, name, value)


def _reduced(den: int, nums) -> tuple[int, tuple[int, ...]]:
    """``(den, nums)`` with ``gcd(den, *nums)`` divided out: the canonical
    form of ``nums / den`` for ``den > 0``."""
    g = gcd(den, *nums)
    if g != 1:
        return den // g, tuple(n // g for n in nums)
    return den, tuple(nums)


def _jet(dim: int, order: int, den: int, nums) -> JetScalar:
    """Trusted constructor: ``nums`` fits the basis and ``den > 0``; the
    jet stores their canonical form."""
    jet = object.__new__(JetScalar)
    _set_slots(jet, dim, order, *_reduced(den, nums))
    return jet


def _placed(dim: int, order: int,
            entries: Mapping[tuple, tuple[int, int]]) -> tuple[int, list[int]]:
    """``(den, nums)`` of the jet with the coefficient ``n / d``, ``d > 0``,
    on each multi-index of ``entries``: the numerators on the graded
    basis over the lcm of the nonzero coefficients' denominators, not yet
    reduced.  The dim and the order are checked first, then every
    multi-index."""
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if order < 0:
        raise ValueError("order must be nonnegative")
    index = _basis_index(dim, order)
    for alpha in entries:
        # exact ints: 1.0 and True would pass as the index 1
        if len(alpha) != dim or any(type(e) is not int or e < 0 for e in alpha):
            raise ValueError(f"bad multi-index {alpha!r} for dim {dim}")
        if sum(alpha) > order:
            raise ValueError(f"multi-index {alpha!r} exceeds order {order}")
    den = lcm(*[d for n, d in entries.values() if n])
    nums = [0] * len(index)
    for alpha, (n, d) in entries.items():
        nums[index[alpha]] = n * (den // d)
    return den, nums


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


def jet_neg(a: JetScalar) -> JetScalar:
    return _jet(a.dim, a.order, a.den, [-x for x in a.nums])


def jet_scale(c: Fraction | int, a: JetScalar) -> JetScalar:
    c = _exact(c)
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


def jet_inverse(a: JetScalar) -> JetScalar:
    """Multiplicative inverse up to the truncation order, in integers.

    The geometric series around the base value: with a = (n0 + v) / den,
    where v has no constant term, 1/a = den * S / n0^(order + 1) with
    S = sum_k (-v)^k n0^(order - k), k = 0..order; (-v)^k vanishes above
    the order.  Horner's rule sums S: from S = 1, S <- S (-v) + n0^k for
    k = 1..order.
    """
    dim, order, n0 = a.dim, a.order, a.nums[0]
    if n0 == 0:
        raise NotInvertibleError("jet has zero value at the base point")
    minus_v = _jet(dim, order, 1, [0] + [-x for x in a.nums[1:]])
    s = _jet(dim, order, 1, [1] + [0] * (len(a.nums) - 1))
    for k in range(1, order + 1):
        s = jet_mul(s, minus_v)
        s = _jet(dim, order, 1, (s.nums[0] + n0 ** k,) + s.nums[1:])
    power = n0 ** (order + 1)
    den = a.den if power > 0 else -a.den
    return _jet(dim, order, abs(power), [den * x for x in s.nums])


@cache
def _lex_slots(dim: int, order: int) -> tuple[int, ...]:
    """The graded basis index of each monomial, in ascending lexicographic
    order of the exponent tuples: the order of documents and draws."""
    basis = graded_basis(dim, order)
    return tuple(sorted(range(len(basis)), key=basis.__getitem__))
