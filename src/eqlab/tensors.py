"""Dense indexed tensor fields over jet scalars.

A tensor field has one :class:`~eqlab.jets.JetScalar` component per
tuple of slot indices, and a valence that records whether each slot is
contravariant (``"up"``) or covariant (``"down"``).  Slots are
identified by 0-based position; index names live one layer up, in the
expression DSL.

A field stores all its components as one jet would store one: integer
numerators over one shared denominator, the components' coefficient
blocks laid end to end in row-major order.  Linear combinations, zero
tests, slot permutations, derivatives and truncations work on that flat
list, with one lcm and one gcd per result, and every sum of products,
from an outer product to a contraction, is one einsum over it,
:func:`tensor_contract`.  Single components are read as jet views.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations_with_replacement, product
from math import lcm
from random import Random
from typing import TYPE_CHECKING, Callable, Sequence

from .jets import (
    MAX_CONTRACT_OUTPUT,
    DimensionMismatchError,
    JetScalar,
    OrderExhaustedError,
    _exact,
    _jet,
    _lex_slots,
    _mul_table,
    _partial_table,
    _reduced,
    _set_slots,
    basis_size,
)

if TYPE_CHECKING:
    from fractions import Fraction

UP = "up"
DOWN = "down"


class ValenceMismatchError(ValueError):
    """Slot signatures do not line up for the requested operation."""


class OutputTooLargeError(ValueError):
    """A contraction's result would exceed ``MAX_CONTRACT_OUTPUT``."""


def _check_valence(valence: Sequence[str]) -> tuple[str, ...]:
    valence = tuple(valence)
    for v in valence:
        if v not in (UP, DOWN):
            raise ValueError(f"valence entries must be 'up' or 'down', got {v!r}")
    return valence


class TensorField:
    """Jet components over every slot-index tuple, with a declared valence.

    The field is stored as ``(dim, valence, order, den, nums)``: one
    positive denominator ``den`` and one tuple of integer numerators
    ``nums``.  ``nums`` holds the components' coefficient blocks, each
    ``basis_size(dim, order)`` long on the jets' graded basis, in
    row-major order over the slot tuple, so the coefficient of monomial i
    in component k is ``nums[k * size + i] / den``.  The form is
    canonical: ``gcd(den, *nums) == 1``, and the zero field has
    ``den == 1``, so equal fields have equal storage.

    ``t[idx]`` and ``components`` are views, built on demand: each is a
    slice of ``nums`` reduced to a canonical :class:`JetScalar`.
    Instances are immutable.
    """

    __slots__ = ("dim", "valence", "order", "den", "nums")

    def __init__(self, dim: int, valence: Sequence[str],
                 components: Sequence[JetScalar]):
        valence = _check_valence(valence)
        _set_slots(self, *_assemble(dim, valence, [
            (c.dim, c.order, c.den, c.nums) for c in components]))

    def __setattr__(self, name, value):
        raise AttributeError("TensorField is immutable")

    @property
    def rank(self) -> int:
        return len(self.valence)

    @property
    def components(self) -> tuple[JetScalar, ...]:
        """Every component as a jet view, row-major."""
        dim, order, den, nums = self.dim, self.order, self.den, self.nums
        size = basis_size(dim, order)
        return tuple(_jet(dim, order, den, nums[i:i + size])
                     for i in range(0, len(nums), size))

    def __getitem__(self, idx) -> JetScalar:
        idx = (idx,) if isinstance(idx, int) else tuple(idx)
        dim, order = self.dim, self.order
        offset = _offsets(dim, len(self.valence)).get(idx)
        if offset is None:
            raise _index_error(idx, dim, len(self.valence))
        size = basis_size(dim, order)
        start = offset * size
        return _jet(dim, order, self.den, self.nums[start:start + size])

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorField):
            return NotImplemented
        return (self.dim == other.dim and self.valence == other.valence
                and self.order == other.order and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self) -> int:
        return hash((self.dim, self.valence, self.order, self.den, self.nums))

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __repr__(self) -> str:
        sig = ",".join("^" if v == UP else "_" for v in self.valence)
        return (f"TensorField(dim={self.dim}, valence=({sig}), "
                f"order={self.order}, zero={self.is_zero()})")

    @classmethod
    def build(cls, dim: int, valence: Sequence[str],
              component: Callable[[tuple[int, ...]], JetScalar]) -> "TensorField":
        """Components evaluated row-major; their order is the field's."""
        valence = _check_valence(valence)
        return cls(dim, valence, [component(idx) for idx in
                                  product(range(dim), repeat=len(valence))])

    @classmethod
    def zero(cls, dim: int, valence: Sequence[str], order: int) -> "TensorField":
        return _constant(dim, _check_valence(valence), order, 0, ())

    @classmethod
    def scalar(cls, dim: int, order: int, value: Fraction | int) -> "TensorField":
        """The rank-0 field of the constant ``value``."""
        return _constant(dim, (), order, value, (0,))

    @classmethod
    def delta(cls, dim: int, order: int) -> "TensorField":
        """Kronecker delta with valence (up, down): 1 on the diagonal
        blocks, dim + 1 blocks apart."""
        return _constant(dim, (UP, DOWN), order, 1, range(0, dim * dim, dim + 1))


def _assemble(dim: int, valence: tuple[str, ...], blocks: list) -> tuple:
    """``(dim, valence, order, den, nums)`` of the field whose components,
    row-major, are the ``(dim, order, den, nums)`` jet blocks, laid end to
    end over the lcm of their denominators.  ``nums`` is canonical when
    every block is."""
    if dim < 1:
        raise ValueError(f"tensor dim must be at least 1, got {dim}")
    if len(blocks) != dim ** len(valence):
        raise ValueError(
            f"expected {dim ** len(valence)} components, got {len(blocks)}")
    order = blocks[0][1]
    for block_dim, block_order, _, _ in blocks:
        if block_dim != dim:
            raise DimensionMismatchError("component dim differs from tensor dim")
        if block_order != order:
            raise ValueError("components must share one truncation order")
    den = lcm(*[block[2] for block in blocks])
    nums: list[int] = []
    for _, _, block_den, block in blocks:
        f = den // block_den
        nums += block if f == 1 else [f * x for x in block]
    return dim, valence, order, den, tuple(nums)


def _field(dim: int, valence: tuple[str, ...], order: int, den: int,
           nums) -> TensorField:
    """Trusted constructor: ``nums`` holds ``dim ** rank`` blocks of the
    order's basis size and ``den > 0``; the field stores their canonical
    form."""
    t = object.__new__(TensorField)
    _set_slots(t, dim, valence, order, *_reduced(den, nums))
    return t


def _constant(dim: int, valence: tuple[str, ...], order: int,
              value: Fraction | int, blocks) -> TensorField:
    """The field whose components at the row-major offsets ``blocks`` are
    the constant ``value`` and whose others are zero."""
    if dim < 1:
        raise ValueError(f"tensor dim must be at least 1, got {dim}")
    if order < 0:
        raise ValueError("order must be nonnegative")
    value, size = _exact(value), basis_size(dim, order)
    nums = [0] * (dim ** len(valence) * size)
    for k in blocks:
        nums[k * size] = value.numerator
    return _field(dim, valence, order, value.denominator, nums)


@cache
def _offsets(dim: int, rank: int) -> dict[tuple[int, ...], int]:
    """Row-major block offset of every index tuple of the slot shape."""
    return {idx: k for k, idx in enumerate(product(range(dim), repeat=rank))}


def _index_error(idx: tuple, dim: int, rank: int) -> IndexError:
    if len(idx) != rank:
        return IndexError(f"expected {rank} indices, got {len(idx)}")
    for i in idx:
        if not 0 <= i < dim:
            return IndexError(f"index {i} out of range for dim {dim}")
    return IndexError(f"index {idx!r} is not a tuple of ints")


def _cut(a: TensorField, order: int):
    """``a``'s numerators with every block cut to the basis of ``order``."""
    size, keep = basis_size(a.dim, a.order), basis_size(a.dim, order)
    nums = a.nums
    if keep == size:
        return nums
    return [x for start in range(0, len(nums), size)
            for x in nums[start:start + keep]]


def random_field(rng: Random, dim: int, valence: Sequence[str], order: int,
                 symmetric: bool = False) -> TensorField:
    """A field of small random rationals n/d, n in -9..9 and d in 1..9.

    Each component, row-major, draws ``(rng.randint(-9, 9),
    rng.randint(1, 9))`` for each monomial, by ascending exponent tuple.  A
    ``symmetric`` field has two slots and draws only its components
    (j, k) with j <= k, in that order; (k, j) repeats (j, k).

    Each draw is made from ``rng.getrandbits`` as CPython's ``randint``
    makes it (``Random._randbelow_with_getrandbits``, Python 3.10 and
    later): n is -9 plus the first ``getrandbits(5)`` below 19, and d is
    1 plus the first ``getrandbits(4)`` below 9.  The values and the
    generator's state afterwards are those of the ``randint`` calls.
    """
    valence = _check_valence(valence)
    size = basis_size(dim, order)
    count = dim ** len(valence)
    if symmetric:
        if len(valence) != 2:
            raise ValueError("a symmetric field has two slots")
        upper = list(combinations_with_replacement(range(dim), 2))
        count = len(upper)
    getrandbits = rng.getrandbits
    ns, ds = [], []
    for _ in range(count * size):
        n = getrandbits(5)
        while n >= 19:
            n = getrandbits(5)
        d = getrandbits(4)
        while d >= 9:
            d = getrandbits(4)
        ns.append(n - 9)
        ds.append(d + 1)
    den = lcm(*ds)
    drawn = [n * (den // d) for n, d in zip(ns, ds)]
    # the draw position of each graded basis slot
    slots = _lex_slots(dim, order)
    place = sorted(range(size), key=slots.__getitem__)
    nums = [drawn[start + p] for start in range(0, len(drawn), size)
            for p in place]
    if symmetric:
        block = {jk: nums[b * size:(b + 1) * size]
                 for b, jk in enumerate(upper)}
        nums = [x for j, k in product(range(dim), repeat=2)
                for x in block[min(j, k), max(j, k)]]
    return _field(dim, valence, order, den, nums)


def _require_same_shape(a: TensorField, b: TensorField) -> None:
    if a.dim != b.dim:
        raise DimensionMismatchError(f"tensor dims differ: {a.dim} vs {b.dim}")
    if a.valence != b.valence:
        raise ValenceMismatchError(
            f"valence mismatch: {a.valence} vs {b.valence}")


def tensor_lincomb(terms: Sequence[tuple[Fraction | int, TensorField]],
                   ) -> TensorField:
    """The sum of c * T over ``(rational c, tensor T)`` pairs, at the lowest
    order among the terms whose c is nonzero (among all when none is).

    Sums the flat numerator lists over one common denominator in one pass
    and reduces once, the dense linear combination of truncated Taylor
    series (Griewank & Walther, *Evaluating Derivatives*, ch. 13).
    """
    terms = [(_exact(c), t) for c, t in terms]
    if not terms:
        raise ValueError("a linear combination needs at least one term")
    first = terms[0][1]
    for _, t in terms[1:]:
        _require_same_shape(first, t)
    live = [(c, t) for c, t in terms if c] or terms
    if len(live) == 1 and live[0][0] == 1:
        return live[0][1]
    order = min(t.order for _, t in live)
    den = lcm(*[c.denominator * t.den for c, t in live])
    nums = None
    for c, t in live:
        f = c.numerator * (den // (c.denominator * t.den))
        src = _cut(t, order)
        nums = ([f * y for y in src] if nums is None
                else [x + f * y for x, y in zip(nums, src)])
    return _field(first.dim, first.valence, order, den, nums)


def tensor_add(a: TensorField, b: TensorField) -> TensorField:
    return tensor_lincomb([(1, a), (1, b)])


def tensor_sub(a: TensorField, b: TensorField) -> TensorField:
    return tensor_lincomb([(1, a), (-1, b)])


def tensor_neg(a: TensorField) -> TensorField:
    return tensor_lincomb([(-1, a)])


def tensor_scale(c: Fraction | int, a: TensorField) -> TensorField:
    return tensor_lincomb([(c, a)])


@cache
def _contract_plan(spec: str, dim: int, valence_a: tuple[str, ...],
                   valence_b: tuple[str, ...], size: int,
                   ) -> tuple[tuple[str, ...], tuple[tuple[int, ...], ...]]:
    """The output valence of ``spec`` and, for each output block, row-major,
    the block offsets ``(ka, kb, ka, kb, ...)`` of the products it sums.

    ``size`` is the basis size of one output block; an output of more
    than ``MAX_CONTRACT_OUTPUT`` numerators is refused before any offset
    is computed."""
    try:
        inputs, out = spec.split("->")
        left, right = inputs.split(",")
    except ValueError:
        raise ValueError(f"contraction spec {spec!r} is not 'x,y->z'") from None
    if (len(left), len(right)) != (len(valence_a), len(valence_b)):
        raise ValueError(f"contraction spec {spec!r} does not fit slots "
                         f"{valence_a} and {valence_b}")
    slots: dict[str, list[str]] = {}
    for letter, v in zip(left + right, valence_a + valence_b):
        slots.setdefault(letter, []).append(v)
    for letter, vs in slots.items():
        if len(vs) > 2:
            raise ValueError(f"index {letter!r} is used {len(vs)} times")
        if len(vs) == 2 and sorted(vs) != [DOWN, UP]:
            raise ValenceMismatchError(
                f"summed index {letter!r} must pair an up and a down slot")
    free = [letter for letter, vs in slots.items() if len(vs) == 1]
    if sorted(out) != sorted(free):
        raise ValueError(f"contraction spec {spec!r} must list each free "
                         "index once on the right, and no summed one")
    if dim ** len(out) * size > MAX_CONTRACT_OUTPUT:
        raise OutputTooLargeError(
            f"a product with {len(out)} free indices at dim {dim} would "
            f"hold {dim ** len(out) * size} coefficients, more than the "
            f"limit of {MAX_CONTRACT_OUTPUT}")
    summed = [letter for letter, vs in slots.items() if len(vs) == 2]

    def offsets(letters: list[str], side: str) -> list[int]:
        """The block offset on one side of every value of ``letters``,
        row-major: a letter adds its value times the strides of every
        slot it names on that side."""
        weight = dict.fromkeys(letters, 0)
        for p, letter in enumerate(side):
            if letter in weight:
                weight[letter] += dim ** (len(side) - 1 - p)
        values = [0]
        for letter in letters:
            w = weight[letter]
            values = [v + w * i for v in values for i in range(dim)]
        return values

    sum_a, sum_b = offsets(summed, left), offsets(summed, right)
    pairs = [0] * (2 * len(sum_a))
    plan = []
    for ka, kb in zip(offsets(out, left), offsets(out, right)):
        pairs[0::2] = [ka + k for k in sum_a]
        pairs[1::2] = [kb + k for k in sum_b]
        plan.append(tuple(pairs))
    return tuple(slots[letter][0] for letter in out), tuple(plan)


def tensor_contract(spec: str, a: TensorField, b: TensorField) -> TensorField:
    """Exact einsum of two fields, for example ``"ajm,ian->ijmn"``: the
    sum over each index named twice of the products of ``a``'s and ``b``'s
    components, at the lower of the two orders, with the free indices in
    the order written after ``->``.

    A summed index pairs one up slot with one down slot; a free index is
    named once on the left and once on the right.  Every output block is
    a Cauchy product convolution of integer numerators through
    ``jets._mul_table``, over the one denominator ``a.den * b.den``, and
    the result is reduced once.  The notation follows ``numpy.einsum``.
    """
    if a.dim != b.dim:
        raise DimensionMismatchError(f"tensor dims differ: {a.dim} vs {b.dim}")
    dim, order = a.dim, min(a.order, b.order)
    table = _mul_table(dim, order)
    size = len(table)
    valence, plan = _contract_plan(spec, dim, a.valence, b.valence, size)
    step_a, step_b = basis_size(dim, a.order), basis_size(dim, b.order)
    an, bn = a.nums, b.nums
    out: list[int] = []
    for pairs in plan:
        acc = [0] * size
        for k in range(0, len(pairs), 2):
            start, y = pairs[k] * step_a, pairs[k + 1] * step_b
            # zip stops at the end of the table, so a longer block of a is
            # truncated; the table never reaches past b's order either
            for x, row in zip(an[start:start + size], table):
                if x:
                    for j, m in row:
                        acc[m] += x * bn[y + j]
        out += acc
    return _field(dim, valence, order, a.den * b.den, out)


def outer(a: TensorField, b: TensorField) -> TensorField:
    """Tensor product: the slots of a, then the slots of b."""
    letters = "".join(chr(65 + k) for k in range(a.rank + b.rank))
    return tensor_contract(
        f"{letters[:a.rank]},{letters[a.rank:]}->{letters}", a, b)


def contract(a: TensorField, slot_up: int, slot_down: int) -> TensorField:
    """Sum over a shared range of one contravariant and one covariant slot."""
    if slot_up == slot_down:
        raise ValueError("contraction slots must differ")
    if a.valence[slot_up] != UP:
        raise ValenceMismatchError(f"slot {slot_up} is not contravariant")
    if a.valence[slot_down] != DOWN:
        raise ValenceMismatchError(f"slot {slot_down} is not covariant")
    letters = [chr(65 + t) for t in range(a.rank)]
    letters[slot_down] = letters[slot_up]
    kept = "".join(x for x in letters if x != letters[slot_up])
    # the constant 1 as the first factor reads one entry per block
    return tensor_contract(f",{''.join(letters)}->{kept}",
                           TensorField.scalar(a.dim, a.order, 1), a)


@cache
def _transpose_sources(dim: int, perm: tuple[int, ...]) -> tuple[int, ...]:
    """For each output block, row-major, the input block it copies."""
    offsets = _offsets(dim, len(perm))
    return tuple(offsets[tuple(idx[perm.index(t)] for t in range(len(perm)))]
                 for idx in product(range(dim), repeat=len(perm)))


def transpose(a: TensorField, perm: Sequence[int]) -> TensorField:
    """Reorder slots so that new slot t holds old slot perm[t]."""
    perm = tuple(perm)
    if sorted(perm) != list(range(a.rank)):
        raise ValueError(f"perm {perm!r} is not a permutation of the slots")
    valence = tuple(a.valence[p] for p in perm)
    size, nums = basis_size(a.dim, a.order), a.nums
    out = []
    for k in _transpose_sources(a.dim, perm):
        out.extend(nums[k * size:(k + 1) * size])
    return _field(a.dim, valence, a.order, a.den, out)


def _swapped(a: TensorField, s1: int, s2: int) -> TensorField:
    perm = list(range(a.rank))
    perm[s1], perm[s2] = perm[s2], perm[s1]
    return transpose(a, perm)


def _check_pair(a: TensorField, s1: int, s2: int) -> None:
    if s1 == s2:
        raise ValueError("slot pair must be distinct")
    if a.valence[s1] != a.valence[s2]:
        raise ValenceMismatchError(
            f"slots {s1} and {s2} have different variance")


def antisym_pair_nodiv(a: TensorField, s1: int, s2: int) -> TensorField:
    """T[s1 s2] = T(s1,s2) - T(s2,s1), with no division by two."""
    _check_pair(a, s1, s2)
    return tensor_sub(a, _swapped(a, s1, s2))


def sym_pair(a: TensorField, s1: int, s2: int) -> TensorField:
    from fractions import Fraction

    _check_pair(a, s1, s2)
    half = Fraction(1, 2)
    return tensor_lincomb([(half, a), (half, _swapped(a, s1, s2))])


def antisym_pair(a: TensorField, s1: int, s2: int) -> TensorField:
    from fractions import Fraction

    _check_pair(a, s1, s2)
    half = Fraction(1, 2)
    return tensor_lincomb([(half, a), (-half, _swapped(a, s1, s2))])


def partial_deriv_field(a: TensorField, k: int) -> TensorField:
    """Componentwise comma derivative, the direction-k blocks of
    :func:`gradient`; the valence is left unchanged.  The result is not a
    tensor under coordinate change; callers that need a tensorial
    derivative go through the covariant-derivative builders."""
    if not 0 <= k < a.dim:
        raise ValueError(f"coordinate index {k} out of range for dim {a.dim}")
    g = gradient(a)
    size, nums = basis_size(g.dim, g.order), g.nums
    out = [x for start in range(k * size, len(nums), a.dim * size)
           for x in nums[start:start + size]]
    return _field(a.dim, a.valence, g.order, g.den, out)


def gradient(a: TensorField) -> TensorField:
    """Every comma derivative of ``a`` in one field, the direction k as a
    new trailing covariant slot: ``gradient(a)[idx + (k,)]`` is
    ``partial_deriv_field(a, k)[idx]``."""
    if a.order < 1:
        raise OrderExhaustedError("cannot differentiate an order-0 jet")
    tables = [_partial_table(a.dim, a.order, k) for k in range(a.dim)]
    size, nums = basis_size(a.dim, a.order), a.nums
    out = [nums[start + i] * f for start in range(0, len(nums), size)
           for table in tables for i, f in table]
    return _field(a.dim, a.valence + (DOWN,), a.order - 1, a.den, out)


def tensor_truncate(a: TensorField, order: int) -> TensorField:
    """``a`` with every component cut to ``order``; ``a`` itself when its
    order is no higher."""
    if order >= a.order:
        return a
    if order < 0:
        raise ValueError(f"cannot truncate an order-{a.order} jet to order {order}")
    return _field(a.dim, a.valence, order, a.den, _cut(a, order))


def base_numerators(a: TensorField) -> tuple[int, tuple[int, ...]]:
    """The value at the base point of every component, row-major, as
    integer numerators over ``a.den``: ``(a.den, numerators)``."""
    return a.den, a.nums[::basis_size(a.dim, a.order)]


def flatten_at_base(a: TensorField) -> list[Fraction]:
    """The value at the base point of every component, row-major."""
    from fractions import Fraction

    den, nums = base_numerators(a)
    return [Fraction(n, den) for n in nums]
