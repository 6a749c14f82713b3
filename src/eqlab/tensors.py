"""Dense indexed tensor fields over jet scalars.

A tensor field is a rectangular array of :class:`~eqlab.jets.JetScalar`
components addressed by a tuple of slot indices, together with a valence
that records whether each slot is contravariant (``"up"``) or covariant
(``"down"``).  Slots are identified by 0-based position; index names live
one layer up, in the expression DSL.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm
from typing import Callable, Iterator, Sequence

from .jets import (
    DimensionMismatchError,
    JetScalar,
    _jet,
    as_rational,
    basis_size,
    jet_mul,
    jet_partial,
    jet_sum,
    jet_truncate,
    json_int,
    value_at_base,
)

UP = "up"
DOWN = "down"


class ValenceMismatchError(ValueError):
    """Slot signatures do not line up for the requested operation."""


def _check_valence(valence: Sequence[str]) -> tuple[str, ...]:
    valence = tuple(valence)
    for v in valence:
        if v not in (UP, DOWN):
            raise ValueError(f"valence entries must be 'up' or 'down', got {v!r}")
    return valence


class TensorField:
    """Dense array of jets with a declared slot signature.

    Components are stored row-major over the slot tuple; all components
    share dim and order.
    """

    __slots__ = ("dim", "valence", "components")

    def __init__(self, dim: int, valence: Sequence[str],
                 components: Sequence[JetScalar]):
        valence = _check_valence(valence)
        components = tuple(components)
        if len(components) != dim ** len(valence):
            raise ValueError(
                f"expected {dim ** len(valence)} components, got {len(components)}")
        for c in components:
            if c.dim != dim:
                raise DimensionMismatchError("component dim differs from tensor dim")
            if c.order != components[0].order:
                raise ValueError("components must share one truncation order")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "valence", valence)
        object.__setattr__(self, "components", components)

    def __setattr__(self, name, value):
        raise AttributeError("TensorField is immutable")

    @property
    def rank(self) -> int:
        return len(self.valence)

    @property
    def order(self) -> int:
        return self.components[0].order

    def _offset(self, idx: tuple[int, ...]) -> int:
        if len(idx) != self.rank:
            raise IndexError(f"expected {self.rank} indices, got {len(idx)}")
        offset = 0
        for i in idx:
            if not 0 <= i < self.dim:
                raise IndexError(f"index {i} out of range for dim {self.dim}")
            offset = offset * self.dim + i
        return offset

    def __getitem__(self, idx) -> JetScalar:
        if isinstance(idx, int):
            idx = (idx,)
        return self.components[self._offset(tuple(idx))]

    def indices(self) -> Iterator[tuple[int, ...]]:
        return product(range(self.dim), repeat=self.rank)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorField):
            return NotImplemented
        return (self.dim == other.dim and self.valence == other.valence
                and self.components == other.components)

    def __hash__(self) -> int:
        return hash((self.dim, self.valence, self.components))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

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
        z = JetScalar.zero(dim, order)
        return cls(dim, valence, [z] * (dim ** len(_check_valence(valence))))

    @classmethod
    def scalar(cls, dim: int, order: int, value: JetScalar | Fraction | int) -> "TensorField":
        if not isinstance(value, JetScalar):
            value = JetScalar.constant(dim, order, value)
        return cls(dim, (), [value])

    @classmethod
    def delta(cls, dim: int, order: int) -> "TensorField":
        """Kronecker delta with valence (up, down)."""
        one = JetScalar.constant(dim, order, 1)
        zero = JetScalar.zero(dim, order)
        return cls.build(dim, (UP, DOWN),
                         lambda idx: one if idx[0] == idx[1] else zero)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "valence": list(self.valence),
            "components": [c.to_json() for c in self.components],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TensorField":
        return cls(json_int(obj["dim"], "a tensor dim"), tuple(obj["valence"]),
                   [JetScalar.from_json(c) for c in obj["components"]])


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

    Each component sums integer numerators over one common denominator
    and is reduced once, the dense linear combination of truncated Taylor
    series (Griewank & Walther, *Evaluating Derivatives*, ch. 13).
    """
    terms = [(as_rational(c), t) for c, t in terms]
    if not terms:
        raise ValueError("a linear combination needs at least one term")
    first = terms[0][1]
    for _, t in terms[1:]:
        _require_same_shape(first, t)
    live = [(c, t) for c, t in terms if c] or terms
    if len(live) == 1 and live[0][0] == 1:
        return live[0][1]
    dim = first.dim
    order = min(t.order for _, t in live)
    size = basis_size(dim, order)
    scales = [(c.numerator, c.denominator) for c, _ in live]
    components = []
    for jets in zip(*(t.components for _, t in live)):
        den = lcm(*[cd * j.den for (_, cd), j in zip(scales, jets)])
        nums = [0] * size
        for (cn, cd), j in zip(scales, jets):
            f = cn * (den // (cd * j.den))
            # zip stops at the basis prefix of the result's order
            nums = [x + f * y for x, y in zip(nums, j.nums)]
        components.append(_jet(dim, order, den, nums))
    return TensorField(dim, first.valence, components)


def tensor_add(a: TensorField, b: TensorField) -> TensorField:
    return tensor_lincomb([(1, a), (1, b)])


def tensor_sub(a: TensorField, b: TensorField) -> TensorField:
    return tensor_lincomb([(1, a), (-1, b)])


def tensor_neg(a: TensorField) -> TensorField:
    return tensor_lincomb([(-1, a)])


def tensor_scale(c: Fraction | int, a: TensorField) -> TensorField:
    return tensor_lincomb([(c, a)])


def outer(a: TensorField, b: TensorField) -> TensorField:
    if a.dim != b.dim:
        raise DimensionMismatchError(f"tensor dims differ: {a.dim} vs {b.dim}")
    comps = [jet_mul(x, y) for x in a.components for y in b.components]
    return TensorField(a.dim, a.valence + b.valence, comps)


def contract(a: TensorField, slot_up: int, slot_down: int) -> TensorField:
    """Sum over a shared range of one contravariant and one covariant slot."""
    if slot_up == slot_down:
        raise ValueError("contraction slots must differ")
    if a.valence[slot_up] != UP:
        raise ValenceMismatchError(f"slot {slot_up} is not contravariant")
    if a.valence[slot_down] != DOWN:
        raise ValenceMismatchError(f"slot {slot_down} is not covariant")
    dim = a.dim
    keep = [t for t in range(a.rank) if t not in (slot_up, slot_down)]
    out_valence = tuple(a.valence[t] for t in keep)

    def component(out_idx: tuple[int, ...]) -> JetScalar:
        kept = dict(zip(keep, out_idx))
        # every slot not kept is one of the two contracted ones
        return jet_sum(a[tuple(kept.get(t, alpha) for t in range(a.rank))]
                       for alpha in range(dim))

    return TensorField.build(dim, out_valence, component)


def transpose(a: TensorField, perm: Sequence[int]) -> TensorField:
    """Reorder slots so that new slot t holds old slot perm[t]."""
    perm = tuple(perm)
    if sorted(perm) != list(range(a.rank)):
        raise ValueError(f"perm {perm!r} is not a permutation of the slots")
    valence = tuple(a.valence[p] for p in perm)
    return TensorField.build(
        a.dim, valence,
        lambda idx: a[tuple(idx[perm.index(t)] for t in range(a.rank))])


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
    _check_pair(a, s1, s2)
    half = Fraction(1, 2)
    return tensor_lincomb([(half, a), (half, _swapped(a, s1, s2))])


def antisym_pair(a: TensorField, s1: int, s2: int) -> TensorField:
    _check_pair(a, s1, s2)
    half = Fraction(1, 2)
    return tensor_lincomb([(half, a), (-half, _swapped(a, s1, s2))])


def partial_deriv_field(a: TensorField, k: int) -> TensorField:
    """Componentwise comma derivative; the valence is left unchanged.

    The result is not a tensor under coordinate change; callers that need
    a tensorial derivative go through the covariant-derivative builders.
    """
    return TensorField(a.dim, a.valence, [jet_partial(c, k) for c in a.components])


def tensor_truncate(a: TensorField, order: int) -> TensorField:
    """``a`` with every component cut to ``order``; ``a`` itself when its
    order is no higher."""
    if order >= a.order:
        return a
    return TensorField(a.dim, a.valence, [jet_truncate(c, order) for c in a.components])


def flatten_at_base(a: TensorField) -> list[Fraction]:
    return [value_at_base(c) for c in a.components]
