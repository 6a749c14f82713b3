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
from typing import Callable, Iterator, Sequence

from .jets import (
    DimensionMismatchError,
    JetScalar,
    jet_add,
    jet_mul,
    jet_neg,
    jet_partial,
    jet_scale,
    jet_sum,
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
        order = None
        for c in components:
            if c.dim != dim:
                raise DimensionMismatchError("component dim differs from tensor dim")
            if order is None:
                order = c.order
            elif c.order != order:
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
    def build(cls, dim: int, valence: Sequence[str], order: int,
              component: Callable[[tuple[int, ...]], JetScalar]) -> "TensorField":
        valence = _check_valence(valence)
        comps = [component(idx) for idx in product(range(dim), repeat=len(valence))]
        if not comps:
            comps = [component(())]
        return cls(dim, valence, comps)

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
        return cls.build(dim, (UP, DOWN), order,
                         lambda idx: one if idx[0] == idx[1] else zero)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "valence": list(self.valence),
            "components": [c.to_json() for c in self.components],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TensorField":
        return cls(int(obj["dim"]), tuple(obj["valence"]),
                   [JetScalar.from_json(c) for c in obj["components"]])


def _require_same_shape(a: TensorField, b: TensorField) -> None:
    if a.dim != b.dim:
        raise DimensionMismatchError(f"tensor dims differ: {a.dim} vs {b.dim}")
    if a.valence != b.valence:
        raise ValenceMismatchError(
            f"valence mismatch: {a.valence} vs {b.valence}")


def tensor_add(a: TensorField, b: TensorField) -> TensorField:
    _require_same_shape(a, b)
    return TensorField(a.dim, a.valence,
                       [jet_add(x, y) for x, y in zip(a.components, b.components)])


def tensor_sub(a: TensorField, b: TensorField) -> TensorField:
    _require_same_shape(a, b)
    return TensorField(a.dim, a.valence,
                       [jet_add(x, jet_neg(y)) for x, y in zip(a.components, b.components)])


def tensor_neg(a: TensorField) -> TensorField:
    return TensorField(a.dim, a.valence, [jet_neg(c) for c in a.components])


def tensor_scale(c: JetScalar | Fraction | int, a: TensorField) -> TensorField:
    if isinstance(c, JetScalar):
        return TensorField(a.dim, a.valence, [jet_mul(c, x) for x in a.components])
    return TensorField(a.dim, a.valence, [jet_scale(c, x) for x in a.components])


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

    return TensorField.build(dim, out_valence, a.order, component)


def transpose(a: TensorField, perm: Sequence[int]) -> TensorField:
    """Reorder slots so that new slot t holds old slot perm[t]."""
    perm = tuple(perm)
    if sorted(perm) != list(range(a.rank)):
        raise ValueError(f"perm {perm!r} is not a permutation of the slots")
    valence = tuple(a.valence[p] for p in perm)
    return TensorField.build(
        a.dim, valence, a.order,
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
    return tensor_scale(Fraction(1, 2), tensor_add(a, _swapped(a, s1, s2)))


def antisym_pair(a: TensorField, s1: int, s2: int) -> TensorField:
    _check_pair(a, s1, s2)
    return tensor_scale(Fraction(1, 2), tensor_sub(a, _swapped(a, s1, s2)))


def partial_deriv_field(a: TensorField, k: int) -> TensorField:
    """Componentwise comma derivative; the valence is left unchanged.

    The result is not a tensor under coordinate change; callers that need
    a tensorial derivative go through the covariant-derivative builders.
    """
    return TensorField(a.dim, a.valence, [jet_partial(c, k) for c in a.components])


def flatten_at_base(a: TensorField) -> list[Fraction]:
    return [value_at_base(c) for c in a.components]
