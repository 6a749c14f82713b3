"""Spaces with a non-symmetric affine connection.

A :class:`Space` carries connection coefficients Gamma^i_{jk} that need
not be symmetric in the two lower slots.  The symmetric part defines an
associated covariant derivative written ``;`` throughout, the
antisymmetric part is the torsion, and two further covariant-derivative
kinds use the full non-symmetric coefficients, one for each lower slot
that can meet the derivative direction.  The curvature of the symmetric
part generates a five-parameter family K(u, u', v, v', w) of
curvature-like tensors built from torsion corrections.
"""

from __future__ import annotations

import random
from functools import wraps
from typing import TYPE_CHECKING

from .tensors import (
    DOWN,
    UP,
    TensorField,
    antisym_pair,
    antisym_pair_nodiv,
    base_numerators,
    contract,
    gradient,
    random_field,
    sym_pair,
    tensor_contract,
    tensor_lincomb,
    tensor_truncate,
    transpose,
)

if TYPE_CHECKING:
    from fractions import Fraction

GAMMA_VALENCE = (UP, DOWN, DOWN)


class Keeper:
    """The owner of :func:`kept` methods, whose results its ``_cache``
    holds; the owner must not change once built."""

    def _cached(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]


def kept(build):
    """A method whose result is kept by its owner, keyed by the method's
    name and arguments.  A call that raises keeps nothing."""
    name = build.__name__

    @wraps(build)
    def method(self, *args):
        return self._cached((name, *args), lambda: build(self, *args))
    return method


class Space(Keeper):
    """Dimension plus connection field.

    The derived objects (symmetric part, torsion, trace, curvature,
    covariant derivative of torsion, torsion squares) are kept, since
    every command that reads one reads it more than once.  The
    connection's own parts keep its order o.  Whatever holds a derivative
    (curvature, torsion derivative) is at o - 1, and so are the torsion
    squares: every tensor they are summed with has lost one order, so
    their top coefficients would only be dropped.
    """

    def __init__(self, dim: int, gamma: TensorField):
        if dim < 2:
            raise ValueError("dim must be at least 2")
        if gamma.dim != dim or gamma.valence != GAMMA_VALENCE:
            raise ValueError("gamma must have valence (up, down, down) at the space dim")
        self.dim = dim
        self.gamma = gamma
        self._cache = {}

    @kept
    def sym(self) -> TensorField:
        """Symmetric part of the connection, Gamma^i_(jk)."""
        return sym_pair(self.gamma, 1, 2)

    @kept
    def torsion(self) -> TensorField:
        """Antisymmetric part of the connection."""
        return antisym_pair(self.gamma, 1, 2)

    @kept
    def trace_sym(self) -> TensorField:
        """The (0,1) contraction Gamma^a_{ja} of the symmetric part."""
        return contract(self.sym(), 0, 2)

    @kept
    def curvature(self) -> TensorField:
        return curvature_R(self)

    @kept
    def torsion_cd(self) -> TensorField:
        """Associated covariant derivative of the torsion, slots (i, j, m; n)."""
        return cov_deriv_assoc(self.torsion(), self)

    @kept
    def torsion_squares(self) -> tuple[TensorField, TensorField, TensorField]:
        """See :func:`torsion_square_terms`."""
        t = self.torsion()
        t = tensor_truncate(t, max(t.order - 1, 0))
        v_term = tensor_contract("ajm,ian->ijmn", t, t)
        # T^a_{jn} T^i_{am} is the first square with m and n exchanged
        return (v_term, transpose(v_term, (0, 1, 3, 2)),
                tensor_contract("amn,iaj->ijmn", t, t))


def _cov_deriv(a: TensorField, conn: TensorField) -> TensorField:
    """Shared skeleton: comma derivative plus one correction per slot.

    For derivative direction k, an up slot i of a is corrected by
    ``conn[i, alpha, k]`` times a with that slot replaced by alpha, and a
    down slot j by ``-conn[alpha, j, k]``: the derivative direction meets
    the last lower slot of ``conn``.  The derivative direction becomes a
    trailing covariant slot.  The comma derivative reads the whole of a
    and leaves order a.order - 1, so the correction products are taken
    from a and conn cut to that order.
    """
    comma = gradient(a)
    a, conn = tensor_truncate(a, comma.order), tensor_truncate(conn, comma.order)
    # a's slots are A, B, ...; k is the direction and s the summed index
    slots = "".join(chr(65 + t) for t in range(a.rank))
    terms = [(1, comma)]
    for t, v in enumerate(a.valence):
        replaced = slots[:t] + "s" + slots[t + 1:]
        if v == UP:
            spec, sign = f"{slots[t]}sk,{replaced}->{slots}k", 1
        else:
            spec, sign = f"s{slots[t]}k,{replaced}->{slots}k", -1
        terms.append((sign, tensor_contract(spec, conn, a)))
    return tensor_lincomb(terms)


def cov_deriv_assoc(a: TensorField, s: Space) -> TensorField:
    """Covariant derivative with respect to the symmetric part.

    Works for any valence, one correction term per slot; a scalar reduces
    to the comma derivative.  Contracted non-tensorial objects such as the
    connection trace are handled by treating them formally as fields of
    their apparent valence.
    """
    return _cov_deriv(a, s.sym())


def cov_deriv_kind(a: TensorField, s: Space, kind: int) -> TensorField:
    """One of the two covariant-derivative kinds of the full connection.

    The kinds differ in which lower slot of Gamma meets the derivative
    direction: kind 1 uses Gamma^i_{ak} on up slots and Gamma^a_{jk} on
    down slots, kind 2 the transposed pair.
    """
    if kind == 1:
        return _cov_deriv(a, s.gamma)
    if kind == 2:
        return _cov_deriv(a, transpose(s.gamma, (0, 2, 1)))
    raise ValueError(f"kind must be 1 or 2, got {kind}")


def curvature_R(s: Space) -> TensorField:
    """Curvature of the symmetric part, slots (i, j, m, n):
    G^i_{jm,n} + G^a_{jm} G^i_{an} less the same with m and n exchanged.

    The comma derivatives read the whole symmetric part; the quadratic
    term is taken from it cut to the derivatives' order.
    """
    comma = gradient(s.sym())
    sym = tensor_truncate(s.sym(), comma.order)
    return antisym_pair_nodiv(tensor_lincomb(
        [(1, comma), (1, tensor_contract("ajm,ian->ijmn", sym, sym))]), 2, 3)


def torsion_square_terms(s: Space) -> tuple[TensorField, TensorField, TensorField]:
    """The three quadratic torsion contractions entering the K family.

    Returns (T^a_{jm} T^i_{an}, T^a_{jn} T^i_{am}, T^a_{mn} T^i_{aj}),
    each with slots (i, j, m, n), as kept by the space.  They are at the
    torsion's order less one (never below 0), the order of the curvature
    and the torsion derivative they are summed with: the products are
    taken from the torsion cut to that order.
    """
    return s.torsion_squares()


def curvature_K(s: Space, u: Fraction | int, up: Fraction | int,
                v: Fraction | int, vp: Fraction | int,
                w: Fraction | int) -> TensorField:
    """Member of the five-parameter curvature family.

    K = R + u T^i_{jm;n} + u' T^i_{jn;m} + v T^a_{jm}T^i_{an}
      + v' T^a_{jn}T^i_{am} + w T^a_{mn}T^i_{aj},
    with ; the associated covariant derivative.
    """
    cd = s.torsion_cd()
    cd_swapped = transpose(cd, (0, 1, 3, 2))
    v_term, vp_term, w_term = torsion_square_terms(s)
    return tensor_lincomb([(1, s.curvature()), (u, cd), (up, cd_swapped),
                           (v, v_term), (vp, vp_term), (w, w_term)])


def random_connection(dim: int, order: int, seed: int) -> Space:
    """Space with independently drawn small-rational connection jets."""
    rng = random.Random(seed * 9176 + dim * 37 + order)
    return Space(dim, random_field(rng, dim, GAMMA_VALENCE, order))


SPAN_INSTANCES = 10  # random connections per curvature-family span


def curvature_family_span(dim: int, seed: int = 0, order: int = 2) -> int:
    """Span dimension of the five non-R coefficient tensors of the K family.

    Each of the five tensors is flattened at the base point on
    ``SPAN_INSTANCES`` random connections and the concatenated vectors
    are ranked exactly.  Torsion-free draws would be degenerate and are
    not used.  The draw is taken at `order`, which keeps the random
    stream, and then cut to order 1: one derivative reaches the base
    values, and nothing above it does.
    """
    from .linalg import RationalMatrix, rank_exact  # loaded by ranks alone

    rows: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(5)]
    for trial in range(SPAN_INSTANCES):
        drawn = random_connection(dim, order, seed * 1009 + trial)
        s = Space(dim, tensor_truncate(drawn.gamma, 1))
        cd = s.torsion_cd()
        tensors = (cd, transpose(cd, (0, 1, 3, 2))) + torsion_square_terms(s)
        for row, tensor in zip(rows, tensors):
            row.append(base_numerators(tensor))
    return rank_exact(RationalMatrix.from_runs(rows))
