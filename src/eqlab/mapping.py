"""Equitorsion third-type almost geodesic mappings with reciprocity.

The mapping data (psi, sigma, phi, nu, mu, kind) deforms a connection by
a symmetric increment, so torsion is preserved, and constrains phi by the
basic equation phi^i_{s|j} = nu_j phi^i + mu d^i_j in the chosen kind.
The module turns that constraint around to synthesize exact witnesses:
random rational instances on which every residual in the package is
required to vanish identically, not merely approximately.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from .geometry import GAMMA_VALENCE, Space, cov_deriv_kind
from .jets import JetScalar, basis_size, jet_inverse
from .tensors import (
    DOWN,
    UP,
    TensorField,
    _field,
    gradient,
    random_field,
    tensor_add,
    tensor_contract,
    tensor_lincomb,
    tensor_neg,
    tensor_sub,
    tensor_truncate,
    transpose,
)

if TYPE_CHECKING:
    from fractions import Fraction


class BasicEquationError(ValueError):
    """The mapping data does not satisfy its basic equation on this space."""


class ReciprocityError(ValueError):
    """The inverse mapping does not carry the image back onto the source."""


class FactorizationMismatch(AssertionError):
    """The factorized connection difference failed to match; carries the residual."""

    def __init__(self, residual: TensorField):
        super().__init__("factorized form differs from the symmetric-part difference")
        self.residual = residual


class SynthesisError(RuntimeError):
    """Synthesis failed, by unlucky draws or by a bug: never a bad input."""


class AG3Mapping:
    """Data of a third-type almost geodesic mapping of one of the two kinds.

    Every field is a ``TensorField``, mu a rank-0 one, whose document is
    its one jet block.  phi is stored one order above the other fields
    because the basic equation consumes one derivative of it.
    """

    def __init__(self, psi: TensorField, sigma: TensorField, phi: TensorField,
                 nu: TensorField, mu: TensorField, kind: int):
        dim = phi.dim
        if kind not in (1, 2):
            raise ValueError(f"kind must be 1 or 2, got {kind}")
        if psi.valence != (DOWN,) or nu.valence != (DOWN,):
            raise ValueError("psi and nu must have valence (down,)")
        if phi.valence != (UP,):
            raise ValueError("phi must have valence (up,)")
        if sigma.valence != (DOWN, DOWN):
            raise ValueError("sigma must have valence (down, down)")
        if mu.valence != ():
            raise ValueError("mu must be a rank-0 field")
        for field in (psi, sigma, nu):
            if field.dim != dim:
                raise ValueError("mapping fields must share one dimension")
        if mu.dim != dim:
            raise ValueError("mu must share the mapping dimension")
        if transpose(sigma, (1, 0)) != sigma:
            raise ValueError("sigma must be exactly symmetric")
        self.psi = psi
        self.sigma = sigma
        self.phi = phi
        self.nu = nu
        self.mu = mu
        self.kind = kind
        self.dim = dim

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AG3Mapping):
            return NotImplemented
        return (self.kind == other.kind and self.psi == other.psi
                and self.sigma == other.sigma and self.phi == other.phi
                and self.nu == other.nu and self.mu == other.mu)

    __hash__ = None

    def sigma_phi(self) -> TensorField:
        """The (0,1) contraction sigma_{ja} phi^a."""
        return tensor_contract("ja,a->j", self.sigma, self.phi)

    def psi_phi(self) -> TensorField:
        """The rank-0 field psi_a phi^a."""
        return tensor_contract("a,a->", self.psi, self.phi)


def _increment(x: TensorField, c: Fraction, sigma: TensorField,
               phi: TensorField, c_phi: Fraction) -> list:
    """The terms of c (x_j d^i_k + x_k d^i_j) + c_phi sigma_{jk} phi^i,
    slots (i, j, k), for ``tensor_lincomb``."""
    delta = TensorField.delta(x.dim, x.order)
    return [(c, tensor_contract("ik,j->ijk", delta, x)),
            (c, tensor_contract("ij,k->ijk", delta, x)),
            (c_phi, tensor_contract("jk,i->ijk", sigma, phi))]


def transform_connection(s: Space, m: AG3Mapping) -> Space:
    """Image space with the deformed connection.

    Gammabar^i_{jk} = Gamma^i_{jk} + psi_j d^i_k + psi_k d^i_j
    + 2 sigma_{jk} phi^i; the increment is symmetric in (j, k), so the
    torsion is untouched.
    """
    if s.dim != m.dim:
        raise ValueError("space and mapping dimensions differ")
    return Space(s.dim, tensor_lincomb(
        [(1, s.gamma)] + _increment(m.psi, 1, m.sigma, m.phi, 2)))


def _nu_phi_mu(nu: TensorField, phi: TensorField, mu: TensorField,
               c: int) -> list:
    """The terms of c (nu_j phi^i + mu d^i_j), slots (i, j), for
    ``tensor_lincomb``."""
    delta = TensorField.delta(phi.dim, mu.order)
    return [(c, tensor_contract("j,i->ij", nu, phi)),
            (c, tensor_contract(",ij->ij", mu, delta))]


def basic_equation_residual(s: Space, m: AG3Mapping) -> TensorField:
    """phi^i_{s|j} - nu_j phi^i - mu d^i_j; zero iff m is almost geodesic
    of its kind on s."""
    return tensor_lincomb([(1, cov_deriv_kind(m.phi, s, m.kind))]
                          + _nu_phi_mu(m.nu, m.phi, m.mu, -1))


def reciprocity_inverse(s: Space, m: AG3Mapping) -> AG3Mapping:
    """Mapping data of the inverse mapping, from the image space back.

    psi and the sigma phi product change sign; the canonical factorization
    keeps phi and negates sigma.  nu and mu absorb the deformation:
    nubar_j = nu_j + psi_j + 2 sigma_{ja} phi^a, mubar = mu + psi_a phi^a.
    Applying the construction twice returns the original data exactly.
    Building the pair (s, m) proves the basic equation on s.
    """
    return MappedPair.build(s, m).inverse()


def _inverse_onto(s: Space, m: AG3Mapping, target: Space) -> AG3Mapping:
    """:func:`reciprocity_inverse` with the image space ``target`` given.

    The caller has proved the basic equation on s; this proves it on the
    target.  The round trip target -> s rejects a target that is not the
    image of s under m, since the inverse increment is exactly minus the
    forward one.
    """
    nu_bar = tensor_lincomb([(1, m.nu), (1, m.psi), (2, m.sigma_phi())])
    mu_bar = tensor_add(m.mu, m.psi_phi())
    m_bar = AG3Mapping(psi=tensor_neg(m.psi), sigma=tensor_neg(m.sigma),
                       phi=m.phi, nu=nu_bar, mu=mu_bar, kind=m.kind)
    if transform_connection(target, m_bar).gamma != s.gamma:
        raise ReciprocityError("inverse mapping does not map the image back")
    if not basic_equation_residual(target, m_bar).is_zero():
        raise BasicEquationError(
            "inverse mapping violates the basic equation on the image space")
    return m_bar


class MappedPair:
    """Source space, mapping data, and the resulting image space.

    Construction through :meth:`build` checks that the basic-equation
    residual vanishes; :meth:`validate`, run on every loaded pair, also
    checks that the stored target is the image of the source.  Only a
    pair that went through one of them lends its target and its proof on
    the source to :meth:`inverse`; a hand-built pair's target may be
    anything.
    """

    def __init__(self, source: Space, mapping: AG3Mapping, target: Space):
        self.source = source
        self.mapping = mapping
        self.target = target
        self._target_is_image = False

    @classmethod
    def build(cls, source: Space, mapping: AG3Mapping) -> "MappedPair":
        pair = cls(source, mapping, transform_connection(source, mapping))
        pair._check_basic_equation()
        pair._target_is_image = True
        return pair

    def validate(self) -> None:
        """Rejects a target that is not the image of the source.

        The deformation is symmetric, so this also implies equal torsion.
        The image is truncated to the mapping's order, so orders are
        checked first: both connections share one order o, psi, sigma, nu
        and mu have order o, and phi, which the basic equation
        differentiates, has order o or o + 1.
        """
        orders = (self.source.gamma.order, self.target.gamma.order)
        if orders[0] != orders[1]:
            raise ValueError("source and target connections differ in order: "
                             "%d and %d" % orders)
        o, m = orders[0], self.mapping
        for name, order in (("psi", m.psi.order), ("sigma", m.sigma.order),
                            ("nu", m.nu.order), ("mu", m.mu.order),
                            ("phi", m.phi.order)):
            allowed = (o, o + 1) if name == "phi" else (o,)
            if order not in allowed:
                raise ValueError(f"mapping {name} has order {order}, but the "
                                 f"connections have order {o}")
        if transform_connection(self.source, m).gamma != self.target.gamma:
            raise ValueError("target is not the image of the source "
                             "under the mapping")
        self._check_basic_equation()
        self._target_is_image = True

    def _check_basic_equation(self) -> None:
        residual = basic_equation_residual(self.source, self.mapping)
        if not residual.is_zero():
            raise BasicEquationError("basic equation residual is nonzero")

    def inverse(self) -> AG3Mapping:
        """The inverse mapping data, built afresh on each call."""
        if self._target_is_image:
            return _inverse_onto(self.source, self.mapping, self.target)
        return reciprocity_inverse(self.source, self.mapping)

    @classmethod
    def from_json(cls, obj: dict) -> "MappedPair":
        from .documents import decode_pair

        pair = decode_pair(obj)
        pair.validate()
        return pair


def gamma_diff_factorized(pair: MappedPair, m_bar: AG3Mapping) -> TensorField:
    """Difference of symmetric parts in its reciprocity-factorized form.

    Evaluates, with barred data taken from the image space and the given
    inverse mapping ``m_bar`` (``pair.inverse()``, or a corrupted one for
    a negative control), the combination
    (Gbar_j + sigmabar_{ja} phibar^a) d^i_k / (N+1) + (j <-> k)
    - sigmabar_{jk} phibar^i minus the same expression in unbarred data,
    and checks it equals Gammabar^i_(jk) - Gamma^i_(jk) exactly.  Returns
    the common value; raises :class:`FactorizationMismatch` otherwise.
    """
    from fractions import Fraction

    c = Fraction(1, pair.source.dim + 1)

    def bracket(space: Space, mapping: AG3Mapping) -> list:
        combined = tensor_add(space.trace_sym(), mapping.sigma_phi())
        return _increment(combined, c, mapping.sigma, mapping.phi, -1)

    lhs = tensor_sub(pair.target.sym(), pair.source.sym())
    residual = tensor_lincomb(
        [(1, lhs)] + [(-k, t) for k, t in bracket(pair.target, m_bar)]
        + bracket(pair.source, pair.mapping))
    if not residual.is_zero():
        raise FactorizationMismatch(residual)
    return lhs


def random_jet(rng: random.Random, dim: int, order: int) -> JetScalar:
    """One component of :func:`~eqlab.tensors.random_field`."""
    return random_field(rng, dim, (), order)[()]


def _derive_seed(dim: int, kind: int, seed: int, order: int) -> int:
    # fixed arithmetic mixing so every (dim, kind, seed, order) gets its
    # own reproducible stream
    return ((seed * 1_000_003 + dim) * 257 + kind) * 31 + order


def synthesize_instance(dim: int, kind: int, seed: int, order: int = 2) -> MappedPair:
    """Exact random witness of the mapping hypotheses.

    Draws phi, nu, mu one order high, solves the basic equation for a
    connection of the requested order by placing T^i_j = nu_j phi^i
    + mu d^i_j - phi^i_{,j} against a 1/phi^1 row and projecting a random
    bulk term into the kernel of the phi contraction, then applies the
    deformation.  The resulting pair satisfies the basic equation and the
    reciprocity relations identically at the stored orders.
    """
    if dim < 2:
        raise ValueError("dim must be at least 2")
    if kind not in (1, 2):
        raise ValueError(f"kind must be 1 or 2, got {kind}")
    if order < 1:
        raise ValueError("order must be at least 1")
    rng = random.Random(_derive_seed(dim, kind, seed, order))

    for _ in range(16):
        phi = random_field(rng, dim, (UP,), order + 1)
        if phi.nums[0] != 0:  # phi^1 at the base point
            break
    else:
        raise SynthesisError("phi^1 kept vanishing at the base point")

    nu_high = random_field(rng, dim, (DOWN,), order + 1)
    mu_high = random_field(rng, dim, (), order + 1)
    psi = random_field(rng, dim, (DOWN,), order)
    sigma = random_field(rng, dim, (DOWN, DOWN), order, symmetric=True)
    bulk = random_field(rng, dim, GAMMA_VALENCE, order)

    # w = T - bulk . phi, with T^i_j = nu_j phi^i + mu d^i_j - phi^i_{,j}
    # and the phi contraction over the kind's lower slot: what that
    # contraction of the bulk term misses.  w goes on slot 0 over phi^1.
    spec = "iab,a->ib" if kind == 1 else "iab,b->ia"
    w = tensor_lincomb(_nu_phi_mu(nu_high, phi, mu_high, 1)
                       + [(-1, gradient(phi)),
                          (-1, tensor_contract(spec, bulk, phi))])
    # the covector dx^1 / phi^1: 1/phi^1 on slot 0, zero elsewhere
    inverse = jet_inverse(phi[0])
    size = basis_size(dim, order)
    first = _field(dim, (DOWN,), order, inverse.den,
                   [*inverse.nums[:size], *[0] * ((dim - 1) * size)])
    spec = "ib,a->iab" if kind == 1 else "ia,b->iab"
    gamma = tensor_lincomb([(1, bulk), (1, tensor_contract(spec, w, first))])
    try:
        return MappedPair.build(Space(dim, gamma), AG3Mapping(
            psi=psi, sigma=sigma, phi=phi, kind=kind,
            nu=tensor_truncate(nu_high, order),
            mu=tensor_truncate(mu_high, order)))
    except BasicEquationError as exc:
        raise SynthesisError(f"synthesized pair: {exc}") from exc
