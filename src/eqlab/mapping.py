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
from fractions import Fraction

from .geometry import GAMMA_VALENCE, Space, cov_deriv_kind
from .jets import (
    JetScalar,
    jet_add,
    jet_inverse,
    jet_mul,
    jet_neg,
    jet_partial,
    jet_scale,
    jet_sum,
    jet_truncate,
    multi_indices,
    value_at_base,
)
from .tensors import (
    DOWN,
    UP,
    TensorField,
    tensor_add,
    tensor_neg,
    tensor_scale,
    tensor_sub,
)


class BasicEquationError(ValueError):
    """The mapping data does not satisfy its basic equation on this space."""


class FactorizationMismatch(AssertionError):
    """The factorized connection difference failed to match; carries the residual."""

    def __init__(self, residual: TensorField):
        super().__init__("factorized form differs from the symmetric-part difference")
        self.residual = residual


class SynthesisError(RuntimeError):
    """Random draws kept violating a genericity requirement."""


class AG3Mapping:
    """Data of a third-type almost geodesic mapping of one of the two kinds.

    phi is stored one order above the other fields because the basic
    equation consumes one derivative of it.
    """

    def __init__(self, psi: TensorField, sigma: TensorField, phi: TensorField,
                 nu: TensorField, mu: JetScalar, kind: int):
        dim = phi.dim
        if kind not in (1, 2):
            raise ValueError(f"kind must be 1 or 2, got {kind}")
        if psi.valence != (DOWN,) or nu.valence != (DOWN,):
            raise ValueError("psi and nu must have valence (down,)")
        if phi.valence != (UP,):
            raise ValueError("phi must have valence (up,)")
        if sigma.valence != (DOWN, DOWN):
            raise ValueError("sigma must have valence (down, down)")
        for field in (psi, sigma, nu):
            if field.dim != dim:
                raise ValueError("mapping fields must share one dimension")
        if mu.dim != dim:
            raise ValueError("mu must share the mapping dimension")
        for j in range(dim):
            for k in range(j):
                if sigma[j, k] != sigma[k, j]:
                    raise ValueError("sigma must be exactly symmetric")
        self.psi = psi
        self.sigma = sigma
        self.phi = phi
        self.nu = nu
        self.mu = mu
        self.kind = kind
        self.dim = dim

    def to_json(self) -> dict:
        return {
            "psi": self.psi.to_json(),
            "sigma": self.sigma.to_json(),
            "phi": self.phi.to_json(),
            "nu": self.nu.to_json(),
            "mu": self.mu.to_json(),
            "kind": self.kind,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "AG3Mapping":
        return cls(
            psi=TensorField.from_json(obj["psi"]),
            sigma=TensorField.from_json(obj["sigma"]),
            phi=TensorField.from_json(obj["phi"]),
            nu=TensorField.from_json(obj["nu"]),
            mu=JetScalar.from_json(obj["mu"]),
            kind=int(obj["kind"]),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AG3Mapping):
            return NotImplemented
        return (self.kind == other.kind and self.psi == other.psi
                and self.sigma == other.sigma and self.phi == other.phi
                and self.nu == other.nu and self.mu == other.mu)

    __hash__ = None

    def sigma_phi(self) -> TensorField:
        """The (0,1) contraction sigma_{ja} phi^a."""
        return TensorField.build(
            self.dim, (DOWN,), self.sigma.order,
            lambda idx: jet_sum(jet_mul(self.sigma[idx[0], a], self.phi[a])
                                for a in range(self.dim)))

    def psi_phi(self) -> JetScalar:
        """The scalar psi_a phi^a."""
        return jet_sum(jet_mul(self.psi[a], self.phi[a])
                       for a in range(self.dim))


def transform_connection(s: Space, m: AG3Mapping) -> Space:
    """Image space with the deformed connection.

    Gammabar^i_{jk} = Gamma^i_{jk} + psi_j d^i_k + psi_k d^i_j
    + 2 sigma_{jk} phi^i; the increment is symmetric in (j, k), so the
    torsion is untouched.
    """
    if s.dim != m.dim:
        raise ValueError("space and mapping dimensions differ")
    gamma = s.gamma
    two = Fraction(2)

    def component(idx):
        i, j, k = idx
        total = gamma[i, j, k]
        if i == k:
            total = jet_add(total, m.psi[j])
        if i == j:
            total = jet_add(total, m.psi[k])
        total = jet_add(total, jet_scale(two, jet_mul(m.sigma[j, k], m.phi[i])))
        return total

    return Space(s.dim, TensorField.build(s.dim, GAMMA_VALENCE, gamma.order, component))


def basic_equation_residual(s: Space, m: AG3Mapping) -> TensorField:
    """phi^i_{s|j} - nu_j phi^i - mu d^i_j; zero iff m is almost geodesic
    of its kind on s."""
    derived = cov_deriv_kind(m.phi, s, m.kind)
    order = derived.order

    def component(idx):
        i, j = idx
        total = derived[i, j]
        total = jet_add(total, jet_neg(jet_mul(m.nu[j], m.phi[i])))
        if i == j:
            total = jet_add(total, jet_neg(m.mu))
        return total

    return TensorField.build(s.dim, (UP, DOWN), order, component)


def reciprocity_inverse(s: Space, m: AG3Mapping) -> AG3Mapping:
    """Mapping data of the inverse mapping, from the image space back.

    psi and the sigma phi product change sign; the canonical factorization
    keeps phi and negates sigma.  nu and mu absorb the deformation:
    nubar_j = nu_j + psi_j + 2 sigma_{ja} phi^a, mubar = mu + psi_a phi^a.
    Applying the construction twice returns the original data exactly.
    """
    return _inverse_onto(s, m, transform_connection(s, m))


def _inverse_onto(s: Space, m: AG3Mapping, target: Space) -> AG3Mapping:
    """:func:`reciprocity_inverse` with the image space ``target`` given.

    The round trip target -> s rejects a target that is not the image of
    s under m, since the inverse increment is exactly minus the forward one.
    """
    residual = basic_equation_residual(s, m)
    if not residual.is_zero():
        raise BasicEquationError(
            "cannot invert: basic equation residual is nonzero on the source space")
    sigma_phi = m.sigma_phi()
    nu_bar = TensorField.build(
        m.dim, (DOWN,), m.nu.order,
        lambda idx: jet_add(jet_add(m.nu[idx], m.psi[idx]),
                            jet_scale(2, sigma_phi[idx])))
    mu_bar = jet_add(m.mu, m.psi_phi())
    m_bar = AG3Mapping(psi=tensor_neg(m.psi), sigma=tensor_neg(m.sigma),
                       phi=m.phi, nu=nu_bar, mu=mu_bar, kind=m.kind)
    if transform_connection(target, m_bar).gamma != s.gamma:
        raise AssertionError("inverse mapping does not map the image back")
    if not basic_equation_residual(target, m_bar).is_zero():
        raise BasicEquationError(
            "inverse mapping violates the basic equation on the image space")
    return m_bar


class MappedPair:
    """Source space, mapping data, and the resulting image space.

    Construction through :meth:`build` checks that the basic-equation
    residual vanishes; :meth:`validate`, run on every loaded pair, also
    checks that the stored target is the image of the source.  Only a
    pair that went through one of them lends its target to :meth:`inverse`;
    a hand-built pair's target may be anything.
    """

    def __init__(self, source: Space, mapping: AG3Mapping, target: Space):
        self.source = source
        self.mapping = mapping
        self.target = target
        self._target_is_image = False
        self._inverse: AG3Mapping | None = None

    @classmethod
    def build(cls, source: Space, mapping: AG3Mapping) -> "MappedPair":
        pair = cls(source, mapping, transform_connection(source, mapping))
        pair._check_basic_equation()
        pair._target_is_image = True
        return pair

    def validate(self) -> None:
        """Rejects a target that is not the image of the source.

        The deformation is symmetric, so this also implies equal torsion.
        """
        image = transform_connection(self.source, self.mapping)
        if image.gamma != self.target.gamma:
            raise ValueError("target is not the image of the source "
                             "under the mapping")
        self._check_basic_equation()
        self._target_is_image = True

    def _check_basic_equation(self) -> None:
        residual = basic_equation_residual(self.source, self.mapping)
        if not residual.is_zero():
            raise BasicEquationError("basic equation residual is nonzero")

    def inverse(self) -> AG3Mapping:
        if self._inverse is None:
            if self._target_is_image:
                self._inverse = _inverse_onto(self.source, self.mapping,
                                              self.target)
            else:
                self._inverse = reciprocity_inverse(self.source, self.mapping)
        return self._inverse

    def to_json(self) -> dict:
        return {
            "source": self.source.to_json(),
            "mapping": self.mapping.to_json(),
            "target": self.target.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "MappedPair":
        pair = cls(Space.from_json(obj["source"]),
                   AG3Mapping.from_json(obj["mapping"]),
                   Space.from_json(obj["target"]))
        pair.validate()
        return pair


def gamma_diff_factorized(pair: MappedPair) -> TensorField:
    """Difference of symmetric parts in its reciprocity-factorized form.

    Evaluates, with barred data taken from the image space and the inverse
    mapping, the combination
    (Gbar_j + sigmabar_{ja} phibar^a) d^i_k / (N+1) + (j <-> k)
    - sigmabar_{jk} phibar^i minus the same expression in unbarred data,
    and checks it equals Gammabar^i_(jk) - Gamma^i_(jk) exactly.  Returns
    the common value; raises :class:`FactorizationMismatch` otherwise.
    """
    m = pair.mapping
    m_bar = pair.inverse()
    dim = pair.source.dim
    c = Fraction(1, dim + 1)

    def bracket(space: Space, mapping: AG3Mapping, sign: int) -> TensorField:
        trace = space.trace_sym()
        sigma_phi = mapping.sigma_phi()
        combined = tensor_add(trace, sigma_phi)

        def terms(i, j, k):
            if i == k:
                yield jet_scale(c, combined[j])
            if i == j:
                yield jet_scale(c, combined[k])
            yield jet_neg(jet_mul(mapping.sigma[j, k], mapping.phi[i]))

        def component(idx):
            total = jet_sum(terms(*idx))
            return total if sign > 0 else jet_neg(total)

        order = min(trace.order, mapping.sigma.order)
        return TensorField.build(dim, GAMMA_VALENCE, order, component)

    rhs = tensor_add(bracket(pair.target, m_bar, +1),
                     bracket(pair.source, m, -1))
    lhs = tensor_sub(pair.target.sym(), pair.source.sym())
    if lhs != rhs:
        raise FactorizationMismatch(tensor_sub(lhs, rhs))
    return lhs


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def random_jet(rng: random.Random, dim: int, order: int) -> JetScalar:
    coeffs = {alpha: random_rational(rng) for alpha in multi_indices(dim, order)}
    return JetScalar(dim, order, coeffs)


def _random_symmetric(rng: random.Random, dim: int, order: int) -> TensorField:
    upper = {}
    for j in range(dim):
        for k in range(j, dim):
            upper[(j, k)] = random_jet(rng, dim, order)
    return TensorField.build(dim, (DOWN, DOWN), order,
                             lambda idx: upper[tuple(sorted(idx))])


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

    phi = None
    for _ in range(16):
        candidate = TensorField.build(dim, (UP,), order + 1,
                                      lambda idx: random_jet(rng, dim, order + 1))
        if value_at_base(candidate[0]) != 0:
            phi = candidate
            break
    if phi is None:
        raise SynthesisError("phi^1 kept vanishing at the base point")

    nu_high = TensorField.build(dim, (DOWN,), order + 1,
                                lambda idx: random_jet(rng, dim, order + 1))
    mu_high = random_jet(rng, dim, order + 1)
    psi = TensorField.build(dim, (DOWN,), order,
                            lambda idx: random_jet(rng, dim, order))
    sigma = _random_symmetric(rng, dim, order)
    bulk = TensorField.build(dim, GAMMA_VALENCE, order,
                             lambda idx: random_jet(rng, dim, order))

    w = jet_inverse(phi[0])  # lives at order + 1

    def t_component(i: int, j: int) -> JetScalar:
        total = jet_mul(nu_high[j], phi[i])
        if i == j:
            total = jet_add(total, mu_high)
        return jet_add(total, jet_neg(jet_partial(phi[i], j)))

    t = [[t_component(i, j) for j in range(dim)] for i in range(dim)]

    def bulk_phi_first(i: int, b: int) -> JetScalar:
        return jet_sum(jet_mul(bulk[i, beta, b], phi[beta])
                       for beta in range(dim))

    def bulk_phi_second(i: int, a: int) -> JetScalar:
        return jet_sum(jet_mul(bulk[i, a, beta], phi[beta])
                       for beta in range(dim))

    def gamma_component(idx):
        i, a, b = idx
        if kind == 1:
            # contraction over the first lower slot must reproduce T^i_b
            total = bulk[i, a, b]
            if a == 0:
                total = jet_add(total, jet_mul(w, jet_add(t[i][b],
                                                          jet_neg(bulk_phi_first(i, b)))))
            return total
        # kind 2: contraction over the second lower slot reproduces T^i_a
        total = bulk[i, a, b]
        if b == 0:
            total = jet_add(total, jet_mul(w, jet_add(t[i][a],
                                                      jet_neg(bulk_phi_second(i, a)))))
        return total

    gamma = TensorField.build(dim, GAMMA_VALENCE, order, gamma_component)
    source = Space(dim, gamma)

    mapping = AG3Mapping(
        psi=psi, sigma=sigma, phi=phi,
        nu=TensorField.build(dim, (DOWN,), order,
                             lambda idx: jet_truncate(nu_high[idx], order)),
        mu=jet_truncate(mu_high, order),
        kind=kind)
    return MappedPair.build(source, mapping)
