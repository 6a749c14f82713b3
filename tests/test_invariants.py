"""Derived tensors, sigma combinations, invariance checks, and rank claims."""

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from eqlab.geometry import (GAMMA_VALENCE, Space, cov_deriv_assoc,
                            curvature_K, torsion_square_terms)
from eqlab import harness
from eqlab.harness import (
    corrupted_inverse,
    family_invariance_check,
    verify_instance,
)
from eqlab.invariants import (
    PARAM_NAMES,
    InvariantBundle,
    _Parts,
    _SIGMA_COEFFS,
    _U_TERMS,
    R_and_K_transformation_check,
    T_tilde,
    U_theta,
    VerificationReport,
    W_star,
    build_W_matrix,
    difference_table,
    eta_star,
    family_span_dimension,
    sigma_coeff_matrix,
    sigma_p,
    torsion_cd_difference_check,
)
from eqlab.jets import (
    JetScalar,
    jet_add,
    jet_mul,
    jet_neg,
    jet_scale,
)
from eqlab.linalg import RationalMatrix, generic_rank, rank_exact
from eqlab.mapping import AG3Mapping, MappedPair, synthesize_instance
from eqlab.tensors import (
    DOWN,
    UP,
    TensorField,
    antisym_pair_nodiv,
    base_numerators,
    gradient,
    random_field,
    tensor_add,
    tensor_contract,
    tensor_lincomb,
    tensor_scale,
    tensor_sub,
    tensor_truncate,
    transpose,
)
from helpers import const, coord, jet_sum, sigma_star, t_tilde, zero

W_VALENCE = (UP, DOWN, DOWN, DOWN)

# The m <-> n exchange rearranges the twenty products: most swap in pairs,
# two are fixed, two flip sign.  Transcribed here independently of the
# implementation table so the two can disagree.
SWAP_PAIRS = ((1, 2), (3, 4), (6, 7), (9, 10), (12, 13), (15, 16), (17, 18),
              (19, 20))
SWAP_FIXED = (5, 11)
SWAP_NEGATED = (8, 14)


def exact_rows(m: RationalMatrix) -> list[list[Fraction]]:
    """The entries of a matrix, row by row, read off its integer rows."""
    return [[Fraction(n, den) for n in nums] for den, nums in zip(m.dens, m.nums)]


def fraction_matrix(rows: list[list[Fraction]]) -> RationalMatrix:
    """A matrix of Fraction rows, one integer run per entry."""
    return RationalMatrix.from_runs(
        [[(x.denominator, [x.numerator]) for x in row] for row in rows])


def swap_row(row: list[Fraction]) -> list[Fraction]:
    out = list(row)
    for a, b in SWAP_PAIRS:
        out[a - 1], out[b - 1] = row[b - 1], row[a - 1]
    for theta in SWAP_NEGATED:
        out[theta - 1] = -row[theta - 1]
    return out


# The term-by-term definitions of the eight sigma combinations, the
# reference the coefficient table over the U basis is proved against.
def _sigma_component(parts: _Parts, p: int, c: Fraction,
                     idx: tuple[int, ...]) -> JetScalar:
    """Term-by-term transcription of the p-th sigma definition."""
    dim = parts.dim
    t, sym = parts.torsion, parts.sym
    trace, sigma, phi = parts.trace, parts.sigma, parts.phi
    sigma_phi = parts.sigma_phi
    i, j, m, n = idx

    def first_mid():
        # Gamma^a_{v jm} Gamma^i_{_an}
        return jet_sum(jet_mul(t[a, j, m], sym[i, a, n]) for a in range(dim))

    def mid_contr():
        # Gamma^i_{v am} Gamma^a_{_jn}
        return jet_sum(jet_mul(t[i, a, m], sym[a, j, n]) for a in range(dim))

    def last_contr():
        # Gamma^i_{v ja} Gamma^a_{_mn}
        return jet_sum(jet_mul(t[i, j, a], sym[a, m, n]) for a in range(dim))

    def phi_tail():
        # Gamma^a_{v jm} phi^i sigma_{an}
        return jet_mul(parts.torsion_sigma[j, m, n], phi[i])

    def delta_n(field_value):
        return field_value if i == n else JetScalar(dim, field_value.order)

    if p == 1:
        total = first_mid()
        total = jet_add(total, jet_neg(mid_contr()))
        return jet_add(total, jet_neg(last_contr()))
    if p == 2:
        total = first_mid()
        total = jet_add(total, jet_mul(parts.torsion_phi[i, m], sigma[j, n]))
        total = jet_add(total, jet_mul(parts.torsion_phi_last[i, j], sigma[m, n]))
        traces = jet_add(jet_scale(2, jet_mul(t[i, j, m], trace[n])),
                         jet_add(jet_mul(t[i, j, n], trace[m]),
                                 jet_neg(jet_mul(t[i, m, n], trace[j]))))
        total = jet_add(total, jet_scale(-c, traces))
        mixed = jet_add(jet_scale(2, jet_mul(t[i, j, m], sigma_phi[n])),
                        jet_add(jet_mul(t[i, j, n], sigma_phi[m]),
                                jet_neg(jet_mul(t[i, m, n], sigma_phi[j]))))
        return jet_add(total, jet_scale(-c, mixed))
    if p == 3:
        total = jet_add(first_mid(), jet_neg(mid_contr()))
        total = jet_add(total, jet_mul(parts.torsion_phi_last[i, j], sigma[m, n]))
        inner = jet_add(jet_add(jet_mul(t[i, j, m], trace[n]),
                                jet_mul(t[i, j, n], trace[m])),
                        jet_add(jet_mul(t[i, j, m], sigma_phi[n]),
                                jet_mul(t[i, j, n], sigma_phi[m])))
        return jet_add(total, jet_scale(-c, inner))
    if p == 4:
        total = jet_add(first_mid(), jet_neg(last_contr()))
        total = jet_add(total, jet_mul(parts.torsion_phi[i, m], sigma[j, n]))
        inner = jet_add(jet_add(jet_mul(t[i, j, m], trace[n]),
                                jet_neg(jet_mul(t[i, m, n], trace[j]))),
                        jet_add(jet_mul(t[i, j, m], sigma_phi[n]),
                                jet_neg(jet_mul(t[i, m, n], sigma_phi[j]))))
        return jet_add(total, jet_scale(-c, inner))
    if p == 5:
        total = jet_neg(phi_tail())
        total = jet_add(total, jet_neg(mid_contr()))
        total = jet_add(total, jet_neg(last_contr()))
        inner = jet_add(jet_add(delta_n(parts.torsion_trace[j, m]),
                                jet_mul(t[i, j, m], trace[n])),
                        jet_add(delta_n(parts.torsion_sigma_phi[j, m]),
                                jet_mul(t[i, j, m], sigma_phi[n])))
        return jet_add(total, jet_scale(c, inner))
    if p == 6:
        total = jet_neg(phi_tail())
        total = jet_add(total, jet_mul(parts.torsion_phi[i, m], sigma[j, n]))
        total = jet_add(total, jet_mul(parts.torsion_phi_last[i, j], sigma[m, n]))
        traces = jet_add(jet_add(delta_n(parts.torsion_trace[j, m]),
                                 jet_neg(jet_mul(t[i, j, m], trace[n]))),
                         jet_add(jet_neg(jet_mul(t[i, j, n], trace[m])),
                                 jet_mul(t[i, m, n], trace[j])))
        total = jet_add(total, jet_scale(c, traces))
        mixed = jet_add(jet_add(delta_n(parts.torsion_sigma_phi[j, m]),
                                jet_neg(jet_mul(t[i, j, m], sigma_phi[n]))),
                        jet_add(jet_neg(jet_mul(t[i, j, n], sigma_phi[m])),
                                jet_mul(t[i, m, n], sigma_phi[j])))
        return jet_add(total, jet_scale(c, mixed))
    if p == 7:
        total = jet_add(jet_neg(phi_tail()), jet_neg(mid_contr()))
        total = jet_add(total, jet_mul(parts.torsion_phi_last[i, j], sigma[m, n]))
        inner = jet_add(jet_add(delta_n(parts.torsion_trace[j, m]),
                                jet_neg(jet_mul(t[i, j, n], trace[m]))),
                        jet_add(delta_n(parts.torsion_sigma_phi[j, m]),
                                jet_neg(jet_mul(t[i, j, n], sigma_phi[m]))))
        return jet_add(total, jet_scale(c, inner))
    if p == 8:
        total = jet_add(jet_neg(phi_tail()), jet_neg(last_contr()))
        total = jet_add(total, jet_mul(parts.torsion_phi[i, m], sigma[j, n]))
        inner = jet_add(jet_add(delta_n(parts.torsion_trace[j, m]),
                                jet_mul(t[i, m, n], trace[j])),
                        jet_add(delta_n(parts.torsion_sigma_phi[j, m]),
                                jet_mul(t[i, m, n], sigma_phi[j])))
        return jet_add(total, jet_scale(c, inner))
    raise ValueError(f"p must be between 1 and 8, got {p}")


def term_by_term_sigma(bundle: InvariantBundle, p: int) -> TensorField:
    """The p-th sigma of a bundle, built from its parts term by term."""
    parts = bundle.parts()
    c = Fraction(1, parts.dim + 1)
    return TensorField.build(parts.dim, W_VALENCE,
                             lambda idx: _sigma_component(parts, p, c, idx))


# The term-by-term definitions of the twenty torsion products, the
# reference the contraction table is proved against.
def _u_component(parts: _Parts, theta: int, idx: tuple[int, ...]) -> JetScalar:
    dim = parts.dim
    t, sym = parts.torsion, parts.sym
    sigma, phi = parts.sigma, parts.phi
    i, j, m, n = idx
    if theta == 1:
        return jet_sum(jet_mul(t[a, j, m], sym[i, a, n]) for a in range(dim))
    if theta == 2:
        return jet_sum(jet_mul(t[a, j, n], sym[i, a, m]) for a in range(dim))
    if theta == 3:
        return jet_sum(jet_mul(t[i, a, m], sym[a, j, n]) for a in range(dim))
    if theta == 4:
        return jet_sum(jet_mul(t[i, a, n], sym[a, j, m]) for a in range(dim))
    if theta == 5:
        return jet_sum(jet_mul(t[i, j, a], sym[a, m, n]) for a in range(dim))
    if theta == 6:
        return jet_mul(t[i, j, m], parts.trace[n])
    if theta == 7:
        return jet_mul(t[i, j, n], parts.trace[m])
    if theta == 8:
        return jet_mul(t[i, m, n], parts.trace[j])
    if theta == 9:
        return jet_mul(parts.torsion_phi[i, m], sigma[j, n])
    if theta == 10:
        return jet_mul(parts.torsion_phi[i, n], sigma[j, m])
    if theta == 11:
        return jet_mul(parts.torsion_phi_last[i, j], sigma[m, n])
    if theta == 12:
        return jet_mul(t[i, j, m], parts.sigma_phi[n])
    if theta == 13:
        return jet_mul(t[i, j, n], parts.sigma_phi[m])
    if theta == 14:
        return jet_mul(t[i, m, n], parts.sigma_phi[j])
    if theta == 15:
        value = parts.torsion_trace[j, m]
        return value if i == n else JetScalar(dim, value.order)
    if theta == 16:
        value = parts.torsion_trace[j, n]
        return value if i == m else JetScalar(dim, value.order)
    if theta == 17:
        value = parts.torsion_sigma_phi[j, m]
        return value if i == n else JetScalar(dim, value.order)
    if theta == 18:
        value = parts.torsion_sigma_phi[j, n]
        return value if i == m else JetScalar(dim, value.order)
    if theta == 19:
        return jet_mul(parts.torsion_sigma[j, m, n], phi[i])
    if theta == 20:
        return jet_mul(parts.torsion_sigma[j, n, m], phi[i])
    raise ValueError(f"theta must be between 1 and 20, got {theta}")


def term_by_term_u(bundle: InvariantBundle, theta: int) -> TensorField:
    """U_theta of a bundle, built from its parts term by term."""
    parts = bundle.parts()
    return TensorField.build(parts.dim, W_VALENCE,
                             lambda idx: _u_component(parts, theta, idx))


def seven_term_w_star(bundle: InvariantBundle, which: int) -> TensorField:
    """W of kind ``which`` as the sum of its seven terms, each m/n mirror
    written out as a contraction of its own."""
    s, m, parts = bundle.space, bundle.mapping, bundle.parts()
    eta = bundle.eta(which)
    c = Fraction(1, s.dim + 1)
    eps = 1 if which == 1 else -1
    trace_cd = cov_deriv_assoc(s.trace_sym(), s)
    sigma, delta, t_phi = parts.sigma, parts.delta, parts.torsion_phi
    on_ij = tensor_lincomb([(1, antisym_pair_nodiv(eta, 0, 1)),
                            (-c, antisym_pair_nodiv(trace_cd, 0, 1))])
    on_in = tensor_lincomb([(c, trace_cd), (-1, eta),
                            (1, tensor_contract(",jm->jm", m.mu, sigma))])
    gradient = antisym_pair_nodiv(tensor_lincomb(
        [(1, bundle.sigma_cd()),
         (1, tensor_contract("jm,n->jmn", sigma,
                             tensor_add(m.nu, parts.sigma_phi)))]), 1, 2)
    return tensor_lincomb([
        (1, s.curvature()),
        (1, tensor_contract("ij,mn->ijmn", delta, on_ij)),
        (1, tensor_contract("in,jm->ijmn", delta, on_in)),
        (-1, tensor_contract("im,jn->ijmn", delta, on_in)),
        (1, tensor_contract("jmn,i->ijmn", gradient, parts.phi)),
        (-eps, tensor_contract("jm,in->ijmn", sigma, t_phi)),
        (eps, tensor_contract("jn,im->ijmn", sigma, t_phi)),
    ])


# (dim, order) of the pairs on which the products read off another one
# are held to their own definitions
MIRROR_CASES = [(2, 3), (3, 2)]


def sides(pair: MappedPair) -> tuple[InvariantBundle, InvariantBundle]:
    """Source and target bundles of a pair, the target on the inverse."""
    return (InvariantBundle(pair.source, pair.mapping),
            InvariantBundle(pair.target, pair.inverse()))


def tcd_reports(src: InvariantBundle, tgt: InvariantBundle, labels,
                ) -> list[VerificationReport]:
    """The torsion-derivative reports over ``labels``, reading the
    differences from their table as verify does."""
    return torsion_cd_difference_check(
        src, tgt, labels,
        difference_table(src, tgt, src.mapping.kind, labels, []),
        {"dim": src.space.dim, "kind": src.mapping.kind})


def rk_report(src: InvariantBundle, tgt: InvariantBundle, which: int,
              p: int, q: int, u, up) -> VerificationReport:
    """The curvature-transformation report at (p, q), its differences
    read from their table as verify does."""
    return R_and_K_transformation_check(
        difference_table(src, tgt, which, [p], [q]), p, q, u, up,
        {"dim": src.space.dim, "kind": src.mapping.kind})


def random_space(dim: int, order: int, seed: int) -> Space:
    rng = random.Random(seed)
    return Space(dim, random_field(rng, dim, GAMMA_VALENCE, order))


def torsion_free_space(dim: int, order: int, seed: int) -> Space:
    rng = random.Random(seed)
    lower = {}
    for j in range(dim):
        for k in range(j, dim):
            for i in range(dim):
                lower[(i, j, k)] = random_field(rng, dim, (), order)[()]
    gamma = TensorField.build(
        dim, GAMMA_VALENCE,
        lambda idx: lower[(idx[0],) + tuple(sorted(idx[1:]))])
    return Space(dim, gamma)


def pure_torsion_space(dim: int, order: int, seed: int) -> Space:
    """Antisymmetric connection: torsion survives, the symmetric part is 0."""
    rng = random.Random(seed)
    upper = {}
    for j in range(dim):
        for k in range(j + 1, dim):
            for i in range(dim):
                upper[(i, j, k)] = random_field(rng, dim, (), order)[()]

    def component(idx):
        i, j, k = idx
        if j == k:
            return JetScalar(dim, order)
        if j < k:
            return upper[(i, j, k)]
        return jet_scale(-1, upper[(i, k, j)])

    return Space(dim, TensorField.build(dim, GAMMA_VALENCE, component))


def random_mapping(dim: int, order: int, seed: int, kind: int = 1,
                   zero_sigma: bool = False) -> AG3Mapping:
    """Arbitrary mapping data; the tensor builders don't require validity."""
    rng = random.Random(seed)
    if zero_sigma:
        sigma = zero(dim, (DOWN, DOWN), order)
    else:
        sigma = random_field(rng, dim, (DOWN, DOWN), order, symmetric=True)
    return AG3Mapping(
        psi=random_field(rng, dim, (DOWN,), order),
        sigma=sigma,
        phi=random_field(rng, dim, (UP,), order + 1),
        nu=random_field(rng, dim, (DOWN,), order),
        mu=random_field(rng, dim, (), order),
        kind=kind)


def identity_pair(dim: int = 2, order: int = 2,
                  scale: Fraction = Fraction(2)) -> MappedPair:
    """Zero deformation on a flat space; phi constant so nu = mu = 0 works."""
    space = Space(dim, zero(dim, GAMMA_VALENCE, order))
    mapping = AG3Mapping(
        psi=zero(dim, (DOWN,), order),
        sigma=zero(dim, (DOWN, DOWN), order),
        phi=TensorField.build(
            dim, (UP,),
            lambda idx: const(dim, order + 1, scale)),
        nu=zero(dim, (DOWN,), order),
        mu=zero(dim, (), order),
        kind=1)
    return MappedPair.build(space, mapping)


def torsion_free_pair(dim: int = 2, order: int = 2, seed: int = 0,
                      kind: int = 1) -> MappedPair:
    """Flat space, coordinate phi, random psi and sigma: a valid pair
    whose torsion vanishes identically."""
    rng = random.Random(seed)
    space = Space(dim, zero(dim, GAMMA_VALENCE, order))
    scale = Fraction(rng.randint(1, 9))
    phi = TensorField.build(
        dim, (UP,),
        lambda idx: jet_scale(scale, coord(dim, order + 1, idx[0])))
    sigma = random_field(rng, dim, (DOWN, DOWN), order, symmetric=True)
    mapping = AG3Mapping(
        psi=random_field(rng, dim, (DOWN,), order),
        sigma=sigma,
        phi=phi,
        nu=zero(dim, (DOWN,), order),
        mu=TensorField.scalar(dim, order, scale),
        kind=kind)
    return MappedPair.build(space, mapping)


@pytest.fixture(scope="module")
def pair31():
    return synthesize_instance(3, 1, seed=5)


@pytest.fixture(scope="module")
def pair32():
    return synthesize_instance(3, 2, seed=9)


@pytest.fixture(scope="module")
def pair21():
    return synthesize_instance(2, 1, seed=1)


@pytest.fixture(scope="module")
def pair22():
    return synthesize_instance(2, 2, seed=2)


def pair_for(kind, pair31, pair32):
    return pair31 if kind == 1 else pair32


class TestEtaStar:
    @pytest.mark.parametrize("which", [1, 2])
    def test_sigma_zero_reduces_to_trace_product(self, which):
        dim, order = 3, 2
        space = random_space(dim, order, seed=4)
        mapping = random_mapping(dim, order, seed=8, zero_sigma=True)
        eta = eta_star(space, mapping, which)
        c = Fraction(1, dim + 1)
        trace = space.trace_sym()
        cut = JetScalar(dim, eta.order)
        expected = TensorField.build(
            dim, (DOWN, DOWN),
            lambda idx: jet_add(cut, jet_scale(-c * c, jet_mul(trace[idx[0]],
                                                               trace[idx[1]]))))
        assert eta == expected

    def test_torsion_free_kinds_agree(self):
        space = torsion_free_space(3, 2, seed=11)
        mapping = random_mapping(3, 2, seed=12)
        assert eta_star(space, mapping, 1) == eta_star(space, mapping, 2)

    def test_kinds_differ_with_torsion(self):
        space = random_space(3, 2, seed=13)
        mapping = random_mapping(3, 2, seed=14)
        assert eta_star(space, mapping, 1) != eta_star(space, mapping, 2)

    def test_flat_identity_zero(self):
        pair = identity_pair()
        eta = eta_star(pair.source, pair.mapping, 1)
        assert eta.is_zero()

    def test_invalid_which(self):
        pair = identity_pair()
        with pytest.raises(ValueError, match="which"):
            eta_star(pair.source, pair.mapping, 3)


class TestWStar:
    def test_flat_identity_equals_curvature(self):
        pair = identity_pair()
        w = W_star(pair.source, pair.mapping, 1)
        assert w.is_zero()
        assert w == pair.source.curvature()

    def test_torsion_free_kinds_agree(self):
        space = torsion_free_space(2, 2, seed=21)
        mapping = random_mapping(2, 2, seed=22)
        assert W_star(space, mapping, 1) == W_star(space, mapping, 2)

    @pytest.mark.parametrize("kind", [1, 2])
    def test_invariance_dim2(self, kind, pair21, pair22):
        pair = pair21 if kind == 1 else pair22
        barred = pair.inverse()
        lhs = W_star(pair.source, pair.mapping, kind)
        rhs = W_star(pair.target, barred, kind)
        assert tensor_sub(lhs, rhs).is_zero()

    @pytest.mark.parametrize("kind", [1, 2])
    def test_invariance_dim3(self, kind, pair31, pair32):
        pair = pair_for(kind, pair31, pair32)
        barred = pair.inverse()
        lhs = W_star(pair.source, pair.mapping, kind)
        rhs = W_star(pair.target, barred, kind)
        assert tensor_sub(lhs, rhs).is_zero()

    def test_invalid_which(self, pair21):
        with pytest.raises(ValueError, match="which"):
            W_star(pair21.source, pair21.mapping, 0)

    @pytest.mark.parametrize("kind", [1, 2])
    @pytest.mark.parametrize("dim, order", MIRROR_CASES)
    def test_equals_its_seven_terms(self, dim, order, kind):
        """W, which takes three of its terms' m/n mirrors by one
        antisymmetrization, equals its seven terms written out."""
        for side in sides(synthesize_instance(dim, kind, seed=3,
                                              order=order)):
            for which in (1, 2):
                assert side.w_star(which) == seven_term_w_star(side, which)


class TestUTheta:
    def test_torsion_free_all_vanish(self):
        space = torsion_free_space(2, 1, seed=31)
        mapping = random_mapping(2, 1, seed=32)
        for theta in range(1, 21):
            assert U_theta(space, mapping, theta).is_zero()

    def test_trace_free_u6_vanishes(self):
        space = pure_torsion_space(3, 1, seed=33)
        mapping = random_mapping(3, 1, seed=34)
        assert space.trace_sym().is_zero()
        assert U_theta(space, mapping, 6).is_zero()
        assert not space.torsion().is_zero()

    def test_u1_matches_explicit_loop(self):
        dim = 2
        space = random_space(dim, 1, seed=35)
        mapping = random_mapping(dim, 1, seed=36)
        u1 = U_theta(space, mapping, 1)
        t, sym = space.torsion(), space.sym()
        for i in range(dim):
            for j in range(dim):
                for m in range(dim):
                    for n in range(dim):
                        total = JetScalar(dim, t.order)
                        for a in range(dim):
                            total = jet_add(total, jet_mul(t[a, j, m],
                                                           sym[i, a, n]))
                        assert u1[i, j, m, n] == total

    def test_invalid_theta(self):
        pair = identity_pair()
        with pytest.raises(ValueError, match="theta"):
            U_theta(pair.source, pair.mapping, 21)

    @pytest.mark.parametrize("kind", [1, 2])
    @pytest.mark.parametrize("dim, order", MIRROR_CASES)
    def test_each_u_equals_its_own_contraction(self, dim, order, kind):
        """Every U, a mirror read off its partner by transpose too, equals
        the contraction its own ``_U_TERMS`` row names; the torsion-phi
        factor read by negation equals its own contraction as well."""
        pair = synthesize_instance(dim, kind, seed=3, order=order)
        bundle = InvariantBundle(pair.source, pair.mapping)
        parts = bundle.parts()
        assert parts.torsion_phi_last == tensor_contract(
            "ija,a->ij", parts.torsion, parts.phi)
        for theta, (spec, left, right) in enumerate(_U_TERMS, start=1):
            assert bundle.u_tensor(theta) == tensor_contract(
                spec, getattr(parts, left), getattr(parts, right)), \
                f"U_{theta}"

    @pytest.mark.parametrize("kind", [1, 2])
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_table_matches_term_by_term_u(self, dim, kind):
        """Every U the bundle builds equals its term-by-term definition.
        The order-1 instance has phi one order above the connection, so
        products of mixed orders are covered too."""
        pair = synthesize_instance(dim, kind, seed=40 + dim, order=1)
        bundle = InvariantBundle(pair.source, pair.mapping)
        for theta in range(1, 21):
            assert bundle.u_tensor(theta) == term_by_term_u(bundle, theta), \
                f"U_{theta}"


class TestSigmaP:
    def test_sigma1_is_u1_minus_u3_minus_u5(self, pair21):
        s, m = pair21.source, pair21.mapping
        expected = tensor_sub(tensor_sub(U_theta(s, m, 1), U_theta(s, m, 3)),
                              U_theta(s, m, 5))
        assert sigma_p(s, m, 1) == expected

    def test_sigma2_u_combination(self, pair21):
        s, m = pair21.source, pair21.mapping
        c = Fraction(1, s.dim + 1)
        us = {theta: U_theta(s, m, theta) for theta in (1, 9, 11, 6, 7, 8,
                                                        12, 13, 14)}
        expected = tensor_add(tensor_add(us[1], us[9]), us[11])
        for theta, weight in ((6, -2), (7, -1), (8, 1), (12, -2), (13, -1),
                              (14, 1)):
            expected = tensor_add(expected, tensor_scale(weight * c, us[theta]))
        assert sigma_p(s, m, 2) == expected

    def test_torsion_free_all_vanish(self):
        space = torsion_free_space(2, 1, seed=41)
        mapping = random_mapping(2, 1, seed=42)
        for p in range(1, 9):
            assert sigma_p(space, mapping, p).is_zero()

    @pytest.mark.parametrize("p", range(1, 9))
    def test_matches_coefficient_row(self, p, pair21):
        # sigma_p reads the table row; the reference is coded term by term
        s, m = pair21.source, pair21.mapping
        expected = term_by_term_sigma(InvariantBundle(s, m), p)
        assert sigma_p(s, m, p) == expected

    def test_invalid_p(self, pair21):
        with pytest.raises(ValueError, match="p"):
            sigma_p(pair21.source, pair21.mapping, 9)


class TestSigmaCoeffMatrix:
    def test_row_one(self):
        matrix = sigma_coeff_matrix(3)
        expected = [Fraction(0)] * 20
        expected[0], expected[2], expected[4] = (Fraction(1), Fraction(-1),
                                                 Fraction(-1))
        assert exact_rows(matrix)[0] == expected

    @pytest.mark.parametrize("n", range(2, 7))
    def test_rank_is_four(self, n):
        assert rank_exact(sigma_coeff_matrix(n)) == 4

    def test_entry_domain(self):
        matrix = sigma_coeff_matrix(4)
        c = Fraction(1, 5)
        allowed = {Fraction(0), Fraction(1), Fraction(-1), c, -c, 2 * c, -2 * c}
        assert (matrix.rows, matrix.cols) == (8, 20)
        assert {e for row in exact_rows(matrix) for e in row} <= allowed

    @pytest.mark.parametrize("dim", [3, 4])
    def test_table_matches_term_by_term_sigma(self, dim):
        """The proof of the table behind the matrix, and so behind every
        sigma the program builds.  On a generic instance the twenty U's
        are independent at the base point, so each sigma has one expansion
        over them, and ``bundle.sigma`` (the table row over the U's) must
        equal the term-by-term definition.  Both are affine in
        c = 1/(N+1), with coefficients that do not depend on N, so
        agreement at c = 1/4 and c = 1/5 fixes the table for every N."""
        bundle = InvariantBundle(random_space(dim, 0, seed=7321 + dim),
                                 random_mapping(dim, 0, seed=7322 + dim))
        us = [bundle.u_tensor(theta) for theta in range(1, 21)]
        flat = RationalMatrix.from_runs([[base_numerators(u)] for u in us])
        assert rank_exact(flat) == 20
        for p in range(1, 9):
            assert bundle.sigma(p) == term_by_term_sigma(bundle, p), \
                f"sigma row {p}"

    def test_rank_is_four_for_every_n(self):
        """The paper's sigma rank 4, proved for every N at once.  The
        table is affine in c, and ``sigma_coeff_matrix(N)`` is it at
        c = 1/(N+1).  Every 5x5 minor is a polynomial of degree <= 5 in
        c, so rank <= 4 at six values of c makes every one of them vanish
        identically.  The 4x4 minor on rows p = 1, 5, 7, 8 and columns
        theta = 1, 3, 11, 9 is a polynomial of degree <= 4 that equals -1
        at five values of c, so it is the constant -1: it has no root, and
        none of the form 1/(N+1) with N >= 3."""
        def table(c):
            return [[whole + scaled * c
                     for whole, scaled in (_SIGMA_COEFFS[p].get(theta, (0, 0))
                                           for theta in range(1, 21))]
                    for p in range(1, 9)]

        def det(rows):
            # Leibniz expansion; the sign is the parity of the inversions
            total = Fraction(0)
            for perm in permutations(range(len(rows))):
                inversions = sum(perm[i] > perm[j] for i, j in
                                 combinations(range(len(perm)), 2))
                term = Fraction(-1) ** inversions
                for r, c in enumerate(perm):
                    term *= rows[r][c]
                total += term
            return total

        for n in range(2, 7):
            assert exact_rows(sigma_coeff_matrix(n)) == table(Fraction(1, n + 1))
        six = [Fraction(x) for x in (0, 1, -1, "1/3", "2/7", "-3/2")]
        for c in six:
            assert rank_exact(fraction_matrix(table(c))) <= 4, c
        for c in six[:5]:
            t = table(c)
            minor = [[t[p - 1][theta - 1] for theta in (1, 3, 11, 9)]
                     for p in (1, 5, 7, 8)]
            assert det(minor) == -1, c

    def test_small_dimension_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            sigma_coeff_matrix(1)

    def test_run_time_suite_sees_a_corrupted_row(self, monkeypatch, pair31):
        # every sigma the suite builds is read off the table, so a wrong
        # row breaks the torsion derivative route as well as T-tilde
        sigma_coeff_matrix.cache_clear()
        monkeypatch.setitem(_SIGMA_COEFFS[3], 5, (1, 0))
        try:
            reports, _ = verify_instance(pair31, 0, [3], [3], 1)
        finally:
            monkeypatch.undo()
            sigma_coeff_matrix.cache_clear()
        failed = {(r.check, r.params.get("p", r.params.get("rho")))
                  for r in reports if not r.passed}
        assert ("torsion_cd_difference", 3) in failed
        assert ("T_tilde_invariance", 3) in failed


class TestSwapTransport:
    @pytest.mark.parametrize("p", range(1, 9))
    def test_swapped_evaluation_matches_transported_row(self, p, pair21):
        s, m = pair21.source, pair21.mapping
        matrix = sigma_coeff_matrix(s.dim)
        transported = swap_row(exact_rows(matrix)[p - 1])
        combo = zero(s.dim, W_VALENCE, s.torsion().order)
        for theta in range(20):
            if transported[theta]:
                combo = tensor_add(
                    combo, tensor_scale(transported[theta],
                                        U_theta(s, m, theta + 1)))
        swapped = transpose(sigma_p(s, m, p), (0, 1, 3, 2))
        assert swapped == combo


class TestTorsionCdDifference:
    def test_identity_pair_trivial(self):
        [report] = tcd_reports(*sides(identity_pair()), [1])
        assert report.passed
        assert report.max_abs_residual_num_digits == 0
        assert report.residual is None

    @pytest.mark.parametrize("p", range(1, 9))
    def test_synthesized_exact(self, p, pair31):
        [report] = tcd_reports(*sides(pair31), [p])
        assert report.passed

    def test_one_report_per_label_in_order(self, pair21):
        src, tgt = sides(pair21)
        labels = [8, 2, 5]
        reports = tcd_reports(src, tgt, labels)
        assert [r.params["p"] for r in reports] == labels
        for p, report in zip(labels, reports):
            [alone] = tcd_reports(*sides(pair21), [p])
            assert report.to_json() == alone.to_json()

    def test_invalid_label_rejected_before_any_report(self, pair21):
        # the sigma table, built before any check, checks the labels
        with pytest.raises(ValueError, match="p must be between 1 and 8"):
            difference_table(*sides(pair21), 1, [1, 9], [])

    def test_torsion_free_pair_trivial(self):
        [report] = tcd_reports(*sides(torsion_free_pair(seed=3)), [4])
        assert report.passed

    def test_report_json_shape(self, pair21):
        [report] = tcd_reports(*sides(pair21), [2])
        payload = report.to_json()
        assert set(payload) == {"check", "params", "pass",
                                "max_abs_residual_num_digits", "residual",
                                "rank"}
        assert payload["check"] == "torsion_cd_difference"
        assert payload["pass"] is True
        assert payload["residual"] is None
        assert payload["rank"] is None


class TestTTilde:
    @pytest.mark.parametrize("kind", [1, 2])
    def test_invariance(self, kind, pair31, pair32):
        pair = pair_for(kind, pair31, pair32)
        barred = pair.inverse()
        for rho in (1, 4, 8):
            lhs = T_tilde(pair.source, pair.mapping, rho)
            rhs = T_tilde(pair.target, barred, rho)
            assert tensor_sub(lhs, rhs).is_zero()

    def test_flat_torsion_free_zero(self):
        pair = identity_pair()
        assert T_tilde(pair.source, pair.mapping, 3).is_zero()

    def test_u_combination_span_is_four(self, pair31, pair32):
        # N = 2 admits dimension-specific product identities that lose one
        # direction, so the full span needs three-dimensional witnesses.
        rows = []
        for rho in range(1, 9):
            runs = []
            for pair in (pair31, pair32):
                s, m = pair.source, pair.mapping
                deviation = tensor_sub(T_tilde(s, m, rho), s.torsion_cd())
                runs.append(base_numerators(deviation))
            rows.append(runs)
        assert rank_exact(RationalMatrix.from_runs(rows)) == 4

    @pytest.mark.parametrize("dim, kind, order", [(2, 1, 2), (3, 2, 3),
                                                  (4, 1, 2), (5, 2, 2)])
    def test_rho_one_is_the_torsion_gradient(self, dim, kind, order):
        """sigma_1 = U_1 - U_3 - U_5 is the correction part of T^i_{jm;n},
        so T-tilde_1 is the comma derivative of the torsion: a second route
        to the corrections of ``cov_deriv_assoc``, to rows 1, 3 and 5 of
        ``_U_TERMS`` and to row 1 of ``_SIGMA_COEFFS``."""
        pair = synthesize_instance(dim, kind, seed=3, order=order)
        for space, mapping in ((pair.source, pair.mapping),
                               (pair.target, pair.inverse())):
            comma = gradient(space.torsion())
            assert not comma.is_zero()
            assert T_tilde(space, mapping, 1) == comma
            cut = InvariantBundle(space, mapping, order - 1)
            assert t_tilde(cut, 1) == comma

    def test_invalid_rho(self, pair21):
        with pytest.raises(ValueError, match="rho"):
            T_tilde(pair21.source, pair21.mapping, 0)


class TestWFamily:
    def test_zero_parameters_equal_w_star(self, pair21):
        s, m = pair21.source, pair21.mapping
        bundle, zero = InvariantBundle(s, m), Fraction(0)
        for which in (1, 2):
            family = bundle.family(which, 3, 6, zero, zero, zero, zero, zero)
            assert family == W_star(s, m, which)

    @pytest.mark.parametrize("which,p,q", [(1, 2, 7), (2, 5, 1)])
    def test_correlation_identity(self, which, p, q, pair21):
        s, m = pair21.source, pair21.mapping
        u, up, v, vp, w = (Fraction(3), Fraction(-1, 2), Fraction(2),
                           Fraction(1, 3), Fraction(-4))
        family = InvariantBundle(s, m).family(which, p, q, u, up, v, vp, w)
        cd = s.torsion_cd()
        term_v, term_vp, term_w = torsion_square_terms(s)
        rhs = W_star(s, m, which)
        rhs = tensor_add(rhs, tensor_scale(u, cd))
        rhs = tensor_add(rhs, tensor_scale(up, transpose(cd, (0, 1, 3, 2))))
        rhs = tensor_add(rhs, tensor_scale(v, term_v))
        rhs = tensor_add(rhs, tensor_scale(vp, term_vp))
        rhs = tensor_add(rhs, tensor_scale(w, term_w))
        rhs = tensor_sub(rhs, tensor_scale(u, sigma_p(s, m, p)))
        rhs = tensor_sub(rhs, tensor_scale(
            up, transpose(sigma_p(s, m, q), (0, 1, 3, 2))))
        assert tensor_sub(family, rhs).is_zero()

    @pytest.mark.parametrize("kind", [1, 2])
    def test_invariance_sampled_cells(self, kind, pair31, pair32):
        pair = pair_for(kind, pair31, pair32)
        barred = pair.inverse()
        source = InvariantBundle(pair.source, pair.mapping)
        target = InvariantBundle(pair.target, barred)
        rng = random.Random(60 + kind)
        for _ in range(3):
            p, q = rng.randint(1, 8), rng.randint(1, 8)
            params = [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                      for _ in range(5)]
            lhs = source.family(kind, p, q, *params)
            rhs = target.family(kind, p, q, *params)
            assert tensor_sub(lhs, rhs).is_zero()

    @pytest.mark.parametrize("corrupt", [False, True])
    def test_grid_residuals_equal_member_differences(self, corrupt, pair21):
        # each one-cell report of the invariance grid carries exactly the
        # difference of the two family members, also under a faulty inverse
        m_bar = corrupted_inverse(pair21) if corrupt else pair21.inverse()
        src = InvariantBundle(pair21.source, pair21.mapping)
        tgt = InvariantBundle(pair21.target, m_bar)
        values = dict(zip(PARAM_NAMES, (Fraction(3), Fraction(-1, 2),
                                        Fraction(2), Fraction(1, 3),
                                        Fraction(-4))))
        params = [values[name] for name in PARAM_NAMES]
        differing = []
        for p in range(1, 9):
            for q in range(1, 9):
                report = family_invariance_check(
                    difference_table(src, tgt, 1, [p], [q]), [p], [q],
                    values, 0, {})
                expected = tensor_sub(src.family(1, p, q, *params),
                                      tgt.family(1, p, q, *params))
                if expected.is_zero():
                    assert report.passed and report.residual is None
                    assert report.params["failed_cells"] == []
                else:
                    differing.append([p, q])
                    assert report.residual == expected
                    assert report.params["failed_cells"] == [[p, q]]
        assert bool(differing) == corrupt
        labels = list(range(1, 9))
        report = family_invariance_check(
            difference_table(src, tgt, 1, labels, labels), labels, labels,
            values, 0, {})
        assert report.params["failed_cells"] == differing

    def test_invalid_labels(self, pair21):
        s, m = pair21.source, pair21.mapping
        one = Fraction(1)
        with pytest.raises(ValueError, match="p"):
            InvariantBundle(s, m).family(1, 0, 1, one, one, one, one, one)
        with pytest.raises(ValueError, match="q"):
            InvariantBundle(s, m).family(1, 1, 9, one, one, one, one, one)
        with pytest.raises(ValueError, match="which"):
            InvariantBundle(s, m).family(4, 1, 1, one, one, one, one, one)

    @pytest.mark.parametrize("q", [0, 9])
    def test_swapped_sigma_names_its_label_q(self, pair21, q):
        bundle = InvariantBundle(pair21.source, pair21.mapping)
        message = f"^q must be between 1 and 8, got {q}$"
        one = Fraction(1)
        with pytest.raises(ValueError, match=message):
            bundle.family(1, 1, q, one, one, one, one, one)
        with pytest.raises(ValueError, match=message):
            difference_table(bundle, bundle, 1, [1], [q])
        assert bundle._cache == {}


class TestBuildWMatrix:
    def test_generic_rank_six(self):
        assert generic_rank(build_W_matrix(3)) == 6

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_entries_follow_the_sigma_rows(self, n):
        matrix = build_W_matrix(n)
        sigma = exact_rows(sigma_coeff_matrix(n))
        zero, one = Fraction(0), Fraction(1)
        assert (matrix.rows, matrix.cols) == (64, 26)
        for p in range(8):
            plain = sigma[p]
            for q in range(8):
                swapped = swap_row(sigma[q])
                r = 8 * p + q
                row = [tuple(Fraction(x, matrix.dens[r]) for x in entry)
                       for entry in matrix.coeffs[r]]
                assert row[0] == (one,) + (zero,) * 5
                assert row[1:21] == [(zero, -plain[t], -swapped[t], zero, zero,
                                      zero) for t in range(20)]
                assert row[21:] == [tuple(Fraction(int(k == slot))
                                          for k in range(6))
                                    for slot in range(1, 6)]

    def test_both_parameters_zero_collapses_to_one_row(self):
        matrix = build_W_matrix(2)
        values = {"u": Fraction(0), "u'": Fraction(0), "v": Fraction(7),
                  "v'": Fraction(11), "w": Fraction(13)}
        substituted = matrix.substitute(values)
        expected_row = ([Fraction(1)] + [Fraction(0)] * 20
                        + [Fraction(0), Fraction(0), Fraction(7),
                           Fraction(11), Fraction(13)])
        assert exact_rows(substituted) == [expected_row] * 64
        assert rank_exact(substituted) == 1

    @pytest.mark.parametrize("kept", ["u", "u'"])
    def test_single_parameter_rank_four(self, kept):
        matrix = build_W_matrix(3)
        rng = random.Random(17)
        values = {name: Fraction(0) for name in ("u", "u'")}
        values[kept] = Fraction(rng.randint(2, 40), rng.randint(1, 9))
        values.update({"v": Fraction(3), "v'": Fraction(5), "w": Fraction(9)})
        assert rank_exact(matrix.substitute(values)) == 4

    def test_small_dimension_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            build_W_matrix(1)


class TestFamilySpanDimension:
    def test_generic_pairs_give_six(self, pair31, pair32):
        assert family_span_dimension([pair31, pair32], seed=1) == 6

    def test_torsion_free_pairs_collapse(self):
        pairs = [torsion_free_pair(seed=71), torsion_free_pair(seed=72)]
        assert family_span_dimension(pairs, seed=2) == 0

    def test_single_sampled_row_has_rank_one(self, pair21):
        bundle = InvariantBundle(pair21.source, pair21.mapping)
        params = (Fraction(2), Fraction(-3), Fraction(1), Fraction(4),
                  Fraction(-5))
        deviation = tensor_sub(bundle.family(1, 2, 5, *params),
                               bundle.w_star(1))
        matrix = RationalMatrix.from_runs([[base_numerators(deviation)]])
        assert rank_exact(matrix) == 1

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError, match="pair"):
            family_span_dimension([], seed=0)


class TestRKTransformation:
    def test_identity_pair_trivial(self):
        report = rk_report(*sides(identity_pair()), 1, 1, 1, Fraction(1),
                           Fraction(1))
        assert report.passed
        assert report.max_abs_residual_num_digits == 0

    @pytest.mark.parametrize("kind", [1, 2])
    def test_synthesized_exact(self, kind, pair31, pair32):
        pair = pair_for(kind, pair31, pair32)
        report = rk_report(*sides(pair), kind, 2, 6, Fraction(2),
                           Fraction(-1, 3))
        assert report.passed
        assert report.max_abs_residual_num_digits == 0

    def test_u_zero_reduction_to_curvature_identity(self, pair21):
        # With u = u' = 0 the family check degenerates to the curvature
        # check: the torsion-square terms cancel between the two spaces.
        src, tgt = pair21.source, pair21.target
        v, vp, w = Fraction(2), Fraction(-7), Fraction(1, 2)
        zero = Fraction(0)
        k_diff = tensor_sub(curvature_K(tgt, zero, zero, v, vp, w),
                            curvature_K(src, zero, zero, v, vp, w))
        r_diff = tensor_sub(tgt.curvature(), src.curvature())
        assert tensor_sub(k_diff, r_diff).is_zero()

    def test_report_parameters_serialized(self, pair21):
        report = rk_report(*sides(pair21), 1, 3, 4, Fraction(1, 2),
                           Fraction(5))
        payload = report.to_json()
        assert payload["check"] == "R_K_transformation"
        assert payload["params"]["u"] == "1/2"
        assert payload["params"]["which"] == 1
        assert payload["pass"] is True


class TestInvariantBundle:
    def test_properties_expose_cached_objects(self, pair21):
        bundle = InvariantBundle(pair21.source, pair21.mapping)
        assert bundle.sigma(1) is bundle.sigma(1)
        assert bundle.parts() is bundle.parts()
        assert bundle.u_tensor(20) is bundle.u_tensor(20)
        assert bundle.sigma(1) == sigma_p(pair21.source, pair21.mapping, 1)

    def test_kept_methods_keep_one_object_and_no_failure(self, pair21):
        space = Space(pair21.source.dim, pair21.source.gamma)
        for name in ("sym", "torsion", "trace_sym", "curvature",
                     "torsion_cd", "torsion_squares"):
            method = getattr(space, name)
            assert method() is method(), name
        bundle = InvariantBundle(space, pair21.mapping)
        with pytest.raises(ValueError):
            bundle.sigma(9)
        assert bundle._cache == {}


def bundle_values(bundle: InvariantBundle) -> dict[str, TensorField]:
    """Every U, sigma, swapped sigma, T-tilde, eta and W of one bundle."""
    values = {f"u_tensor({theta})": bundle.u_tensor(theta)
              for theta in range(1, 21)}
    for p in range(1, 9):
        values[f"sigma({p})"] = bundle.sigma(p)
        values[f"sigma_star({p})"] = sigma_star(bundle, p)
        values[f"t_tilde({p})"] = t_tilde(bundle, p)
    for which in (1, 2):
        values[f"eta({which})"] = bundle.eta(which)
        values[f"w_star({which})"] = bundle.w_star(which)
    return values


class TestCutOrder:
    """Products taken at a lower order give the full-order values cut to
    that order: truncated Taylor arithmetic commutes with truncation."""

    @pytest.mark.parametrize("kind", [1, 2])
    @pytest.mark.parametrize("order", [2, 3])
    def test_bundle_at_k_is_full_bundle_cut_to_k(self, order, kind):
        pair = synthesize_instance(2, kind, seed=6, order=order)
        for space, mapping in ((pair.source, pair.mapping),
                               (pair.target, pair.inverse())):
            full = bundle_values(InvariantBundle(space, mapping))
            for k in range(order):
                cut = bundle_values(InvariantBundle(space, mapping, k))
                for name, value in full.items():
                    assert cut[name].order == k, (k, name)
                    assert cut[name] == tensor_truncate(value, k), (k, name)

    @pytest.mark.parametrize("order", [2, 3])
    def test_torsion_squares_are_full_squares_cut(self, order):
        s = random_space(2, order, seed=17)
        t, dim = s.torsion(), s.dim

        def square(pairing):
            return TensorField.build(
                dim, W_VALENCE,
                lambda idx: jet_sum(jet_mul(*pairing(idx, a))
                                for a in range(dim)))

        expected = (
            square(lambda idx, a: (t[a, idx[1], idx[2]], t[idx[0], a, idx[3]])),
            square(lambda idx, a: (t[a, idx[1], idx[3]], t[idx[0], a, idx[2]])),
            square(lambda idx, a: (t[a, idx[2], idx[3]], t[idx[0], a, idx[1]])))
        kept = torsion_square_terms(s)
        assert kept is torsion_square_terms(s)
        assert kept == tuple(tensor_truncate(e, order - 1) for e in expected)
        assert all(term.order == order - 1 for term in kept)


def _reachable_fields(roots) -> dict[int, TensorField]:
    """Every tensor field held in ``roots``, through dicts, sequences and
    ``_Parts`` attributes, by object identity."""
    found: dict[int, TensorField] = {}
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if isinstance(obj, TensorField):
            found[id(obj)] = obj
        elif isinstance(obj, _Parts):
            stack.extend(vars(obj).values())
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
    return found


@pytest.mark.parametrize("dim, order", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_routes_share_no_cached_field(monkeypatch, dim, order):
    """A check compares a source value with an independent target value;
    a field cached on both sides would make it compare a value with
    itself.  After every check of ``verify_instance``, no field kept by
    the source bundle or space is kept by the target side too."""
    bundles = []

    class RecordedBundle(InvariantBundle):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            bundles.append(self)

    monkeypatch.setattr(harness, "InvariantBundle", RecordedBundle)
    # kind 1 at order 2, kind 2 at order 3
    pair = synthesize_instance(dim, order - 1, seed=3, order=order)
    labels = list(range(1, 9))
    reports, _ = verify_instance(pair, 0, labels, labels, 2)
    assert all(report.passed for report in reports)
    src, tgt = bundles
    kept = [_reachable_fields([bundle._cache, bundle.space._cache])
            for bundle in (src, tgt)]
    assert kept[0] and kept[1]
    assert not kept[0].keys() & kept[1].keys()
