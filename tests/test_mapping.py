"""Transformation law, basic equation, reciprocity, and instance synthesis."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eqlab.mapping as mapping_module
from eqlab.documents import pair_json
from eqlab.geometry import GAMMA_VALENCE, Space
from eqlab.jets import JetScalar, jet_inverse, jet_mul, jet_scale, value_at_base
from eqlab.mapping import (
    AG3Mapping,
    BasicEquationError,
    FactorizationMismatch,
    MappedPair,
    ReciprocityError,
    _inverse_onto,
    basic_equation_residual,
    gamma_diff_factorized,
    random_jet,
    reciprocity_inverse,
    synthesize_instance,
    transform_connection,
)
from eqlab.tensors import DOWN, UP, TensorField, tensor_add, tensor_sub

seeds = st.integers(min_value=0, max_value=10**6)
kinds = st.sampled_from([1, 2])
dims = st.sampled_from([2, 3])


def zero_space(dim: int, order: int) -> Space:
    return Space(dim, TensorField.zero(dim, GAMMA_VALENCE, order))


def constant_covector(dim: int, order: int, values) -> TensorField:
    return TensorField.build(
        dim, (DOWN,),
        lambda idx: JetScalar.constant(dim, order, values[idx[0]]))


def flat_instance(dim: int = 2, order: int = 3, scale: Fraction = Fraction(3, 2),
                  kind: int = 1) -> tuple[Space, AG3Mapping]:
    """Zero connection with phi^i = c x^i, nu = 0, mu = c: residual vanishes."""
    space = zero_space(dim, order)
    phi = TensorField.build(
        dim, (UP,),
        lambda idx: jet_scale(scale, JetScalar.coordinate(dim, order + 1, idx[0])))
    mapping = AG3Mapping(
        psi=TensorField.zero(dim, (DOWN,), order),
        sigma=TensorField.zero(dim, (DOWN, DOWN), order),
        phi=phi,
        nu=TensorField.zero(dim, (DOWN,), order),
        mu=TensorField.scalar(dim, order, scale),
        kind=kind)
    return space, mapping


class TestTransform:
    def test_identity_mapping_keeps_connection(self):
        space, mapping = flat_instance()
        pair = MappedPair.build(space, mapping)
        assert pair.target.gamma == space.gamma

    def test_constant_psi_hand_case(self):
        dim, order = 2, 2
        space = zero_space(dim, order)
        mapping = AG3Mapping(
            psi=constant_covector(dim, order, (1, 0)),
            sigma=TensorField.zero(dim, (DOWN, DOWN), order),
            phi=TensorField.zero(dim, (UP,), order + 1),
            nu=TensorField.zero(dim, (DOWN,), order),
            mu=TensorField.zero(dim, (), order),
            kind=1)
        bar = transform_connection(space, mapping).gamma
        values = {idx: value_at_base(bar[idx]) for idx in bar.indices()}
        assert values[(0, 0, 0)] == 2
        assert values[(1, 0, 1)] == 1
        assert values[(1, 1, 0)] == 1
        assert all(v == 0 for idx, v in values.items()
                   if idx not in {(0, 0, 0), (1, 0, 1), (1, 1, 0)})

    @given(seed=seeds, kind=kinds, dim=dims)
    @settings(max_examples=25, deadline=None)
    def test_equitorsion(self, seed: int, kind: int, dim: int):
        pair = synthesize_instance(dim, kind, seed)
        assert pair.source.torsion() == pair.target.torsion()

    def test_dimension_mismatch_rejected(self):
        space, _ = flat_instance(dim=2)
        _, mapping = flat_instance(dim=3)
        with pytest.raises(ValueError):
            transform_connection(space, mapping)


class TestBasicEquation:
    def test_flat_construction_residual_vanishes(self):
        for kind in (1, 2):
            space, mapping = flat_instance(kind=kind)
            assert basic_equation_residual(space, mapping).is_zero()

    @given(seed=seeds, kind=kinds, dim=dims)
    @settings(max_examples=25, deadline=None)
    def test_synthesized_residual_is_exactly_zero(self, seed: int, kind: int, dim: int):
        pair = synthesize_instance(dim, kind, seed)
        residual = basic_equation_residual(pair.source, pair.mapping)
        assert residual.is_zero()

    def test_unrelated_data_has_nonzero_residual(self):
        rng = random.Random(99)
        dim, order = 2, 2
        gamma = TensorField.build(dim, GAMMA_VALENCE,
                                  lambda idx: random_jet(rng, dim, order))
        space = Space(dim, gamma)
        mapping = AG3Mapping(
            psi=TensorField.zero(dim, (DOWN,), order),
            sigma=TensorField.zero(dim, (DOWN, DOWN), order),
            phi=TensorField.build(dim, (UP,),
                                  lambda idx: random_jet(rng, dim, order + 1)),
            nu=TensorField.build(dim, (DOWN,),
                                 lambda idx: random_jet(rng, dim, order)),
            mu=TensorField(dim, (), [random_jet(rng, dim, order)]),
            kind=1)
        assert not basic_equation_residual(space, mapping).is_zero()


class TestSynthesize:
    @given(seed=seeds, kind=kinds)
    @settings(max_examples=15, deadline=None)
    def test_torsion_is_generically_nonzero(self, seed: int, kind: int):
        pair = synthesize_instance(3, kind, seed)
        assert not pair.source.torsion().is_zero()

    def test_deterministic_in_all_arguments(self):
        a = synthesize_instance(2, 1, 42)
        b = synthesize_instance(2, 1, 42)
        assert json.dumps(pair_json(a), sort_keys=True) == json.dumps(pair_json(b), sort_keys=True)
        c = synthesize_instance(2, 2, 42)
        assert json.dumps(pair_json(a), sort_keys=True) != json.dumps(pair_json(c), sort_keys=True)

    def test_json_round_trip(self):
        pair = synthesize_instance(3, 2, 7)
        again = MappedPair.from_json(pair_json(pair))
        assert again.source.gamma == pair.source.gamma
        assert again.target.gamma == pair.target.gamma
        assert again.mapping == pair.mapping

    def test_degenerate_assembly_hand_case(self):
        # B = 0, nu = 0, mu and phi constant: the kind-1 assembly collapses
        # to Gamma^i_{kj} = mu delta^i_j w_k with w supported on slot 1
        dim, order = 2, 2
        mu = Fraction(3)
        phi = TensorField.build(
            dim, (UP,),
            lambda idx: JetScalar.constant(dim, order + 1, 2 if idx[0] == 0 else 1))
        w = jet_inverse(JetScalar.constant(dim, order, 2))

        def gamma_entry(idx):
            i, k, j = idx
            if k == 0 and i == j:
                return jet_scale(mu, w)
            return JetScalar.zero(dim, order)

        space = Space(dim, TensorField.build(dim, GAMMA_VALENCE, gamma_entry))
        mapping = AG3Mapping(
            psi=TensorField.zero(dim, (DOWN,), order),
            sigma=TensorField.zero(dim, (DOWN, DOWN), order),
            phi=phi,
            nu=TensorField.zero(dim, (DOWN,), order),
            mu=TensorField.scalar(dim, order, mu),
            kind=1)
        assert basic_equation_residual(space, mapping).is_zero()
        torsion = space.torsion()
        half_mu_w = jet_scale(Fraction(1, 2) * mu, w)
        for i in range(dim):
            for k in range(dim):
                for j in range(dim):
                    expected = JetScalar.zero(dim, order)
                    if i == j and k == 0:
                        expected = half_mu_w
                    if i == k and j == 0:
                        expected = jet_scale(-1, half_mu_w)
                    if i == j == k == 0:
                        expected = JetScalar.zero(dim, order)
                    assert torsion[i, k, j] == expected

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            synthesize_instance(1, 1, 0)
        with pytest.raises(ValueError):
            synthesize_instance(2, 3, 0)
        with pytest.raises(ValueError):
            synthesize_instance(2, 1, 0, order=0)


class TestReciprocity:
    def test_identity_mapping_inverse_keeps_nu_mu(self):
        space, mapping = flat_instance()
        inverse = reciprocity_inverse(space, mapping)
        assert inverse.nu == mapping.nu
        assert inverse.mu == mapping.mu
        assert inverse.psi == mapping.psi
        assert inverse.sigma == mapping.sigma

    @given(seed=seeds, kind=kinds, dim=dims)
    @settings(max_examples=25, deadline=None)
    def test_inverse_satisfies_basic_equation_on_target(self, seed: int, kind: int, dim: int):
        pair = synthesize_instance(dim, kind, seed)
        inverse = pair.inverse()
        assert basic_equation_residual(pair.target, inverse).is_zero()

    @given(seed=seeds, kind=kinds, dim=dims)
    @settings(max_examples=25, deadline=None)
    def test_transform_back_recovers_source(self, seed: int, kind: int, dim: int):
        pair = synthesize_instance(dim, kind, seed)
        back = transform_connection(pair.target, pair.inverse())
        assert back.gamma == pair.source.gamma

    @given(seed=seeds, kind=kinds)
    @settings(max_examples=25, deadline=None)
    def test_double_inverse_is_identity(self, seed: int, kind: int):
        pair = synthesize_instance(2, kind, seed)
        inverse = pair.inverse()
        again = reciprocity_inverse(pair.target, inverse)
        assert again == pair.mapping

    def test_sign_conventions(self):
        pair = synthesize_instance(3, 1, 11)
        inverse = pair.inverse()
        m = pair.mapping
        assert inverse.psi == tensor_sub(TensorField.zero(3, (DOWN,), m.psi.order), m.psi)
        assert inverse.sigma == tensor_sub(
            TensorField.zero(3, (DOWN, DOWN), m.sigma.order), m.sigma)
        assert inverse.phi == m.phi
        # nubar_j = nu_j + psi_j + 2 sigma_{ja} phi^a, mubar = mu + psi_a phi^a
        sigma_phi = m.sigma_phi()
        for j in range(3):
            expected = m.nu[j] + m.psi[j] + jet_scale(2, sigma_phi[j])
            assert inverse.nu[j] == expected
        assert inverse.mu[()] == m.mu[()] + m.psi_phi()[()]

    def test_inverse_reuses_only_a_checked_target(self):
        pair = synthesize_instance(2, 1, 3)
        expected = reciprocity_inverse(pair.source, pair.mapping)
        assert pair.inverse() == expected
        assert MappedPair.from_json(pair_json(pair)).inverse() == expected
        order = pair.target.gamma.order
        bump = TensorField.build(
            2, GAMMA_VALENCE,
            lambda idx: JetScalar.constant(2, order, 1 if idx == (0, 1, 1) else 0))
        fake_target = Space(2, tensor_add(pair.target.gamma, bump))
        with pytest.raises(ReciprocityError, match="image back"):
            _inverse_onto(pair.source, pair.mapping, fake_target)
        # a hand-built pair is inverted from its source, whatever its target
        assert MappedPair(pair.source, pair.mapping, fake_target).inverse() == expected

    def test_each_side_proves_the_basic_equation_once(self, monkeypatch):
        """Build or validate proves the source side; the inverse proves
        only the target side."""
        doc = pair_json(synthesize_instance(3, 1, 0))
        calls = []

        def counted(s, m):
            calls.append(s)
            return basic_equation_residual(s, m)

        monkeypatch.setattr(mapping_module, "basic_equation_residual", counted)
        for make in (lambda: synthesize_instance(3, 1, 0),
                     lambda: MappedPair.from_json(doc)):
            calls.clear()
            pair = make()
            pair.inverse()
            assert calls == [pair.source, pair.target]

    def test_nonzero_residual_rejected(self):
        space, mapping = flat_instance()
        wrong = AG3Mapping(psi=mapping.psi, sigma=mapping.sigma, phi=mapping.phi,
                           nu=mapping.nu,
                           mu=TensorField.scalar(space.dim, mapping.mu.order, 17),
                           kind=mapping.kind)
        with pytest.raises(BasicEquationError):
            reciprocity_inverse(space, wrong)


class TestGammaDiffFactorized:
    def test_identity_mapping_gives_zero(self):
        space, mapping = flat_instance()
        pair = MappedPair.build(space, mapping)
        assert gamma_diff_factorized(pair, pair.inverse()).is_zero()

    @given(seed=seeds, kind=kinds, dim=dims)
    @settings(max_examples=25, deadline=None)
    def test_factorization_matches_symmetric_difference(self, seed: int, kind: int, dim: int):
        pair = synthesize_instance(dim, kind, seed)
        value = gamma_diff_factorized(pair, pair.inverse())
        assert value == tensor_sub(pair.target.sym(), pair.source.sym())

    def test_pure_psi_difference(self):
        space, mapping = flat_instance(dim=2, order=3)
        psi = constant_covector(2, 3, (Fraction(1, 3), Fraction(-2)))
        shifted = AG3Mapping(psi=psi, sigma=mapping.sigma, phi=mapping.phi,
                             nu=mapping.nu, mu=mapping.mu, kind=1)
        pair = MappedPair.build(space, shifted)
        diff = gamma_diff_factorized(pair, pair.inverse())
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    expected = JetScalar.zero(2, diff.order)
                    if i == k:
                        expected = expected + psi[j]
                    if i == j:
                        expected = expected + psi[k]
                    assert diff[i, j, k] == expected

    def test_corrupted_pair_raises_with_residual(self):
        pair = synthesize_instance(2, 1, 3)
        order = pair.target.gamma.order
        # symmetric trace-free bump: invisible to the trace terms, so the
        # factorized side cannot absorb it
        bump = TensorField.build(
            2, GAMMA_VALENCE,
            lambda idx: JetScalar.constant(2, order, 1 if idx == (0, 1, 1) else 0))
        fake_target = Space(2, tensor_add(pair.target.gamma, bump))
        corrupted = MappedPair(pair.source, pair.mapping, fake_target)
        with pytest.raises(FactorizationMismatch) as excinfo:
            gamma_diff_factorized(corrupted, corrupted.inverse())
        assert not excinfo.value.residual.is_zero()
