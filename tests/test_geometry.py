"""Connection split, covariant derivatives, curvature, and the K family."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqlab.documents import FieldError, load_space, space_json, tensor_json
from eqlab.geometry import (
    GAMMA_VALENCE,
    Space,
    cov_deriv_assoc,
    cov_deriv_kind,
    curvature_K,
    curvature_R,
    curvature_family_span,
    random_connection,
    torsion_square_terms,
)
from eqlab.jets import (MAX_ORDER, JetScalar, jet_add, jet_mul, jet_neg,
                        jet_partial, value_at_base)
from eqlab.mapping import random_jet
from eqlab.tensors import (
    DOWN,
    UP,
    TensorField,
    tensor_add,
    tensor_scale,
    tensor_sub,
    transpose,
)

import random

seeds = st.integers(min_value=0, max_value=10**6)


def space_from_entries(dim: int, order: int, entries: dict) -> Space:
    gamma = TensorField.build(
        dim, GAMMA_VALENCE,
        lambda idx: entries.get(idx, JetScalar.zero(dim, order)))
    return Space(dim, gamma)


def random_field(dim: int, valence, order: int, seed: int) -> TensorField:
    rng = random.Random(seed)
    return TensorField.build(dim, valence,
                             lambda idx: random_jet(rng, dim, order))


class TestSplit:
    def test_symmetric_connection_has_zero_torsion(self):
        dim = 2
        x2 = JetScalar.coordinate(dim, 2, 1)
        s = space_from_entries(dim, 2, {(0, 0, 1): x2, (0, 1, 0): x2})
        assert s.torsion().is_zero()
        assert s.sym() == s.gamma

    def test_single_asymmetric_entry(self):
        dim = 2
        one = JetScalar.constant(dim, 2, 1)
        s = space_from_entries(dim, 2, {(0, 0, 1): one})
        sym, torsion = s.sym(), s.torsion()
        half = Fraction(1, 2)
        assert value_at_base(sym[0, 0, 1]) == half
        assert value_at_base(sym[0, 1, 0]) == half
        assert value_at_base(torsion[0, 0, 1]) == half
        assert value_at_base(torsion[0, 1, 0]) == -half

    @given(seed=seeds, dim=st.sampled_from([2, 3]))
    @settings(max_examples=30, deadline=None)
    def test_split_reassembles(self, seed: int, dim: int):
        s = random_connection(dim, 2, seed)
        assert tensor_add(s.sym(), s.torsion()) == s.gamma

    def test_trace_of_symmetric_part(self):
        dim = 2
        x2 = JetScalar.coordinate(dim, 2, 1)
        s = space_from_entries(dim, 2, {(0, 0, 0): x2})
        trace = s.trace_sym()
        assert trace[0] == x2
        assert trace[1].is_zero()


class TestSpaceJson:
    def test_metric_slot_is_written_empty_and_rejected_when_filled(self):
        doc = space_json(random_connection(2, 2, 3))
        assert doc["metric"] is None
        doc["metric"] = tensor_json(random_field(2, (DOWN, DOWN), 2, 5))
        with pytest.raises(ValueError):
            load_space(doc)

    def test_connection_order_is_capped_above_the_cap(self):
        at_cap = random_connection(2, MAX_ORDER, 3)
        assert load_space(space_json(at_cap)).gamma == at_cap.gamma
        with pytest.raises(FieldError, match=f"the connection order is "
                           f"{MAX_ORDER + 1}, above the cap of {MAX_ORDER}"):
            load_space(space_json(random_connection(2, MAX_ORDER + 1, 3)))


class TestCovDerivAssoc:
    def test_delta_is_parallel(self):
        s = random_connection(3, 2, 5)
        delta = TensorField.delta(3, 2)
        assert cov_deriv_assoc(delta, s).is_zero()

    def test_scalar_reduces_to_comma(self):
        s = random_connection(2, 2, 7)
        f = random_field(2, (), 2, 11)
        derived = cov_deriv_assoc(f, s)
        for k in range(2):
            assert derived[(k,)] == jet_partial(f[()], k)

    def test_pure_torsion_reduces_to_comma(self):
        # antisymmetric gamma has zero symmetric part
        dim = 2
        x1 = JetScalar.coordinate(dim, 2, 0)
        s = space_from_entries(dim, 2, {(0, 0, 1): x1, (0, 1, 0): jet_neg(x1)})
        assert s.sym().is_zero()
        a = random_field(dim, (UP, DOWN), 2, 13)
        derived = cov_deriv_assoc(a, s)
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    assert derived[i, j, k] == jet_partial(a[i, j], k)

    def test_mixed_valence_matches_componentwise_formula(self):
        dim = 2
        s = random_connection(dim, 2, 17)
        sym = s.sym()
        a = random_field(dim, (UP, DOWN), 2, 19)
        derived = cov_deriv_assoc(a, s)
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    expected = jet_partial(a[i, j], k)
                    for alpha in range(dim):
                        expected = jet_add(expected,
                                           jet_mul(sym[i, alpha, k], a[alpha, j]))
                        expected = jet_add(expected,
                                           jet_neg(jet_mul(sym[alpha, j, k], a[i, alpha])))
                    assert derived[i, j, k] == expected


class TestCovDerivKind:
    def test_zero_connection_gives_comma(self):
        dim = 2
        s = space_from_entries(dim, 2, {})
        a = random_field(dim, (UP, DOWN), 2, 23)
        for kind in (1, 2):
            derived = cov_deriv_kind(a, s, kind)
            for i in range(dim):
                for j in range(dim):
                    for k in range(dim):
                        assert derived[i, j, k] == jet_partial(a[i, j], k)

    @given(seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_torsion_free_kinds_coincide_with_assoc(self, seed: int):
        s = Space(2, random_connection(2, 2, seed).sym())
        a = random_field(2, (UP, DOWN), 2, seed + 1)
        reference = cov_deriv_assoc(a, s)
        for kind in (1, 2):
            assert cov_deriv_kind(a, s, kind) == reference

    @given(seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_kind_difference_is_twice_torsion_on_vector(self, seed: int):
        dim = 3
        s = random_connection(dim, 2, seed)
        phi = random_field(dim, (UP,), 2, seed + 2)
        torsion = s.torsion()
        diff = tensor_sub(cov_deriv_kind(phi, s, 1), cov_deriv_kind(phi, s, 2))

        def expected_component(idx):
            i, j = idx
            total = None
            for alpha in range(dim):
                term = jet_mul(torsion[i, alpha, j], phi[alpha])
                total = term if total is None else jet_add(total, term)
            # truncate the product to the derivative's order
            return jet_add(jet_add(total, total), JetScalar.zero(dim, 1))

        expected = TensorField.build(dim, (UP, DOWN), expected_component)
        assert diff == expected

    def test_invalid_kind_rejected(self):
        s = random_connection(2, 2, 1)
        phi = random_field(2, (UP,), 2, 3)
        for kind in (3, 4, 5):
            with pytest.raises(ValueError):
                cov_deriv_kind(phi, s, kind)


class TestCurvatureR:
    def test_flat_space(self):
        s = space_from_entries(2, 2, {})
        assert curvature_R(s).is_zero()

    def test_linear_coefficient_hand_case(self):
        # Gamma^1_{11} = x_2 makes R^1_{112} = 1 at the base point
        dim = 2
        x2 = JetScalar.coordinate(dim, 2, 1)
        s = space_from_entries(dim, 2, {(0, 0, 0): x2})
        r = curvature_R(s)
        assert value_at_base(r[0, 0, 0, 1]) == 1
        assert value_at_base(r[0, 0, 1, 0]) == -1

    @given(seed=seeds, dim=st.sampled_from([2, 3]))
    @settings(max_examples=20, deadline=None)
    def test_antisymmetric_in_last_pair(self, seed: int, dim: int):
        r = curvature_R(random_connection(dim, 2, seed))
        assert tensor_add(r, transpose(r, (0, 1, 3, 2))).is_zero()

    @given(seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_first_bianchi_for_torsion_free(self, seed: int):
        s = Space(3, random_connection(3, 2, seed).sym())
        r = curvature_R(s)
        cyclic = tensor_add(r, tensor_add(transpose(r, (0, 2, 3, 1)),
                                          transpose(r, (0, 3, 1, 2))))
        assert cyclic.is_zero()


class TestCurvatureK:
    def test_zero_parameters_give_r(self):
        s = random_connection(3, 2, 31)
        assert curvature_K(s, 0, 0, 0, 0, 0) == curvature_R(s)

    @given(seed=seeds)
    @settings(max_examples=10, deadline=None)
    def test_torsion_free_family_collapses(self, seed: int):
        s = Space(2, random_connection(2, 2, seed).sym())
        k = curvature_K(s, 1, Fraction(-1, 2), 2, 3, Fraction(5, 7))
        assert k == curvature_R(s)

    def test_linear_in_parameters(self):
        s = random_connection(3, 2, 37)
        r = curvature_R(s)
        p1 = (1, 2, Fraction(1, 3), 0, 5)
        p2 = (0, Fraction(-2, 7), 4, 1, 1)
        both = tuple(a + b for a, b in zip(p1, p2))
        lhs = tensor_sub(curvature_K(s, *both), r)
        rhs = tensor_add(tensor_sub(curvature_K(s, *p1), r),
                         tensor_sub(curvature_K(s, *p2), r))
        assert lhs == rhs
        scaled = tuple(3 * a for a in p1)
        assert (tensor_sub(curvature_K(s, *scaled), r)
                == tensor_scale(3, tensor_sub(curvature_K(s, *p1), r)))

    def test_matches_term_by_term_assembly(self):
        s = random_connection(2, 2, 41)
        u, up, v, vp, w = Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(3), Fraction(-4)
        cd = s.torsion_cd()
        v_term, vp_term, w_term = torsion_square_terms(s)
        expected = curvature_R(s)
        expected = tensor_add(expected, tensor_scale(u, cd))
        expected = tensor_add(expected, tensor_scale(up, transpose(cd, (0, 1, 3, 2))))
        expected = tensor_add(expected, tensor_scale(v, v_term))
        expected = tensor_add(expected, tensor_scale(vp, vp_term))
        expected = tensor_add(expected, tensor_scale(w, w_term))
        assert curvature_K(s, u, up, v, vp, w) == expected


class TestFamilySpan:
    def test_span_is_five_at_dim_three(self):
        assert curvature_family_span(3, seed=0) == 5

    def test_span_is_five_at_dim_four(self):
        assert curvature_family_span(4, seed=0) == 5

    def test_span_collapses_to_four_at_dim_two(self):
        # antisymmetrising three lower indices over two dimensions kills
        # one combination of the torsion squares, so the five family
        # directions satisfy one linear relation in every 2d space
        assert curvature_family_span(2, seed=0) == 4
