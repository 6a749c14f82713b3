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
from eqlab.harness import corrupted_inverse
from eqlab.invariants import InvariantBundle
from eqlab.jets import (MAX_ORDER, JetScalar, jet_add, jet_mul, jet_neg,
                        jet_partial, value_at_base)
from eqlab.mapping import synthesize_instance
from eqlab.tensors import (
    DOWN,
    UP,
    TensorField,
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

import random

seeds = st.integers(min_value=0, max_value=10**6)


def space_from_entries(dim: int, order: int, entries: dict) -> Space:
    gamma = TensorField.build(
        dim, GAMMA_VALENCE,
        lambda idx: entries.get(idx, JetScalar(dim, order)))
    return Space(dim, gamma)


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
        metric = random_field(random.Random(5), 2, (DOWN, DOWN), 2)
        doc["metric"] = tensor_json(metric)
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
        f = random_field(random.Random(11), 2, (), 2)
        derived = cov_deriv_assoc(f, s)
        for k in range(2):
            assert derived[(k,)] == jet_partial(f[()], k)

    def test_pure_torsion_reduces_to_comma(self):
        # antisymmetric gamma has zero symmetric part
        dim = 2
        x1 = JetScalar.coordinate(dim, 2, 0)
        s = space_from_entries(dim, 2, {(0, 0, 1): x1, (0, 1, 0): jet_neg(x1)})
        assert s.sym().is_zero()
        a = random_field(random.Random(13), dim, (UP, DOWN), 2)
        derived = cov_deriv_assoc(a, s)
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    assert derived[i, j, k] == jet_partial(a[i, j], k)

    def test_mixed_valence_matches_componentwise_formula(self):
        dim = 2
        s = random_connection(dim, 2, 17)
        sym = s.sym()
        a = random_field(random.Random(19), dim, (UP, DOWN), 2)
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
        a = random_field(random.Random(23), dim, (UP, DOWN), 2)
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
        a = random_field(random.Random(seed + 1), 2, (UP, DOWN), 2)
        reference = cov_deriv_assoc(a, s)
        for kind in (1, 2):
            assert cov_deriv_kind(a, s, kind) == reference

    @given(seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_kind_difference_is_twice_torsion_on_vector(self, seed: int):
        dim = 3
        s = random_connection(dim, 2, seed)
        phi = random_field(random.Random(seed + 2), dim, (UP,), 2)
        torsion = s.torsion()
        diff = tensor_sub(cov_deriv_kind(phi, s, 1), cov_deriv_kind(phi, s, 2))

        def expected_component(idx):
            i, j = idx
            total = None
            for alpha in range(dim):
                term = jet_mul(torsion[i, alpha, j], phi[alpha])
                total = term if total is None else jet_add(total, term)
            # truncate the product to the derivative's order
            return jet_add(jet_add(total, total), JetScalar(dim, 1))

        expected = TensorField.build(dim, (UP, DOWN), expected_component)
        assert diff == expected

    def test_invalid_kind_rejected(self):
        s = random_connection(2, 2, 1)
        phi = random_field(random.Random(3), 2, (UP,), 2)
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


def full_connection_curvature(gamma: TensorField) -> TensorField:
    """G^i_{jm,n} - G^i_{jn,m} + G^p_{jm} G^i_{pn} - G^p_{jn} G^i_{pm},
    slots (i, j, m, n), for a connection G read with its lower slots as
    stored; the products are cut to the derivatives' order."""
    comma = gradient(gamma)
    g = tensor_truncate(gamma, comma.order)
    square = tensor_contract("pjm,ipn->ijmn", g, g)
    return tensor_lincomb([(1, comma), (-1, transpose(comma, (0, 1, 3, 2))),
                           (1, square), (-1, transpose(square, (0, 1, 3, 2)))])


class TestFullConnectionCurvature:
    """Two curvature tensors of the full connection, R_1 of Gamma and R_2
    of Gamma with its lower slots exchanged, are built from comma
    derivatives and products alone, with no split into symmetric part
    and torsion.  Each is one member of the K family, so they check the
    coefficients of ``curvature_K`` independently of the checks that
    read K."""

    def assert_family_members(self, s: Space):
        r1 = full_connection_curvature(s.gamma)
        r2 = full_connection_curvature(transpose(s.gamma, (0, 2, 1)))
        assert r1 == curvature_K(s, 1, -1, 1, -1, 0)
        assert r2 == curvature_K(s, -1, 1, 1, -1, 0)
        if s.dim == 2:
            # the torsion squares are dependent at dim 2
            assert r1 == curvature_K(s, 1, -1, 0, 0, -1)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    @pytest.mark.parametrize("order", [2, 3])
    def test_random_connection(self, dim: int, order: int):
        self.assert_family_members(random_connection(dim, order, seed=43))

    @pytest.mark.parametrize("dim, kind", [(2, 1), (3, 2)])
    def test_source_and_target_of_a_pair(self, dim: int, kind: int):
        pair = synthesize_instance(dim, kind, seed=5, order=3)
        self.assert_family_members(pair.source)
        self.assert_family_members(pair.target)

    @staticmethod
    def transformed(space: Space, mapping, kind: int, order: int) -> list:
        """R_theta + W - R - u sigma_p - u' sigma*_q at three cells, with
        (u, u') = (1, -1) for R_1 and (-1, 1) for R_2, from a bundle at
        ``order``."""
        bundle = InvariantBundle(space, mapping, order)
        r1 = full_connection_curvature(space.gamma)
        r2 = full_connection_curvature(transpose(space.gamma, (0, 2, 1)))
        return [tensor_lincomb([(1, r), (1, bundle.w_star(kind)),
                                (-1, space.curvature()), (-u, bundle.sigma(p)),
                                (-up, bundle.sigma_swapped(q))])
                for r, u, up in ((r1, 1, -1), (r2, -1, 1))
                for p, q in ((1, 1), (3, 6), (8, 2))]

    @pytest.mark.parametrize("dim, kind, order", [(2, 1, 2), (3, 2, 3),
                                                  (3, 1, 2)])
    def test_each_transforms_as_k_does(self, dim: int, kind: int, order: int):
        """The K family's transformation law, with K built without the
        split into symmetric part and torsion: equal on the two sides of
        a pair, unequal under the psi-sign control."""
        pair = synthesize_instance(dim, kind, seed=5, order=order)
        source = self.transformed(pair.source, pair.mapping, kind, order - 1)
        for m_bar, equal in ((pair.inverse(), True),
                             (corrupted_inverse(pair), False)):
            target = self.transformed(pair.target, m_bar, kind, order - 1)
            assert [a == b for a, b in zip(source, target)] == [equal] * 6


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
