"""Tensor engine: loop oracles for each operation plus property suites."""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from eqlab.jets import (
    DimensionMismatchError,
    JetScalar,
    jet_add,
    jet_mul,
    jet_partial,
    jet_scale,
    jet_sum,
    multi_indices,
    value_at_base,
)
from eqlab.tensors import (
    DOWN,
    UP,
    TensorField,
    ValenceMismatchError,
    antisym_pair,
    antisym_pair_nodiv,
    contract,
    flatten_at_base,
    outer,
    partial_deriv_field,
    sym_pair,
    tensor_add,
    tensor_lincomb,
    tensor_neg,
    tensor_scale,
    tensor_sub,
    tensor_truncate,
    transpose,
)

F = Fraction

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)


@st.composite
def jets(draw, dim, order):
    alphas = list(multi_indices(dim, order))
    coeffs = draw(st.dictionaries(st.sampled_from(alphas), rationals, max_size=4))
    return JetScalar(dim, order, coeffs)


@st.composite
def tensor_fields(draw, dim=None, valence=None, order=None):
    dim = dim if dim is not None else draw(st.integers(2, 3))
    order = order if order is not None else draw(st.integers(0, 2))
    if valence is None:
        valence = tuple(draw(st.lists(st.sampled_from([UP, DOWN]),
                                      min_size=1, max_size=3)))
    comps = [draw(jets(dim, order)) for _ in range(dim ** len(valence))]
    return TensorField(dim, valence, comps)


@st.composite
def tensor_field_pairs(draw):
    dim = draw(st.integers(2, 3))
    order = draw(st.integers(0, 2))
    valence = tuple(draw(st.lists(st.sampled_from([UP, DOWN]),
                                  min_size=1, max_size=3)))
    a = draw(tensor_fields(dim=dim, valence=valence, order=order))
    b = draw(tensor_fields(dim=dim, valence=valence, order=order))
    return a, b


class TestBasics:
    def test_delta_plus_zero(self):
        d = TensorField.delta(3, 2)
        z = TensorField.zero(3, (UP, DOWN), 2)
        assert tensor_add(d, z) == d

    def test_scale_delta(self):
        d = TensorField.delta(3, 1)
        s = tensor_scale(2, d)
        for i, j in product(range(3), repeat=2):
            assert value_at_base(s[i, j]) == (2 if i == j else 0)

    def test_add_valence_mismatch(self):
        a = TensorField.zero(2, (UP,), 1)
        b = TensorField.zero(2, (DOWN,), 1)
        with pytest.raises(ValenceMismatchError):
            tensor_add(a, b)

    def test_outer_components(self):
        phi = TensorField.build(2, (UP,),
                                lambda idx: JetScalar.constant(2, 1, idx[0] + 1))
        psi = TensorField.build(2, (DOWN,),
                                lambda idx: JetScalar.constant(2, 1, 5 - idx[0]))
        prod = outer(phi, psi)
        assert prod.valence == (UP, DOWN)
        for i, j in product(range(2), repeat=2):
            assert prod[i, j] == jet_mul(phi[i], psi[j])

    def test_json_round_trip(self):
        t = TensorField.build(2, (UP, DOWN),
                              lambda idx: JetScalar.constant(2, 1, F(idx[0] - idx[1], 3)))
        assert TensorField.from_json(t.to_json()) == t


class TestContract:
    def test_trace_of_delta(self):
        d = TensorField.delta(4, 1)
        tr = contract(d, 0, 1)
        assert tr.valence == ()
        assert value_at_base(tr[()]) == 4

    def test_contract_outer_is_dot(self):
        phi = TensorField.build(3, (UP,),
                                lambda idx: JetScalar.constant(3, 1, idx[0] + 1))
        psi = TensorField.build(3, (DOWN,),
                                lambda idx: JetScalar.constant(3, 1, idx[0] * 2))
        s = contract(outer(phi, psi), 0, 1)
        expected = sum(value_at_base(phi[a]) * value_at_base(psi[a]) for a in range(3))
        assert value_at_base(s[()]) == expected

    def test_contract_zero(self):
        z = TensorField.zero(3, (UP, DOWN, DOWN), 2)
        assert contract(z, 0, 1).is_zero()

    def test_slot_kind_mismatch(self):
        t = TensorField.zero(2, (UP, UP), 1)
        with pytest.raises(ValenceMismatchError):
            contract(t, 0, 1)


class TestSymmetrizers:
    def test_antisym_nodiv_on_symmetric_is_zero(self):
        sigma = TensorField.build(2, (DOWN, DOWN),
                                  lambda idx: JetScalar.constant(2, 1, idx[0] + idx[1]))
        assert antisym_pair_nodiv(sigma, 0, 1).is_zero()

    def test_antisym_nodiv_direct_values(self):
        # eta_{12}=1, eta_{21}=0: result_{12}=1, result_{21}=-1
        comps = {(0, 1): F(1)}
        eta = TensorField.build(2, (DOWN, DOWN),
                                lambda idx: JetScalar.constant(2, 1, comps.get(idx, 0)))
        r = antisym_pair_nodiv(eta, 0, 1)
        assert value_at_base(r[0, 1]) == 1
        assert value_at_base(r[1, 0]) == -1

    def test_antisym_nodiv_twice_doubles(self):
        t = TensorField.build(2, (DOWN, DOWN),
                              lambda idx: JetScalar.constant(2, 1, 3 * idx[0] - idx[1] ** 2))
        once = antisym_pair_nodiv(t, 0, 1)
        assert antisym_pair_nodiv(once, 0, 1) == tensor_scale(2, once)

    def test_variance_mismatch(self):
        t = TensorField.zero(2, (UP, DOWN), 1)
        with pytest.raises(ValenceMismatchError):
            sym_pair(t, 0, 1)

    def test_sym_pair_matches_half_sum(self):
        g = TensorField.build(2, (UP, DOWN, DOWN),
                              lambda idx: JetScalar.constant(2, 1, idx[0] + 2 * idx[1] - idx[2]))
        s = sym_pair(g, 1, 2)
        for i, j, k in product(range(2), repeat=3):
            expected = F(1, 2) * (value_at_base(g[i, j, k]) + value_at_base(g[i, k, j]))
            assert value_at_base(s[i, j, k]) == expected


class TestDerivative:
    def test_derivative_of_constant_field(self):
        d = TensorField.delta(2, 2)
        assert partial_deriv_field(d, 0).is_zero()

    def test_coordinate_times_delta(self):
        x1 = JetScalar.coordinate(2, 1, 0)
        t = TensorField.build(2, (UP, DOWN),
                              lambda idx: x1 if idx[0] == idx[1] else JetScalar.zero(2, 1))
        d = partial_deriv_field(t, 0)
        assert d == TensorField.delta(2, 0)


class TestFlatten:
    def test_delta_n2(self):
        assert flatten_at_base(TensorField.delta(2, 1)) == [F(1), F(0), F(0), F(1)]

    def test_zero(self):
        assert flatten_at_base(TensorField.zero(2, (DOWN, DOWN), 1)) == [F(0)] * 4

    def test_outer_matches_flat_products(self):
        phi = TensorField.build(2, (UP,),
                                lambda idx: JetScalar.constant(2, 1, F(idx[0] + 1, 2)))
        psi = TensorField.build(2, (DOWN,),
                                lambda idx: JetScalar.constant(2, 1, 3 - idx[0]))
        flat = flatten_at_base(outer(phi, psi))
        direct = [value_at_base(phi[i]) * value_at_base(psi[j])
                  for i in range(2) for j in range(2)]
        assert flat == direct


@settings(max_examples=100)
@given(tensor_field_pairs())
def test_add_commutes_and_sub_inverts(ab):
    a, b = ab
    assert tensor_add(a, b) == tensor_add(b, a)
    assert tensor_add(tensor_sub(a, b), b) == a


@st.composite
def lincomb_terms(draw):
    """One to four same-shape terms, each at its own order; zero
    coefficients are common, and sometimes every coefficient is zero."""
    dim = draw(st.integers(2, 3))
    valence = tuple(draw(st.lists(st.sampled_from([UP, DOWN]),
                                  min_size=1, max_size=2)))
    count = draw(st.integers(1, 4))
    all_zero = draw(st.booleans()) and draw(st.booleans())
    terms = []
    for _ in range(count):
        coeff = F(0) if all_zero else draw(st.one_of(st.just(F(0)), rationals))
        terms.append((coeff, draw(tensor_fields(dim=dim, valence=valence))))
    return terms


@settings(max_examples=150, deadline=None)
@given(lincomb_terms())
def test_lincomb_matches_add_scale_chain(terms):
    # the chain skips zero coefficients, as callers did before the
    # primitive; with none left it keeps every term
    live = [(c, t) for c, t in terms if c] or terms
    chain = tensor_scale(*live[0])
    for c, t in live[1:]:
        chain = tensor_add(chain, tensor_scale(c, t))
    result = tensor_lincomb(terms)
    assert result == chain
    assert result.order == min(t.order for _, t in live)
    # and componentwise against the jet layer alone
    for pos, comp in enumerate(result.components):
        assert comp == jet_sum(jet_scale(c, t.components[pos]) for c, t in live)


@pytest.mark.parametrize("coeff", [F(0), F(-2, 3)])
def test_lincomb_rejects_mismatched_shapes(coeff):
    a = TensorField.delta(2, 1)
    wider = TensorField.delta(3, 1)
    flipped = TensorField.zero(2, (DOWN, UP), 1)
    with pytest.raises(DimensionMismatchError):
        tensor_lincomb([(1, a), (coeff, wider)])
    with pytest.raises(ValenceMismatchError):
        tensor_lincomb([(1, a), (coeff, flipped)])
    with pytest.raises(ValueError):
        tensor_lincomb([])


@settings(max_examples=100)
@given(tensor_fields(valence=(UP, DOWN, DOWN)))
def test_sym_antisym_decomposition(t):
    assert tensor_add(sym_pair(t, 1, 2), antisym_pair(t, 1, 2)) == t
    assert antisym_pair(sym_pair(t, 1, 2), 1, 2).is_zero()


@settings(max_examples=100)
@given(tensor_fields(valence=(DOWN, DOWN)))
def test_antisym_nodiv_is_exactly_antisymmetric(t):
    r = antisym_pair_nodiv(t, 0, 1)
    assert transpose(r, (1, 0)) == tensor_neg(r)


@st.composite
def up_down_pairs(draw):
    dim = draw(st.integers(2, 3))
    order = draw(st.integers(0, 2))
    a = draw(tensor_fields(dim=dim, valence=(UP,), order=order))
    b = draw(tensor_fields(dim=dim, valence=(DOWN,), order=order))
    return a, b


@settings(max_examples=100)
@given(up_down_pairs())
def test_contract_outer_matches_loop(ab):
    a, b = ab
    s = contract(outer(a, b), 0, 1)
    expected = None
    for alpha in range(a.dim):
        term = jet_mul(a[alpha], b[alpha])
        expected = term if expected is None else jet_add(expected, term)
    assert s[()] == expected


@settings(max_examples=100)
@given(tensor_fields(valence=(UP, DOWN, DOWN), order=2), st.integers(0, 2))
def test_field_leibniz(t, k):
    k = k % t.dim
    x = JetScalar.coordinate(t.dim, 2, k)

    def times(f, field):
        return TensorField(field.dim, field.valence,
                           [jet_mul(f, c) for c in field.components])

    lhs = partial_deriv_field(times(x, t), k)
    rhs = tensor_add(times(jet_partial(x, k), t),
                     times(x, partial_deriv_field(t, k)))
    assert lhs == rhs


@settings(max_examples=50)
@given(tensor_field_pairs(), st.integers(0, 3))
def test_truncate_commutes_with_products(ab, order):
    """Cutting the factors to an order keeps every coefficient of the
    product up to that order, which is what lets a builder take its
    products at the order its consumers read."""
    a, b = ab
    whole = outer(a, b)
    cut = tensor_truncate(whole, order)
    assert cut == outer(tensor_truncate(a, order), tensor_truncate(b, order))
    assert cut.order == min(order, whole.order)
    for full_jet, cut_jet in zip(whole.components, cut.components):
        assert cut_jet.coeffs == {alpha: c for alpha, c in full_jet.coeffs.items()
                                  if sum(alpha) <= order}
    if order >= a.order:
        assert tensor_truncate(a, order) is a
