"""Jet arithmetic: hand-derived oracles plus algebraic property suites."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eqlab.documents import block_json, load_block
from eqlab.jets import (
    DimensionMismatchError,
    JetScalar,
    NotInvertibleError,
    OrderExhaustedError,
    _jet,
    basis_size,
    graded_basis,
    jet_add,
    jet_inverse,
    jet_mul,
    jet_neg,
    jet_partial,
    jet_scale,
    jet_truncate,
    multi_indices,
    value_at_base,
)

F = Fraction


def const(dim, order, v):
    return JetScalar.constant(dim, order, v)


def coord(dim, order, k):
    return JetScalar.coordinate(dim, order, k)


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)


@st.composite
def jets(draw, dim=None, order=None, min_order=0):
    dim = dim if dim is not None else draw(st.integers(1, 3))
    order = order if order is not None else draw(st.integers(min_order, 3))
    alphas = list(multi_indices(dim, order))
    coeffs = draw(st.dictionaries(st.sampled_from(alphas), rationals, max_size=6))
    return JetScalar(dim, order, coeffs)


@st.composite
def jet_pairs(draw, count=2, min_order=0):
    dim = draw(st.integers(1, 3))
    order = draw(st.integers(min_order, 3))
    return [draw(jets(dim=dim, order=order)) for _ in range(count)]


class TestAdd:
    def test_constant_addition(self):
        # (x1 + 2) + 3 = x1 + 5
        a = jet_add(coord(2, 2, 0) + 2, const(2, 2, 3))
        assert a == coord(2, 2, 0) + 5
        assert value_at_base(a) == 5

    def test_additive_identity(self):
        f = coord(3, 2, 1) * coord(3, 2, 2) + 7
        assert jet_add(f, JetScalar.zero(3, 2)) == f

    def test_additive_inverse(self):
        f = coord(2, 2, 0) * coord(2, 2, 1)
        assert jet_add(f, -f).is_zero()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            jet_add(const(2, 2, 1), const(3, 2, 1))

    def test_order_truncation(self):
        a = coord(1, 3, 0) * coord(1, 3, 0) * coord(1, 3, 0)
        b = const(1, 1, 1)
        assert jet_add(a, b).order == 1
        assert jet_add(a, b) == const(1, 1, 1)


class TestMul:
    def test_difference_of_squares(self):
        one = const(1, 2, 1)
        x = coord(1, 2, 0)
        prod = jet_mul(one + x, one - x)
        assert prod == JetScalar(1, 2, {(0,): F(1), (2,): F(-1)})

    def test_multiplicative_identity(self):
        f = coord(2, 3, 0) * coord(2, 3, 1) + 5
        assert jet_mul(f, const(2, 3, 1)) == f

    def test_square_of_sum(self):
        # (x1 + x2)^2 = x1^2 + 2 x1 x2 + x2^2, expanded by hand
        s = coord(2, 2, 0) + coord(2, 2, 1)
        expected = JetScalar(2, 2, {(2, 0): F(1), (1, 1): F(2), (0, 2): F(1)})
        assert jet_mul(s, s) == expected

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            jet_mul(const(2, 2, 1), const(1, 2, 1))


class TestPartial:
    def test_power_rule(self):
        x = coord(1, 2, 0)
        d = jet_partial(jet_mul(x, x), 0)
        assert d == JetScalar(1, 1, {(1,): F(2)})
        assert d.order == 1

    def test_independent_coordinate(self):
        assert jet_partial(coord(2, 2, 0), 1).is_zero()

    def test_mixed_partial_of_product(self):
        # d1 d2 (x1 x2) = 1, applied in both orders
        f = coord(2, 2, 0) * coord(2, 2, 1)
        d12 = jet_partial(jet_partial(f, 0), 1)
        d21 = jet_partial(jet_partial(f, 1), 0)
        assert d12 == d21 == const(2, 0, 1)

    def test_order_exhausted(self):
        with pytest.raises(OrderExhaustedError):
            jet_partial(const(2, 0, 5), 0)


class TestInverse:
    def test_constant(self):
        assert jet_inverse(const(1, 2, 2)) == const(1, 2, F(1, 2))

    def test_geometric_series(self):
        # 1/(1 + x1) = 1 - x1 + x1^2 at order 2
        inv = jet_inverse(const(1, 2, 1) + coord(1, 2, 0))
        assert inv == JetScalar(1, 2, {(0,): F(1), (1,): F(-1), (2,): F(1)})

    def test_zero_constant_term(self):
        with pytest.raises(NotInvertibleError):
            jet_inverse(coord(1, 2, 0))


class TestValueAtBase:
    def test_affine(self):
        assert value_at_base(const(1, 1, 3) + coord(1, 1, 0)) == 3

    def test_zero(self):
        assert value_at_base(JetScalar.zero(2, 2)) == 0

    def test_through_mul(self):
        one = const(1, 2, 1)
        x = coord(1, 2, 0)
        assert value_at_base(jet_mul(one + x, one - x)) == 1


class TestJson:
    def test_round_trip(self):
        f = coord(2, 3, 0) * coord(2, 3, 1) - F(7, 3)
        doc = block_json(f.dim, f.order, f.den, f.nums)
        assert _jet(*load_block(doc)) == f

    def test_big_integers_as_strings(self):
        big = F(10**40 + 1, 3)
        c = const(1, 0, big)
        obj = block_json(c.dim, c.order, c.den, c.nums)
        assert obj["coeffs"][0]["num"] == str(10**40 + 1)
        assert obj["coeffs"][0]["den"] == "3"


@settings(max_examples=100)
@given(jet_pairs(count=3))
def test_ring_axioms(abc):
    a, b, c = abc
    assert jet_add(a, b) == jet_add(b, a)
    assert jet_mul(a, b) == jet_mul(b, a)
    assert jet_add(jet_add(a, b), c) == jet_add(a, jet_add(b, c))
    assert jet_mul(jet_mul(a, b), c) == jet_mul(a, jet_mul(b, c))
    assert jet_mul(a, jet_add(b, c)) == jet_add(jet_mul(a, b), jet_mul(a, c))


@settings(max_examples=100)
@given(jets(min_order=2), st.integers(0, 2), st.integers(0, 2))
def test_mixed_partials_commute(f, j, k):
    j = j % f.dim
    k = k % f.dim
    assert jet_partial(jet_partial(f, j), k) == jet_partial(jet_partial(f, k), j)


@settings(max_examples=100)
@given(jet_pairs(count=2, min_order=1), st.integers(0, 2))
def test_leibniz_rule(ab, k):
    a, b = ab
    k = k % a.dim
    lhs = jet_partial(jet_mul(a, b), k)
    rhs = jet_add(jet_mul(jet_partial(a, k), b), jet_mul(a, jet_partial(b, k)))
    assert lhs == rhs


@settings(max_examples=100)
@given(jets(), rationals.filter(lambda r: r != 0))
def test_inverse_is_one_sided_unit(f, shift):
    # force a nonzero base value, then a * inverse(a) == 1 up to order
    a = f - value_at_base(f) + shift
    assert jet_mul(a, jet_inverse(a)) == JetScalar.constant(a.dim, a.order, 1)


@settings(max_examples=100)
@given(jets(), rationals)
def test_scale_matches_constant_mul(f, c):
    assert jet_scale(c, f) == jet_mul(f, JetScalar.constant(f.dim, f.order, c))


class TestTruncate:
    def test_drops_terms_above_order(self):
        f = const(2, 3, 4) + coord(2, 3, 0) * coord(2, 3, 1) * coord(2, 3, 1)
        assert jet_truncate(f, 2) == const(2, 2, 4)
        assert jet_truncate(f, 3) == f

    def test_reduces_the_shared_denominator(self):
        # the 1/7 term carries the denominator; dropping it leaves den 1
        f = const(1, 1, 2) + coord(1, 1, 0) * F(1, 7)
        assert f.den == 7
        assert jet_truncate(f, 0).den == 1

    def test_cannot_raise_the_order(self):
        with pytest.raises(ValueError):
            jet_truncate(const(2, 1, 1), 2)
        with pytest.raises(ValueError):
            jet_truncate(const(2, 1, 1), -1)


class TestBasis:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_lower_order_basis_is_a_prefix(self, dim):
        for order in range(5):
            low, high = graded_basis(dim, order), graded_basis(dim, order + 1)
            assert high[:len(low)] == low
            assert len(low) == basis_size(dim, order) == len(set(low))
            assert set(low) == set(multi_indices(dim, order))
            degrees = [sum(alpha) for alpha in high]
            assert degrees == sorted(degrees)

    def test_declared_order_out_of_reach_is_rejected(self):
        with pytest.raises(ValueError, match="too large"):
            JetScalar(3, 10**6)
        with pytest.raises(ValueError, match="too large"):
            load_block({"dim": 3, "order": 10**6, "coeffs": []})

    def test_non_integer_exponent_is_rejected(self):
        with pytest.raises(ValueError):
            JetScalar(2, 1, {(F(1, 2), F(1, 2)): 1})


# A dict-of-Fraction reference kernel: exponent tuple -> nonzero Fraction.
# It is the straightforward algorithm, kept here to check the dense one.

def ref_add(a, b, order):
    out = {}
    for coeffs in (a, b):
        for alpha, c in coeffs.items():
            if sum(alpha) <= order:
                out[alpha] = out.get(alpha, 0) + c
    return {alpha: c for alpha, c in out.items() if c}


def ref_mul(a, b, order):
    out = {}
    for alpha, ca in a.items():
        for beta, cb in b.items():
            if sum(alpha) + sum(beta) <= order:
                gamma = tuple(x + y for x, y in zip(alpha, beta))
                out[gamma] = out.get(gamma, 0) + ca * cb
    return {alpha: c for alpha, c in out.items() if c}


def ref_scale(c, a):
    return {alpha: c * v for alpha, v in a.items() if c * v}


def ref_partial(a, k):
    return {alpha[:k] + (alpha[k] - 1,) + alpha[k + 1:]: c * alpha[k]
            for alpha, c in a.items() if alpha[k]}


def ref_inverse(a, dim, order):
    a0 = a.get((0,) * dim, 0)
    u = {alpha: c for alpha, c in a.items() if any(alpha)}
    result = term = {(0,) * dim: 1 / a0}
    for _ in range(order):
        term = ref_scale(-1 / a0, ref_mul(term, u, order))
        result = ref_add(result, term, order)
    return result


def assert_canonical(jet):
    assert jet.den > 0
    assert len(jet.nums) == basis_size(jet.dim, jet.order)
    assert math.gcd(jet.den, *jet.nums) == 1
    if not any(jet.nums):
        assert jet.den == 1


def assert_matches(jet, order, coeffs):
    assert_canonical(jet)
    assert jet.order == order
    assert jet.coeffs == coeffs


wide_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=60)


@st.composite
def mixed_order_operands(draw):
    """Two jets of one dim and independent orders, each with its
    reference: the drawn coefficients, zeros dropped."""
    dim = draw(st.integers(1, 3))
    operands = []
    for _ in range(2):
        order = draw(st.integers(0, 3))
        alphas = list(multi_indices(dim, order))
        coeffs = draw(st.dictionaries(st.sampled_from(alphas), wide_rationals,
                                      max_size=len(alphas)))
        operands.append((JetScalar(dim, order, coeffs),
                         {alpha: c for alpha, c in coeffs.items() if c}))
    return operands


@settings(max_examples=200)
@given(mixed_order_operands(), wide_rationals, st.integers(0, 2))
def test_kernel_matches_dict_reference(operands, c, k):
    (a, ra), (b, rb) = operands
    dim, order = a.dim, min(a.order, b.order)
    assert_matches(a, a.order, ra)
    assert_matches(jet_add(a, b), order, ref_add(ra, rb, order))
    assert_matches(jet_mul(a, b), order, ref_mul(ra, rb, order))
    assert_matches(jet_neg(a), a.order, ref_scale(-1, ra))
    assert_matches(jet_scale(c, a), a.order, ref_scale(c, ra))
    if a.order >= 1:
        assert_matches(jet_partial(a, k % dim), a.order - 1,
                       ref_partial(ra, k % dim))
    # shift the base value to 1 + c^2, which is never zero
    shift = {(0,) * dim: 1 - ra.get((0,) * dim, 0) + c * c}
    shifted = jet_add(a, const(dim, a.order, shift[(0,) * dim]))
    assert_matches(jet_inverse(shifted), a.order,
                   ref_inverse(ref_add(ra, shift, a.order), dim, a.order))


@settings(max_examples=100)
@given(mixed_order_operands())
def test_equal_jets_hash_alike_across_routes(operands):
    (a, _), (b, _) = operands
    order = min(a.order, b.order)
    cut = jet_truncate(a, order)
    routes = [
        jet_add(jet_add(a, b), jet_neg(b)),
        jet_add(cut, jet_mul(b, JetScalar.zero(a.dim, order))),
        JetScalar(a.dim, order, cut.coeffs),
        _jet(*load_block(block_json(cut.dim, cut.order, cut.den, cut.nums))),
    ]
    for jet in routes:
        assert_canonical(jet)
        assert jet == routes[0]
        assert hash(jet) == hash(routes[0])
    product = jet_mul(a, b)
    assert product == jet_mul(b, a)
    assert hash(product) == hash(jet_mul(b, a))
    doc = block_json(product.dim, product.order, product.den, product.nums)
    assert hash(_jet(*load_block(doc))) == hash(product)


def reference_inverse(a):
    """The geometric series in ``Fraction`` steps: with a = a0 (1 + u),
    1/a = (1/a0) sum_i (-u)^i, cut at the order."""
    a0 = value_at_base(a)
    u = jet_add(a, JetScalar.constant(a.dim, a.order, -a0))
    result = term = JetScalar.constant(a.dim, a.order, 1 / a0)
    for _ in range(a.order):
        term = jet_scale(-1 / a0, jet_mul(term, u))
        if term.is_zero():
            break
        result = jet_add(result, term)
    return result


@st.composite
def invertible_jets(draw):
    """A jet of order 0..4 with a constant term of either sign."""
    dim, order = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    alphas = list(multi_indices(dim, order))[1:]
    coeffs = draw(st.dictionaries(st.sampled_from(alphas) if alphas
                                  else st.nothing(), wide_rationals,
                                  max_size=len(alphas)))
    coeffs[(0,) * dim] = draw(wide_rationals.filter(bool))
    return JetScalar(dim, order, coeffs)


@settings(max_examples=300, deadline=None)
@given(invertible_jets())
def test_inverse_matches_the_fraction_series(a):
    inverse = jet_inverse(a)
    assert_canonical(inverse)
    assert inverse == reference_inverse(a)
