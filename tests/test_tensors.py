"""Tensor engine: loop oracles for each operation plus property suites."""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from eqlab.documents import block_json, load_block, load_tensor, tensor_json
from eqlab.jets import (
    DimensionMismatchError,
    JetScalar,
    _jet,
    basis_size,
    jet_add,
    jet_mul,
    jet_partial,
    jet_scale,
    jet_sum,
    jet_truncate,
    multi_indices,
    value_at_base,
)
from eqlab.invariants import _numerator_digits
from eqlab.tensors import (
    DOWN,
    UP,
    TensorField,
    ValenceMismatchError,
    _field,
    antisym_pair,
    antisym_pair_nodiv,
    contract,
    flatten_at_base,
    outer,
    partial_deriv_field,
    sym_pair,
    tensor_add,
    tensor_contract,
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
def tensor_fields(draw, dim=None, valence=None, order=None):
    """A field drawn as its storage: one denominator and the flat
    numerators, coefficients at most 9 in absolute value.  One drawn bit
    per component keeps it or zeroes it, so zero components stay common."""
    dim = dim if dim is not None else draw(st.integers(2, 3))
    order = order if order is not None else draw(st.integers(0, 2))
    if valence is None:
        valence = tuple(draw(st.lists(st.sampled_from([UP, DOWN]),
                                      min_size=1, max_size=3)))
    blocks, size = dim ** len(valence), basis_size(dim, order)
    den = draw(st.integers(1, 36))
    nums = draw(st.lists(st.integers(-9 * den, 9 * den),
                         min_size=blocks * size, max_size=blocks * size))
    live = draw(st.integers(0, 2 ** blocks - 1))
    nums = [x if live >> (k // size) & 1 else 0 for k, x in enumerate(nums)]
    return _field(dim, tuple(valence), order, den, nums)


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
        assert load_tensor(tensor_json(t)) == t


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


# Flat storage.  The component-wise bodies below are the operations as
# they were written before the components shared one numerator list; each
# flat operation is checked against its reference.

def reference_contract(a: TensorField, slot_up: int, slot_down: int) -> TensorField:
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

    return TensorField.build(dim, out_valence, component)


def reference_transpose(a: TensorField, perm) -> TensorField:
    perm = tuple(perm)
    if sorted(perm) != list(range(a.rank)):
        raise ValueError(f"perm {perm!r} is not a permutation of the slots")
    valence = tuple(a.valence[p] for p in perm)
    return TensorField.build(
        a.dim, valence,
        lambda idx: a[tuple(idx[perm.index(t)] for t in range(a.rank))])


def reference_partial_deriv_field(a: TensorField, k: int) -> TensorField:
    return TensorField(a.dim, a.valence, [jet_partial(c, k) for c in a.components])


def reference_tensor_truncate(a: TensorField, order: int) -> TensorField:
    if order >= a.order:
        return a
    return TensorField(a.dim, a.valence, [jet_truncate(c, order) for c in a.components])


def reference_flatten_at_base(a: TensorField) -> list[Fraction]:
    return [value_at_base(c) for c in a.components]


def reference_numerator_digits(residuals) -> int:
    worst = 0
    for field in residuals:
        for comp in field.components:
            for value in comp.coeffs.values():
                worst = max(worst, len(str(abs(value.numerator))))
    return worst


def assert_canonical(t: TensorField) -> None:
    assert t.den > 0 and gcd(t.den, *t.nums) == 1
    assert not t.is_zero() or t.den == 1
    assert len(t.nums) == t.dim ** t.rank * basis_size(t.dim, t.order)


wide_rationals = st.fractions(min_value=-99, max_value=99, max_denominator=60)


@st.composite
def mixed_jets(draw, dim, order):
    """A jet that is often zero, else with denominators that differ."""
    if draw(st.integers(0, 3)) == 0:
        return JetScalar.zero(dim, order)
    alphas = list(multi_indices(dim, order))
    return JetScalar(dim, order, draw(st.dictionaries(
        st.sampled_from(alphas), wide_rationals, max_size=5)))


@st.composite
def jet_lists(draw, dim=None, valence=None, order=None):
    """``(dim, valence, jets)`` for one field, not yet built."""
    dim = dim if dim is not None else draw(st.integers(1, 3))
    order = order if order is not None else draw(st.integers(0, 3))
    if valence is None:
        valence = tuple(draw(st.lists(st.sampled_from([UP, DOWN]),
                                      min_size=0, max_size=3)))
    return dim, valence, [draw(mixed_jets(dim, order))
                          for _ in range(dim ** len(valence))]


def mixed_fields(**kwargs):
    return jet_lists(**kwargs).map(lambda spec: TensorField(*spec))


@settings(max_examples=60, deadline=None)
@given(jet_lists())
def test_field_built_from_jets_is_canonical_and_reads_back(spec):
    dim, valence, comps = spec
    t = TensorField(dim, valence, comps)
    assert_canonical(t)
    assert t.order == comps[0].order
    assert t.components == tuple(comps)
    for k, idx in enumerate(t.indices()):
        assert t[idx] == comps[k]
    assert t.is_zero() == all(c.is_zero() for c in comps)
    assert load_tensor(tensor_json(t)) == t


@st.composite
def field_pairs_maybe_equal(draw):
    """Two fields of one shape that are often equal by another route."""
    dim, valence, comps = draw(jet_lists())
    a = TensorField(dim, valence, comps)
    route = draw(st.integers(0, 4))
    if route == 0:
        b = TensorField(dim, valence, [
            _jet(*load_block(block_json(c.dim, c.order, c.den, c.nums)))
            for c in comps])
    elif route == 1:
        other = draw(mixed_fields(dim=dim, valence=valence))
        b = tensor_sub(tensor_add(a, other), other)
    elif route == 2:
        # the same numerators over another denominator when a.den is even
        b = tensor_scale(2, a)
    elif route == 3:
        b = draw(mixed_fields(dim=dim, valence=valence, order=a.order))
    else:
        # one component changed
        k = draw(st.integers(0, len(comps) - 1))
        changed = list(comps)
        changed[k] = jet_add(changed[k], JetScalar.constant(dim, a.order, 1))
        b = TensorField(dim, valence, changed)
    return a, b


@settings(max_examples=60, deadline=None)
@given(field_pairs_maybe_equal())
def test_eq_and_hash_agree_with_componentwise_equality(ab):
    a, b = ab
    same = (a.dim == b.dim and a.valence == b.valence
            and a.components == b.components)
    assert (a == b) == same
    if same:
        assert hash(a) == hash(b)


@settings(max_examples=60, deadline=None)
@given(lincomb_terms())
def test_lincomb_of_mixed_orders_is_canonical(terms):
    assert_canonical(tensor_lincomb(terms))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_flat_transpose_matches_reference(data):
    t = data.draw(mixed_fields())
    perm = data.draw(st.permutations(range(t.rank)))
    result = transpose(t, perm)
    assert_canonical(result)
    assert result == reference_transpose(t, perm)


@st.composite
def contractible_fields(draw):
    """A field with at least one up and one down slot, and such a pair."""
    valence = draw(st.lists(st.sampled_from([UP, DOWN]), min_size=0,
                            max_size=1))
    valence = tuple(draw(st.permutations(valence + [UP, DOWN])))
    t = draw(mixed_fields(valence=valence, dim=draw(st.integers(1, 3))))
    up = draw(st.sampled_from([s for s, v in enumerate(valence) if v == UP]))
    down = draw(st.sampled_from([s for s, v in enumerate(valence)
                                 if v == DOWN]))
    return t, up, down


@settings(max_examples=60, deadline=None)
@given(contractible_fields())
def test_flat_contract_matches_reference(spec):
    t, up, down = spec
    result = contract(t, up, down)
    assert_canonical(result)
    assert result == reference_contract(t, up, down)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_flat_partial_matches_reference(data):
    t = data.draw(mixed_fields(order=data.draw(st.integers(1, 3))))
    k = data.draw(st.integers(0, t.dim - 1))
    result = partial_deriv_field(t, k)
    assert_canonical(result)
    assert result == reference_partial_deriv_field(t, k)


@settings(max_examples=60, deadline=None)
@given(mixed_fields(), st.integers(0, 3))
def test_flat_truncate_and_flatten_match_reference(t, order):
    result = tensor_truncate(t, order)
    assert_canonical(result)
    assert result == reference_tensor_truncate(t, order)
    assert flatten_at_base(t) == reference_flatten_at_base(t)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(mixed_fields(), lincomb_terms().map(tensor_lincomb)),
                max_size=3))
def test_numerator_digits_match_componentwise_reading(fields):
    assert (max((_numerator_digits(field) for field in fields), default=0)
            == reference_numerator_digits(fields))


def test_index_errors_name_the_bad_index():
    t = TensorField.delta(3, 1)
    with pytest.raises(IndexError, match=r"^expected 2 indices, got 3$"):
        t[0, 1, 2]
    with pytest.raises(IndexError, match=r"^expected 2 indices, got 1$"):
        t[1]
    with pytest.raises(IndexError, match=r"^index 3 out of range for dim 3$"):
        t[0, 3]
    with pytest.raises(IndexError, match=r"^index -1 out of range for dim 3$"):
        t[-1, 0]
    assert t[2, 2] == JetScalar.constant(3, 1, 1)


# The contraction primitive against the component-wise route it replaces:
# the outer product of jet products, contracted pair by pair, transposed.

def reference_tensor_contract(spec: str, a: TensorField,
                              b: TensorField) -> TensorField:
    inputs, out = spec.split("->")
    letters = list(inputs.replace(",", ""))
    t = TensorField(a.dim, a.valence + b.valence,
                    [jet_mul(x, y) for x in a.components for y in b.components])
    while (repeated := next((x for x in letters if letters.count(x) == 2),
                            None)) is not None:
        first = letters.index(repeated)
        second = letters.index(repeated, first + 1)
        up, down = (first, second) if t.valence[first] == UP else (second, first)
        t = reference_contract(t, up, down)
        letters = [x for k, x in enumerate(letters) if k not in (first, second)]
    return reference_transpose(t, [letters.index(x) for x in out])


@st.composite
def contraction_specs(draw):
    """``(spec, a, b)``: two fields of mixed orders and denominators, often
    with zero components, and a spec summing random up/down slot pairs,
    within one factor or across the two, with the free slots permuted."""
    dim = draw(st.integers(1, 3))
    rank_a = draw(st.integers(0, 2))
    rank_b = draw(st.integers(0, 4 - rank_a))
    a, b = (draw(mixed_fields(
        dim=dim, order=draw(st.integers(0, 3)),
        valence=tuple(draw(st.lists(st.sampled_from([UP, DOWN]),
                                    min_size=rank, max_size=rank)))))
        for rank in (rank_a, rank_b))
    valence = a.valence + b.valence
    pending = list(draw(st.permutations(range(len(valence)))))
    letter: dict[int, str] = {}
    free = []
    while pending:
        s = pending.pop()
        partner = next((t for t in pending if valence[t] != valence[s]), None)
        if partner is not None and draw(st.booleans()):
            pending.remove(partner)
            letter[s] = letter[partner] = chr(97 + len(letter))
        else:
            letter[s] = chr(65 + len(letter))
            free.append(s)
    word = "".join(letter[s] for s in range(len(valence)))
    out = "".join(letter[s] for s in draw(st.permutations(free)))
    return f"{word[:rank_a]},{word[rank_a:]}->{out}", a, b


@settings(max_examples=80, deadline=None)
@given(contraction_specs())
def test_tensor_contract_matches_outer_then_contract(case):
    spec, a, b = case
    result = tensor_contract(spec, a, b)
    assert_canonical(result)
    assert result.order == min(a.order, b.order)
    assert result == reference_tensor_contract(spec, a, b)


def test_tensor_contract_rank_zero_and_outer():
    phi = TensorField.build(3, (UP,),
                            lambda idx: JetScalar.constant(3, 1, idx[0] + 1))
    psi = TensorField.build(3, (DOWN,),
                            lambda idx: JetScalar.constant(3, 2, F(1, idx[0] + 2)))
    dot = tensor_contract("a,a->", phi, psi)
    assert dot.valence == () and dot.order == 1
    assert dot[()] == JetScalar.constant(3, 1, F(1, 2) + F(2, 3) + F(3, 4))
    assert tensor_contract("i,j->ji", phi, psi) == transpose(outer(phi, psi),
                                                             (1, 0))


class TestTensorContractRejects:
    up = TensorField.zero(2, (UP,), 1)
    mixed = TensorField.zero(2, (UP, DOWN), 1)

    def test_summed_index_on_two_up_slots(self):
        with pytest.raises(ValenceMismatchError, match="up and a down"):
            tensor_contract("a,a->", self.up, self.up)

    def test_index_used_three_times(self):
        with pytest.raises(ValueError, match="used 3 times"):
            tensor_contract("aa,a->", self.mixed, self.up)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            tensor_contract("a,a->", TensorField.zero(3, (UP,), 1),
                            TensorField.zero(2, (DOWN,), 1))

    @pytest.mark.parametrize("spec", ["ij,j->ij", "ij,j->", "ij,j->ii",
                                      "ij,k->ij", "ij->ij", "i,j->ij"])
    def test_spec_must_fit_and_name_each_free_index_once(self, spec):
        with pytest.raises(ValueError):
            tensor_contract(spec, self.mixed, self.up)
