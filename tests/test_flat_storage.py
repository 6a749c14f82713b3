"""The three boundaries of flat storage: random draws, JSON loads and
JSON writes.

Draws are pinned by the sha256 of their documents, so a rewrite of the
draw must consume the random stream in the same order and place every
coefficient where it did.  Loads and writes are compared with a reference
that reads every coefficient as a ``Fraction``.
"""

import copy
import hashlib
import json
import math
import random
import re
import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from eqlab.geometry import random_connection
from eqlab.documents import (block_json, load_block, load_tensor, pair_json,
                             tensor_json)
from eqlab.jets import JetScalar, _jet, graded_basis
from eqlab.mapping import synthesize_instance
from eqlab.tensors import TensorField, random_field

SEEDS = (0, 1, 7)


def _digest(docs) -> str:
    return hashlib.sha256(json.dumps(
        docs, sort_keys=True, separators=(",", ":")).encode("utf-8")).hexdigest()


# sha256 of the gammas of random_connection(dim, order, s) for s in SEEDS
CONNECTION_DIGESTS = {
    (2, 1):
        "1591a9847b19b50f7888af74182beae98f869d8c74045e5c7fc4c59582a180b8",
    (2, 2):
        "ad470e8c8d53a069f9c2a09e7233114daeb7aa9e6ecbc5bfc3cf8252f6c71ca9",
    (2, 3):
        "70967d7d1e4b151bb2163e6d49a0981fb263ea760b4ee31d4ae05f0e03cb5b7e",
    (3, 1):
        "63c8d164ed9da07a6ef7c9d38d08714356987a25b3ea11fcca342ddfc7363b58",
    (3, 2):
        "88f9149cb112f15a2650b1a534751f615cc5c9b879eff6db112b22dda04eb9cd",
    (3, 3):
        "da04eefc599f0c6c17c384ef1249bafb5a3fdd3372c001f662c688a53bf34e5b",
    (4, 1):
        "dfa7ac457506047e3df2e26f413ea78beb9469b7c04b4c61df3baea9d66f6958",
    (4, 2):
        "50fbb1cb8943496ac3b910d3733ed120c19757b2f551ab89aca61086caa4c3df",
    (4, 3):
        "0e821f442ad6d7ea12e264947d40bfca47e2a869d1742a4886c56abfc15d9723",
}

# sha256 of synthesize_instance(dim, kind, s, order) for kinds 1 and 2 and
# s in SEEDS
INSTANCE_DIGESTS = {
    (2, 1):
        "0f4d5863224e7584a6990f27810e01549eecc93fbed1530448de0d76337de1c6",
    (2, 2):
        "d75494d46d9cd04dceeb0485794ea16658ee728e3dfa4cf9c53824131b55b08b",
    (2, 3):
        "ecd82bb24b34633bc703248b5d71fe30bfa2ae83aec871a0c645019f987257fb",
    (3, 1):
        "9d8337d35cf039362f046d997a2cb28c2cf22275e9f6c21976cbbd809c869a58",
    (3, 2):
        "56b896561ebdfa163e2ffefbd021e0d1cea7436656fd5a363f4dec8e7c33adf5",
    (3, 3):
        "982706ca5781a9a76e6f1674a94ea87f6fea046c63e92985b1e01774b33cbdcc",
    (4, 1):
        "cff153506cacfc4940defd4c6a956ab15e82810670a59f2e617e59b1b43e4d37",
    (4, 2):
        "c7edae24d11a2509fb79bf6de52625e759f9b70f421bd156cd7abfc7ce2c51cb",
    (4, 3):
        "3474297d08b35341f13bcac3b00ec4b67252629d8125c2327c3b8e2a5ef0f2e9",
}


@pytest.mark.parametrize("dim, order", sorted(CONNECTION_DIGESTS))
def test_random_connection_matches_pinned_digest(dim, order):
    docs = [tensor_json(random_connection(dim, order, seed).gamma)
            for seed in SEEDS]
    assert _digest(docs) == CONNECTION_DIGESTS[dim, order]


@pytest.mark.parametrize("dim, order", sorted(INSTANCE_DIGESTS))
def test_synthesized_instance_matches_pinned_digest(dim, order):
    docs = [pair_json(synthesize_instance(dim, kind, seed, order))
            for kind in (1, 2) for seed in SEEDS]
    assert _digest(docs) == INSTANCE_DIGESTS[dim, order]


def _reference(entries) -> dict:
    """Each alpha's value as a Fraction, the last entry winning; zeros
    dropped."""
    values = {tuple(e["alpha"]): Fraction(int(e["num"]), int(e["den"]))
              for e in entries}
    return {alpha: v for alpha, v in values.items() if v}


def _reference_json(dim: int, order: int, entries) -> dict:
    values = _reference(entries)
    return {"dim": dim, "order": order, "coeffs": [
        {"alpha": list(alpha), "num": str(values[alpha].numerator),
         "den": str(values[alpha].denominator)} for alpha in sorted(values)]}


@st.composite
def jet_documents(draw, dim: int, order: int):
    """A jet document with entries in any order: negative and unreduced
    denominators, zero numerators, and alphas given more than once."""
    basis = graded_basis(dim, order)
    entries = draw(st.lists(st.fixed_dictionaries({
        "alpha": st.sampled_from(basis).map(list),
        "num": st.one_of(st.integers(-60, 60), st.sampled_from((0, 0, 10**30))),
        "den": st.integers(-36, 36).filter(bool),
    }), max_size=2 * len(basis)))
    as_text = draw(st.booleans())
    if as_text:
        entries = [dict(e, num=str(e["num"]), den=str(e["den"]))
                   for e in entries]
    return {"dim": dim, "order": order, "coeffs": entries}


@st.composite
def jet_cases(draw):
    dim, order = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    return draw(jet_documents(dim, order))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(doc=jet_cases())
def test_jet_load_and_write_match_fraction_reference(doc):
    jet = _jet(*load_block(doc))
    assert jet.coeffs == _reference(doc["coeffs"])
    expected = _reference_json(doc["dim"], doc["order"], doc["coeffs"])
    assert block_json(jet.dim, jet.order, jet.den, jet.nums) == expected


@st.composite
def field_cases(draw):
    dim, order = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    rank = draw(st.integers(0, 2))
    valence = draw(st.lists(st.sampled_from(("up", "down")),
                            min_size=rank, max_size=rank))
    components = [draw(jet_documents(dim, order))
                  for _ in range(dim ** rank)]
    return {"dim": dim, "valence": valence, "components": components}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(doc=field_cases())
def test_field_load_and_write_match_fraction_reference(doc):
    field = load_tensor(doc)
    expected = [_reference_json(c["dim"], c["order"], c["coeffs"])
                for c in doc["components"]]
    assert [c.coeffs for c in field.components] == [
        _reference(c["coeffs"]) for c in doc["components"]]
    assert tensor_json(field) == {"dim": doc["dim"], "valence": doc["valence"],
                                  "components": expected}


def _reference_draw(rng, dim, valence, order, symmetric=False):
    """The documented draw, one ``rng.randint`` pair per monomial: each
    component row-major (only (j, k) with j <= k when ``symmetric``), its
    monomials in ascending lexicographic order, (k, j) repeating (j, k)."""
    alphas = sorted(graded_basis(dim, order))
    shape = list(product(range(dim), repeat=len(valence)))
    drawn = {}
    for idx in shape:
        if symmetric and idx[0] > idx[1]:
            continue
        drawn[idx] = JetScalar(dim, order, {
            alpha: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for alpha in alphas})
    return TensorField(dim, valence, [drawn[tuple(sorted(idx))] if symmetric
                                      else drawn[idx] for idx in shape])


@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize("dim, order", [(d, o) for d in (2, 3, 4)
                                        for o in range(4)])
def test_draw_matches_the_randint_reference(dim, order, symmetric):
    valences = ([("down", "down")] if symmetric
                else [(), ("up",), ("up", "down", "down")])
    for seed, valence in enumerate(valences):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        field = random_field(rng, dim, valence, order, symmetric=symmetric)
        expected = _reference_draw(ref_rng, dim, valence, order, symmetric)
        assert (field.den, field.nums) == (expected.den, expected.nums)
        assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("valence", [("down",), ("up", "down", "down")])
def test_a_symmetric_draw_needs_two_slots(valence):
    rng = random.Random(0)
    with pytest.raises(ValueError, match="a symmetric field has two slots"):
        random_field(rng, 2, valence, 1, symmetric=True)
    assert rng.getstate() == random.Random(0).getstate()


# The jet decoder as it read every entry one by one, kept as the reference
# for the messages and the precedence of a faulty block's first fault.

_REF_DECIMAL = re.compile(r"-?[0-9]+")


def _ref_int(value, what, text=False):
    if type(value) is int:
        return value
    if type(value) is str and _REF_DECIMAL.fullmatch(value):
        try:
            number = int(value)
        except ValueError:
            raise ValueError(
                f"{what} has {len(value.lstrip('-'))} digits, more than the "
                f"limit of {sys.get_int_max_str_digits()}") from None
        if text:
            return number
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _ref_check_alpha(alpha, dim, order):
    if len(alpha) != dim or any(type(e) is not int or e < 0 for e in alpha):
        raise ValueError(f"bad multi-index {alpha!r} for dim {dim}")
    if sum(alpha) > order:
        raise ValueError(f"multi-index {alpha!r} exceeds order {order}")


def reference_load_block(obj):
    entries = {}
    for entry in obj["coeffs"]:
        den = _ref_int(entry["den"], "a coefficient denominator", text=True)
        if den == 0:
            raise ValueError("jet coefficient has denominator 0")
        num = _ref_int(entry["num"], "a coefficient numerator", text=True)
        entries[tuple(entry["alpha"])] = (num, den) if den > 0 else (-num, -den)
    dim = _ref_int(obj["dim"], "a jet dim")
    order = _ref_int(obj["order"], "a jet order")
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if order < 0:
        raise ValueError("order must be nonnegative")
    index = {alpha: i for i, alpha in enumerate(graded_basis(dim, order))}
    for alpha in entries:
        _ref_check_alpha(alpha, dim, order)
    den = math.lcm(*[d for n, d in entries.values() if n])
    nums = [0] * len(index)
    for alpha, (n, d) in entries.items():
        nums[index[alpha]] = n * (den // d)
    return dim, order, den, nums


def _outcome(load, doc):
    try:
        return load(copy.deepcopy(doc))
    except Exception as exc:  # the reference and load_block must agree
        return type(exc), str(exc)


def _integer(draw, value: int):
    """``value`` as a JSON int or as a decimal string."""
    return value if draw(st.booleans()) else str(value)


@st.composite
def valid_blocks(draw):
    """A jet document of dim 1..7 whose entries mix JSON ints and decimal
    strings, with negative and unreduced denominators, zero and long
    numerators and multi-indices given more than once."""
    dim, order = draw(st.integers(1, 7)), draw(st.integers(0, 3))
    basis = graded_basis(dim, order)
    entries = draw(st.lists(st.builds(
        lambda alpha, num, den: {"alpha": list(alpha), "num": num, "den": den},
        st.sampled_from(basis),
        st.one_of(st.integers(-60, 60), st.sampled_from((0, -(10**30)))),
        st.integers(-36, 36).filter(bool)), max_size=2 * len(basis)))
    for entry in entries:
        entry["num"] = _integer(draw, entry["num"])
        entry["den"] = _integer(draw, entry["den"])
    return {"dim": dim, "order": order, "coeffs": entries}


def _fault_values():
    values = ["1,2", " 5", "1_0", "+5", "٥", "", True, False, 1.5,
              2.0, None]
    if sys.get_int_max_str_digits():
        values.append("7" * (sys.get_int_max_str_digits() + 1))
    return values


FAULTS = ("value", "den0", "missing", "entry", "alpha-type", "alpha-length",
          "alpha-negative", "alpha-order", "alpha-bool", "header")


@st.composite
def faulty_blocks(draw):
    """A valid block with one or more entries, or its dim or order,
    broken."""
    doc = draw(valid_blocks().filter(lambda d: d["coeffs"]))
    entries, dim, order = doc["coeffs"], doc["dim"], doc["order"]
    for _ in range(draw(st.integers(1, 3))):
        kept = [e for e in entries if isinstance(e, dict)]
        if not kept:
            break
        entry = draw(st.sampled_from(kept))
        fault = draw(st.sampled_from(FAULTS))
        if fault == "value":
            entry[draw(st.sampled_from(("num", "den")))] = draw(
                st.sampled_from(_fault_values()))
        elif fault == "den0":
            entry["den"] = _integer(draw, 0)
        elif fault == "missing":
            del entry[draw(st.sampled_from(sorted(entry)))]
        elif fault == "entry":
            entries[entries.index(entry)] = draw(
                st.sampled_from(([1, 2], "alpha", None, 5)))
        elif fault == "alpha-type":
            entry["alpha"] = draw(st.sampled_from(
                (5, None, "ab", {"a": 1}, [[0]] * dim, [1.0] * dim)))
        elif fault == "alpha-length":
            entry["alpha"] = draw(st.sampled_from(([], [0] * (dim + 1))))
        elif fault == "alpha-negative":
            entry["alpha"] = [-1] + [0] * (dim - 1)
        elif fault == "alpha-order":
            entry["alpha"] = [order + 1] + [0] * (dim - 1)
        elif fault == "alpha-bool":
            entry["alpha"] = [draw(st.booleans())] + [0] * (dim - 1)
        else:
            key = draw(st.sampled_from(("dim", "order")))
            doc[key] = draw(st.sampled_from((-1, 0, True, "2", None)))
    return doc


@settings(max_examples=300, deadline=None, derandomize=True)
@given(doc=valid_blocks())
def test_decoder_matches_the_entrywise_reference(doc):
    assert load_block(copy.deepcopy(doc)) == reference_load_block(doc)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(doc=faulty_blocks())
def test_faulty_block_raises_the_entrywise_fault(doc):
    expected = _outcome(reference_load_block, doc)
    assert _outcome(load_block, doc) == expected
