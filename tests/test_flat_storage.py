"""The three boundaries of flat storage: random draws, JSON loads and
JSON writes.

Draws are pinned by the sha256 of their ``to_json``, so a rewrite of the
draw must consume the random stream in the same order and place every
coefficient where it did.  Loads and writes are compared with a reference
that reads every coefficient as a ``Fraction``.
"""

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eqlab.geometry import random_connection
from eqlab.jets import JetScalar, graded_basis
from eqlab.mapping import synthesize_instance
from eqlab.tensors import TensorField

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
    docs = [random_connection(dim, order, seed).gamma.to_json()
            for seed in SEEDS]
    assert _digest(docs) == CONNECTION_DIGESTS[dim, order]


@pytest.mark.parametrize("dim, order", sorted(INSTANCE_DIGESTS))
def test_synthesized_instance_matches_pinned_digest(dim, order):
    docs = [synthesize_instance(dim, kind, seed, order).to_json()
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
    jet = JetScalar.from_json(doc)
    assert jet.coeffs == _reference(doc["coeffs"])
    assert jet.to_json() == _reference_json(doc["dim"], doc["order"],
                                            doc["coeffs"])


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
    field = TensorField.from_json(doc)
    expected = [_reference_json(c["dim"], c["order"], c["coeffs"])
                for c in doc["components"]]
    assert [c.coeffs for c in field.components] == [
        _reference(c["coeffs"]) for c in doc["components"]]
    assert field.to_json() == {"dim": doc["dim"], "valence": doc["valence"],
                               "components": expected}
