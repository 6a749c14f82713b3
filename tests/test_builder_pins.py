"""Pinned outputs of the product-sum builders.

Each builder's output on two synthesized instances, one of order 2 and
kind 1, one of order 3 and kind 2, is written as the instance format
writes a field or a jet, hashed and compared with the digest its
term-by-term definition produced.  A builder rewritten over
another evaluator must give the same values at the same truncation order.
"""

import hashlib
import json

import pytest

from eqlab.documents import block_json, tensor_json
from eqlab.geometry import cov_deriv_kind, torsion_square_terms
from eqlab.invariants import InvariantBundle
from eqlab.mapping import (
    basic_equation_residual,
    gamma_diff_factorized,
    synthesize_instance,
    transform_connection,
)

PAIRS = ((3, 1, 0, 2), (3, 2, 0, 3))


def _outputs(pair) -> dict:
    s, m = pair.source, pair.mapping
    bundle = InvariantBundle(s, m)
    out = {f"U{theta}": bundle.u_tensor(theta) for theta in range(1, 21)}
    for which in (1, 2):
        out[f"eta{which}"] = bundle.eta(which)
        out[f"w_star{which}"] = bundle.w_star(which)
        out[f"cov_deriv_kind{which}(phi)"] = cov_deriv_kind(m.phi, s, which)
    out["curvature"] = s.curvature()
    out["torsion_cd"] = s.torsion_cd()
    for name, square in zip(("V", "V'", "W_t"), torsion_square_terms(s)):
        out[f"torsion_square {name}"] = square
    out["trace_sym"] = s.trace_sym()
    out["sigma_phi"] = m.sigma_phi()
    out["transform_connection"] = transform_connection(s, m).gamma
    out["basic_equation_residual"] = basic_equation_residual(s, m)
    out["gamma_diff_factorized"] = gamma_diff_factorized(pair, pair.inverse())
    docs = {name: tensor_json(value) for name, value in out.items()}
    # the rank-0 field's one component, a jet, as pinned
    jet = m.psi_phi()[()]
    docs["psi_phi"] = block_json(jet.dim, jet.order, jet.den, jet.nums)
    return docs


def _digests() -> dict:
    per_pair = [_outputs(synthesize_instance(*args)) for args in PAIRS]
    return {name: hashlib.sha256(json.dumps(
        [outputs[name] for outputs in per_pair], sort_keys=True,
        separators=(",", ":")).encode("utf-8")).hexdigest()
        for name in per_pair[0]}


PINNED = {
    "U1":
        "ed3190f20e9f95e1fa67453d60e86b4cb5922598cf25eae28df0b03694eabf98",
    "U2":
        "b1839d7d23c83b7878b09bbb794c1dd3d1740618af855024e359f0b154bbdae7",
    "U3":
        "c4977901094b464e7e9b61167a7a8d5a65bcedeafca15f0ade6ee07415338cc6",
    "U4":
        "580a49fb978311316da22c9f2407be3f88045ac2d53f3ab8914abd585fbd9bd3",
    "U5":
        "4cd182f294b2d1b44345390eec3a28bc5a00e0bd6cec797b99cff3831e5cbfe4",
    "U6":
        "aa9b0f7a5abd10baca107c13c9ae52bf4319da3299fef70994dc1c029070924b",
    "U7":
        "7039ea34de57e5737a00c8d296510473589c1a12d3785e36f07f89580725dd09",
    "U8":
        "40af81994ffe54bcd83cd175e56fdde460fd3e831b4117e1e6328d3c8ee01476",
    "U9":
        "1cde104889835272e1946c374ff98804ff6f11dd7421fc3e3dc081191af91b11",
    "U10":
        "be4ca8624c403d2a74f52fddf86822ca2d16d80af2ec8fb6fddb961a24b7d523",
    "U11":
        "88273b2699b10ec7a3f4fbf43f2ae4e0bc99b53af5699e19004aef8f82b858b1",
    "U12":
        "2fedb761067df3e625a61871d1704a6442cda5df6c55aa80d1683f2a33a2c7b5",
    "U13":
        "9652d85053fc8351034b8d40ca031939f839a862a0f98747a33d44d575470fc6",
    "U14":
        "a4f7f9d0e14d30857d88376a0c4edf936dc5149f056d90c3cd72e9742762e391",
    "U15":
        "bf2dc88b93fc448bf0378eed39b7416336ef7a6abdaff8929b5ce3e51cfbc802",
    "U16":
        "7ce7cbcaf1ef207d83b91be8db485572d22a34f7edf07dcc7ef44364bf77ff80",
    "U17":
        "1c58776ee87659731d401360bf3257f3175df7854949897fea4bfa1de9098b56",
    "U18":
        "ad12b2b9835e69fbda4975fccc0f5abd03dd92aa22678becbb3ae0b3279f64a3",
    "U19":
        "92b5d19c0cd3f3661f2b74c57b2ec276ad9a2a8c35eaf86f352fc1290972a182",
    "U20":
        "1ffea2f92c29c4cdc3ee26f7510660e02fd65ead6968013c71176b715371889b",
    "eta1":
        "479b5dd9467a45594c2245d5162600c49c41a255167657e4c05355e9f6dac5a1",
    "w_star1":
        "9c63cebfd026c8f90248fe12ce9700609e976d7409da445b55df55d05d5943a4",
    "cov_deriv_kind1(phi)":
        "ccbf4623db23054d2fc8f0d816427eb26e20c167f07ac0196f12c0aeba640674",
    "eta2":
        "41a8425690c92fd7eddfb15322d5d93ffff77cede9874a14181c63495a4d008a",
    "w_star2":
        "987ad110234c383c3f3d1b0de5df74b0747184c30dcb0298c94e71087daae004",
    "cov_deriv_kind2(phi)":
        "3ce635f037df25590298a1c83233026c1ae3b034d6646a4ff86e6c407dc73066",
    "curvature":
        "5efa36f929997d1fcd50fa50bc5d6232b986221fe02f6541b1f175b24fd3e9c9",
    "torsion_cd":
        "d897eeb273087bde38cc0f4d26e8cd00409a3bd3981962d38785a6dd3944287b",
    "torsion_square V":
        "b68c76b2bda4569d774214e234865fcd04ee832e30d6c465aa05477794672950",
    "torsion_square V'":
        "73c2dbb510967dc9512a27cb1010ce5feee86bed3c46563199eaa805504a44a3",
    "torsion_square W_t":
        "d936c9ac9cb47b3eb1377a52d7babfc124556241deb180b22f6478148b1b4e6a",
    "trace_sym":
        "267186d345d85174ac3ff67a954cc48fcd1e2eb320e0700c7c2f79a0e4e1a770",
    "sigma_phi":
        "8be04d3b43120290d9e6caebbdd5d89222f0ca91b35ed88b5f2078c8c2b7274d",
    "psi_phi":
        "e6dfe85fdce17c05a433f8760d427b508b500d84ba1de3e7623ac00e80fb1037",
    "transform_connection":
        "802eb1c9ef1d42b7ec6dbc1e94b749333adccced1b7bba0574a6d96fa843f455",
    "basic_equation_residual":
        "79d98f3b1092d4f050a5f1c5bb0c681d0bcb1710a8e15d4af4612371cc3ec28e",
    "gamma_diff_factorized":
        "d5ef934bc5e83f339c6eea9a7b842712aec502ea7f8424152e03efd97d4e3af7",
}


@pytest.fixture(scope="module")
def digests():
    return _digests()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_builder_output_is_pinned(digests, name):
    assert digests[name] == PINNED[name]


def test_every_builder_is_pinned(digests):
    assert sorted(digests) == sorted(PINNED)
