"""Golden reports: fixed configurations print byte-identical stdout.

Each case pins the exit code and the sha256 of everything ``main`` writes
to stdout, so any change that alters a report byte fails here.
"""

import hashlib

import pytest

from eqlab.cli import main

GOLDEN = (
    (("verify", "--dim", "2", "--seed", "0"), 0,
     "30bd388a2fc7c1aab943eef798628186d20112c1018e8531a4b3670c8cc641fd"),
    (("verify", "--dim", "2", "--seed", "0", "--kind", "2"), 0,
     "3effc2367f1671de061b5f6a43c08141270519d44e631503a062e5d8c2f6261c"),
    (("verify", "--dim", "3", "--seed", "0", "--kind", "2", "--grid", "1..4"),
     0, "ed5c8b056c3796d3e4c65a53f5f3ae154a085eb1bc652d874b1c10dfb906b3e8"),
    (("verify", "--dim", "2", "--seed", "0", "--corrupt", "psi-sign"), 1,
     "5caf0629c294d290592bb302baa5e536afb16e29ae21aae15ae812122ee25afe"),
    (("ranks", "--dim", "2"), 1,
     "b4aee1c426cacffafd207cc0d337fc31814f611db05649b6ebcd9dc8196c06db"),
    (("synth", "--dim", "3", "--seed", "0"), 0,
     "add0e63c3c67737af0e8f85f33a013d9765db80d897480da268bce00b6489a3a"),
    (("synth", "--dim", "3", "--kind", "2", "--order", "3", "--seed", "0"), 0,
     "e1bda4ebc7d206dd064f8c9704c3ae66045aba4663810e3db933a23c16b1ab3e"),
    (("verify", "--dim", "3", "--seed", "0"), 0,
     "40fe094da293d108d081d86939a4fd7ceba4b0efb2c3a9a8d06cce96f3f2c3d2"),
    (("ranks", "--dim", "3", "--seed", "0"), 0,
     "d96b4640ebdc2135554424ffad174b19bbaeb78a212a9b0e1cfba84c8c3d9d78"),
    (("ranks", "--dim", "4"), 0,
     "f0fa75633256b46f9546a07e429446381df37591f388becc5ffb749b6bc4209a"),
    (("verify", "--dim", "3", "--seed", "0", "--corrupt", "psi-sign"), 1,
     "3796d1b478f1fc167a32bb710dcc478c3165c660bf8ee8b1360f58b117c86dec"),
    (("verify", "--dim", "3", "--seed", "0", "--order", "3", "--grid", "1..3",
      "--corrupt", "psi-sign"), 1,
     "5a304728f52bfcb08362dea9b767a3677fa46ab1c26ab920650ab6ee30d687af"),
    (("verify", "--dim", "4", "--seed", "0"), 0,
     "2e574418f002daf2afbccae3e81b9d186b4440aeae027700c82a4c562b88c2cd"),
    (("ranks", "--dim", "3", "--seed", "1", "--order", "3"), 0,
     "f2de22629703beae5b5561c709567ddf23894ae3ffb66efb0730beec7b371153"),
    (("ranks", "--dim", "5"), 0,
     "1b3547e01acabc21a295c3b7eabca142abed7afca533a5a9a20e42dbe4d41afb"),
    (("verify", "--dim", "3", "--kind", "2", "--order", "3", "--seed", "0",
      "--grid", "1", "--corrupt", "psi-sign"), 1,
     "670366a053897dc90be78e89a1e59a00446ea0bd098a7fac14260a2347e5dff4"),
    (("synth", "--dim", "2", "--kind", "2", "--seed", "3"), 0,
     "710b9fb53ca812bf7a96d6d4fa7b27ee4dd052de5b43886166733394a8043344"),
    (("synth", "--dim", "3", "--kind", "1", "--order", "3", "--seed", "1"), 0,
     "3b3801dfeec1bf17ea7ee1acd7dea91c4f5d2b253c6e6a78a8327cf7074173eb"),
    (("synth", "--dim", "4", "--kind", "2", "--seed", "0"), 0,
     "c8355e9d5265f068c2c1a348204813903542c4fdd2e0f87a5d46b740152d1d40"),
    (("verify", "--dim", "3"), 0,
     "d0ab68a28969ec6dd400a6949235b78d30a13206749b81708fab586df6ab54d9"),
)

# A product, a repeated-index contraction, a comma derivative and
# differences, evaluated on a stored order-3 pair.
EVAL_PROGRAM = """\
R[^i,_j,_m,_n] = d(GammaSym[^i,_j,_m],_n) - d(GammaSym[^i,_j,_n],_m) \
+ GammaSym[^a,_j,_m]*GammaSym[^i,_a,_n] - GammaSym[^a,_j,_n]*GammaSym[^i,_a,_m]
D[^i,_j,_k] = BarGammaSym[^i,_j,_k] - GammaSym[^i,_j,_k]
"""
EVAL_DIGEST = "c25f4f5c6f9a9ec0c0af51ba06c62b1d3c561cb14be14a008d19d62c01fd4ef5"

# Products of three factors, one contracting its first factor with its
# third, products with rational literal factors, and a rank-0 result.
EVAL_PRODUCTS = """\
P[_j,_k] = Phi[^a]*Sigma[_j,_k]*Psi[_a]
Q[^i,_j] = 2/3*Phi[^i]*Nu[_j] - Sigma[_j,_a]*Phi[^a]*Phi[^i]*1/2
S = Psi[_a]*BarPhi[^a] + 3
"""
EVAL_PRODUCTS_DIGEST = (
    "8a5d79c878df0cb2e0285daf3ced1e62f8d812c758433bf1642eb6b46e2684ad")

# Left-hand sides that list their slots in another order than the
# right-hand side, derivatives of products, delta and a line of literals.
EVAL_REORDERED = """\
F[_n,^i,_m,_j] = d(GammaSym[^i,_j,_m],_n) - d(GammaSym[^i,_j,_n],_m) \
+ GammaSym[^a,_j,_m]*GammaSym[^i,_a,_n] - GammaSym[^a,_j,_n]*GammaSym[^i,_a,_m]
G[_j,^i] = 2/3*Phi[^i]*Nu[_j] + Nu[_j]*Phi[^i]
H[_k,_j,^i] = d(Phi[^i]*Nu[_j],_k) - d(Sigma[_j,_a]*Phi[^a],_k)*Phi[^i]
E[_j,^i] = delta[^i,_j] + 1/2*Phi[^i]*BarPsi[_j]
C = 1/2 + 1/3
"""
EVAL_REORDERED_DIGEST = (
    "b045e28b6e96445121bcb33fc930faa9367de2021e156ca76449e5cd38c7aa94")


@pytest.mark.parametrize("argv, exit_code, digest", GOLDEN,
                         ids=[" ".join(case[0]) for case in GOLDEN])
def test_stdout_matches_golden_digest(capsys, monkeypatch, argv, exit_code,
                                      digest):
    monkeypatch.delenv("EQLAB_SEED", raising=False)
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == exit_code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def _eval_digest(capsys, tmp_path, text: str) -> tuple[int, str]:
    """Exit code and stdout digest of ``eval`` of ``text`` on a stored
    ``synth --dim 3 --kind 2 --order 3 --seed 1`` pair."""
    pair, program = tmp_path / "pair.json", tmp_path / "program.eqs"
    assert main(["synth", "--dim", "3", "--kind", "2", "--order", "3",
                 "--seed", "1", "--out", str(pair)]) == 0
    program.write_text(text, encoding="utf-8")
    capsys.readouterr()
    code = main(["eval", str(program), "--instance", str(pair)])
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode("utf-8")).hexdigest()


def test_eval_report_matches_golden_digest(capsys, monkeypatch, tmp_path):
    monkeypatch.delenv("EQLAB_SEED", raising=False)
    assert _eval_digest(capsys, tmp_path, EVAL_PROGRAM) == (0, EVAL_DIGEST)


def test_eval_products_match_golden_digest(capsys, monkeypatch, tmp_path):
    monkeypatch.delenv("EQLAB_SEED", raising=False)
    assert _eval_digest(capsys, tmp_path, EVAL_PRODUCTS) == (
        0, EVAL_PRODUCTS_DIGEST)


def test_eval_reordered_slots_match_golden_digest(capsys, monkeypatch,
                                                  tmp_path):
    monkeypatch.delenv("EQLAB_SEED", raising=False)
    assert _eval_digest(capsys, tmp_path, EVAL_REORDERED) == (
        0, EVAL_REORDERED_DIGEST)
