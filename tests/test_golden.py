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
)


@pytest.mark.parametrize("argv, exit_code, digest", GOLDEN,
                         ids=[" ".join(case[0]) for case in GOLDEN])
def test_stdout_matches_golden_digest(capsys, monkeypatch, argv, exit_code,
                                      digest):
    monkeypatch.delenv("EQLAB_SEED", raising=False)
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == exit_code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
