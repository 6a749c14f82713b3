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
    (("verify", "--dim", "2", "--seed", "0", "--corrupt", "psi-sign"), 1,
     "5caf0629c294d290592bb302baa5e536afb16e29ae21aae15ae812122ee25afe"),
    (("ranks", "--dim", "2"), 1,
     "b4aee1c426cacffafd207cc0d337fc31814f611db05649b6ebcd9dc8196c06db"),
    (("synth", "--dim", "3", "--seed", "0"), 0,
     "add0e63c3c67737af0e8f85f33a013d9765db80d897480da268bce00b6489a3a"),
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
