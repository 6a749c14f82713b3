"""Instance documents: what ``synth`` writes at the order cap reads
back, and a bug in the checks that follow a decoded pair, or in the
synthesis of one, is a bug, not a malformed file."""

import json

import pytest

from eqlab import mapping
from eqlab.cli import main
from eqlab.documents import pair_json, read_bindings_source, read_pair
from eqlab.harness import synth_document
from eqlab.jets import MAX_ORDER
from eqlab.mapping import MappedPair, synthesize_instance
from eqlab.tensors import TensorField


def stored(tmp_path, doc):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_a_pair_at_the_order_cap_reads_back(tmp_path):
    """synth's highest order is within the reader's connection cap."""
    pair = synthesize_instance(2, 2, 4, MAX_ORDER)
    path = stored(tmp_path, synth_document(2, 2, 4, MAX_ORDER))
    seed, loaded = read_pair(path)
    assert seed == 4
    assert pair_json(loaded) == pair_json(pair)
    assert pair_json(read_bindings_source(path)) == pair_json(pair)


@pytest.mark.parametrize("command", ["verify", "eval"])
def test_a_key_error_in_validation_exits_four(capsys, monkeypatch, tmp_path,
                                              command):
    """Only decoding turns a ``KeyError`` into a malformed-file message;
    one raised while the decoded pair is checked is an internal error."""
    path = stored(tmp_path, synth_document(2, 1, 0))
    program = tmp_path / "program.eqs"
    program.write_text("V[^i] = Phi[^i]\n")

    def broken(self):
        raise KeyError("lost")

    monkeypatch.setattr(MappedPair, "validate", broken)
    argv = (["verify", "--instance", path] if command == "verify"
            else ["eval", str(program), "--instance", path])
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (4, "")
    assert captured.err.splitlines()[0] == (
        "eqlab: internal error: KeyError: 'lost'")


def test_a_missing_key_is_still_a_malformed_file(capsys, tmp_path):
    doc = synth_document(2, 1, 0)
    del doc["mapping"]["psi"]
    path = stored(tmp_path, doc)
    assert main(["verify", "--instance", path]) == 2
    assert capsys.readouterr().err == (
        f"eqlab: instance file {path} is malformed: 'psi'\n")


def test_a_nonzero_residual_is_a_bug_in_synthesis_only(capsys, monkeypatch,
                                                      tmp_path):
    """A synthesized pair solves its basic equation by construction, so a
    nonzero residual there exits 4; a stored pair's is the file's fault."""
    path = stored(tmp_path, synth_document(2, 1, 0))
    monkeypatch.setattr(mapping, "basic_equation_residual",
                        lambda s, m: TensorField.delta(s.dim, 0))
    for argv in (["verify", "--dim", "2", "--seed", "0", "--grid", "1",
                  "--draws", "1"], ["synth", "--dim", "2"]):
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[:2] == [
            "eqlab: internal error: SynthesisError: synthesized pair: "
            "basic equation residual is nonzero",
            "rerun: eqlab " + " ".join(argv)]
    assert main(["verify", "--instance", path]) == 2
    assert capsys.readouterr().err == (
        "eqlab: basic equation residual is nonzero\n")
