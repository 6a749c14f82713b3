"""The layer trace in ``bench/layertrace.py`` still attaches to the package.

The tracer wraps functions and methods by name; a rename in the package
would otherwise surface only when the traced benchmark runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from eqlab.cli import main

ROOT = Path(__file__).resolve().parent.parent
ARGS = ["verify", "--dim", "2", "--seed", "0", "--grid", "1", "--draws", "1"]


def run_traced(tmp_path, args, capsys) -> tuple[int, dict]:
    """Runs ``args`` untraced, then under the tracer; asserts the two give
    the same exit code and stdout, and returns the code and the traced
    spans."""
    code = main(args)
    untraced = capsys.readouterr().out
    out_path = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "layertrace.py"),
         str(out_path), "0", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == untraced
    return code, json.loads(out_path.read_text())["spans"]


def test_traced_verify_matches_untraced_and_records_spans(capsys, tmp_path):
    code, spans = run_traced(tmp_path, ARGS, capsys)
    assert code == 0
    for name in ("invariants.parts", "geometry.curvature_K",
                 "geometry.cov_deriv"):
        assert spans[name]["calls"] > 0, name
    # one _Parts per side
    assert spans["invariants.parts"]["calls"] == 2


def test_traced_ranks_matches_untraced(capsys, tmp_path):
    code, spans = run_traced(tmp_path, ["ranks", "--dim", "3", "--trials",
                                        "1"], capsys)
    assert code == 0
    assert spans["linalg.rank_exact"]["calls"] > 0


def test_traced_synth_matches_untraced(capsys, tmp_path):
    code, spans = run_traced(tmp_path, ["synth", "--dim", "2", "--seed", "0"],
                             capsys)
    assert code == 0
    assert spans["mapping.synthesize"]["calls"] == 1
    assert spans["jets.inverse"]["calls"] == 1


def test_traced_eval_matches_untraced(capsys, tmp_path):
    program = tmp_path / "program.txt"
    program.write_text("S[_j,_k] = Sigma[_j,_k]\n")
    code, spans = run_traced(tmp_path, ["eval", str(program), "--dim", "2",
                                        "--seed", "0"], capsys)
    assert code == 0
    assert spans["dsl.evaluate"]["calls"] == 1
