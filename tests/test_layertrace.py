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


def test_traced_verify_matches_untraced_and_records_spans(capsys, monkeypatch,
                                                          tmp_path):
    monkeypatch.delenv("EQLAB_SEED", raising=False)
    assert main(ARGS) == 0
    untraced = capsys.readouterr().out
    out_path = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "layertrace.py"),
         str(out_path), "0", *ARGS],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == untraced
    spans = json.loads(out_path.read_text())["spans"]
    for name in ("invariants.parts", "geometry.curvature_K",
                 "geometry.cov_deriv"):
        assert spans[name]["calls"] > 0, name
    # one _Parts per side
    assert spans["invariants.parts"]["calls"] == 2
