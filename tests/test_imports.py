"""Each process loads only the eqlab layers its work reaches.

``import eqlab`` loads no submodule: the package exports its names
lazily.  The command line builds its parser from ``cli`` alone and each
command imports what it runs, so a rejected input file loads only the
loader, and only ``eval`` loads the expression language.  Each case runs
in a fresh interpreter, as a user's command does.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eqlab
from eqlab.harness import synth_document

SRC = Path(__file__).resolve().parent.parent / "src"

LOADER = {"jets", "tensors", "geometry", "mapping"}
EVERY_LAYER = LOADER | {"cli", "dsl", "harness", "invariants", "linalg"}


def loaded_by(code: str, cwd: Path) -> set[str]:
    """The eqlab submodules a fresh interpreter holds after running code."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("EQLAB_SEED", None)
    report = ("\nimport sys\nprint(' '.join(name[6:] for name in sys.modules"
              " if name.startswith('eqlab.')))")
    proc = subprocess.run([sys.executable, "-c", code + report], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def loaded_by_command(argv: list[str], exit_code: int, cwd: Path) -> set[str]:
    return loaded_by("from eqlab.cli import main\n"
                     f"assert main({argv!r}) == {exit_code}", cwd)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A stored pair, two files the loader turns away, and a program."""
    path = tmp_path_factory.mktemp("imports")
    doc = synth_document(2, 1, seed=0)
    (path / "pair.json").write_text(json.dumps(doc))
    (path / "list.json").write_text(json.dumps([doc]))
    doc["source"]["gamma"]["components"][0]["coeffs"][0]["den"] = "0"
    (path / "den0.json").write_text(json.dumps(doc))
    (path / "program.eqs").write_text("V[^i,_j] = Torsion[^i,_j,_a]*Phi[^a]\n")
    return path


def test_package_import_loads_no_submodule(work):
    assert loaded_by("import eqlab", work) == set()


def test_setup_probe_loads_the_instance_layers(work):
    code = "from eqlab import MappedPair, random_connection, synthesize_instance"
    assert loaded_by(code, work) == LOADER


def test_random_connection_loads_no_mapping(work):
    code = "from eqlab import random_connection\nrandom_connection(3, 2, 0)"
    assert loaded_by(code, work) == {"jets", "tensors", "geometry"}


def test_non_object_file_is_rejected_by_cli_alone(work):
    argv = ["verify", "--instance", "list.json"]
    assert loaded_by_command(argv, 2, work) == {"cli"}


def test_file_the_loader_rejects_loads_only_the_loader(work):
    argv = ["verify", "--instance", "den0.json"]
    assert loaded_by_command(argv, 2, work) == {"cli"} | LOADER


@pytest.mark.parametrize("argv, exit_code", [
    (["synth", "--dim", "2", "--out", "out.json"], 0),
    (["ranks", "--dim", "2", "--trials", "1", "--out", "out.json"], 1),
    (["verify", "--dim", "2", "--grid", "1", "--draws", "1",
      "--out", "out.json"], 0),
    (["verify", "--instance", "pair.json", "--grid", "1", "--draws", "1",
      "--out", "out.json"], 0),
], ids=["synth", "ranks", "verify", "verify-instance"])
def test_commands_load_every_layer_but_the_language(work, argv, exit_code):
    assert loaded_by_command(argv, exit_code, work) == EVERY_LAYER - {"dsl"}


def test_eval_loads_every_layer(work):
    argv = ["eval", "program.eqs", "--instance", "pair.json",
            "--out", "out.json"]
    assert loaded_by_command(argv, 0, work) == EVERY_LAYER


def test_module_run_imports_cli_once(work):
    """``python -m eqlab.cli`` runs cli as ``__main__``; no layer imports
    it a second time as ``eqlab.cli``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("EQLAB_SEED", None)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "eqlab.cli", "synth",
         "--dim", "2", "--out", "out.json"],
        cwd=work, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    imported = [line.rsplit("|", 1)[-1].strip()
                for line in proc.stderr.splitlines()]
    assert "eqlab.harness" in imported
    assert "eqlab.cli" not in imported


def test_parser_constants_match_the_layers():
    from eqlab import cli, harness, invariants

    assert cli.ALL_LABELS == invariants.SIGMA_LABELS
    assert cli.FAULTS == harness.FAULTS


def test_dir_lists_every_export():
    assert set(dir(eqlab)) >= set(eqlab.__all__)
    assert len(eqlab.__all__) == len(set(eqlab.__all__)) == 33


def test_star_import_binds_the_submodules_objects():
    namespace: dict = {}
    exec("from eqlab import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(eqlab.__all__)
    for name in eqlab.__all__:
        module = importlib.import_module(f"eqlab.{eqlab._EXPORTS[name]}")
        assert namespace[name] is getattr(module, name) is getattr(eqlab, name)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(eqlab, "no_such_name")
    assert not hasattr(eqlab, "no_such_name")


def test_submodules_import_by_name():
    from eqlab import cli, dsl, geometry, harness, invariants, jets, linalg
    from eqlab import mapping, tensors

    modules = (cli, dsl, geometry, harness, invariants, jets, linalg,
               mapping, tensors)
    assert [m.__name__ for m in modules] == [
        f"eqlab.{name}" for name in ("cli", "dsl", "geometry", "harness",
                                     "invariants", "jets", "linalg",
                                     "mapping", "tensors")]


def test_no_module_imports_a_name_it_never_reads():
    """A name imported and never read is left over from deleted code."""
    unread = []
    for path in sorted((SRC / "eqlab").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    imported[name] = node.lineno
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unread += [f"{path.name}:{line} {name}"
                   for name, line in imported.items() if name not in read]
    assert unread == []
