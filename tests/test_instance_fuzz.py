"""Mutated instance files never crash ``verify``.

A stored pair is untrusted input.  Each example takes a ``synth --dim 2``
document, applies a few mutations (a key deleted, a value replaced by one
of another type, a dim, order or kind changed, a coefficient perturbed)
and runs ``verify --instance`` on one grid cell and one draw, with or
without the ``psi-sign`` negative control.  Whatever the file holds, the
command exits 0, 1, 2 or 3 without an uncaught exception, and it exits 1
only when its report holds a failed check.
"""

import contextlib
import copy
import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from eqlab.cli import main
from eqlab.harness import synth_document

DOCUMENT = synth_document(2, 1, seed=0)

OTHER_TYPES = (None, True, "x", "1", 1.5, -1, [], {}, [1], {"dim": 2})
SMALL_INTS = (-1, 0, 1, 2, 3, 4, 10**6)
NUMBERS = ("0", "-1", "7", "1" + "0" * 40, "-3", "2")
INTEGER_KEYS = ("dim", "order", "kind")
COEFF_KEYS = ("num", "den")


def paths(obj, prefix=()):
    """Every path to a node below the root, parents before children."""
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from paths(value, prefix + (key,))


def parent_of(doc, path):
    node = doc
    for key in path[:-1]:
        node = node[key]
    return node


def mutate(doc, kind: str, pick: int, choice: int) -> None:
    """Apply one mutation in place; ``pick`` chooses the node, ``choice``
    the new value."""
    if kind == "number":
        candidates = [p for p in paths(doc) if p[-1] in COEFF_KEYS]
    elif kind == "integer":
        candidates = [p for p in paths(doc) if p[-1] in INTEGER_KEYS]
    else:
        candidates = list(paths(doc))
    if not candidates:
        return
    path = candidates[pick % len(candidates)]
    parent = parent_of(doc, path)
    if kind == "delete":
        del parent[path[-1]]
    elif kind == "retype":
        value = OTHER_TYPES[choice % len(OTHER_TYPES)]
        parent[path[-1]] = copy.deepcopy(value)
    elif kind == "integer":
        parent[path[-1]] = SMALL_INTS[choice % len(SMALL_INTS)]
    else:
        parent[path[-1]] = NUMBERS[choice % len(NUMBERS)]


MUTATIONS = st.lists(
    st.tuples(st.sampled_from(("delete", "retype", "integer", "number")),
              st.integers(0, 10**6), st.integers(0, 100)),
    min_size=1, max_size=3)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutations=MUTATIONS, corrupt=st.booleans())
def test_mutated_instance_exits_cleanly(tmp_path, mutations, corrupt):
    doc = copy.deepcopy(DOCUMENT)
    for kind, pick, choice in mutations:
        mutate(doc, kind, pick, choice)
    instance = tmp_path / "instance.json"
    report = tmp_path / "report.json"
    instance.write_text(json.dumps(doc))
    report.unlink(missing_ok=True)
    argv = ["verify", "--instance", str(instance), "--grid", "1",
            "--draws", "1", "--out", str(report)]
    if corrupt:
        argv += ["--corrupt", "psi-sign"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code in (0, 1):
        checks = json.loads(report.read_text())["checks"]
        failed = [c["check"] for c in checks if not c["pass"]]
        assert bool(failed) == (code == 1), failed
    else:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("eqlab:"), lines
