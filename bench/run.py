"""eqlab benchmark: workloads run through the ``eqlab`` command line.

Usage::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; eqlab is imported
from the checkout's ``src`` directory.  Each command runs in a fresh
interpreter started by this process, one at a time (a closed loop with
one client), exactly as a user runs ``eqlab``.  Workloads:

* ``verify-d3``        ``eqlab verify --dim 3 --seed S`` (kind 1, order 2,
  full 8x8 grid, 3 draws);
* ``ranks-stored-d3``  ``eqlab ranks --dim 3 --seed S``, then a
  stored-instance round trip at dim 3, order 3, kind 2: synth two seeds,
  verify one stored file under ``--corrupt psi-sign``, eval a four-line
  program on the other, and three malformed inputs.

With ``--trace 0`` whole rounds of the workload's commands repeat until
``--seconds`` have passed (at least one round); the run reports
``setup_s``, ``wall_s`` and ``peak_rss_mb`` as medians.  With
``--trace 1`` one untraced and one traced round run, and the run reports
the per-layer metrics of ``layertrace`` plus ``trace.overhead_ratio``.
Every round's outputs are checked; the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Details of the run are written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))
import layertrace  # noqa: E402
import refcheck  # noqa: E402

# What the installed ``eqlab`` console script runs.
ENTRY = "import sys; from eqlab.cli import main; sys.exit(main())"

SETUP_REPEATS = 7
RUN_DEADLINE_S = 170.0

# The paper's rank and span values at dimension 3, in report order.
PAPER_RANKS = (("sigma_coeff_rank", 4), ("W_matrix_generic_rank", 6),
               ("curvature_family_span", 5), ("family_span_kind1", 6),
               ("family_span_kind2", 6))

# Value-level checks that --corrupt psi-sign must fail, and only these.
NEGATIVE_CONTROL_FAILS = frozenset(
    {"W_invariance", "family_invariance", "R_K_transformation"})

EVAL_PROGRAM = """\
R[^i,_j,_m,_n] = d(GammaSym[^i,_j,_m],_n) - d(GammaSym[^i,_j,_n],_m) + GammaSym[^a,_j,_m]*GammaSym[^i,_a,_n] - GammaSym[^a,_j,_n]*GammaSym[^i,_a,_m]
BarR[^i,_j,_m,_n] = d(BarGammaSym[^i,_j,_m],_n) - d(BarGammaSym[^i,_j,_n],_m) + BarGammaSym[^a,_j,_m]*BarGammaSym[^i,_a,_n] - BarGammaSym[^a,_j,_n]*BarGammaSym[^i,_a,_m]
V[^i,_j,_m,_n] = Torsion[^a,_j,_m]*Torsion[^i,_a,_n]
DT[^i,_j,_m] = BarTorsion[^i,_j,_m] - Torsion[^i,_j,_m]
"""

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))


@dataclass
class Outcome:
    """What one command did: exit code, output bytes, time and memory."""
    returncode: int
    stdout: bytes
    stderr: str
    wall_s: float = 0.0
    maxrss_kb: int = 0
    files: dict = field(default_factory=dict)

    def digest(self) -> str:
        h = hashlib.sha256(self.stdout)
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name])
        return h.hexdigest()


@dataclass
class Step:
    """One command of a workload and the operations it owes.

    ``judge(outcome, first)`` returns how many of the ``owed`` operations
    came out as expected, and the problems it saw; ``first`` is true on
    the first round, where outputs are also checked against the
    reference checker.  ``known_fault`` marks the malformed-input cases
    that fail today because of the input-boundary faults.
    """
    name: str
    args: list
    owed: int
    judge: Callable
    writes: tuple = ()
    known_fault: bool = False


@dataclass
class Workload:
    name: str
    steps: list
    setup_spec: dict
    prepare: Callable


def account(step: Step, outcome: Outcome, first: bool) -> tuple[int, list]:
    """(failed operations, problems).  A command that crashes or prints
    unreadable output fails every operation it still owed."""
    try:
        ok, problems = step.judge(outcome, first)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        ok, problems = 0, [f"unreadable output: {type(exc).__name__}: {exc}"]
    ok = max(0, min(ok, step.owed))
    if ok < step.owed and not problems:
        problems = [f"{step.owed - ok} of {step.owed} operations failed"]
    return step.owed - ok, [f"{step.name}: {p}" for p in problems]


def _report(outcome: Outcome, exit_code: int) -> dict:
    if outcome.returncode != exit_code:
        raise ValueError(f"exit {outcome.returncode}, expected {exit_code}; "
                         f"stderr tail {outcome.stderr[-300:]!r}")
    return json.loads(outcome.stdout)


def verify_counts(p_count: int, draws: int) -> dict:
    """Records of each check kind that one instance's report must hold."""
    return {"torsion_cd_difference": p_count,
            "sym_difference_factorization": 1, "W_invariance": 1,
            "T_tilde_invariance": p_count, "correlation": 1,
            "family_invariance": draws, "R_K_transformation": 1}


def judge_verify(counts: dict, cells: int, failing=frozenset()):
    """Each record is one operation.  It comes out as expected when it
    fails exactly if its kind is in ``failing`` (and then carries its
    residual); records beyond the configured count of a kind are a
    problem of their own."""
    exit_code = 1 if failing else 0

    def judge(outcome: Outcome, first: bool):
        doc = _report(outcome, exit_code)
        seen = {kind: 0 for kind in counts}
        ok, problems = 0, []
        for record in doc["checks"]:
            kind = record["check"]
            if kind not in seen:
                problems.append(f"unexpected check kind {kind!r}")
                continue
            seen[kind] += 1
            if seen[kind] > counts[kind]:
                problems.append(f"more {kind} records than configured")
                continue
            should_fail = kind in failing
            as_expected = (record["pass"] is not should_fail
                           and (record["residual"] is not None) == should_fail)
            if kind == "family_invariance":
                as_expected &= record["params"]["cells"] == cells
            if as_expected:
                ok += 1
            else:
                problems.append(f"{kind} record {record['params']} "
                                f"pass={record['pass']}")
        if doc["pass"] is not (not failing):
            problems.append(f"report pass flag is {doc['pass']}")
        return ok, problems
    return judge


def judge_ranks(outcome: Outcome, first: bool):
    doc = _report(outcome, 0)
    ok, problems = 0, []
    for (check, value), row in zip(PAPER_RANKS, doc["rows"]):
        if row["check"] == check and row["observed"] == value and row["pass"]:
            ok += 1
        else:
            problems.append(f"row {row} differs from the paper's {check}={value}")
    return ok, problems


def judge_synth(paths: list, spec: dict):
    def judge(outcome: Outcome, first: bool):
        if outcome.returncode != 0:
            raise ValueError(f"exit {outcome.returncode}")
        ok, problems = 0, []
        for path, seed in zip(paths, spec["seeds"]):
            doc = json.loads(outcome.files[path])
            fields = {key: doc[key] for key in ("dim", "kind", "order")}
            problems_here = []
            if fields != {k: spec[k] for k in fields} or doc["seed"] != seed:
                problems_here.append(f"{path} has header {fields}")
            if doc["certificate"]["pass"] is not True:
                problems_here.append(f"{path} certificate fails")
            if first:
                problems_here += refcheck.pair_problems(doc)
            ok += not problems_here
            problems += problems_here
        return ok, problems
    return judge


def judge_eval(pair_path: Path):
    def judge(outcome: Outcome, first: bool):
        results = _report(outcome, 0)["results"]
        if not first:  # later rounds must match round 1 byte for byte
            return len(results), []
        with open(pair_path, "r", encoding="utf-8") as handle:
            pair_doc = json.load(handle)
        problems = refcheck.eval_problems(results, pair_doc)
        return 4 - len(problems), problems
    return judge


def judge_malformed(outcome: Outcome, first: bool):
    """The documented contract: exit 2 and one ``eqlab:`` line on stderr."""
    lines = outcome.stderr.splitlines()
    if (outcome.returncode == 2 and len(lines) == 1
            and lines[0].startswith("eqlab:")):
        return 1, []
    tail = lines[-1] if lines else ""
    return 0, [f"exit {outcome.returncode}, {len(lines)} stderr lines, "
               f"last {tail[:120]!r}"]


def eqlab_command(args: list, cwd: Path) -> subprocess.CompletedProcess:
    """Untimed helper run of eqlab, for preparing inputs."""
    return subprocess.run([sys.executable, "-c", ENTRY, *args], cwd=cwd,
                          env=child_env(), capture_output=True, check=True)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("EQLAB_SEED", None)  # it would override every --seed
    return env


def check_pairs(paths: list) -> list:
    problems = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            problems += [f"{path.name}: {p}"
                         for p in refcheck.pair_problems(json.load(handle))]
    return problems


def write_malformed(base: Path, work: Path) -> None:
    """Three malformed instance files derived from a stored dim-2 pair.

    * ``bad-list.json``: the document wrapped in a JSON list;
    * ``bad-den0.json``: the first source Gamma coefficient has den "0";
    * ``bad-target.json``: the constant coefficient of the target's
      Gamma^1_11 raised by 1.  That component is diagonal in its lower
      slots, so the torsion stays equal and the file still loads.
    """
    with open(base, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    docs = {"bad-list.json": [doc]}

    den0 = json.loads(json.dumps(doc))
    den0["source"]["gamma"]["components"][0]["coeffs"][0]["den"] = "0"
    docs["bad-den0.json"] = den0

    target = json.loads(json.dumps(doc))
    jet = target["target"]["gamma"]["components"][0]
    zero = [0] * jet["dim"]
    entry = next((e for e in jet["coeffs"] if e["alpha"] == zero), None)
    if entry is None:
        entry = {"alpha": zero, "num": "0", "den": "1"}
        jet["coeffs"].insert(0, entry)
    entry["num"] = str(int(entry["num"]) + int(entry["den"]))
    docs["bad-target.json"] = target

    for name, bad in docs.items():
        with open(work / name, "w", encoding="utf-8") as handle:
            json.dump(bad, handle, sort_keys=True)


def verify_d3(seed: int, work: Path) -> Workload:
    counts = verify_counts(8, 3)

    def prepare():
        eqlab_command(["synth", "--dim", "3", "--kind", "1",
                       f"--seed={seed}", "--out", "instance.json"], work)
        return check_pairs([work / "instance.json"])

    return Workload("verify-d3", [Step(
        "verify", ["verify", "--dim", "3", "--kind", "1", "--order", "2",
                   f"--seed={seed}", "--draws", "3"],
        sum(counts.values()), judge_verify(counts, 64))],
        {"synthesize": [[3, 1, seed, 2]], "random_connection": [],
         "stored": []}, prepare)


def ranks_d3(seed: int, work: Path) -> Workload:
    pair_seeds = [977 * seed + t for t in range(2)]

    def prepare():
        paths = []
        for kind in (1, 2):
            eqlab_command(["synth", "--dim", "3", "--kind", str(kind),
                           "--seeds=" + ",".join(map(str, pair_seeds)),
                           "--out", "."], work)
            paths += [work / f"pair-d3-k{kind}-s{s}.json" for s in pair_seeds]
        return check_pairs(paths)

    return Workload("ranks-d3", [Step(
        "ranks", ["ranks", "--dim", "3", f"--seed={seed}"],
        len(PAPER_RANKS), judge_ranks)],
        {"synthesize": [[3, kind, s, 2] for kind in (1, 2)
                        for s in pair_seeds],
         "random_connection": [[3, 2, seed * 1009 + t] for t in range(10)],
         "stored": []}, prepare)


def stored_d3o3(seed: int, work: Path) -> Workload:
    spec = {"dim": 3, "kind": 2, "order": 3,
            "seeds": [2 * seed, 2 * seed + 1]}
    files = [f"store/pair-d3-k2-s{s}.json" for s in spec["seeds"]]
    synth_args = ["synth", "--dim", "3", "--kind", "2", "--order", "3",
                  "--seeds=" + ",".join(map(str, spec["seeds"]))]
    counts = verify_counts(1, 3)

    def prepare():
        (work / "program.eqs").write_text(EVAL_PROGRAM, encoding="utf-8")
        (work / "prep").mkdir()
        (work / "store").mkdir()
        eqlab_command(synth_args + ["--out", "prep"], work)
        eqlab_command(["synth", "--dim", "2", "--seed", "0",
                       "--out", "base-d2.json"], work)
        write_malformed(work / "base-d2.json", work)
        return check_pairs([work / "base-d2.json"])

    steps = [
        Step("synth", synth_args + ["--out", "store"], 2,
             judge_synth(files, spec), writes=tuple(files)),
        Step("verify-corrupt", ["verify", "--instance", files[0],
                                "--corrupt", "psi-sign", "--grid", "1"],
             sum(counts.values()),
             judge_verify(counts, 1, NEGATIVE_CONTROL_FAILS)),
        Step("eval", ["eval", "program.eqs", "--instance", files[1]], 4,
             judge_eval(work / files[1])),
    ]
    for bad in ("bad-list.json", "bad-den0.json", "bad-target.json"):
        steps.append(Step(
            f"malformed-{bad[4:-5]}",
            ["verify", "--instance", bad, "--grid", "1", "--draws", "1"],
            1, judge_malformed, known_fault=True))
    return Workload("stored-d3o3", steps, {
        "synthesize": [[3, 2, s, 3] for s in spec["seeds"]],
        "random_connection": [],
        "stored": [str(work / "prep" / Path(f).name) for f in files]
        + [str(work / "base-d2.json")]}, prepare)


def build_workload(name: str, seed: int, work: Path) -> Workload:
    if name == "verify-d3":
        return verify_d3(seed, work)
    if name == "ranks-stored-d3":
        # ranks and the stored round trip share one workload, so that a
        # round takes about as long as a verify-d3 round and two
        # workloads still measure every layer.
        parts = (ranks_d3(seed, work), stored_d3o3(seed, work))
        return Workload(
            name, [step for part in parts for step in part.steps],
            {key: [x for part in parts for x in part.setup_spec[key]]
             for key in ("synthesize", "random_connection", "stored")},
            lambda: [problem for part in parts for problem in part.prepare()])
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("verify-d3", "ranks-stored-d3")


class Runner:
    """Runs commands one at a time and kills the current one at the
    run's deadline, so a hung command cannot outlive the run."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline

    def run(self, argv: list, step: Step | None = None) -> Outcome:
        stdout_path, stderr_path = self.work / "stdout", self.work / "stderr"
        for rel in (step.writes if step else ()):
            Path(self.work, rel).unlink(missing_ok=True)
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=child_env(),
                                    stdout=out, stderr=err)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()),
                                    proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        files = {}
        for rel in (step.writes if step else ()):
            path = Path(self.work, rel)
            if path.is_file():
                files[rel] = path.read_bytes()
        return Outcome(proc.returncode, stdout_path.read_bytes(),
                       stderr_path.read_text(encoding="utf-8",
                                             errors="replace"),
                       wall, usage.ru_maxrss, files)


@dataclass
class Round:
    wall_s: float
    peak_rss_mb: float
    failed: int
    attempted: int
    problems: list
    known_failures: list
    digests: list
    step_walls: dict


def run_round(workload: Workload, runner: Runner, first: bool,
              trace_dir: Path | None = None) -> tuple[Round, list]:
    """One pass over the workload's commands; with ``trace_dir`` each
    command runs under ``layertrace`` and its summary is returned."""
    outcomes, summaries = [], []
    for command_id, step in enumerate(workload.steps):
        if trace_dir is None:
            argv = [sys.executable, "-c", ENTRY, *step.args]
        else:
            trace_file = trace_dir / f"command-{command_id}.json"
            argv = [sys.executable, str(BENCH / "layertrace.py"),
                    str(trace_file), str(command_id), *step.args]
        outcomes.append(runner.run(argv, step))
        if trace_dir is not None:
            with open(trace_file, "r", encoding="utf-8") as handle:
                summaries.append(json.load(handle))
    failed, problems, known = 0, [], []
    for step, outcome in zip(workload.steps, outcomes):
        step_failed, step_problems = account(step, outcome, first)
        failed += step_failed
        (known if step.known_fault else problems).extend(step_problems)
    return Round(
        wall_s=sum(o.wall_s for o in outcomes),
        peak_rss_mb=max(o.maxrss_kb for o in outcomes) / 1024,
        failed=failed,
        attempted=sum(step.owed for step in workload.steps),
        problems=problems, known_failures=known,
        digests=[o.digest() for o in outcomes],
        step_walls={s.name: o.wall_s for s, o in zip(workload.steps, outcomes)},
    ), summaries


def measure_setup(workload: Workload, runner: Runner, repeats: int) -> list:
    times = []
    for _ in range(repeats):
        outcome = runner.run([sys.executable, str(BENCH / "build_inputs.py"),
                              json.dumps(workload.setup_spec)])
        if outcome.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {outcome.stderr[-500:]}")
        times.append(json.loads(outcome.stdout)["setup_s"])
    return times


def end_to_end_metrics(setup_times: list, rounds: list) -> dict:
    values = {"setup_s": statistics.median(setup_times),
              "wall_s": statistics.median(r.wall_s for r in rounds),
              "peak_rss_mb": statistics.median(r.peak_rss_mb for r in rounds)}
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def per_layer_metrics(summaries: list, traced_wall: float,
                      untraced_wall: float) -> dict:
    values = layertrace.metrics(summaries)
    values["trace.overhead_ratio"] = traced_wall / untraced_wall
    return {name: {"value": value, "unit": layertrace.unit_of(name)}
            for name, value in values.items()}


def consistency_problems(rounds: list) -> list:
    """Repeated runs of one command must print byte-identical output."""
    problems = []
    for number, r in enumerate(rounds[1:], start=2):
        if r.digests != rounds[0].digests:
            problems.append(f"round {number} output differs from round 1")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "eqlab" / "cli.py").is_file():
        print(f"bench: no eqlab sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        return run(args, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work: Path, deadline: float) -> int:
    workload = build_workload(args.workload, args.seed, work)
    runner = Runner(work, deadline)
    where = subprocess.run([sys.executable, "-c",
                            "import eqlab; print(eqlab.__file__)"],
                           env=child_env(), capture_output=True, text=True)
    if not where.stdout.strip().startswith(str(SRC)):
        print(f"bench: eqlab is not imported from {SRC}", file=sys.stderr)
        return 2
    problems = workload.prepare()
    detail = {"workload": args.workload, "seed": args.seed,
              "python": platform.python_version(), "cpus": os.cpu_count(),
              "steps": [s.args for s in workload.steps]}

    if args.trace:
        untraced, _ = run_round(workload, runner, first=True)
        trace_dir = work / "trace"
        trace_dir.mkdir()
        traced, summaries = run_round(workload, runner, first=False,
                                      trace_dir=trace_dir)
        rounds = [untraced, traced]
        metrics = per_layer_metrics(summaries, traced.wall_s, untraced.wall_s)
        with open(OUT / f"trace-{args.workload}.json", "w",
                  encoding="utf-8") as handle:
            json.dump({**detail, "metrics": metrics, "commands": summaries},
                      handle, indent=1, sort_keys=True)
    else:
        # Half the set-up probes run before the rounds and half after, so
        # their median samples the machine over the whole run.
        setup_times = measure_setup(workload, runner, SETUP_REPEATS // 2)
        rounds = []
        start = time.perf_counter()
        while True:
            rounds.append(run_round(workload, runner, first=not rounds)[0])
            if (time.perf_counter() - start >= args.seconds
                    or time.monotonic() + rounds[-1].wall_s > deadline):
                break
        setup_times += measure_setup(workload, runner,
                                     SETUP_REPEATS - SETUP_REPEATS // 2)
        metrics = end_to_end_metrics(setup_times, rounds)
        detail["setup_s_all"] = setup_times

    for r in rounds:
        problems += r.problems
    problems += consistency_problems(rounds)
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    detail.update(result, problems=problems,
                  known_failures=rounds[0].known_failures,
                  rounds=[{"wall_s": r.wall_s, "peak_rss_mb": r.peak_rss_mb,
                           "steps": r.step_walls} for r in rounds])
    with open(OUT / f"result-{args.workload}-trace{args.trace}.json", "w",
              encoding="utf-8") as handle:
        json.dump(detail, handle, indent=1, sort_keys=True)

    for problem in problems:
        print(f"problem: {problem}")
    for failure in rounds[0].known_failures:
        print(f"known fault: {failure}")
    print(f"{args.workload}: {result['attempted']} operations attempted, "
          f"{result['failed']} failed, {len(rounds)} rounds")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
