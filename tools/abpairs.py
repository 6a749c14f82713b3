"""Parent against change: alternating pairs of benchmark runs.

Runs the benchmark's command in a parent checkout and in a change
checkout, ``--pairs`` times per workload, the parent first in even pairs
and the change first in odd ones, so drift in the machine's speed falls
on both sides alike.  For each end-to-end metric it prints the two
medians, the parent's interquartile spread, how many pairs the change
won (ties count for neither side), and whether a gain may be claimed:
the change wins at least nine tenths of the pairs and its median is
better than the parent's by more than the parent's spread.  It also
prints the no-regression verdict against the metric's ``bound``, a
share of the parent's median: ``worse`` when the change's median is
past the parent's by more than that share, ``unresolved`` when the
parent's spread exceeds it and not every change run beats every parent
run, and ``no worse`` otherwise.  Every run's value is printed too.

Run it from anywhere, with the standard library alone::

    python3 tools/abpairs.py PARENT CHANGE [--pairs 10]

PARENT and CHANGE are checkouts of the repository, for example made
with ``git clone`` or ``git archive``.  The command, the run length,
the workloads and the metrics come from CHANGE's ``BENCHMARK.json``;
every run uses seed 0.  A gain is not shown on a workload
where the change failed more operations than the parent.  Each run
writes only under its own checkout's ``bench/out/``.  Exit 0 when every
run was correct, 1 when a run reported a problem.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

MIN_PAIRS = 10
SEED = 0


class Verdict(NamedTuple):
    parent_median: float
    change_median: float
    parent_iqr: float
    wins: int
    pairs: int
    gain: bool


def verdict(parent: list[float], change: list[float], better: str) -> Verdict:
    """The gain rule on paired runs: ``parent[k]`` and ``change[k]`` ran
    side by side, and ``better`` is ``"lower"`` or ``"higher"``."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need one change run for each parent run")
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    p_med, c_med = statistics.median(parent), statistics.median(change)
    gain = 10 * wins >= 9 * len(parent) and sign * (p_med - c_med) > q3 - q1
    return Verdict(p_med, c_med, q3 - q1, wins, len(parent), gain)


def regression(parent: list[float], change: list[float], better: str,
               bound: float) -> str:
    """The no-regression rule on paired runs, ``bound`` a share of the
    parent's median: ``"worse"``, ``"unresolved"`` or ``"no worse"``."""
    v = verdict(parent, change, better)
    sign = 1 if better == "lower" else -1
    allowed = bound * abs(v.parent_median)
    if sign * (v.change_median - v.parent_median) > allowed:
        return "worse"
    beaten = max(sign * c for c in change) < min(sign * p for p in parent)
    if v.parent_iqr > allowed and not beaten:
        return "unresolved"
    return "no worse"


def bench_run(checkout: Path, spec: dict, workload: str) -> dict:
    """The result object of one benchmark run in ``checkout``."""
    proc = subprocess.run(
        [*spec["command"], "--workload", workload, "--seed", str(SEED),
         "--seconds", str(spec["run_seconds"]), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {' '.join(spec['command'])} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    args = parser.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        parser.error(f"--pairs must be at least {MIN_PAIRS}")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    all_correct = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for k in range(args.pairs):
            sides = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in sides:
                result = bench_run(getattr(args, side), spec, workload)
                all_correct &= bool(result["correct"])
                runs[side].append(result)
        failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
        print(f"{workload}: {args.pairs} pairs, failed operations "
              f"parent {failed['parent']}, change {failed['change']}")
        for metric in metrics:
            name = metric["name"]
            parent, change = ([r["metrics"][name]["value"] for r in runs[side]]
                              for side in ("parent", "change"))
            v = verdict(parent, change, metric["better"])
            gain = v.gain and failed["change"] <= failed["parent"]
            against = regression(parent, change, metric["better"],
                                 metric["bound"])
            print(f"  {name}: parent median {v.parent_median:.4g}, change "
                  f"median {v.change_median:.4g} {metric['unit']}; parent "
                  f"IQR {v.parent_iqr:.4g}; change won {v.wins}/{v.pairs}; "
                  f"gain {'holds' if gain else 'not shown'}; against the "
                  f"{metric['bound']:.0%} bound: {against}")
            print(f"    parent runs: {' '.join(f'{x:.4g}' for x in parent)}")
            print(f"    change runs: {' '.join(f'{x:.4g}' for x in change)}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
