"""Tests of the benchmark's own logic.

Run with ``python3 bench/selftest.py`` from a checkout; it takes a few
seconds and runs eqlab only on small dim-2 inputs.
"""

import json
import math
import shutil
import tempfile
import time
import unittest
from pathlib import Path

import run
import refcheck


def _scratch_dir() -> Path:
    run.OUT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=run.OUT))


def _load(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


class ReferenceCheckerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.work = _scratch_dir()
        run.eqlab_command(["synth", "--dim", "2", "--seed", "0",
                           "--out", "base-d2.json"], cls.work)
        run.write_malformed(cls.work / "base-d2.json", cls.work)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work)

    def test_accepts_synthesized_pair(self):
        self.assertEqual(refcheck.pair_problems(
            _load(self.work / "base-d2.json")), [])

    def test_rejects_perturbed_target_coefficient(self):
        problems = refcheck.pair_problems(_load(self.work / "bad-target.json"))
        self.assertEqual(problems, ["deformation fails at Gamma^0_00"])

    def test_rejects_perturbed_mapping_coefficient(self):
        doc = _load(self.work / "base-d2.json")
        entry = doc["mapping"]["psi"]["components"][1]["coeffs"][0]
        entry["num"] = str(int(entry["num"]) + 1)
        self.assertIn("deformation fails at Gamma^1_11",
                      refcheck.pair_problems(doc))

    def test_rejects_unequal_torsion(self):
        doc = _load(self.work / "base-d2.json")
        # Gamma^0_01 alone changes, so T^0_01 differs between the spaces
        jet = doc["target"]["gamma"]["components"][1]
        jet["coeffs"].append({"alpha": [2, 0], "num": "1", "den": "1"})
        self.assertIn("torsion differs between source and target",
                      refcheck.pair_problems(doc))

    def test_eval_reference_flags_a_wrong_curvature(self):
        doc = _load(self.work / "base-d2.json")
        source = refcheck.read_tensor(doc["source"]["gamma"])
        target = refcheck.read_tensor(doc["target"]["gamma"])
        results = {name: _printed(tensor) for name, tensor in (
            ("R", refcheck.curvature(source)),
            ("BarR", refcheck.curvature(target)),
            ("V", refcheck.torsion_square(source)))}
        zero = refcheck.Tensor(2, ("up", "down", "down"),
                               [refcheck.Jet(2, {})] * 8)
        results["DT"] = _printed(zero)
        self.assertEqual(refcheck.eval_problems(results, doc), [])
        results["R"], results["BarR"] = results["BarR"], results["R"]
        self.assertEqual(refcheck.eval_problems(results, doc), [
            "R differs from the reference evaluation",
            "BarR differs from the reference evaluation"])


def _printed(tensor: refcheck.Tensor) -> dict:
    """A reference tensor in eqlab's JSON layout."""
    return {"dim": tensor.dim, "valence": list(tensor.valence),
            "components": [
                {"dim": tensor.dim, "order": jet.order, "coeffs": [
                    {"alpha": list(a), "num": str(c.numerator),
                     "den": str(c.denominator)}
                    for a, c in sorted(jet.coeffs.items())]}
                for jet in tensor.comps]}


class AccountingTest(unittest.TestCase):
    def setUp(self):
        self.workload = run.build_workload("verify-d3", 0, Path("."))
        self.step = self.workload.steps[0]

    def test_crashed_command_fails_every_owed_operation(self):
        crash = run.Outcome(1, b"", "Traceback (most recent call last):\n")
        failed, problems = run.account(self.step, crash, first=True)
        self.assertEqual(failed, self.step.owed)
        self.assertEqual(failed, 23)
        self.assertTrue(problems)

    def test_truncated_report_fails_the_missing_records(self):
        records = [{"check": kind, "pass": True, "residual": None,
                    "params": {"cells": 64}}
                   for kind, n in run.verify_counts(8, 3).items()
                   for _ in range(n)]
        whole = {"pass": True, "checks": records}
        outcome = run.Outcome(0, json.dumps(whole).encode(), "")
        self.assertEqual(run.account(self.step, outcome, True), (0, []))
        short = {"pass": True, "checks": records[:-5]}
        outcome = run.Outcome(0, json.dumps(short).encode(), "")
        self.assertEqual(run.account(self.step, outcome, True)[0], 5)

    def test_malformed_input_contract(self):
        step = run.build_workload("ranks-stored-d3", 0, Path(".")).steps[-1]
        self.assertTrue(step.known_fault)
        traceback = run.Outcome(1, b"", "Traceback\n  ...\nKeyError: 'x'\n")
        self.assertEqual(run.account(step, traceback, True)[0], 1)
        clean = run.Outcome(2, b"", "eqlab: instance file is malformed\n")
        self.assertEqual(run.account(step, clean, True), (0, []))

    def test_operations_per_round_do_not_depend_on_the_seed(self):
        for name in run.WORKLOADS:
            owed = {sum(s.owed for s in run.build_workload(
                name, seed, Path(".")).steps) for seed in (0, 1, 977)}
            self.assertEqual(len(owed), 1, name)


class ReportedNamesTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = _load(run.ROOT / "BENCHMARK.json")

    def test_workloads_match(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))

    def test_end_to_end_names(self):
        fake = run.Round(1.5, 20.0, 0, 1, [], [], [], {})
        metrics = run.end_to_end_metrics([0.2, 0.3], [fake])
        self.assertEqual(
            {name: m["unit"] for name, m in metrics.items()},
            {m["name"]: m["unit"] for m in self.spec["end_to_end"]})

    def test_per_layer_names_from_a_traced_command(self):
        """Every workload reports the same names; a small traced verify
        supplies real summaries for them."""
        work = _scratch_dir()
        try:
            step = run.Step("verify", ["verify", "--dim", "2", "--grid", "1",
                                       "--draws", "1", "--seed", "0"],
                            7, run.judge_verify(run.verify_counts(1, 1), 1))
            workload = run.Workload("small", [step], {}, lambda: [])
            runner = run.Runner(work, deadline=time.monotonic() + 120)
            plain, _ = run.run_round(workload, runner, first=True)
            (work / "trace").mkdir()
            traced, summaries = run.run_round(workload, runner, False,
                                              trace_dir=work / "trace")
        finally:
            shutil.rmtree(work)
        self.assertEqual((plain.failed, plain.problems), (0, []))
        self.assertEqual(traced.digests, plain.digests)
        metrics = run.per_layer_metrics(summaries, traced.wall_s,
                                        plain.wall_s)
        self.assertEqual(
            {name: m["unit"] for name, m in metrics.items()},
            {m["name"]: m["unit"] for m in self.spec["per_layer"]})
        for name, m in metrics.items():
            self.assertTrue(math.isfinite(m["value"]), name)
        self.assertEqual(metrics["harness.family_invariance.count"]["value"], 1)
        self.assertGreater(metrics["jets.mul.calls"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
