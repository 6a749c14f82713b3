"""Verification suite plumbing and the command-line front end."""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from eqlab.cli import MAX_DRAWS, MAX_TRIALS, main
from eqlab.documents import block_json, load_block, load_tensor, space_json
from eqlab.geometry import GAMMA_VALENCE, Space
from eqlab.harness import (
    corrupted_inverse,
    evaluate_program_lines,
    instance_bindings,
    run_ranks,
    run_verify_suite,
    synth_document,
    synthesized_pairs,
)
from eqlab.invariants import W_star
from eqlab.jets import (MAX_CONTRACT_OUTPUT, MAX_DIM, MAX_ORDER, JetScalar,
                        _jet, jet_truncate)
from eqlab.mapping import (
    AG3Mapping,
    MappedPair,
    basic_equation_residual,
    random_jet,
    synthesize_instance,
)
from eqlab.dsl import MAX_NESTING, EvaluationError
from eqlab.tensors import DOWN, UP, TensorField, tensor_sub

SRC = Path(__file__).resolve().parent.parent / "src"

CURVATURE_SRC = (
    "R[^i,_j,_m,_n] = d(GammaSym[^i,_j,_m],_n) - d(GammaSym[^i,_j,_n],_m)"
    " + GammaSym[^a,_j,_m]*GammaSym[^i,_a,_n]"
    " - GammaSym[^a,_j,_n]*GammaSym[^i,_a,_m]\n")


def cut_jets(obj, order: int):
    """A copy of a JSON document with every jet truncated to ``order``."""
    if isinstance(obj, dict):
        if set(obj) == {"dim", "order", "coeffs"}:
            jet = jet_truncate(_jet(*load_block(obj)), order)
            return block_json(jet.dim, jet.order, jet.den, jet.nums)
        return {key: cut_jets(value, order) for key, value in obj.items()}
    if isinstance(obj, list):
        return [cut_jets(value, order) for value in obj]
    return obj


@pytest.fixture(scope="module")
def pair21():
    return synthesize_instance(2, 1, seed=1)


@pytest.fixture(scope="module")
def pair22():
    return synthesize_instance(2, 2, seed=2)


def torsion_free_pair(dim: int = 2, order: int = 2, seed: int = 40) -> MappedPair:
    """Flat source, constant phi, nu = mu = 0: the basic equation holds
    with zero torsion, so every torsion-difference check degenerates."""
    rng = random.Random(seed)
    zero = JetScalar.zero(dim, order)
    gamma = TensorField.build(dim, GAMMA_VALENCE, lambda idx: zero)
    phi = TensorField.build(dim, (UP,),
                            lambda idx: JetScalar.constant(dim, order + 1,
                                                           idx[0] + 2))
    psi = TensorField.build(dim, (DOWN,),
                            lambda idx: random_jet(rng, dim, order))
    upper = {(j, k): random_jet(rng, dim, order)
             for j in range(dim) for k in range(j, dim)}
    sigma = TensorField.build(dim, (DOWN, DOWN),
                              lambda idx: upper[tuple(sorted(idx))])
    nu = TensorField.build(dim, (DOWN,), lambda idx: zero)
    mapping = AG3Mapping(psi=psi, sigma=sigma, phi=phi, nu=nu,
                         mu=TensorField(dim, (), [zero]), kind=1)
    return MappedPair.build(Space(dim, gamma), mapping)


class TestCorruptedInverse:
    def test_differs_from_true_inverse_in_dependent_fields(self, pair21):
        good = pair21.inverse()
        bad = corrupted_inverse(pair21)
        assert bad.psi == pair21.mapping.psi
        assert bad.sigma == good.sigma and bad.phi == good.phi
        assert bad.nu != good.nu and bad.mu != good.mu

    def test_breaks_basic_equation_on_target(self, pair21):
        bad = corrupted_inverse(pair21)
        assert not basic_equation_residual(pair21.target, bad).is_zero()

    def test_breaks_w_invariance(self, pair21):
        bad = corrupted_inverse(pair21)
        residual = tensor_sub(W_star(pair21.source, pair21.mapping, 1),
                              W_star(pair21.target, bad, 1))
        assert not residual.is_zero()


class TestRunVerifySuite:
    def test_passes_on_synthesized_pairs_both_kinds(self, pair21, pair22):
        passed, checks, notes = run_verify_suite(
            [(1, pair21), (2, pair22)], p_values=[1, 5], q_values=[2],
            draws=2)
        assert passed
        assert notes == []
        names = {c.check for c in checks}
        assert names == {"torsion_cd_difference", "sym_difference_factorization",
                         "W_invariance", "T_tilde_invariance", "correlation",
                         "family_invariance", "R_K_transformation"}

    def test_corruption_fails_only_barred_value_checks(self, pair21):
        passed, checks, _ = run_verify_suite(
            [(1, pair21)], p_values=[1], q_values=[1], draws=1,
            corrupt="psi-sign")
        assert not passed
        failing = {c.check for c in checks if not c.passed}
        assert failing == {"W_invariance", "family_invariance",
                           "R_K_transformation"}
        surviving = {c.check for c in checks if c.passed}
        assert "torsion_cd_difference" in surviving
        assert "T_tilde_invariance" in surviving

    def test_failing_report_keeps_residual(self, pair21):
        _, checks, _ = run_verify_suite(
            [(1, pair21)], p_values=[1], q_values=[1], draws=1,
            corrupt="psi-sign")
        failed = next(c for c in checks if c.check == "W_invariance")
        assert failed.residual is not None
        assert failed.max_abs_residual_num_digits > 0

    def test_torsion_free_instance_passes_with_note(self):
        pair = torsion_free_pair()
        passed, _, notes = run_verify_suite([(0, pair)], p_values=[1],
                                            q_values=[1], draws=1)
        assert passed
        assert len(notes) == 1 and "torsion-free" in notes[0]

    def test_unknown_fault_rejected(self, pair21):
        with pytest.raises(ValueError, match="fault"):
            run_verify_suite([(0, pair21)], p_values=[1], q_values=[1],
                             draws=1, corrupt="mu-sign")

    def test_draws_must_be_positive(self, pair21):
        with pytest.raises(ValueError, match="draws"):
            run_verify_suite([(0, pair21)], draws=0)


class TestRunRanks:
    def test_all_claims_hold_at_dim_three(self):
        passed, rows = run_ranks(dim=3, trials=2, seed=0)
        assert passed
        observed = {row["check"]: row["observed"] for row in rows}
        assert observed == {"sigma_coeff_rank": 4, "W_matrix_generic_rank": 6,
                            "curvature_family_span": 5,
                            "family_span_kind1": 6, "family_span_kind2": 6}

    def test_value_spans_collapse_at_dim_two(self):
        # in two dimensions the three torsion-square tensors satisfy one
        # pointwise identity, so the value-level spans drop below the
        # matrix-level ranks; the report stays honest about it
        passed, rows = run_ranks(dim=2, trials=2, seed=0)
        assert not passed
        by_check = {row["check"]: row for row in rows}
        assert by_check["sigma_coeff_rank"]["pass"]
        assert by_check["W_matrix_generic_rank"]["pass"]
        assert by_check["curvature_family_span"]["observed"] == 4
        assert by_check["family_span_kind1"]["observed"] == 4
        assert by_check["family_span_kind2"]["observed"] == 4


class TestSynthDocument:
    def test_embeds_passing_certificate(self):
        doc = synth_document(2, 1, seed=4)
        assert doc["certificate"]["pass"] is True
        assert doc["certificate"]["max_abs_residual_num_digits"] == 0
        assert doc["certificate"]["residual"] is None
        pair = MappedPair.from_json(doc)
        assert pair.source.dim == 2 and pair.mapping.kind == 1

    def test_round_trips_through_json_text(self):
        doc = synth_document(2, 2, seed=5)
        clone = json.loads(json.dumps(doc))
        assert MappedPair.from_json(clone).mapping.kind == 2


class TestInstanceBindings:
    def test_pair_binds_source_mapping_and_barred_fields(self, pair21):
        names = set(instance_bindings(pair21))
        assert names == {"Gamma", "GammaSym", "Torsion",
                         "Phi", "Psi", "Sigma", "Nu",
                         "BarGamma", "BarGammaSym", "BarTorsion",
                         "BarPhi", "BarPsi", "BarSigma", "BarNu"}

    def test_barred_connection_is_the_target_one(self, pair21):
        bindings = instance_bindings(pair21)
        assert bindings["BarGamma"] == pair21.target.gamma
        assert bindings["BarPsi"] == pair21.inverse().psi

    def test_space_binds_connection_fields_only(self, pair21):
        names = set(instance_bindings(pair21.source))
        assert names == {"Gamma", "GammaSym", "Torsion"}


class TestEvaluateProgramLines:
    def test_later_lines_see_earlier_names(self, pair21):
        text = ("Half[^i,_j,_k] = 1/2 * Gamma[^i,_j,_k]\n"
                "Twice[^i,_j,_k] = Half[^i,_j,_k] + Half[^i,_j,_k]\n")
        defined = evaluate_program_lines(text, instance_bindings(pair21))
        assert list(defined) == ["Half", "Twice"]
        assert defined["Twice"] == pair21.source.gamma

    def test_unbound_name_reports_line(self, pair21):
        text = "# comment\n\nA[^i] = Phi[^i]\nB[^i] = Missing[^i]\n"
        with pytest.raises(EvaluationError, match="line 4"):
            evaluate_program_lines(text, instance_bindings(pair21))

    def test_empty_text_defines_nothing(self, pair21):
        assert evaluate_program_lines("", instance_bindings(pair21)) == {}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCliSynth:
    def test_single_seed_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "synth", "--dim", "2", "--seed", "7")
        assert code == 0
        doc = json.loads(out)
        assert doc["seed"] == 7 and doc["certificate"]["pass"] is True
        MappedPair.from_json(doc)

    def test_seed_list_writes_directory(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "synth", "--dim", "2",
                               "--seeds", "1,2", "--out", str(tmp_path))
        assert code == 0 and out == ""
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["pair-d2-k1-s1.json", "pair-d2-k1-s2.json"]

    def test_seed_list_without_directory_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "synth", "--seeds", "1,2")
        assert code == 2 and "directory" in err

    def test_dim_one_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["synth", "--dim", "1"])
        assert excinfo.value.code == 2

    def test_kind_three_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["synth", "--kind", "3"])
        assert excinfo.value.code == 2

    def test_seed_and_seeds_conflict(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["synth", "--seed", "1", "--seeds", "2,3"])
        assert excinfo.value.code == 2


@pytest.mark.parametrize("command", ["synth", "verify", "ranks", "eval"])
def test_dim_above_the_cap_is_refused_before_any_work(capsys, monkeypatch,
                                                      tmp_path, command):
    import eqlab.harness
    import eqlab.mapping

    def refuse(*args, **kwargs):
        raise AssertionError("a capped dim reached the work")

    for module, name in ((eqlab.harness, "synth_document"),
                         (eqlab.harness, "synthesized_pairs"),
                         (eqlab.harness, "run_ranks"),
                         (eqlab.mapping, "synthesize_instance")):
        monkeypatch.setattr(module, name, refuse)
    program = tmp_path / "empty.eqs"
    program.write_text("")
    argv = [command] + ([str(program)] if command == "eval" else [])
    code, out, err = run_cli(capsys, *argv, "--dim", str(MAX_DIM + 1))
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        f"eqlab: --dim {MAX_DIM + 1} is above the cap of {MAX_DIM}"]


@pytest.mark.parametrize("command, work", [("synth", "synth_document"),
                                           ("ranks", "run_ranks")])
def test_dim_at_the_cap_is_accepted(capsys, monkeypatch, command, work):
    import eqlab.harness

    seen = []

    def record(dim, *args, **kwargs):
        seen.append(dim)
        return {} if command == "synth" else (True, [])

    monkeypatch.setattr(eqlab.harness, work, record)
    code, _, err = run_cli(capsys, command, "--dim", str(MAX_DIM))
    assert (code, err, seen) == (0, "", [MAX_DIM])


def test_internal_error_exits_four_with_its_rerun_command(capsys,
                                                          monkeypatch):
    """An exception that no input explains is a bug: exit 4, not the
    failed-check code 1, with the command that reruns it."""
    import eqlab.harness

    def broken(*args, **kwargs):
        raise KeyError("lost")

    monkeypatch.setattr(eqlab.harness, "run_verify_suite", broken)
    code, out, err = run_cli(capsys, "verify", "--dim", "2", "--seed", "0")
    assert (code, out) == (4, "")
    lines = err.splitlines()
    assert lines[:2] == ["eqlab: internal error: KeyError: 'lost'",
                         "rerun: eqlab verify --dim 2 --seed 0"]
    assert lines[2] == "Traceback (most recent call last):"


class TestCliVerify:
    def test_small_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--dim", "2", "--seed", "0",
                               "--grid", "1:2", "--draws", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["config"]["p"] == [1] and doc["config"]["q"] == [2]
        assert all(check["pass"] for check in doc["checks"])

    def test_grid_ranges_expand(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--dim", "2", "--seed", "0",
                               "--grid", "1,3..5:2", "--draws", "1")
        assert code == 0
        assert json.loads(out)["config"]["p"] == [1, 3, 4, 5]

    def test_corrupt_negative_control_exits_one(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--dim", "2", "--seed", "0",
                               "--grid", "1", "--draws", "1",
                               "--corrupt", "psi-sign")
        assert code == 1
        doc = json.loads(out)
        assert doc["pass"] is False
        failing = {c["check"] for c in doc["checks"] if not c["pass"]}
        assert "W_invariance" in failing

    def test_stored_instance_round_trip(self, capsys, tmp_path):
        path = tmp_path / "pair.json"
        run_cli(capsys, "synth", "--dim", "2", "--kind", "2", "--seed", "3",
                "--out", str(path))
        code, out, _ = run_cli(capsys, "verify", "--instance", str(path),
                               "--grid", "1:1", "--draws", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert all(c["params"]["kind"] == 2 for c in doc["checks"])

    def test_stored_instance_config_states_the_file(self, capsys, tmp_path):
        path = tmp_path / "pair.json"
        run_cli(capsys, "synth", "--dim", "2", "--kind", "2", "--seed", "5",
                "--out", str(path))
        code, out, _ = run_cli(capsys, "verify", "--instance", str(path),
                               "--grid", "1", "--draws", "1")
        assert code == 0
        config = json.loads(out)["config"]
        assert (config["dim"], config["kind"], config["order"],
                config["seeds"]) == (2, 2, 2, [5])

    @pytest.mark.parametrize("command", ["verify", "eval"])
    @pytest.mark.parametrize("option, value", [
        ("--dim", "3"), ("--dim", "4"), ("--kind", "1"), ("--order", "2"),
        ("--seed", "5"), ("--seeds", "7,8")])
    def test_instance_option_beside_instance_is_usage_error(
            self, capsys, tmp_path, command, option, value):
        # the default values too: the file states its own instance
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(synth_document(2, 2, seed=5)))
        program = tmp_path / "empty.eqs"
        program.write_text("")
        argv = {"verify": ["verify", "--grid", "1", "--draws", "1"],
                "eval": ["eval", str(program)]}[command]
        code, out, err = run_cli(capsys, *argv, "--instance", str(path),
                                 option, value)
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            f"eqlab: {option} cannot be given with --instance, whose file "
            "states its instance"]

    def test_instance_options_beside_instance_are_named(self, capsys,
                                                         tmp_path):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(synth_document(2, 2, seed=5)))
        code, out, err = run_cli(capsys, "verify", "--instance", str(path),
                                 "--dim", "4", "--kind", "1", "--seeds", "7,8")
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "eqlab: --dim, --kind, --seeds cannot be given with --instance, "
            "whose file states its instance"]

    @pytest.mark.parametrize("env_seed", ["11", "eleven"])
    def test_env_seed_is_ignored_with_instance(self, capsys, monkeypatch,
                                               tmp_path, env_seed):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(synth_document(2, 2, seed=5)))
        monkeypatch.setenv("EQLAB_SEED", env_seed)
        code, out, err = run_cli(capsys, "verify", "--instance", str(path),
                                 "--grid", "1", "--draws", "1")
        assert (code, err) == (0, "")
        assert json.loads(out)["config"]["seeds"] == [5]

    def test_asymmetric_sigma_is_usage_error(self, capsys, tmp_path):
        doc = synth_document(2, 1, seed=0)
        components = doc["mapping"]["sigma"]["components"]
        # sigma[0, 1] := sigma[1, 0] + 1, row-major
        jet = _jet(*load_block(components[2])) + JetScalar.constant(2, 2, 1)
        components[1] = block_json(jet.dim, jet.order, jet.den, jet.nums)
        path = tmp_path / "asymmetric.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", "--instance", str(path))
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "eqlab: mapping: sigma must be exactly symmetric"]

    def test_reports_are_byte_identical(self, capsys, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        for target in (first, second):
            run_cli(capsys, "verify", "--dim", "2", "--seed", "4",
                    "--grid", "2:2", "--draws", "1", "--out", str(target))
        assert first.read_bytes() == second.read_bytes()

    def test_env_seed_is_ignored(self, capsys, monkeypatch):
        monkeypatch.setenv("EQLAB_SEED", "11")
        code, out, _ = run_cli(capsys, "verify", "--dim", "2", "--seed", "0",
                               "--grid", "3:3", "--draws", "1")
        assert code == 0
        assert json.loads(out)["config"]["seeds"] == [0]

    def test_missing_instance_file_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "verify",
                               "--instance", str(tmp_path / "nope.json"))
        assert code == 3 and err

    def test_deeply_nested_instance_json_is_usage_error(self, capsys,
                                                        tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000, encoding="utf-8")
        code, out, err = run_cli(capsys, "verify", "--instance", str(path))
        assert code == 2 and out == ""
        assert err == f"eqlab: instance file {path} is nested too deeply\n"

    def test_unreadable_instance_json_is_usage_error(self, capsys, tmp_path):
        doc = synth_document(2, 1, seed=4)
        den0 = json.loads(json.dumps(doc))
        den0["source"]["gamma"]["components"][0]["coeffs"][0]["den"] = "0"
        # Gamma^1_11 is diagonal in its lower slots: the torsion stays equal
        shifted = json.loads(json.dumps(doc))
        components = shifted["target"]["gamma"]["components"]
        jet = _jet(*load_block(components[0])) + 1
        components[0] = block_json(jet.dim, jet.order, jet.den, jet.nums)
        # a declared order whose dense basis is out of reach
        huge = json.loads(json.dumps(doc))
        for comp in huge["source"]["gamma"]["components"]:
            comp["order"] = 10**6
        # a source of higher order than its mapping and target
        order5 = json.loads(json.dumps(doc))
        for comp in order5["source"]["gamma"]["components"]:
            comp["order"] = 5
        texts = {"broken": "{not json", "list": json.dumps([doc]),
                 "den0": json.dumps(den0), "target": json.dumps(shifted),
                 "huge-order": json.dumps(huge),
                 "source-order-5": json.dumps(order5)}
        # values that coerce to the stored integers: only a strict reader
        # rejects them
        coeff = doc["source"]["gamma"]["components"][0]["coeffs"][0]
        one = next(c for comp in doc["source"]["gamma"]["components"]
                   for c in comp["coeffs"] if c["num"] == "1")
        for name, target, key, value in (
                ("seed-float", doc, "seed", 4.0),
                ("kind-float", doc["mapping"], "kind", 1.7),
                ("kind-string", doc["mapping"], "kind", "1"),
                ("dim-float", doc["source"], "dim", 2.9),
                ("order-float", doc["mapping"]["mu"], "order", 2.0),
                ("num-bool", one, "num", True),
                ("den-float", coeff, "den", int(coeff["den"]) + 0.5),
                ("alpha-float", coeff, "alpha",
                 [float(e) for e in coeff["alpha"]])):
            saved = target[key]
            target[key] = value
            texts[name] = json.dumps(doc)
            target[key] = saved
        for name, value in (("source-list", [1]), ("source-string", "x"),
                            ("source-null", None)):
            texts[name] = json.dumps({**doc, "source": value})
        for name, text in texts.items():
            path = tmp_path / f"{name}.json"
            path.write_text(text)
            code, _, err = run_cli(capsys, "verify", "--instance", str(path),
                                   "--grid", "1", "--draws", "1")
            lines = err.splitlines()
            assert code == 2, name
            assert len(lines) == 1 and lines[0].startswith("eqlab:"), name

    @pytest.mark.parametrize("order", [0, 1])
    def test_instance_cut_below_order_two(self, capsys, tmp_path, order):
        """Every jet of a stored pair cut to order 1: the checks read their
        residuals at order 0 and still tell the negative control apart.
        Cut to order 0, no derivative is left: a usage error."""
        doc = cut_jets(synth_document(2, 1, seed=4), order)
        doc["order"] = order  # the header states the order of the jets
        path = tmp_path / f"order{order}.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", "--instance", str(path))
        corrupt_code, corrupt_out, corrupt_err = run_cli(
            capsys, "verify", "--instance", str(path),
            "--corrupt", "psi-sign")
        if order == 0:
            for exit_code, stderr in ((code, err),
                                      (corrupt_code, corrupt_err)):
                assert exit_code == 2
                assert stderr.splitlines() == [
                    "eqlab: cannot differentiate an order-0 jet"]
            return
        assert (code, err) == (0, "")
        assert all(c["pass"] for c in json.loads(out)["checks"])
        assert (corrupt_code, corrupt_err) == (1, "")
        failed = {c["check"] for c in json.loads(corrupt_out)["checks"]
                  if not c["pass"]}
        assert failed == {"W_invariance", "family_invariance",
                          "R_K_transformation"}

    @pytest.mark.parametrize("synth_order, cut_order, fields, message", [
        (2, 1, ("source", "target"),
         "mapping psi has order 2, but the connections have order 1"),
        (3, 2, ("source", "target"),
         "mapping psi has order 3, but the connections have order 2"),
        (2, 1, ("source", "target", "psi", "sigma", "nu", "mu"),
         "mapping phi has order 3, but the connections have order 1"),
    ], ids=["connections-cut-to-1", "order-3-connections-cut-to-2",
            "phi-two-orders-above"])
    def test_mapping_order_must_match_connections(
            self, capsys, tmp_path, synth_order, cut_order, fields, message):
        """Connections cut below the mapping data: psi, sigma, nu and mu
        must share the connections' order o, and phi must have o or o + 1."""
        doc = synth_document(2, 1, seed=4, order=synth_order)
        for name in fields:
            holder = doc if name in ("source", "target") else doc["mapping"]
            holder[name] = cut_jets(holder[name], cut_order)
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", "--instance", str(path))
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"eqlab: {message}"]

    @pytest.mark.parametrize("holder, field, key, value", [
        ("mapping", "psi", "order", 3),
        ("source", "gamma", "dim", -1),
        ("mapping", "sigma", "dim", 0),
        # a dict's keys would read as a valid valence
        ("mapping", "psi", "valence", {"down": 0}),
    ], ids=["psi-jet-order-3", "gamma-dim-minus-1", "sigma-dim-0",
            "psi-valence-dict"])
    def test_loader_error_names_the_field(self, capsys, tmp_path, holder,
                                          field, key, value):
        doc = synth_document(2, 1, seed=4)
        tensor = doc[holder][field]
        if key == "order":
            tensor["components"][0]["order"] = value
        else:
            tensor[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", "--instance", str(path),
                                 "--grid", "1", "--draws", "1")
        lines = err.splitlines()
        assert (code, out) == (2, "")
        assert len(lines) == 1
        assert lines[0].startswith(f"eqlab: {holder} {field}: "), lines[0]

    @pytest.mark.parametrize("valence", ["down", "", 1, None],
                             ids=["string", "empty-string", "int", "null"])
    def test_valence_that_is_not_a_list_is_refused_whole(
            self, capsys, tmp_path, valence):
        """A string is not read one character at a time, nor a scalar
        taken as a malformed file."""
        doc = synth_document(2, 1, seed=4)
        doc["mapping"]["psi"]["valence"] = valence
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", "--instance", str(path),
                                 "--grid", "1", "--draws", "1")
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "eqlab: mapping psi: a tensor valence must be a list, "
            f"got {valence!r}"]

    @pytest.mark.parametrize("field, stated, message", [
        ("dim", 40, "header dim is 40, but the source connection has dim 2"),
        ("kind", 2, "header kind is 2, but the mapping has kind 1"),
        ("order", 3, "header order is 3, but the connections have order 2"),
    ])
    def test_header_must_state_the_pair(self, capsys, tmp_path, field,
                                        stated, message):
        """A dim-2, kind-1, order-2 pair under a header that says otherwise."""
        doc = synth_document(2, 1, seed=0)
        doc[field] = stated
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(doc))
        program = tmp_path / "empty.eqs"
        program.write_text("")
        for command in (["verify", "--instance", str(path), "--grid", "1",
                         "--draws", "1"],
                        ["eval", str(program), "--instance", str(path)]):
            code, out, err = run_cli(capsys, *command)
            assert (code, out) == (2, "")
            assert err.splitlines() == [f"eqlab: instance file {path}: {message}"]

    def test_pair_without_header_loads(self, capsys, tmp_path):
        doc = synth_document(2, 1, seed=0)
        for field in ("dim", "kind", "order", "seed", "certificate"):
            del doc[field]
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", "--instance", str(path),
                                 "--grid", "1", "--draws", "1")
        assert (code, err) == (0, "")
        assert json.loads(out)["pass"] is True

    @pytest.mark.parametrize("holder", ["source", "source gamma",
                                        "mapping psi"])
    def test_loader_caps_dim_before_reading_components(self, capsys, tmp_path,
                                                       holder):
        """A dim one above the cap is refused from the dim field alone: the
        components it would size are not even well-formed."""
        doc = synth_document(2, 1, seed=0)
        node = doc
        for key in holder.split():
            node = node[key]
        node["dim"] = MAX_DIM + 1
        (node["gamma"] if holder == "source" else node)["components"] = None
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", "--instance", str(path))
        what = "a space dim" if holder == "source" else "a tensor dim"
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            f"eqlab: {holder}: {what} is {MAX_DIM + 1}, "
            f"above the cap of {MAX_DIM}"]

    def test_loader_caps_a_jet_dim(self, capsys, tmp_path):
        """A jet's own dim is capped before its basis is built: a mu of
        dim 2000000 is refused at once, not after sizing its basis."""
        doc = synth_document(2, 1, seed=0)
        doc["mapping"]["mu"] = {"dim": 2000000, "order": 0, "coeffs": []}
        path = tmp_path / "big-mu.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", "--instance", str(path))
        elapsed = time.perf_counter() - start
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            f"eqlab: mapping mu: a jet dim is 2000000, above the cap of "
            f"{MAX_DIM}"]
        assert elapsed < 0.5

    def test_loader_caps_a_connection_order(self, capsys, tmp_path):
        """A pair synthesized one order above the cap is refused on load,
        before any check runs."""
        path = tmp_path / "order.json"
        path.write_text(json.dumps(synth_document(2, 1, 0, MAX_ORDER + 1)))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", "--instance", str(path))
        elapsed = time.perf_counter() - start
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            f"eqlab: source gamma: the connection order is {MAX_ORDER + 1}, "
            f"above the cap of {MAX_ORDER}"]
        assert elapsed < 0.5

    @pytest.mark.parametrize("literal", [False, True],
                             ids=["decimal-string", "json-integer"])
    def test_numerator_past_the_digit_limit_names_field_and_limit(
            self, capsys, tmp_path, literal):
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("this interpreter converts integers of any length")
        digits = "7" * (limit + 1)
        doc = synth_document(2, 1, seed=0)
        doc["source"]["gamma"]["components"][0]["coeffs"][0]["num"] = (
            "@@" if literal else digits)
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc).replace('"@@"', digits))
        code, out, err = run_cli(capsys, "verify", "--instance", str(path))
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            f"eqlab: source gamma: a coefficient numerator has {limit + 1} "
            f"digits, more than the limit of {limit}"]

    def test_grid_label_out_of_range_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--grid", "9"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("source", [["--dim", "2"],
                                        ["--instance", "missing.json"]])
    def test_draws_above_the_cap_are_refused_before_any_work(
            self, capsys, monkeypatch, source):
        import eqlab.harness

        def refuse(*args, **kwargs):
            raise AssertionError("a capped draw count reached the work")

        monkeypatch.setattr(eqlab.harness, "synthesized_pairs", refuse)
        monkeypatch.setattr(eqlab.harness, "run_verify_suite", refuse)
        code, out, err = run_cli(capsys, "verify", *source,
                                 "--draws", "1000000000")
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            f"eqlab: --draws 1000000000 is above the cap of {MAX_DRAWS}"]

    def test_draws_at_the_cap_are_accepted(self, capsys, monkeypatch):
        import eqlab.harness

        seen = []

        def record(pairs, p_values, q_values, draws, corrupt):
            seen.append(draws)
            return True, [], []

        monkeypatch.setattr(eqlab.harness, "run_verify_suite", record)
        code, out, _ = run_cli(capsys, "verify", "--dim", "2", "--seed", "0",
                               "--draws", "1000")
        assert code == 0 and seen == [1000] == [MAX_DRAWS]
        assert json.loads(out)["config"]["draws"] == 1000

    @pytest.mark.parametrize("grid", ["3..2", "1,9..8"])
    def test_reversed_grid_range_is_refused(self, capsys, grid):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--dim", "2", "--grid", grid])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "eqlab verify: error: argument --grid: grid must look like "
            "'1,3..5' or '1,2:3..8' with labels in 1..8, "
            f"got '{grid}'")

    def test_huge_grid_range_is_refused_before_it_is_expanded(self):
        grid = f"1..{10 ** 15}"
        proc = subprocess.run(
            [sys.executable, "-m", "eqlab.cli", "verify", "--dim", "2",
             "--grid", grid],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines()[-1] == (
            "eqlab verify: error: argument --grid: grid must look like "
            "'1,3..5' or '1,2:3..8' with labels in 1..8, "
            f"got '{grid}'")


class TestCliRanks:
    def test_csv_table_at_dim_two_reports_honest_spans(self, capsys):
        code, out, _ = run_cli(capsys, "ranks", "--dim", "2", "--trials", "2",
                               "--format", "csv")
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "check,dim,expected,observed,pass"
        assert lines[1] == "sigma_coeff_rank,2,4,4,true"
        assert lines[2] == "W_matrix_generic_rank,2,6,6,true"
        assert lines[3] == "curvature_family_span,2,5,4,false"

    def test_json_document_shape(self, capsys):
        code, out, _ = run_cli(capsys, "ranks", "--dim", "2", "--trials", "1")
        doc = json.loads(out)
        assert code == 1 and doc["pass"] is False
        assert [row["check"] for row in doc["rows"]] == [
            "sigma_coeff_rank", "W_matrix_generic_rank",
            "curvature_family_span", "family_span_kind1",
            "family_span_kind2"]

    def test_trials_above_the_cap_are_refused_before_any_work(
            self, capsys, monkeypatch):
        import eqlab.harness

        def refuse(*args, **kwargs):
            raise AssertionError("a capped trial count reached the work")

        monkeypatch.setattr(eqlab.harness, "run_ranks", refuse)
        code, out, err = run_cli(capsys, "ranks", "--dim", "2",
                                 "--trials", "1001")
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            f"eqlab: --trials 1001 is above the cap of {MAX_TRIALS}"]

    def test_trials_at_the_cap_are_accepted(self, capsys, monkeypatch):
        import eqlab.harness

        seen = []

        def record(dim, trials, seed, order):
            seen.append(trials)
            return True, []

        monkeypatch.setattr(eqlab.harness, "run_ranks", record)
        code, out, _ = run_cli(capsys, "ranks", "--dim", "2",
                               "--trials", "1000")
        assert code == 0 and seen == [1000] == [MAX_TRIALS]
        assert json.loads(out)["config"]["trials"] == 1000

    def test_trial_count_does_not_change_rows(self, capsys):
        _, one, _ = run_cli(capsys, "ranks", "--dim", "2", "--trials", "1")
        _, ten, _ = run_cli(capsys, "ranks", "--dim", "2", "--trials", "10")
        assert json.loads(one)["rows"] == json.loads(ten)["rows"]


class TestCliEval:
    def write(self, tmp_path, text):
        path = tmp_path / "program.eqs"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_curvature_program_matches_builtin(self, capsys, tmp_path):
        instance = tmp_path / "pair.json"
        run_cli(capsys, "synth", "--dim", "2", "--seed", "9",
                "--out", str(instance))
        program = self.write(tmp_path, CURVATURE_SRC)
        code, out, _ = run_cli(capsys, "eval", program,
                               "--instance", str(instance))
        assert code == 0
        result = load_tensor(json.loads(out)["results"]["R"])
        pair = MappedPair.from_json(json.loads(instance.read_text()))
        assert result == pair.source.curvature()

    def test_inline_synthesis_binds_barred_fields(self, capsys, tmp_path):
        program = self.write(tmp_path,
                             "D[^i,_j,_k] = BarGamma[^i,_j,_k] - Gamma[^i,_j,_k]\n")
        code, out, _ = run_cli(capsys, "eval", program, "--dim", "2",
                               "--seed", "1")
        assert code == 0
        pair = synthesize_instance(2, 1, seed=1)
        result = load_tensor(json.loads(out)["results"]["D"])
        assert result == tensor_sub(pair.target.gamma, pair.source.gamma)

    def test_space_instance_binds_connection_only(self, capsys, tmp_path):
        pair = synthesize_instance(2, 1, seed=2)
        instance = tmp_path / "space.json"
        instance.write_text(json.dumps(space_json(pair.source)))
        program = self.write(tmp_path, "T[^i,_j,_k] = Torsion[^i,_j,_k]\n")
        code, out, _ = run_cli(capsys, "eval", program,
                               "--instance", str(instance))
        assert code == 0
        result = load_tensor(json.loads(out)["results"]["T"])
        assert result == pair.source.torsion()

    def test_several_seeds_are_refused(self, capsys, tmp_path):
        """eval evaluates one instance; it used to run the first seed
        and drop the others without a word."""
        program = self.write(tmp_path, "P[_i] = Psi[_i]\n")
        code, out, err = run_cli(capsys, "eval", program, "--dim", "2",
                                 "--seeds", "1,2")
        assert (code, out) == (2, "")
        assert err.splitlines() == ["eqlab: eval takes one seed, got 2"]
        _, one, _ = run_cli(capsys, "eval", program, "--dim", "2",
                            "--seeds", "2")
        _, single, _ = run_cli(capsys, "eval", program, "--dim", "2",
                               "--seed", "2")
        assert one == single and json.loads(one)["results"]["P"]

    def test_empty_program_gives_empty_results(self, capsys, tmp_path):
        program = self.write(tmp_path, "# nothing here\n")
        code, out, _ = run_cli(capsys, "eval", program, "--dim", "2")
        assert code == 0 and json.loads(out)["results"] == {}

    def test_unbound_name_exits_two_with_line(self, capsys, tmp_path):
        program = self.write(tmp_path, "\nX[^i] = Nowhere[^i]\n")
        code, _, err = run_cli(capsys, "eval", program, "--dim", "2")
        assert code == 2
        assert "line 2" in err and "Nowhere" in err

    def test_syntax_error_exits_two_with_line(self, capsys, tmp_path):
        program = self.write(tmp_path, "X[^i] = Gamma[^i,_j,_k] +\n")
        code, _, err = run_cli(capsys, "eval", program, "--dim", "2")
        assert code == 2 and "line 1" in err

    @pytest.mark.parametrize("line, message", [
        ("X[^i] = T[^i,^i]", "index 'i' repeated with the same variance"),
        ("X[^a] = Phi[^a]*Psi[_a]*Phi[^a]", "index 'a' appears more than twice"),
        ("X[^a] = T[^a,_a,^a]", "index 'a' appears more than twice"),
        ("X[_a] = T[^a,_a,_a]", "index 'a' appears more than twice"),
        ("X[^i] = Phi[^i] + Nu[_i]",
         "free-index variance mismatch across summands: ['^i'] vs ['_i']"),
    ])
    def test_index_discipline_error_line(self, capsys, tmp_path, line,
                                         message):
        program = self.write(tmp_path, line + "\n")
        code, out, err = run_cli(capsys, "eval", program, "--dim", "2")
        assert (code, out, err) == (2, "", f"eqlab: line 1: {message}\n")

    def test_index_error_names_its_line_in_a_longer_program(self, capsys,
                                                          tmp_path):
        program = self.write(tmp_path, "# comment\nS[_j,_k] = Sigma[_j,_k]\n"
                             "\nX[^a] = T[^a,_a,^a]\n")
        code, out, err = run_cli(capsys, "eval", program, "--dim", "2")
        assert (code, out, err) == (
            2, "", "eqlab: line 4: index 'a' appears more than twice\n")

    def test_index_error_does_not_depend_on_string_hashing(self, tmp_path):
        """Two names both break the rule; the first written is named."""
        program = self.write(tmp_path, "X = T[^a,_a,^b,_b]*T[^a,_a,^b,_b]\n")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        errors = set()
        for hash_seed in ("1", "2", "3", "4", "5", "6"):
            proc = subprocess.run(
                [sys.executable, "-m", "eqlab.cli", "eval", program,
                 "--dim", "2"], env=dict(env, PYTHONHASHSEED=hash_seed),
                capture_output=True, text=True, timeout=120)
            assert proc.returncode == 2 and proc.stdout == ""
            errors.add(proc.stderr)
        assert errors == {
            "eqlab: line 1: index 'a' appears more than twice\n"}

    def test_product_over_the_output_cap_names_its_line(self, capsys,
                                                        tmp_path):
        """A twelve-index product at dim 3 is refused before it is built."""
        program = self.write(tmp_path, (
            "A[^i,_j,_k,^l,_m,_n] = Gamma[^i,_j,_k]*Gamma[^l,_m,_n]\n"
            "B[^i,_j,_k,^l,_m,_n,^o,_p,_q,^r,_s,_t] = "
            "A[^i,_j,_k,^l,_m,_n]*A[^o,_p,_q,^r,_s,_t]\n"))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "eval", program, "--dim", "3")
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (2, "", (
            "eqlab: line 2: a product with 12 free indices at dim 3 would "
            f"hold {3 ** 12 * 10} coefficients, more than the limit of "
            f"{MAX_CONTRACT_OUTPUT}\n"))

    def test_order_exhaustion_names_its_line(self, capsys, tmp_path):
        """Every error raised while evaluating a line names the line, not
        only the language's own ``EvaluationError``."""
        instance = tmp_path / "pair.json"
        run_cli(capsys, "synth", "--dim", "2", "--seed", "0",
                "--out", str(instance))
        program = self.write(tmp_path, (
            "A[_i,_j] = d(Psi[_i],_j)\n"
            "B[_i,_j,_k,_l] = d(d(d(Psi[_i],_j),_k),_l)\n"))
        code, out, err = run_cli(capsys, "eval", program,
                                 "--instance", str(instance))
        assert (code, out, err) == (
            2, "", "eqlab: line 2: cannot differentiate an order-0 jet\n")

    def test_missing_program_file_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "eval", str(tmp_path / "none.eqs"))
        assert code == 3 and err

    def test_deep_nesting_exits_two_with_one_line(self, capsys, tmp_path):
        depth = 3000
        program = self.write(tmp_path, "A[^i,_j] = " + "(" * depth
                             + "Phi[^i]*Nu[_j]" + ")" * depth + "\n")
        code, out, err = run_cli(capsys, "eval", program, "--dim", "2")
        assert code == 2 and out == ""
        assert err.startswith("eqlab: line 1, ") and err.count("\n") == 1
        assert "nested deeper than" in err

    def test_nesting_up_to_the_limit_evaluates(self, capsys, tmp_path):
        depth = MAX_NESTING
        program = self.write(tmp_path, "A[^i,_j] = " + "(" * depth
                             + "Phi[^i]*Nu[_j]" + ")" * depth + "\n")
        code, out, _ = run_cli(capsys, "eval", program, "--dim", "2")
        assert code == 0 and "A" in json.loads(out)["results"]

    def test_output_file_written(self, capsys, tmp_path):
        program = self.write(tmp_path, "S[_j,_k] = Sigma[_j,_k]\n")
        out_path = tmp_path / "result.json"
        code, out, _ = run_cli(capsys, "eval", program, "--dim", "2",
                               "--out", str(out_path))
        assert code == 0 and out == ""
        assert "results" in json.loads(out_path.read_text())


def test_commands_construct_no_jet_scalar(capsys, tmp_path, monkeypatch):
    """Commands build every field, constants and deltas included, on flat
    storage: none calls the public ``JetScalar`` constructor, whose
    arithmetic the tests keep as an independent reference."""
    instance = tmp_path / "pair.json"
    run_cli(capsys, "synth", "--dim", "2", "--seed", "0",
            "--out", str(instance))
    program = tmp_path / "program.eqs"
    program.write_text("S = Psi[_a]*Phi[^a] + 1/2\n"
                       "T[_j] = Torsion[^a,_j,_a]\n"
                       "C[^i,_j] = delta[^i,_j]\n", encoding="utf-8")
    calls = []
    init = JetScalar.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(JetScalar, "__init__", counted)
    for argv in (
            ["verify", "--instance", str(instance), "--grid", "1",
             "--draws", "1"],
            ["eval", str(program), "--instance", str(instance)],
            ["verify", "--dim", "2", "--seed", "0", "--grid", "1",
             "--draws", "1"],
            ["synth", "--dim", "2", "--seed", "0"],
            ["ranks", "--dim", "3", "--trials", "1"]):
        code, _, err = run_cli(capsys, *argv)
        assert (code, err, calls) == (0, "", []), argv
