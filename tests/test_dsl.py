"""Parsing, index discipline, and evaluation of the expression DSL."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqlab import dsl
from eqlab.dsl import (
    EvaluationError,
    ExpressionSyntaxError,
    Index,
    IndexUsageError,
    evaluate,
    parse,
    parse_program,
)
from eqlab.geometry import Space, curvature_R, random_connection
from eqlab.harness import evaluate_program_lines
from eqlab.jets import (OrderExhaustedError, jet_add, jet_mul, jet_neg,
                        jet_partial)
from eqlab.tensors import (DOWN, UP, TensorField, random_field, tensor_contract,
                           tensor_lincomb, tensor_scale, transpose)
from helpers import const, jet_sum

CURVATURE_SRC = ("d(Gamma[^i,_j,_m],_n) - d(Gamma[^i,_j,_n],_m)"
                 " + Gamma[^a,_j,_m]*Gamma[^i,_a,_n]"
                 " - Gamma[^a,_j,_n]*Gamma[^i,_a,_m]")

seeds = st.integers(min_value=0, max_value=10**6)


class TestParse:
    def test_single_reference_signature(self):
        plan = parse("Gamma[^i,_j,_k]")
        assert plan.free == (Index(UP, "i"), Index(DOWN, "j"), Index(DOWN, "k"))

    def test_product_binds_repeated_name(self):
        plan = parse("Gamma[^a,_j,_m]*Gamma[^i,_a,_n]")
        assert [i.name for i in plan.free] == ["j", "m", "i", "n"]

    def test_trace_within_one_reference(self):
        plan = parse("Gamma[^a,_j,_a]")
        assert plan.free == (Index(DOWN, "j"),)

    def test_derivative_appends_covariant_slot(self):
        plan = parse("d(Gamma[^i,_j,_m],_n)")
        assert [str(i) for i in plan.free] == ["^i", "_j", "_m", "_n"]

    def test_rational_literal(self):
        plan = parse("1/2 * T[^i]")
        assert plan.free == (Index(UP, "i"),)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ExpressionSyntaxError) as excinfo:
            parse("Gamma[^i,_j,_k] + @")
        assert excinfo.value.position == 18

    def test_bare_name_wants_its_bracket(self):
        """A bare name is a rank-0 reference: it parses, and a field of
        higher rank refuses it when the line is evaluated."""
        psi = random_field(random.Random(14), 2, (DOWN,), 2)
        with pytest.raises(EvaluationError) as excinfo:
            evaluate_program_lines("B = Psi", {"Psi": psi})
        assert str(excinfo.value) == (
            "line 1: 'Psi' is bound to valence ('down',), referenced as ()")

    def test_unclosed_bracket(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("T[^i")

    def test_zero_denominator(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("1/0")

    def test_index_appearing_three_times(self):
        with pytest.raises(IndexUsageError):
            parse("T[^a] * S[_a] * U[^a]")

    def test_same_variance_repeat(self):
        with pytest.raises(IndexUsageError):
            parse("T[^a] * S[^a]")

    def test_summand_order_mismatch(self):
        with pytest.raises(IndexUsageError):
            parse("T[^i,_j] + S[_j,^i]")

    def test_summand_name_mismatch(self):
        with pytest.raises(IndexUsageError):
            parse("T[^i,_j] + S[^i,_k]")

    def test_dummy_reuse_across_summands_is_fine(self):
        plan = parse("A[^a,_a,_j] + B[^a,_a,_j]")
        assert plan.free == (Index(DOWN, "j"),)

    def test_curvature_signature(self):
        plan = parse(CURVATURE_SRC)
        assert [str(i) for i in plan.free] == ["^i", "_j", "_m", "_n"]


class TestEvaluate:
    def test_delta_is_autobound(self):
        anchor = random_field(random.Random(1), 3, (UP,), 2)
        result = evaluate(parse("delta[^i,_j]"), {"T": anchor})
        assert result == TensorField.delta(3, 2)

    def test_zero_literal_annihilates(self):
        t = random_field(random.Random(2), 2, (UP, DOWN), 2)
        result = evaluate(parse("0 * T[^i,_j]"), {"T": t})
        assert result.is_zero()
        # a zero summand does not truncate the sum to its lower order
        low = random_field(random.Random(3), 2, (UP, DOWN), 1)
        result = evaluate(parse("0 * S[^i,_j] + T[^i,_j]"), {"S": low, "T": t})
        assert result == t

    def test_scalar_scaling(self):
        t = random_field(random.Random(3), 2, (UP,), 2)
        result = evaluate(parse("2/3 * T[^i]"), {"T": t})
        assert result == tensor_scale(Fraction(2, 3), t)

    def test_full_contraction_gives_scalar(self):
        t = random_field(random.Random(4), 2, (UP, DOWN), 2)
        result = evaluate(parse("T[^a,_a]"), {"T": t})
        assert result.valence == ()
        assert result[()] == jet_add(t[0, 0], t[1, 1])

    def test_trace_keeps_free_slots_in_written_order(self):
        t = random_field(random.Random(8), 2, (DOWN, UP, UP, DOWN), 2)
        result = evaluate(parse("T[_j,^a,^i,_a]"), {"T": t})
        assert result.valence == (DOWN, UP)
        for j in range(2):
            for i in range(2):
                assert result[j, i] == jet_add(t[j, 0, i, 0], t[j, 1, i, 1])

    def test_divergence_sums_the_derivative_slot(self):
        t = random_field(random.Random(9), 2, (UP,), 2)
        result = evaluate(parse("d(T[^k],_k)"), {"T": t})
        assert result[()] == jet_add(jet_partial(t[0], 0), jet_partial(t[1], 1))

    def test_derivative_is_comma(self):
        t = random_field(random.Random(5), 2, (UP,), 2)
        result = evaluate(parse("d(T[^i],_j)"), {"T": t})
        for i in range(2):
            for j in range(2):
                assert result[i, j] == jet_partial(t[i], j)

    def test_summand_alignment_by_name(self):
        t = random_field(random.Random(6), 2, (UP, DOWN), 3)
        plan = parse("d(T[^i,_m],_n) + d(T[^i,_n],_m)")
        result = evaluate(plan, {"T": t})
        for i in range(2):
            for m in range(2):
                for n in range(2):
                    expected = jet_add(jet_partial(t[i, m], n),
                                       jet_partial(t[i, n], m))
                    assert result[i, m, n] == expected

    @given(seed=seeds)
    @settings(max_examples=10, deadline=None)
    def test_curvature_formula_matches_builtin(self, seed: int):
        s = Space(3, random_connection(3, 2, seed).sym())
        built_in = curvature_R(s)
        via_dsl = evaluate(parse(CURVATURE_SRC), {"Gamma": s.gamma})
        assert via_dsl == built_in

    @given(seed=seeds)
    @settings(max_examples=10, deadline=None)
    def test_dummy_renaming_invariance(self, seed: int):
        t = random_field(random.Random(seed), 3, (UP, DOWN, DOWN), 2)
        u = random_field(random.Random(seed + 1), 3, (UP, DOWN, DOWN), 2)
        bindings = {"T": t, "U": u}
        original = evaluate(parse("T[^a,_j,_m]*U[^i,_a,_n]"), bindings)
        renamed = evaluate(parse("T[^zz,_j,_m]*U[^i,_zz,_n]"), bindings)
        assert renamed == original

    def test_unbound_name(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("Missing[^i]"), {})

    def test_valence_mismatch(self):
        t = random_field(random.Random(7), 2, (UP, DOWN), 2)
        with pytest.raises(EvaluationError):
            evaluate(parse("T[_i,^j]"), {"T": t})

    def test_derivative_order_exhaustion(self):
        t = random_field(random.Random(8), 2, (UP,), 0)
        with pytest.raises(OrderExhaustedError):
            evaluate(parse("d(T[^i],_j)"), {"T": t})

    def test_bindings_must_share_dimension(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("T[^i] + S[^i]"),
                     {"T": random_field(random.Random(9), 2, (UP,), 2),
                      "S": random_field(random.Random(10), 3, (UP,), 2)})

    def test_pure_literal_needs_dim_hint(self):
        plan = parse("1/2 + 1/3")
        with pytest.raises(EvaluationError):
            evaluate(plan, {})
        # an unread binding fixes the dimension and the jet order
        t = random_field(random.Random(13), 2, (UP,), 1)
        result = evaluate(plan, {"T": t})
        assert (result.dim, result.order, result.valence) == (2, 1, ())
        assert result[()].coeffs[(0, 0)] == Fraction(5, 6)


def summed(term, count: int):
    """The jet sum of ``term`` over every value of ``count`` bound names,
    at dim 3."""
    return jet_sum(term(*values) for values in product(range(3), repeat=count))


# Each case's value at one output index, summed componentwise in the jet
# ring from the bindings ``b``; the arguments are the free indices in the
# order the parser's signature lists them.
FOLD_CASES = {
    # T*S keeps a free for U, which sums it
    "T[^a,_j]*S[^i,_b]*U[_a,^b]": lambda b, j, i: summed(
        lambda a, c: jet_mul(jet_mul(b["T"][a, j], b["S"][i, c]), b["U"][a, c]), 2),
    # the summands' slots are (m, i, n) and (i, n, m)
    "T[^a,_m]*S[^i,_a]*W[_n] - d(S[^i,_n],_m)": lambda b, m, i, n: jet_add(
        summed(lambda a: jet_mul(jet_mul(b["T"][a, m], b["S"][i, a]), b["W"][n]), 1),
        jet_neg(jet_partial(b["S"][i, n], m))),
    # a trace inside the operand, and the derivative's own slot summed
    "d(R[^a,_j,_a]*V[^k],_k)": lambda b, j: summed(
        lambda a, k: jet_partial(jet_mul(b["R"][a, j, a], b["V"][k]), k), 2),
    "d(2,_k) + W[_k]": lambda b, k: jet_add(
        jet_partial(const(3, 2, 2), k), b["W"][k]),
}


@pytest.mark.parametrize("src", FOLD_CASES)
def test_fold_matches_the_componentwise_sum(src):
    rng = random.Random(16)
    bindings = {name: random_field(rng, 3, valence, 2) for name, valence in (
        ("T", (UP, DOWN)), ("S", (UP, DOWN)), ("U", (DOWN, UP)), ("W", (DOWN,)),
        ("R", (UP, DOWN, DOWN)), ("V", (UP,)))}
    result = evaluate(parse(src), bindings)
    for idx in product(range(3), repeat=result.rank):
        assert result[idx] == FOLD_CASES[src](bindings, *idx)


def test_evaluation_walks_the_signatures_once(monkeypatch):
    # seven nodes: two derivatives, a product, a sum and three references
    plan = parse("d(T[^a,_j]*d(S[^i,_a] + T[^i,_a],_k),_m)")
    walked = []
    signature = dsl._signature
    monkeypatch.setattr(dsl, "_signature",
                        lambda node, *rest: walked.append(node) or signature(node, *rest))
    rng = random.Random(18)
    evaluate(plan, {"T": random_field(rng, 2, (UP, DOWN), 3),
                    "S": random_field(rng, 2, (UP, DOWN), 3)})
    assert len(walked) == 7


class TestPrograms:
    def test_two_line_program_with_reference(self):
        t = random_field(random.Random(11), 2, (UP, DOWN), 2)
        src = """
        # comment line
        Twice[^i,_j] = 2 * T[^i,_j]
        Traced = Twice[^a,_a]
        """
        out = evaluate_program_lines(src, {"T": t})
        assert set(out) == {"Twice", "Traced"}
        assert out["Twice"] == tensor_scale(2, t)
        assert out["Traced"][()] == jet_add(out["Twice"][0, 0], out["Twice"][1, 1])

    def test_a_constant_is_differentiated_at_the_bindings_order(self):
        """An earlier result of a lower order leaves the derivative of a
        constant at the bindings' order; a bare constant still takes the
        lowest order among the bindings and the results."""
        psi = random_field(random.Random(14), 2, (DOWN,), 2)
        out = evaluate_program_lines(
            "W[_k] = d(2,_k)\nW3[_k] = d(2,_k) + Psi[_k]\nC = 1/2\n",
            {"Psi": psi})
        assert [out[name].order for name in ("W", "W3", "C")] == [1, 1, 1]
        assert out["W"].is_zero()

    def test_left_hand_side_reorders_slots(self):
        t = random_field(random.Random(12), 2, (UP, DOWN), 2)
        out = evaluate_program_lines("Flipped[_j,^i] = T[^i,_j]", {"T": t})
        assert out["Flipped"] == transpose(t, (1, 0))

    def test_a_permuted_sum_is_transposed_once(self, monkeypatch):
        # the summands are added in the sum's own slot order, and the total
        # is transposed once to the target's
        perms = []
        monkeypatch.setattr(dsl, "transpose", lambda tensor, perm: perms.append(
            tuple(perm)) or transpose(tensor, perm))
        rng = random.Random(17)
        t, s = (random_field(rng, 2, (UP, DOWN), 2) for _ in range(2))
        out = evaluate_program_lines("F[_j,^i] = T[^i,_j] + S[^i,_j] - 2*T[^i,_j]",
                                     {"T": t, "S": s})
        assert perms == [(1, 0)]
        assert out["F"] == transpose(tensor_lincomb([(1, s), (-1, t)]), (1, 0))

    def test_left_hand_indices_must_match_free(self):
        with pytest.raises(IndexUsageError):
            parse_program("Bad[^i,_k] = T[^i,_j]")

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(ExpressionSyntaxError) as excinfo:
            parse_program("Good[^i] = T[^i]\nnot an assignment")
        assert excinfo.value.line == 2

    def test_repeated_lhs_index_rejected(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_program("Bad[^i,_i] = T[^i] * S[_i]")

    @pytest.mark.parametrize("src, message", [
        ("X[i] = T[^i]", "line 1, position 2: expected '^' or '_', got 'i'"),
        ("  X[^i] = Phi[^i] + @",
         "line 1, position 20: unexpected character '@'"),
        ("not an assignment", "line 1, position 4: expected '=', got 'an'"),
        ("X[^i] = T[^i", "line 1, position 12: expected ']'"),
        ("A = 1\nX[^i] = Gamma[^i,_j,_k] +",
         "line 2, position 25: unexpected end of input"),
        ("  X[^i,^i] = T[^i]",
         "line 1, position 2: repeated index on the left-hand side"),
        # a literal is ASCII digits: another script's digit is not read
        ("X[^i] = \u0663*Phi[^i]",
         "line 1, position 8: unexpected character '\u0663'"),
    ], ids=["index-without-variance", "bad-character", "no-equals",
            "unclosed-bracket", "end-of-input", "repeated-target-index",
            "non-ascii-digit"])
    def test_error_positions_are_line_columns(self, src, message):
        """One parser reads the whole line, so a position is the column
        in the line on either side of ``=``, leading spaces counted."""
        with pytest.raises(ExpressionSyntaxError) as excinfo:
            parse_program(src)
        assert str(excinfo.value) == message

    def test_rank_zero_references(self):
        """A scalar a program defines is read back as ``S`` or ``S[]``."""
        rng = random.Random(15)
        bindings = {"Psi": random_field(rng, 2, (DOWN,), 2),
                    "Phi": random_field(rng, 2, (UP,), 2)}
        out = evaluate_program_lines(
            "S = Psi[_a]*Phi[^a]\nT[_i] = S*Psi[_i]\nU[_i] = S[]*Psi[_i]\n",
            bindings)
        expected = tensor_contract(",i->i", out["S"], bindings["Psi"])
        assert out["T"] == expected and out["U"] == expected

    @pytest.mark.parametrize("prefix", ["", "1/"])
    def test_literal_past_the_digit_limit_names_its_column(self, prefix):
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("this interpreter converts integers of any length")
        with pytest.raises(ExpressionSyntaxError) as excinfo:
            parse_program("A = 1\nX = " + prefix + "9" * (limit + 1))
        assert str(excinfo.value) == (
            f"line 2, position {4 + len(prefix)}: an integer literal has "
            f"{limit + 1} digits, more than the limit of {limit}")


def test_cli_import_does_not_load_dataclasses():
    """The syntax nodes are named tuples: ``dataclasses`` (with
    ``inspect``) would cost every ``eval`` its import and class-building
    time.  Only ``eval`` loads the DSL, so the test imports it beside
    ``cli``."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, eqlab.cli, eqlab.dsl; "
         "print('eqlab.dsl' in sys.modules, 'dataclasses' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True False"


def test_index_equality_is_by_variance_and_name():
    assert Index(UP, "i") == Index(UP, "i")
    assert Index(UP, "i") != Index(DOWN, "i")
    assert Index(UP, "i") != Index(UP, "j")
    assert str(Index(DOWN, "k")) == "_k"
