"""Mutation check: does the test and command kill set see a wrong edit?

Each mutant below is one exact source edit to one module of
``src/eqlab``.  The script applies it to a fresh copy of ``src/``,
``tests/`` and ``pyproject.toml`` in a temporary directory, and runs the
kill set there:

- ``eqlab verify --dim 2 --seed 0``, whose stdout and exit code must equal
  the unedited tree's;
- the same with ``--corrupt psi-sign``, the negative control, likewise;
- the sigma-table proof, ``tests/test_invariants.py::TestSigmaCoeffMatrix``;
- the builder pins, ``tests/test_builder_pins.py``;
- the edited module's own tests, ``tests/test_<module>.py``, and for
  ``documents.py`` and ``jets.py`` also ``tests/test_flat_storage.py``,
  which holds the pins of the instance loader and of the coefficient
  placement both share, for ``documents.py`` the CLI test that reads
  a numerator past the digit limit, for ``mapping.py`` the test that a
  synthesis bug exits 4 where a stored pair's fault exits 2, and for
  ``invariants.py`` the test of the family and curvature-transformation
  residuals on a pair whose target torsion differs from its source's and
  the test that each distinct residual is built once.

A mutant is killed by the first step that differs or fails, and survives
when none does.  A survivor needs a test that kills it, or a reason why
the edit cannot change any result (DeMillo, Lipton & Sayward, "Hints on
test data selection", IEEE Computer 11(4), 1978).

Run it from the repository root, with the standard library alone::

    python3 tools/mutants.py

It runs every mutant and prints one line each: the first step that
killed it, or ``SURVIVED``, and what the edit does.  A mutant killed by
``verify`` or its control also lists the check kinds whose pass or fail
it flipped.  A last line gives the count of mutants and survivors and
the total run time.  Exit 0 when every mutant is killed, 1 when one
survives, 2 when the unedited tree fails its own kill set or a mutant's
text is not found exactly once.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    module: str  # file name under src/eqlab
    old: str
    new: str
    what: str


MUTANTS = (
    Mutant("sigma-coeff-entry", "invariants.py",
           "1: {1: (1, 0), 3: (-1, 0), 5: (-1, 0)},",
           "1: {1: (1, 0), 3: (-1, 0), 5: (1, 0)},",
           "_SIGMA_COEFFS: the sign of U_5 in sigma_1"),
    Mutant("swap-position-entry", "invariants.py",
           "_SWAP_POSITION = (1, 0, 3, 2, 4, 6, 5,",
           "_SWAP_POSITION = (1, 0, 3, 2, 4, 5, 6,",
           "_SWAP_POSITION: U_6 and U_7 left in place by the m/n swap"),
    Mutant("runs-unscaled", "linalg.py",
           "f = row_den // den",
           "f = 1",
           "RationalMatrix.from_runs: runs not brought to the row denominator"),
    Mutant("point-unscaled", "linalg.py",
           "point = (scale, *(x.numerator * (scale // x.denominator) for x in xs))",
           "point = (scale, *(x.numerator for x in xs))",
           "ParamMatrix.substitute: values not brought to one denominator"),
    Mutant("shared-bundle-cache", "geometry.py",
           """    def _cached(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]""",
           """    def _cached(self, key, compute, shared={}):
        cache = (shared.setdefault(self.order, {})
                 if hasattr(self, "mapping") else self._cache)
        if key not in cache:
            cache[key] = compute()
        return cache[key]""",
           "Keeper._cached: every bundle of one order reads one cache, so a "
           "target bundle returns what its source bundle kept"),
    Mutant("eta-eps-sign", "invariants.py",
           "(c * eps, tensor_contract(\"ja,ak->jk\"",
           "(-c * eps, tensor_contract(\"ja,ak->jk\"",
           "InvariantBundle.eta: the sign of eps flipped"),
    Mutant("w-star-eps-sign", "invariants.py",
           "(-eps, tensor_contract(\"jm,in->ijmn\"",
           "(eps, tensor_contract(\"jm,in->ijmn\"",
           "InvariantBundle.w_star: the sign of the sigma T-phi eps term "
           "flipped"),
    Mutant("u-term-spec", "invariants.py",
           "(\"ajm,ian->ijmn\", \"torsion\", \"sym\")",
           "(\"amj,ian->ijmn\", \"torsion\", \"sym\")",
           "_U_TERMS: U_1 reads the torsion's lower slots swapped"),
    Mutant("u-mirror-permutation", "invariants.py",
           "transpose(self.u_tensor(partner), (0, 1, 3, 2))",
           "transpose(self.u_tensor(partner), (0, 1, 2, 3))",
           "InvariantBundle.u_tensor: an m/n mirror read off its partner "
           "through the identity, not the m/n swap"),
    Mutant("w-star-mirror-slots", "invariants.py",
           "antisym_pair_nodiv(unmirrored, 2, 3)",
           "antisym_pair_nodiv(unmirrored, 1, 3)",
           "InvariantBundle.w_star: the mirrored terms antisymmetrized "
           "over (j, n), not (m, n)"),
    Mutant("parts-order-cut", "invariants.py",
           "return a if order is None else tensor_truncate(a, order)",
           "return a",
           "_Parts: the inputs not cut to the parts' order"),
    Mutant("curvature-k-coefficient", "geometry.py",
           "(s.torsion_cd(), s.torsion_cd_swapped())",
           "(s.torsion_cd_swapped(), s.torsion_cd())",
           "k_torsion_terms: the torsion derivative and its m/n swap "
           "exchanged, so u and u' multiply each other's term in K"),
    Mutant("torsion-squares-dropped", "invariants.py",
           "*zip(params, self.terms)",
           "*zip(params[:2], self.terms)",
           "Differences.common: the torsion-square differences left out, "
           "as if the mapping always kept the torsion"),
    Mutant("w-square-permutation", "geometry.py",
           "transpose(v_term, (0, 3, 1, 2))",
           "transpose(v_term, (0, 2, 3, 1))",
           "Space.torsion_squares: the w square read off the v square "
           "through the wrong slot relabeling"),
    Mutant("tcd-antisym-dropped", "invariants.py",
           "antisym_pair_nodiv(\n"
           "             tensor_contract(\"iam,ajn->ijmn\", t, sym_diff), 1, 2)",
           "tensor_contract(\"iam,ajn->ijmn\", t, sym_diff)",
           "torsion_cd_difference_check: T^i_{ja}P^a_{mn} left out of the "
           "direct route"),
    Mutant("t-tilde-difference-sign", "harness.py",
           "lambda d: tensor_sub(d_cd, d)",
           "lambda d: tensor_lincomb([(1, d_cd), (1, d)])",
           "t_tilde_invariance_check: the sigma difference added to the "
           "torsion-derivative difference, not subtracted"),
    Mutant("rk-sigma-difference-sign", "invariants.py",
           "(params[0], table.sigma[p])",
           "(-params[0], table.sigma[p])",
           "R_and_K_transformation_check: the u sigma difference enters "
           "with the wrong sign"),
    Mutant("swapped-table-untransposed", "invariants.py",
           "lambda d: transpose(d, (0, 1, 3, 2))",
           "lambda d: d",
           "difference_table: the swapped sigma_q differences read without "
           "the m/n transpose"),
    Mutant("keyed-differences-unshared", "invariants.py",
           "differences[label] = shared.setdefault(difference, difference)",
           "differences[label] = difference",
           "_keyed_differences: equal differences kept as separate objects"),
    Mutant("loader-zero-den", "documents.py",
           "if den == 0:",
           "if False:",
           "load_block: a zero denominator not refused"),
    Mutant("loader-alpha-type", "jets.py",
           "any(type(e) is not int or e < 0 for e in alpha)",
           "any(e < 0 for e in alpha)",
           "_placed: multi-index entries not held to exact ints, so "
           "[true, 0] reads as [1, 0]"),
    Mutant("reduction-skipped", "jets.py",
           "    if g != 1:\n        return den // g",
           "    if False:\n        return den // g",
           "_reduced: gcd(den, *nums) not divided out, so equal jets and "
           "fields need not have equal forms"),
    Mutant("loader-long-literal", "documents.py",
           "json.loads(text, parse_int=_long_as_text)",
           "json.loads(text)",
           "_load_document: an integer literal past the digit limit fails "
           "the parse, unnamed"),
    Mutant("decode-error-unnamed", "documents.py",
           "except (json.JSONDecodeError, UnicodeDecodeError) as exc:",
           "except UnicodeDecodeError as exc:",
           "_load_document: a file that is not JSON is reported without "
           "its path"),
    Mutant("inverse-sign", "jets.py",
           "(s.nums[0] + n0 ** k,)",
           "(s.nums[0] - n0 ** k,)",
           "jet_inverse: n0^k subtracted in the Horner step"),
    Mutant("contract-stride", "tensors.py",
           "weight[letter] += dim ** (len(side) - 1 - p)",
           "weight[letter] += dim ** (len(side) - 1 - p) - 1",
           "_contract_plan: every slot's stride weight one too small"),
    Mutant("gradient-factor-dropped", "tensors.py",
           "out = [nums[start + i] * f for start",
           "out = [nums[start + i] for start",
           "gradient: each coefficient moved down without its exponent "
           "factor"),
    Mutant("signature-third-use", "dsl.py",
           "if name in used and name not in free_names:",
           "if False:",
           "_product_signature: a name bound before may appear a third time"),
    Mutant("fold-partial-free", "dsl.py",
           "out = free if k == len(parts) else _product_signature(",
           "out = free if True else _product_signature(",
           "_fold: every partial product keeps only the node's free indices, "
           "so a name the first and third factors share is dropped early"),
    Mutant("differentiate-at-ignored", "dsl.py",
           "self.differentiate_at = (self.order if differentiate_at is None\n"
           "                                 else differentiate_at)",
           "self.differentiate_at = self.order",
           "_Context: a constant differentiated at the lowest order among "
           "earlier results, not at the order it is handed"),
    Mutant("target-equals-unchecked", "dsl.py",
           "parser._expect(\"=\")",
           "parser.at += 1",
           "parse_program: the token after the target is skipped unread, so "
           "a line with no '=' parses"),
    Mutant("draws-cap-inclusive", "cli.py",
           "if args.draws > MAX_DRAWS:",
           "if args.draws >= MAX_DRAWS:",
           "cmd_verify: --draws at the cap refused"),
    Mutant("trials-cap-inclusive", "cli.py",
           "if args.trials > MAX_TRIALS:",
           "if args.trials >= MAX_TRIALS:",
           "cmd_ranks: --trials at the cap refused"),
    Mutant("dim-cap-inclusive", "cli.py",
           "if dim > MAX_DIM:",
           "if dim >= MAX_DIM:",
           "_require_dim: --dim at the cap refused"),
    Mutant("json-dim-cap-inclusive", "documents.py",
           "if dim > MAX_DIM:",
           "if dim >= MAX_DIM:",
           "json_dim: a document dim at the cap refused"),
    Mutant("order-cap-inclusive", "documents.py",
           "if gamma.order > MAX_ORDER:",
           "if gamma.order >= MAX_ORDER:",
           "load_space: a connection at the order cap refused"),
    Mutant("validate-inside-except", "documents.py",
           "pair = _decoded(decode_pair, doc, path)\n    pair.validate()\n",
           "from .mapping import MappedPair\n"
           "    pair = _decoded(MappedPair.from_json, doc, path)\n",
           "_pair_from: a KeyError or TypeError raised by validate() is "
           "reported as a malformed file"),
    Mutant("seed-list-refused-late", "cli.py",
           "if len(args.seeds) > 1 and not to_directory:",
           "if False:",
           "cmd_synth: several seeds without a directory are not refused, "
           "so only the first is written"),
    Mutant("synthesis-bug-as-input", "mapping.py",
           "except BasicEquationError as exc:\n        raise SynthesisError(",
           "except SynthesisError as exc:\n        raise SynthesisError(",
           "synthesize_instance: a nonzero residual on a synthesized pair "
           "is not re-raised, so a bug exits 2 as bad input does"),
    Mutant("inverse-nu-sigma-phi", "mapping.py",
           "(2, m.sigma_phi())])",
           "(1, m.sigma_phi())])",
           "_inverse_onto: nu-bar takes sigma_{ja} phi^a once, not twice"),
    Mutant("reciprocity-as-input", "mapping.py",
           "class ReciprocityError(RuntimeError):",
           "class ReciprocityError(ValueError):",
           "ReciprocityError: an inverse that fails its own check exits 2 "
           "as bad input does, not 4 as the bug it is"),
)

# tests of a module's code that live outside its own test file
MORE_TESTS = {"documents.py": (
    "tests/test_flat_storage.py",
    "tests/test_cli.py::TestCliVerify::"
    "test_numerator_past_the_digit_limit_names_field_and_limit"),
    "jets.py": ("tests/test_flat_storage.py",),
    "invariants.py": ("tests/test_harness.py::"
                      "test_unequal_torsion_keeps_the_k_route_residuals",
                      "tests/test_harness.py::"
                      "test_each_distinct_residual_is_built_once"),
    "mapping.py": ("tests/test_documents.py::"
                   "test_a_nonzero_residual_is_a_bug_in_synthesis_only",)}

VERIFY = ("verify", "--dim", "2", "--seed", "0")
SIGMA_PROOF = "tests/test_invariants.py::TestSigmaCoeffMatrix"
PINS = "tests/test_builder_pins.py"


def copy_tree(into: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis",
                                    ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", into / "pyproject.toml")


def run(tree: Path, args: list[str]) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, *args], cwd=tree, env=env,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout


def kill_steps(module: str) -> list[tuple[str, list[str]]]:
    """The kill set of a mutant of ``module``, as (label, arguments)."""
    own = f"tests/test_{module.removesuffix('.py')}.py"
    pytest = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    return [("verify", ["-m", "eqlab.cli", *VERIFY]),
            ("corrupt control", ["-m", "eqlab.cli", *VERIFY,
                                 "--corrupt", "psi-sign"]),
            ("sigma-table proof", [*pytest, SIGMA_PROOF]),
            (PINS, [*pytest, PINS]),
            *((test, [*pytest, test])
              for test in (own, *MORE_TESTS.get(module, ())))]


def first_kill(tree: Path, module: str, clean: dict) -> str | None:
    """The first step the tree at ``tree`` fails, else None.  A command
    step is named with the check kinds it flipped."""
    for label, args in kill_steps(module):
        result = run(tree, args)
        if label in clean:
            if result != clean[label]:
                return f"{label} [{flipped(clean[label], result)}]"
        elif result[0] != 0:
            return label
    return None


def flipped(clean: tuple[int, str], result: tuple[int, str]) -> str:
    """The check kinds whose pass or fail differs between two runs of one
    verify command, in report order."""
    try:
        reports = [json.loads(out)["checks"] for _, out in (clean, result)]
    except (ValueError, KeyError):
        return f"no report, exit {result[0]}"
    if len(reports[0]) != len(reports[1]):
        return f"{len(reports[1])} checks, not {len(reports[0])}"
    kinds = dict.fromkeys(a["check"] for a, b in zip(*reports)
                          if a["pass"] != b["pass"])
    return "flipped " + (", ".join(kinds) if kinds else "no check")


def main() -> int:
    start = time.monotonic()
    for m in MUTANTS:
        count = (ROOT / "src" / "eqlab" / m.module).read_text().count(m.old)
        if count != 1:
            print(f"{m.name}: its text occurs {count} times in {m.module}")
            return 2

    with tempfile.TemporaryDirectory(prefix="eqlab-mutants-") as work:
        clean_tree = Path(work) / "clean"
        copy_tree(clean_tree)
        # the commands' clean results are the reference; the tests must pass
        steps = {label: step for m in MUTANTS for label, step in kill_steps(m.module)}
        clean = {label: run(clean_tree, steps[label])
                 for label in ("verify", "corrupt control")}
        for label, step in steps.items():
            if label not in clean and run(clean_tree, step)[0] != 0:
                print(f"the unedited tree fails its kill set at: {label}")
                return 2
        survivors = []
        for m in MUTANTS:
            tree = Path(work) / m.name
            copy_tree(tree)
            path = tree / "src" / "eqlab" / m.module
            path.write_text(path.read_text().replace(m.old, m.new))
            killer = first_kill(tree, m.module, clean)
            print(f"{m.name:26} " + (f"killed by {killer}" if killer
                                     else "SURVIVED") + f"  ({m.what})",
                  flush=True)
            if killer is None:
                survivors.append(m.name)
            shutil.rmtree(tree)
    print(f"{len(MUTANTS)} mutants, {len(survivors)} survived, in "
          f"{time.monotonic() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
