"""Command line: synthesize witnesses, verify identities, report ranks,
evaluate expression programs.

Reports are serialized with sorted keys and fixed separators, so one
configuration always produces byte-identical output.  Exit codes: 0 all
checks passed, 1 a verification check failed, 2 usage or parse error,
3 input or output error, 4 an internal error (a bug, reported with its
traceback).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys

# The parser is built from this module alone: each command imports the
# layers it runs when it runs, so a rejected input loads only what
# rejecting it takes.

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

# verify builds one family-invariance grid per draw
MAX_DRAWS = 1000

# ranks substitutes and ranks the 64 x 26 family matrix once per trial,
# about 7 ms at any dim
MAX_TRIALS = 1000

# the parser's copies of ``invariants.SIGMA_LABELS`` (the verify grid) and
# ``harness.FAULTS`` (the negative control), read without loading the layers
ALL_LABELS = tuple(range(1, 9))

FAULTS = ("psi-sign",)

# the defaults of the options that pick a synthesized instance; they
# default to None in the parser, so that one given beside --instance is seen
INSTANCE_DEFAULTS = {"dim": 3, "kind": 1, "order": 2}
INSTANCE_OPTIONS = (*INSTANCE_DEFAULTS, "seed", "seeds")


class UsageError(ValueError):
    """Bad arguments; exits with code 2."""


def _dim_value(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError("dim must be at least 2")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("value must be at least 1")
    return value


def _seed_list(text: str) -> tuple[int, ...]:
    try:
        seeds = tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"seeds must be comma-separated integers, got {text!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError("seed list is empty")
    return seeds


def _grid_value(text: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    def labels(part: str) -> tuple[int, ...]:
        out: list[int] = []
        for piece in part.split(","):
            piece = piece.strip()
            if ".." in piece:
                lo, hi = (int(bound) for bound in piece.split("..", 1))
                # bounds first: a range runs low to high within 1..8
                if not (lo <= hi and lo in ALL_LABELS and hi in ALL_LABELS):
                    raise ValueError(part)
                out.extend(range(lo, hi + 1))
            else:
                out.append(int(piece))
        if not out or any(v not in ALL_LABELS for v in out):
            raise ValueError(part)
        return tuple(out)

    try:
        parts = text.split(":")
        if len(parts) == 1:
            p_values = q_values = labels(parts[0])
        elif len(parts) == 2:
            p_values, q_values = labels(parts[0]), labels(parts[1])
        else:
            raise ValueError(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "grid must look like '1,3..5' or '1,2:3..8' "
            f"with labels in 1..8, got {text!r}") from None
    return p_values, q_values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqlab",
        description="Exact verification workbench for equitorsion "
                    "almost geodesic mappings.")
    sub = parser.add_subparsers(dest="command", required=True)

    def instance_args(p: argparse.ArgumentParser, default_seeds) -> None:
        p.add_argument("--dim", type=_dim_value,
                       help="space dimension, at least 2 (default 3)")
        p.add_argument("--kind", type=int, choices=(1, 2),
                       help="mapping kind (default 1)")
        p.add_argument("--order", type=int, choices=(2, 3),
                       help="jet truncation order (default 2)")
        p.add_argument("--seed", type=int,
                       help="single seed")
        p.add_argument("--seeds", type=_seed_list,
                       help="comma-separated seed list")
        p.set_defaults(default_seeds=default_seeds)

    synth = sub.add_parser(
        "synth", help="write synthesized instances with their certificates")
    instance_args(synth, (0,))
    synth.add_argument("--out",
                       help="output file, or directory for several seeds")

    verify = sub.add_parser("verify", help="run the exact verification suite")
    instance_args(verify, (0, 1, 2, 3, 4))
    verify.add_argument("--instance",
                        help="verify a stored instance instead of synthesizing")
    verify.add_argument("--grid", type=_grid_value, metavar="P[:Q]",
                        default=(ALL_LABELS, ALL_LABELS),
                        help="sigma labels to sweep, e.g. '1,2:5..8'")
    verify.add_argument("--draws", type=_positive, default=3,
                        help="random parameter draws per instance (default 3)")
    verify.add_argument("--corrupt", choices=FAULTS,
                        help="inject a known fault as a negative control")
    verify.add_argument("--out", help="report file (default stdout)")

    ranks = sub.add_parser("ranks", help="rank and span summary table")
    ranks.add_argument("--dim", type=_dim_value, default=3,
                       help="space dimension (default 3)")
    ranks.add_argument("--order", type=int, choices=(2, 3), default=2)
    ranks.add_argument("--seed", type=int, default=0)
    ranks.set_defaults(seeds=None)
    ranks.add_argument("--trials", type=_positive, default=5,
                       help="substitutions for the generic rank (default 5)")
    ranks.add_argument("--format", choices=("json", "csv"), default="json")
    ranks.add_argument("--out", help="report file (default stdout)")

    evaluate = sub.add_parser(
        "eval", help="evaluate an assignment program against an instance")
    evaluate.add_argument("program",
                          help="file of 'Name[indices] = expression' lines")
    evaluate.add_argument("--instance",
                          help="instance or space file supplying the bindings")
    instance_args(evaluate, (0,))
    evaluate.add_argument("--out", help="result file (default stdout)")

    return parser


def _settle_instance_options(parser: argparse.ArgumentParser,
                             args: argparse.Namespace) -> None:
    """A stored instance states its own dim, kind, order and seed, so an
    instance option beside ``--instance`` is a usage error.  Otherwise the
    unset options take their defaults."""
    if getattr(args, "instance", None) is not None:
        given = [f"--{name}" for name in INSTANCE_OPTIONS
                 if getattr(args, name) is not None]
        if given:
            raise UsageError(f"{', '.join(given)} cannot be given with "
                             "--instance, whose file states its instance")
        return
    for name, value in INSTANCE_DEFAULTS.items():
        if getattr(args, name, value) is None:
            setattr(args, name, value)
    args.seeds = _resolve_seeds(parser, args)


def _resolve_seeds(parser: argparse.ArgumentParser,
                   args: argparse.Namespace) -> tuple[int, ...]:
    """The seeds to run."""
    if args.seed is not None and args.seeds is not None:
        parser.error("--seed and --seeds are mutually exclusive")
    if args.seed is not None:
        return (args.seed,)
    if args.seeds is not None:
        return args.seeds
    return args.default_seeds


def _json_text(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _csv_text(rows) -> str:
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("check", "dim", "expected", "observed", "pass"))
    for row in rows:
        writer.writerow((row["check"], row["dim"], row["expected"],
                         row["observed"], "true" if row["pass"] else "false"))
    return buffer.getvalue()


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


# the command line's two ways into ``documents``, which reads instance
# files; ``bench/layertrace.py`` times them under these names
def _load_pair(path: str) -> tuple[int, "MappedPair"]:
    from .documents import read_pair

    return read_pair(path)


def _load_bindings_source(path: str):
    from .documents import read_bindings_source

    return read_bindings_source(path)


def _require_dim(dim: int) -> None:
    """``--dim`` within the cap the loader applies to instance files."""
    from .jets import MAX_DIM

    if dim > MAX_DIM:
        raise UsageError(f"--dim {dim} is above the cap of {MAX_DIM}")


def cmd_synth(args: argparse.Namespace) -> int:
    _require_dim(args.dim)
    from .harness import synth_document

    docs = [(seed, synth_document(args.dim, args.kind, seed, args.order))
            for seed in args.seeds]
    if args.out is not None and os.path.isdir(args.out):
        for seed, doc in docs:
            name = f"pair-d{args.dim}-k{args.kind}-s{seed}.json"
            _emit(_json_text(doc), os.path.join(args.out, name))
        return EXIT_PASS
    if len(docs) > 1:
        raise UsageError("several seeds need --out pointing at a directory")
    _emit(_json_text(docs[0][1]), args.out)
    return EXIT_PASS


def cmd_verify(args: argparse.Namespace) -> int:
    if args.draws > MAX_DRAWS:
        raise UsageError(f"--draws {args.draws} is above the cap of "
                         f"{MAX_DRAWS}")
    if args.instance is not None:
        pairs = [_load_pair(args.instance)]
    else:
        _require_dim(args.dim)
        from .harness import synthesized_pairs

        pairs = synthesized_pairs(args.dim, args.kind, args.seeds, args.order)
    from .harness import run_verify_suite

    p_values, q_values = args.grid
    passed, checks, notes = run_verify_suite(
        pairs, p_values, q_values, args.draws, args.corrupt)
    pair = pairs[0][1]  # a stored file states its own instance
    doc = {
        "command": "verify",
        "config": {
            "dim": pair.source.dim, "kind": pair.mapping.kind,
            "seeds": [seed for seed, _ in pairs],
            "order": pair.source.gamma.order, "draws": args.draws,
            "p": list(p_values), "q": list(q_values),
            "corrupt": args.corrupt, "instance": args.instance,
        },
        "pass": passed,
        "notes": notes,
        "checks": [check.to_json() for check in checks],
    }
    _emit(_json_text(doc), args.out)
    return EXIT_PASS if passed else EXIT_FAIL


def cmd_ranks(args: argparse.Namespace) -> int:
    if args.trials > MAX_TRIALS:
        raise UsageError(f"--trials {args.trials} is above the cap of "
                         f"{MAX_TRIALS}")
    _require_dim(args.dim)
    from .harness import run_ranks

    seed = args.seeds[0]
    passed, rows = run_ranks(args.dim, trials=args.trials, seed=seed,
                             order=args.order)
    if args.format == "csv":
        text = _csv_text(rows)
    else:
        text = _json_text({
            "command": "ranks",
            "config": {"dim": args.dim, "order": args.order,
                       "seed": seed, "trials": args.trials},
            "pass": passed,
            "rows": rows,
        })
    _emit(text, args.out)
    return EXIT_PASS if passed else EXIT_FAIL


def cmd_eval(args: argparse.Namespace) -> int:
    with open(args.program, "r", encoding="utf-8") as handle:
        text = handle.read()
    if args.instance is not None:
        source = _load_bindings_source(args.instance)
    else:
        _require_dim(args.dim)
        if len(args.seeds) > 1:
            raise UsageError(f"eval takes one seed, got {len(args.seeds)}")
        from .mapping import synthesize_instance

        source = synthesize_instance(args.dim, args.kind, args.seeds[0],
                                     args.order)
    from .documents import tensor_json
    from .harness import evaluate_program_lines, instance_bindings

    defined = evaluate_program_lines(text, instance_bindings(source))
    doc = {
        "command": "eval",
        "results": {name: tensor_json(t) for name, t in defined.items()},
    }
    _emit(_json_text(doc), args.out)
    return EXIT_PASS


_COMMANDS = {
    "synth": cmd_synth,
    "verify": cmd_verify,
    "ranks": cmd_ranks,
    "eval": cmd_eval,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _settle_instance_options(parser, args)
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        # covers usage, parse, index-discipline and malformed-input errors
        print(f"eqlab: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"eqlab: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:
        import shlex
        import traceback

        command = shlex.join(sys.argv[1:] if argv is None else argv)
        print(f"eqlab: internal error: {type(exc).__name__}: {exc}",
              f"rerun: eqlab {command}", sep="\n", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
