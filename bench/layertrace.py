"""Run one eqlab command with its layers traced from outside.

Usage: ``python3 bench/layertrace.py OUT_JSON COMMAND_ID eqlab-arguments...``

The program's source is left alone.  Before ``eqlab.cli.main`` runs,
every traced public function is replaced by a wrapper under each name
an eqlab module binds it to (``from .jets import jet_mul`` makes one such
binding per importing module), and a few methods are replaced on their
class.  Each wrapped call records a span (name, start, end, parent) in
flat arrays kept in memory until the command ends; a span's self time is
its duration minus the time its child spans cover.  The per-layer
summary is written to OUT_JSON as one JSON object.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array

# (module, attribute, span name).  A dotted attribute is a method replaced
# on its class; a plain one is replaced in every eqlab module that binds
# the same function object.
SPANS = (
    ("jets", "jet_mul", "jets.mul"),
    ("jets", "jet_add", "jets.add"),
    ("jets", "jet_neg", "jets.neg"),
    ("jets", "jet_scale", "jets.scale"),
    ("jets", "jet_partial", "jets.partial"),
    ("jets", "jet_inverse", "jets.inverse"),
    ("tensors", "TensorField.build", "tensors.build"),
    ("tensors", "tensor_add", "tensors.arith"),
    ("tensors", "tensor_sub", "tensors.arith"),
    ("tensors", "tensor_scale", "tensors.arith"),
    ("tensors", "tensor_neg", "tensors.arith"),
    ("tensors", "transpose", "tensors.transpose"),
    ("tensors", "contract", "tensors.contract"),
    ("tensors", "outer", "tensors.outer"),
    ("tensors", "partial_deriv_field", "tensors.partial"),
    ("tensors", "flatten_at_base", "tensors.flatten"),
    ("geometry", "curvature_R", "geometry.curvature"),
    ("geometry", "cov_deriv_assoc", "geometry.cov_deriv"),
    ("geometry", "cov_deriv_kind", "geometry.cov_deriv"),
    ("geometry", "curvature_K", "geometry.curvature_K"),
    ("geometry", "torsion_square_terms", "geometry.torsion_squares"),
    ("geometry", "random_connection", "geometry.random_connection"),
    ("geometry", "curvature_family_span", "geometry.family_span"),
    ("mapping", "synthesize_instance", "mapping.synthesize"),
    ("mapping", "reciprocity_inverse", "mapping.inverse"),
    ("mapping", "MappedPair.validate", "mapping.validate"),
    ("mapping", "transform_connection", "mapping.transform"),
    ("mapping", "basic_equation_residual", "mapping.basic_residual"),
    ("mapping", "gamma_diff_factorized", "mapping.factorized"),
    ("mapping", "AG3Mapping.sigma_phi", "mapping.sigma_phi"),
    ("invariants", "_Parts.__init__", "invariants.parts"),
    ("invariants", "U_theta", "invariants.U_theta"),
    ("invariants", "sigma_p", "invariants.sigma_p"),
    ("invariants", "W_star", "invariants.W_star"),
    ("invariants", "eta_star", "invariants.eta_star"),
    ("invariants", "T_tilde", "invariants.T_tilde"),
    ("invariants", "InvariantBundle.family", "invariants.family"),
    ("invariants", "family_span_dimension", "invariants.family_span"),
    ("invariants", "sigma_coeff_matrix", "invariants.sigma_coeff_matrix"),
    ("invariants", "build_W_matrix", "invariants.build_W_matrix"),
    ("linalg", "rank_exact", "linalg.rank_exact"),
    ("linalg", "generic_rank", "linalg.generic_rank"),
    ("linalg", "ParamMatrix.substitute", "linalg.substitute"),
    ("invariants", "torsion_cd_difference_check",
     "harness.torsion_cd_difference"),
    ("harness", "factorization_check", "harness.sym_difference_factorization"),
    ("harness", "w_invariance_check", "harness.W_invariance"),
    ("harness", "t_tilde_invariance_check", "harness.T_tilde_invariance"),
    ("harness", "correlation_check", "harness.correlation"),
    ("harness", "family_invariance_check", "harness.family_invariance"),
    ("invariants", "R_and_K_transformation_check",
     "harness.R_K_transformation"),
    ("harness", "run_verify_suite", "harness.verify_suite"),
    ("harness", "run_ranks", "harness.ranks"),
    ("harness", "synth_document", "harness.synth_document"),
    ("harness", "instance_bindings", "harness.bindings"),
    ("harness", "evaluate_program_lines", "harness.eval_program"),
    ("dsl", "parse_program", "dsl.parse"),
    ("dsl", "evaluate", "dsl.evaluate"),
    ("cli", "_load_pair", "cli.instance_load"),
    ("cli", "_load_bindings_source", "cli.instance_load"),
    ("cli", "_json_text", "cli.report_encode"),
    ("cli", "_emit", "cli.emit"),
)

# Spans whose (space, mapping, label) arguments are keyed to measure
# recomputation: distinct keys over calls.
KEYED = ("invariants.U_theta", "invariants.sigma_p")

HARNESS_KINDS = ("torsion_cd_difference", "sym_difference_factorization",
                 "W_invariance", "T_tilde_invariance", "correlation",
                 "family_invariance", "R_K_transformation")


class Recorder:
    """Spans in flat arrays, plus counters kept at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counts: dict[str, int] = {}
        self.keys: dict[str, set] = {name: set() for name in KEYED}
        self.kept: list = []  # keeps keyed objects alive so ids stay unique

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, fn, name: str, before=None, after=None):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self.name_ids[name]
        span_name, parent, start, end = (self.span_name, self.parent,
                                         self.start, self.end)
        stack, now = self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            span = len(start)
            span_name.append(name_id)
            parent.append(stack[-1])
            end.append(0)
            stack.append(span)
            start.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = now()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def per_name(self) -> dict[str, dict]:
        """calls, total and self nanoseconds per span name."""
        n = len(self.start)
        duration = [self.end[k] - self.start[k] for k in range(n)]
        covered = [0] * n
        for k in range(n):
            p = self.parent[k]
            if p >= 0:
                covered[p] += duration[k]
        out = {name: {"calls": 0, "total_ns": 0, "self_ns": 0}
               for name in self.names}
        for k in range(n):
            row = out[self.names[self.span_name[k]]]
            row["calls"] += 1
            row["total_ns"] += duration[k]
            row["self_ns"] += duration[k] - covered[k]
        return out


def _hooks(rec: Recorder, name: str, fn) -> tuple:
    """(before, after) callbacks that keep the counts a span name needs."""
    if name in KEYED:
        signature = inspect.signature(fn)

        def key(args, kwargs):
            s, m, label = signature.bind(*args, **kwargs).arguments.values()
            rec.kept.append((s, m))
            rec.keys[name].add((id(s), id(m), label))
        return key, None
    if name == "invariants.family":
        sizes = []

        def before(args, kwargs):
            sizes.append(len(args[0].families))

        def after(args, result):
            rec.count("invariants.family.hits",
                      int(len(args[0].families) == sizes.pop()))
        return before, after
    if name == "jets.mul":
        return (lambda args, kwargs: rec.count(
            "jets.mul.coeff_pairs",
            len(args[0].coeffs) * len(args[1].coeffs))), None
    if name == "linalg.rank_exact":
        return (lambda args, kwargs: rec.count(
            "linalg.rank_exact.entries", args[0].rows * args[0].cols)), None
    if name == "tensors.build":
        return None, (lambda args, result: rec.count(
            "tensors.build.components", len(result.components)))
    if name == "cli.emit":
        return (lambda args, kwargs: rec.count(
            "cli.output_bytes", len(args[0].encode("utf-8")))), None
    return None, None


def _install(rec: Recorder, modules: dict) -> None:
    for module_name, attr, name in SPANS:
        module = modules[module_name]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[method]
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            wrapped = rec.wrap(fn, name, *_hooks(rec, name, fn))
            setattr(cls, method,
                    classmethod(wrapped) if is_classmethod else wrapped)
            continue
        original = getattr(module, attr)
        wrapped = rec.wrap(original, name, *_hooks(rec, name, original))
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    commands = modules["cli"]._COMMANDS
    for key, fn in list(commands.items()):
        commands[key] = rec.wrap(fn, "cli.command")
    _install_counters(rec, modules)


def _install_counters(rec: Recorder, modules: dict) -> None:
    """Counted but not spanned: too frequent or too small to time."""
    jet_cls = modules["jets"].JetScalar
    jet_init = jet_cls.__init__

    def construct(self, *args, **kwargs):
        rec.counts["jets.construct"] += 1
        jet_init(self, *args, **kwargs)

    rec.counts["jets.construct"] = 0
    jet_cls.__init__ = construct

    space_cls = modules["geometry"].Space
    space_cached = space_cls._cached

    def cached(self, key, compute):
        rec.counts["geometry.space_cache.attempts"] += 1
        if key in self._cache:
            rec.counts["geometry.space_cache.hits"] += 1
        return space_cached(self, key, compute)

    rec.counts["geometry.space_cache.attempts"] = 0
    rec.counts["geometry.space_cache.hits"] = 0
    space_cls._cached = cached


def summarize(rec: Recorder) -> dict:
    """Raw per-command figures; ``metrics`` combines several commands."""
    return {"spans": rec.per_name(), "counts": dict(rec.counts),
            "distinct": {name: len(keys) for name, keys in rec.keys.items()},
            "span_total": len(rec.start)}


COUNT_SUFFIXES = (".calls", ".count", ".components", ".coeff_pairs",
                  ".entries", ".attempts", ".lines")


def unit_of(name: str) -> str:
    if name.endswith(COUNT_SUFFIXES):
        return "count"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".ns_per_pair"):
        return "ns"
    if name.endswith("_bytes"):
        return "bytes"
    return "s"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(summaries: list[dict]) -> dict[str, float]:
    """Per-layer metrics of a sequence of traced commands."""
    spans: dict[str, dict] = {}
    counts: dict[str, int] = {}
    distinct: dict[str, int] = {}
    for summary in summaries:
        for name, row in summary["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "total_ns": 0,
                                          "self_ns": 0})
            for field in acc:
                acc[field] += row[field]
        for name, value in summary["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for name, value in summary["distinct"].items():
            distinct[name] = distinct.get(name, 0) + value

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def total_s(name):
        return spans.get(name, {}).get("total_ns", 0) / 1e9

    def self_s(name):
        return spans.get(name, {}).get("self_ns", 0) / 1e9

    def layer_self_s(layer):
        return sum(row["self_ns"] for name, row in spans.items()
                   if name.split(".")[0] == layer) / 1e9

    pairs = counts.get("jets.mul.coeff_pairs", 0)
    out = {
        "jets.mul.calls": calls("jets.mul"),
        "jets.add.calls": calls("jets.add"),
        "jets.neg.calls": calls("jets.neg"),
        "jets.scale.calls": calls("jets.scale"),
        "jets.partial.calls": calls("jets.partial"),
        "jets.construct.calls": counts.get("jets.construct", 0),
        "jets.mul.coeff_pairs": pairs,
        "jets.mul.self_s": self_s("jets.mul"),
        "jets.self_s": layer_self_s("jets"),
        "jets.mul.ns_per_pair": _ratio(self_s("jets.mul") * 1e9, pairs),
        "tensors.build.calls": calls("tensors.build"),
        "tensors.build.components": counts.get("tensors.build.components", 0),
        "tensors.arith.calls": calls("tensors.arith"),
        "tensors.transpose.calls": calls("tensors.transpose"),
        "tensors.contract.calls": calls("tensors.contract"),
        "tensors.outer.calls": calls("tensors.outer"),
        "tensors.self_s": layer_self_s("tensors"),
        "geometry.curvature.calls": calls("geometry.curvature"),
        "geometry.cov_deriv.calls": calls("geometry.cov_deriv"),
        "geometry.curvature_K.calls": calls("geometry.curvature_K"),
        "geometry.space_cache.attempts":
            counts.get("geometry.space_cache.attempts", 0),
        "geometry.space_cache.hit_ratio": _ratio(
            counts.get("geometry.space_cache.hits", 0),
            counts.get("geometry.space_cache.attempts", 0)),
        "geometry.self_s": layer_self_s("geometry"),
        "mapping.synthesize.calls": calls("mapping.synthesize"),
        "mapping.synthesize.s": total_s("mapping.synthesize"),
        "mapping.inverse.s": total_s("mapping.inverse"),
        "mapping.validate.calls": calls("mapping.validate"),
        "mapping.validate.s": total_s("mapping.validate"),
        "mapping.self_s": layer_self_s("mapping"),
        "invariants.U_theta.calls": calls("invariants.U_theta"),
        "invariants.U_theta.distinct_ratio": _ratio(
            distinct.get("invariants.U_theta", 0), calls("invariants.U_theta")),
        "invariants.sigma_p.calls": calls("invariants.sigma_p"),
        "invariants.sigma_p.distinct_ratio": _ratio(
            distinct.get("invariants.sigma_p", 0), calls("invariants.sigma_p")),
        "invariants.W_star.calls": calls("invariants.W_star"),
        "invariants.eta_star.calls": calls("invariants.eta_star"),
        "invariants.T_tilde.calls": calls("invariants.T_tilde"),
        "invariants.family.calls": calls("invariants.family"),
        "invariants.family.hit_ratio": _ratio(
            counts.get("invariants.family.hits", 0),
            calls("invariants.family")),
        "invariants.family_span.s": total_s("invariants.family_span"),
        "invariants.self_s": layer_self_s("invariants"),
        "linalg.rank_exact.calls": calls("linalg.rank_exact"),
        "linalg.rank_exact.entries": counts.get("linalg.rank_exact.entries", 0),
        "linalg.s": layer_self_s("linalg"),
    }
    for kind in HARNESS_KINDS:
        out[f"harness.{kind}.s"] = total_s(f"harness.{kind}")
        out[f"harness.{kind}.count"] = calls(f"harness.{kind}")
    out.update({
        "dsl.parse.s": total_s("dsl.parse"),
        "dsl.evaluate.s": total_s("dsl.evaluate"),
        "dsl.lines": calls("dsl.evaluate"),
        "cli.instance_load.s": total_s("cli.instance_load"),
        "cli.report_encode.s": total_s("cli.report_encode"),
        "cli.output_bytes": counts.get("cli.output_bytes", 0),
    })
    return out


def main(argv: list[str]) -> int:
    out_path, command_id, eqlab_args = argv[0], int(argv[1]), argv[2:]
    import eqlab  # noqa: F401  (loads every layer the package exports)
    from eqlab import (cli, dsl, geometry, harness, invariants, jets, linalg,
                       mapping, tensors)
    modules = {"jets": jets, "tensors": tensors, "geometry": geometry,
               "mapping": mapping, "invariants": invariants,
               "linalg": linalg, "harness": harness, "dsl": dsl, "cli": cli,
               "eqlab": eqlab}
    rec = Recorder()
    _install(rec, modules)
    try:
        code = cli.main(eqlab_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout.flush()
        summary = summarize(rec)
        summary["command_id"] = command_id
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, sort_keys=True)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
