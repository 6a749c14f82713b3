"""Verification suites and rank summaries behind the command line.

The suite takes finished ``MappedPair`` instances and runs every exact
check the package offers: the two-route torsion-derivative difference,
the factorized connection difference, invariance of the W tensor, the
T-tilde tensors and the parameterized families, the correlation identity
tying a family member back to its W tensor, and the curvature
transformation equations.  Checks compare a source-side evaluation with
an independent target-side evaluation and pass only on exact rational
equality.

Invariance holds kind-matched: a pair built from kind-s mapping data is
checked with the kind-s objects on both sides.  A deliberately corrupted
inverse (the ``psi-sign`` fault) is available as a negative control so a
vacuously green suite is detectable.
"""

from __future__ import annotations

import random

from .dsl import EvaluationError, evaluate, parse_program
from .geometry import Space, curvature_family_span, torsion_square_terms
from .invariants import (
    PARAM_NAMES,
    InvariantBundle,
    R_and_K_transformation_check,
    VerificationReport,
    build_W_matrix,
    family_span_dimension,
    sigma_coeff_matrix,
    torsion_cd_difference_check,
)
from .linalg import generic_rank, random_substitution, rank_exact
from .mapping import (
    AG3Mapping,
    FactorizationMismatch,
    MappedPair,
    basic_equation_residual,
    gamma_diff_factorized,
    synthesize_instance,
)
from .tensors import (
    TensorField,
    tensor_lincomb,
    tensor_neg,
    tensor_sub,
    transpose,
)

ALL_LABELS = tuple(range(1, 9))

FAULTS = ("psi-sign",)


def corrupted_inverse(pair: MappedPair) -> AG3Mapping:
    """Inverse mapping data with the sign of the barred psi flipped.

    The dependent fields are re-derived from the wrong psi, so nu and mu
    carry the fault into every barred evaluation even though the W and
    eta formulas never read psi itself.  Negative control only.
    """
    m = pair.mapping
    psi_wrong = m.psi  # the correct inverse carries -psi
    nu_wrong = tensor_lincomb([(1, m.nu), (-1, m.psi), (2, m.sigma_phi())])
    mu_wrong = m.mu - m.psi_phi()
    return AG3Mapping(psi=psi_wrong, sigma=tensor_neg(m.sigma), phi=m.phi,
                      nu=nu_wrong, mu=mu_wrong, kind=m.kind)


def _with_inverse(pair: MappedPair, m_bar: AG3Mapping) -> MappedPair:
    # preload the inverse cache so the factorization check, which reads
    # the pair, consumes the given barred data
    clone = MappedPair(pair.source, pair.mapping, pair.target)
    clone._inverse = m_bar
    return clone


def w_invariance_check(src: InvariantBundle, tgt: InvariantBundle,
                       which: int, base: dict) -> VerificationReport:
    return VerificationReport.from_residuals(
        "W_invariance", {**base, "which": which},
        (tensor_sub(src.w_star(which), tgt.w_star(which)),))


def t_tilde_invariance_check(src: InvariantBundle, tgt: InvariantBundle,
                             rho: int, base: dict) -> VerificationReport:
    return VerificationReport.from_residuals(
        "T_tilde_invariance", {**base, "rho": rho},
        (tensor_sub(src.t_tilde(rho), tgt.t_tilde(rho)),))


def factorization_check(pair: MappedPair, base: dict) -> VerificationReport:
    try:
        gamma_diff_factorized(pair)
        residuals = ()
    except FactorizationMismatch as exc:
        residuals = (exc.residual,)
    return VerificationReport.from_residuals(
        "sym_difference_factorization", dict(base), residuals)


def _grid_report(check: str, head: dict, values: dict, p_values, q_values,
                 residual_at) -> VerificationReport:
    """One report over the (p, q) cells, listing the cells that fail."""
    failed: list[list[int]] = []
    params = {**head, "cells": len(p_values) * len(q_values),
              "failed_cells": failed}
    params.update({name: values[name] for name in PARAM_NAMES})

    def residuals():
        for p in p_values:
            for q in q_values:
                residual = residual_at(p, q)
                if not residual.is_zero():
                    failed.append([p, q])
                yield residual

    return VerificationReport.from_residuals(check, params, residuals())


def family_invariance_check(src: InvariantBundle, tgt: InvariantBundle,
                            which: int, p_values, q_values,
                            values: dict, draw: int,
                            base: dict) -> VerificationReport:
    """F_src - F_tgt cell by cell, through the linearity of the family:
    the parameter-free part and each sigma label's difference are built
    once, every cell sums three of them.  Each difference is a source
    value minus an independent target value."""
    params = [values[name] for name in PARAM_NAMES]
    u, up = params[:2]
    common = tensor_lincomb(
        [(1, src.curvature_k(*params)), (1, src.correction(which)),
         (-1, tgt.curvature_k(*params)), (-1, tgt.correction(which))])
    d_sigma = {p: tensor_sub(src.sigma(p), tgt.sigma(p)) for p in p_values}
    d_swapped = {q: tensor_sub(src.sigma_swapped(q), tgt.sigma_swapped(q))
                 for q in q_values}
    return _grid_report(
        "family_invariance", {**base, "which": which, "draw": draw}, values,
        p_values, q_values,
        lambda p, q: tensor_lincomb([(1, common), (-u, d_sigma[p]),
                                     (-up, d_swapped[q])]))


def correlation_check(bundle: InvariantBundle, which: int, p_values, q_values,
                      values: dict, base: dict) -> VerificationReport:
    """The family assembly K + (W - R) - u sigma_p - u' sigma*_q against
    W + u cd + u' cd* + v V + v' V' + w W_t - u sigma_p - u' sigma*_q, cell
    by cell on one side: cd is the torsion derivative, cd* its m/n swap,
    V, V', W_t the torsion squares.  Both assemblies share W and sigma, so
    this checks K - R against its torsion terms.  It is not a source-to-target
    comparison."""
    u, up, v, vp, w = (values[name] for name in PARAM_NAMES)
    space = bundle.space
    cd = space.torsion_cd()
    cd_swapped = transpose(cd, (0, 1, 3, 2))
    v_term, vp_term, w_term = torsion_square_terms(space)
    fixed = tensor_lincomb([(1, bundle.w_star(which)), (u, cd),
                            (up, cd_swapped), (v, v_term), (vp, vp_term),
                            (w, w_term)])

    def residual_at(p, q):
        return tensor_lincomb(
            [(1, bundle.family(which, p, q, u, up, v, vp, w)), (-1, fixed),
             (u, bundle.sigma(p)), (up, bundle.sigma_swapped(q))])

    return _grid_report("correlation", {**base, "which": which}, values,
                        p_values, q_values, residual_at)


def _draw_seed(dim: int, kind: int, label: int, order: int) -> int:
    # fixed mixing, distinct from the synthesis stream, so parameter
    # draws are reproducible per instance
    return ((label * 7_368_787 + dim) * 613 + kind) * 53 + order


def verify_instance(pair: MappedPair, label: int, p_values, q_values,
                    draws: int, corrupt: str | None = None,
                    ) -> tuple[list[VerificationReport], list[str]]:
    """Every suite check on one pair; reports carry the instance label."""
    m = pair.mapping
    dim, kind = pair.source.dim, m.kind
    order = pair.source.gamma.order
    if corrupt is None:
        m_bar = pair.inverse()
    elif corrupt in FAULTS:
        m_bar = corrupted_inverse(pair)
    else:
        raise ValueError(f"unknown fault {corrupt!r}")
    # the target bundle carries the inverse in use, corrupted or not
    src = InvariantBundle(pair.source, m)
    tgt = InvariantBundle(pair.target, m_bar)
    rng = random.Random(_draw_seed(dim, kind, label, order))
    draw_values = [random_substitution(PARAM_NAMES, rng) for _ in range(draws)]
    base = {"dim": dim, "kind": kind, "seed": label}

    checks: list[VerificationReport] = []
    for p in p_values:
        report = torsion_cd_difference_check(src, tgt, p)
        report.params["seed"] = label
        checks.append(report)
    checks.append(factorization_check(_with_inverse(pair, m_bar), base))
    checks.append(w_invariance_check(src, tgt, kind, base))
    for rho in p_values:
        checks.append(t_tilde_invariance_check(src, tgt, rho, base))
    checks.append(correlation_check(src, kind, p_values, q_values,
                                    draw_values[0], base))
    for draw, values in enumerate(draw_values):
        checks.append(family_invariance_check(src, tgt, kind,
                                              p_values, q_values,
                                              values, draw, base))
    p_cell = p_values[label % len(p_values)]
    q_cell = q_values[(3 * label + 1) % len(q_values)]
    report = R_and_K_transformation_check(
        src, tgt, kind, p_cell, q_cell,
        u=draw_values[0]["u"], up=draw_values[0]["u'"])
    report.params["seed"] = label
    checks.append(report)

    notes: list[str] = []
    if pair.source.torsion().is_zero():
        notes.append(f"instance {label}: torsion-free, so the torsion-"
                     "difference and sigma checks hold as 0 = 0")
    return checks, notes


def run_verify_suite(pairs, p_values=None, q_values=None, draws: int = 3,
                     corrupt: str | None = None,
                     ) -> tuple[bool, list[VerificationReport], list[str]]:
    """Full suite over labeled pairs; passes only if every check passes.

    ``pairs`` is a sequence of (label, MappedPair); labels key the
    deterministic parameter draws and appear in the reports.
    """
    p_values = list(p_values) if p_values is not None else list(ALL_LABELS)
    q_values = list(q_values) if q_values is not None else list(ALL_LABELS)
    if draws < 1:
        raise ValueError("draws must be at least 1")
    checks: list[VerificationReport] = []
    notes: list[str] = []
    for label, pair in pairs:
        instance_checks, instance_notes = verify_instance(
            pair, label, p_values, q_values, draws, corrupt)
        checks.extend(instance_checks)
        notes.extend(instance_notes)
    return all(c.passed for c in checks), checks, notes


def synthesized_pairs(dim: int, kind: int, seeds, order: int = 2,
                      ) -> list[tuple[int, MappedPair]]:
    return [(seed, synthesize_instance(dim, kind, seed, order))
            for seed in seeds]


def synth_document(dim: int, kind: int, seed: int, order: int = 2) -> dict:
    """Instance serialization with its basic-equation certificate."""
    pair = synthesize_instance(dim, kind, seed, order)
    certificate = VerificationReport.from_residuals(
        "basic_equation_residual",
        {"dim": dim, "kind": kind, "seed": seed, "order": order},
        (basic_equation_residual(pair.source, pair.mapping),))
    doc = {"dim": dim, "kind": kind, "seed": seed, "order": order}
    doc.update(pair.to_json())
    doc["certificate"] = certificate.to_json()
    return doc


def _rank_row(check: str, dim: int, expected: int, observed: int) -> dict:
    return {"check": check, "dim": dim, "expected": expected,
            "observed": observed, "pass": observed == expected}


def run_ranks(dim: int = 3, trials: int = 5, seed: int = 0, order: int = 2,
              instances: int = 10, samples: int = 26,
              ) -> tuple[bool, list[dict]]:
    """The four rank claims at one dimension, family spans per kind."""
    rows = [
        _rank_row("sigma_coeff_rank", dim, 4,
                  rank_exact(sigma_coeff_matrix(dim))),
        _rank_row("W_matrix_generic_rank", dim, 6,
                  generic_rank(build_W_matrix(dim), trials=trials, seed=seed)),
        _rank_row("curvature_family_span", dim, 5,
                  curvature_family_span(dim, instances=instances, seed=seed,
                                        order=order)),
    ]
    for kind in (1, 2):
        pairs = [synthesize_instance(dim, kind, 977 * seed + t, order)
                 for t in range(2)]
        rows.append(_rank_row(f"family_span_kind{kind}", dim, 6,
                              family_span_dimension(pairs, samples,
                                                    seed=seed)))
    return all(row["pass"] for row in rows), rows


def instance_bindings(obj) -> dict[str, TensorField]:
    """Named tensors a program may reference, from a pair or a bare space.

    A pair binds the source fields, the mapping data and the Bar-prefixed
    target-side counterparts; a space binds only its own fields.  mu has
    no index slot, so it is not bindable and stays internal.
    """
    if isinstance(obj, Space):
        return {"Gamma": obj.gamma, "GammaSym": obj.sym(),
                "Torsion": obj.torsion()}
    m, m_bar = obj.mapping, obj.inverse()
    return {
        "Gamma": obj.source.gamma,
        "GammaSym": obj.source.sym(),
        "Torsion": obj.source.torsion(),
        "Phi": m.phi, "Psi": m.psi, "Sigma": m.sigma, "Nu": m.nu,
        "BarGamma": obj.target.gamma,
        "BarGammaSym": obj.target.sym(),
        "BarTorsion": obj.target.torsion(),
        "BarPhi": m_bar.phi, "BarPsi": m_bar.psi,
        "BarSigma": m_bar.sigma, "BarNu": m_bar.nu,
    }


def evaluate_program_lines(text: str, bindings: dict,
                           ) -> dict[str, TensorField]:
    """Assignments evaluated top to bottom, evaluation errors labeled
    with their line number; parse errors already carry theirs."""
    env = dict(bindings)
    defined: dict[str, TensorField] = {}
    for lineno, name, lhs, plan in parse_program(text):
        try:
            tensor = evaluate(plan, env)
        except EvaluationError as exc:
            raise EvaluationError(f"line {lineno}: {exc}") from None
        if lhs != plan.free:
            positions = {index.name: pos
                         for pos, index in enumerate(plan.free)}
            tensor = transpose(tensor, tuple(positions[index.name]
                                             for index in lhs))
        env[name] = tensor
        defined[name] = tensor
    return defined
