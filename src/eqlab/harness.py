"""Verification suites and rank summaries behind the command line.

The suite takes finished ``MappedPair`` instances and runs every exact
check the package offers: the two-route torsion-derivative difference,
the factorized connection difference, invariance of the W tensor, the
T-tilde tensors and the parameterized family members, the correlation
identity holding ``curvature_K`` to its definition, and the curvature
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

from .geometry import (Space, curvature_K, curvature_family_span,
                       torsion_square_terms)
from .invariants import (
    PARAM_NAMES,
    SIGMA_LABELS,
    InvariantBundle,
    R_and_K_transformation_check,
    VerificationReport,
    _check_label,
    build_W_matrix,
    family_difference_terms,
    family_span_dimension,
    sigma_coeff_matrix,
    torsion_cd_difference_check,
)
from .linalg import generic_rank, random_substitution, rank_exact
from .mapping import (
    AG3Mapping,
    FactorizationMismatch,
    MappedPair,
    gamma_diff_factorized,
    reciprocity_inverse,
    synthesize_instance,
)
from .tensors import (
    TensorField,
    tensor_lincomb,
    tensor_neg,
    tensor_sub,
    transpose,
)


FAULTS = ("psi-sign",)  # the negative control's faults


def corrupted_inverse(pair: MappedPair) -> AG3Mapping:
    """The checked inverse of the psi-negated mapping, a valid mapping of
    the same source since psi enters no basic equation.  psi-bar keeps the
    wrong sign; nu-bar and mu-bar carry the fault into every barred
    evaluation even though the W and eta formulas never read psi itself.
    Negative control only."""
    m = pair.mapping
    flipped = AG3Mapping(psi=tensor_neg(m.psi), sigma=m.sigma, phi=m.phi,
                         nu=m.nu, mu=m.mu, kind=m.kind)
    return reciprocity_inverse(pair.source, flipped)


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


def factorization_check(pair: MappedPair, m_bar: AG3Mapping,
                        base: dict) -> VerificationReport:
    try:
        gamma_diff_factorized(pair, m_bar)
        residuals = ()
    except FactorizationMismatch as exc:
        residuals = (exc.residual,)
    return VerificationReport.from_residuals(
        "sym_difference_factorization", dict(base), residuals)


def _grid_report(check: str, head: dict, values: dict,
                 cells: list) -> VerificationReport:
    """One report over the (p, q) cells, listing the cells that fail.

    ``cells`` holds ``((p, q), residual)`` per cell in row-major order.
    Cells with equal residuals share one object, so each distinct
    residual is decided and measured once, however many cells report it.
    """
    distinct = {id(residual): residual for _, residual in cells}
    failing = {key for key, residual in distinct.items()
               if not residual.is_zero()}
    params = {**head, "cells": len(cells),
              "failed_cells": [[p, q] for (p, q), residual in cells
                               if id(residual) in failing]}
    params.update({name: values[name] for name in PARAM_NAMES})
    return VerificationReport.from_residuals(check, params, distinct.values())


def _keyed_differences(labels, src_value, tgt_value,
                       ) -> dict[int, TensorField]:
    """Source value minus target value per label.  Labels whose
    differences are equal share one object, so ``id`` keys them alike."""
    shared: dict[TensorField, TensorField] = {}
    differences = {}
    for label in labels:
        difference = tensor_sub(src_value(label), tgt_value(label))
        differences[label] = shared.setdefault(difference, difference)
    return differences


def sigma_differences(src: InvariantBundle, tgt: InvariantBundle,
                      p_values, q_values) -> tuple:
    """The sigma_p and swapped sigma_q differences of the family grid,
    ``_keyed_differences`` of each axis.  They do not depend on the
    parameters, so one instance builds them once for all its draws."""
    return (_keyed_differences(p_values, src.sigma, tgt.sigma),
            _keyed_differences(q_values, src.sigma_swapped,
                               tgt.sigma_swapped))


def family_invariance_check(src: InvariantBundle, tgt: InvariantBundle,
                            which: int, p_values, q_values,
                            values: dict, draw: int, base: dict,
                            differences: tuple) -> VerificationReport:
    """F_src - F_tgt over the (p, q) grid, through the linearity of the
    family: cell (p, q) is common - u d_sigma[p] - u' d_swapped[q], with
    common, ``family_difference_terms``, summed once.  ``differences`` is
    ``sigma_differences`` over the same labels; each is a source value
    minus an independent target value.  Cells whose two differences are
    the same objects are summed once; on a passing instance every label's
    difference is the same, so the grid is one sum."""
    d_sigma, d_swapped = differences
    params = [values[name] for name in PARAM_NAMES]
    u, up = params[:2]
    common = tensor_lincomb(family_difference_terms(src, tgt, which, params))
    sums: dict[tuple[int, int], TensorField] = {}
    cells = []
    for p in p_values:
        for q in q_values:
            key = id(d_sigma[p]), id(d_swapped[q])
            if key not in sums:
                sums[key] = tensor_lincomb([(1, common), (-u, d_sigma[p]),
                                            (-up, d_swapped[q])])
            cells.append(((p, q), sums[key]))
    return _grid_report("family_invariance",
                        {**base, "which": which, "draw": draw}, values, cells)


def correlation_check(bundle: InvariantBundle, which: int, p_values, q_values,
                      values: dict, base: dict) -> VerificationReport:
    """The family assembly K + (W - R) - u sigma_p - u' sigma*_q against
    W + u cd + u' cd* + v V + v' V' + w W_t - u sigma_p - u' sigma*_q on
    one side: cd is the torsion derivative, cd* its m/n swap, V, V', W_t
    the torsion squares.  Both carry W and the same sigma terms, so every
    cell's residual is the one tensor K - R - (u cd + ...), built once and
    reported for each cell: the check is that ``curvature_K`` equals its
    definition, whose five terms are listed here apart from
    ``k_torsion_terms``.  R is at no higher order than any sigma, so the
    sigma terms never cut a cell's sum lower.  Not a source-to-target check."""
    u, up, v, vp, w = (values[name] for name in PARAM_NAMES)
    for p in p_values:
        _check_label("p", p)
    for q in q_values:
        _check_label("q", q)
    space = bundle.space
    cd = space.torsion_cd()
    cd_swapped = transpose(cd, (0, 1, 3, 2))
    v_term, vp_term, w_term = torsion_square_terms(space)
    residual = tensor_lincomb(
        [(1, curvature_K(space, u, up, v, vp, w)), (-1, space.curvature()),
         (-u, cd), (-up, cd_swapped), (-v, v_term), (-vp, vp_term),
         (-w, w_term)])
    cells = [((p, q), residual) for p in p_values for q in q_values]
    return _grid_report("correlation", {**base, "which": which}, values,
                        cells)


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
    # the target bundle carries the inverse in use, corrupted or not.
    # Every residual holds a derivative, so it is read one order below the
    # data, and the bundles take their products there.
    cut = max(order - 1, 0)
    src = InvariantBundle(pair.source, m, cut)
    tgt = InvariantBundle(pair.target, m_bar, cut)
    rng = random.Random(_draw_seed(dim, kind, label, order))
    draw_values = [random_substitution(PARAM_NAMES, rng) for _ in range(draws)]
    base = {"dim": dim, "kind": kind, "seed": label}

    checks = torsion_cd_difference_check(src, tgt, p_values)
    for report in checks:
        report.params["seed"] = label
    checks.append(factorization_check(pair, m_bar, base))
    checks.append(w_invariance_check(src, tgt, kind, base))
    for rho in p_values:
        checks.append(t_tilde_invariance_check(src, tgt, rho, base))
    checks.append(correlation_check(src, kind, p_values, q_values,
                                    draw_values[0], base))
    differences = sigma_differences(src, tgt, p_values, q_values)
    for draw, values in enumerate(draw_values):
        checks.append(family_invariance_check(src, tgt, kind,
                                              p_values, q_values,
                                              values, draw, base,
                                              differences))
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
    p_values = list(p_values) if p_values is not None else list(SIGMA_LABELS)
    q_values = list(q_values) if q_values is not None else list(SIGMA_LABELS)
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
    """Instance serialization with its basic-equation certificate: the
    residual that ``MappedPair.build`` proved zero while synthesizing."""
    from .documents import instance_document

    pair = synthesize_instance(dim, kind, seed, order)
    certificate = VerificationReport(
        "basic_equation_residual",
        {"dim": dim, "kind": kind, "seed": seed, "order": order},
        passed=True, max_abs_residual_num_digits=0, residual=None)
    return instance_document(pair, seed, certificate.to_json())


def _rank_row(check: str, dim: int, expected: int, observed: int) -> dict:
    return {"check": check, "dim": dim, "expected": expected,
            "observed": observed, "pass": observed == expected}


def run_ranks(dim: int = 3, trials: int = 5, seed: int = 0, order: int = 2,
              ) -> tuple[bool, list[dict]]:
    """The four rank claims at one dimension, family spans per kind."""
    rows = [
        _rank_row("sigma_coeff_rank", dim, 4,
                  rank_exact(sigma_coeff_matrix(dim))),
        _rank_row("W_matrix_generic_rank", dim, 6,
                  generic_rank(build_W_matrix(dim), trials=trials, seed=seed)),
        _rank_row("curvature_family_span", dim, 5,
                  curvature_family_span(dim, seed=seed, order=order)),
    ]
    for kind in (1, 2):
        pairs = [synthesize_instance(dim, kind, 977 * seed + t, order)
                 for t in range(2)]
        rows.append(_rank_row(f"family_span_kind{kind}", dim, 6,
                              family_span_dimension(pairs, seed=seed)))
    return all(row["pass"] for row in rows), rows


def instance_bindings(obj) -> dict[str, TensorField]:
    """Named tensors a program may reference, from a pair or a bare space.

    A pair binds the source fields, the mapping data and the Bar-prefixed
    target-side counterparts; a space binds only its own fields.  The
    rank-0 ``Mu`` and ``BarMu`` have the pair's order o, so the lowest
    order among the bindings, which a program's constants take, stays o.
    """
    if isinstance(obj, Space):
        return {"Gamma": obj.gamma, "GammaSym": obj.sym(),
                "Torsion": obj.torsion()}
    m, m_bar = obj.mapping, obj.inverse()
    return {
        "Gamma": obj.source.gamma,
        "GammaSym": obj.source.sym(),
        "Torsion": obj.source.torsion(),
        "Phi": m.phi, "Psi": m.psi, "Sigma": m.sigma, "Nu": m.nu, "Mu": m.mu,
        "BarGamma": obj.target.gamma,
        "BarGammaSym": obj.target.sym(),
        "BarTorsion": obj.target.torsion(),
        "BarPhi": m_bar.phi, "BarPsi": m_bar.psi,
        "BarSigma": m_bar.sigma, "BarNu": m_bar.nu, "BarMu": m_bar.mu,
    }


def evaluate_program_lines(text: str, bindings: dict,
                           ) -> dict[str, TensorField]:
    """Assignments evaluated top to bottom.  A ``ValueError`` raised by a
    line's evaluation comes back as an ``EvaluationError`` naming the
    line; parse errors carry theirs.  Only this loads the language."""
    from .dsl import EvaluationError, evaluate, parse_program

    env = dict(bindings)
    defined: dict[str, TensorField] = {}
    for lineno, name, plan in parse_program(text):
        try:
            tensor = evaluate(plan, env)
        except ValueError as exc:
            raise EvaluationError(f"line {lineno}: {exc}") from None
        env[name] = tensor
        defined[name] = tensor
    return defined
