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
    _shared,
    build_W_matrix,
    difference_table,
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


def w_invariance_check(table, base: dict) -> VerificationReport:
    return VerificationReport.from_residuals(
        "W_invariance", {**base, "which": table.which}, (table.w,))


def t_tilde_invariance_check(rho_values, table,
                             base: dict) -> list[VerificationReport]:
    """T-tilde_src - T-tilde_tgt per label rho: the torsion-derivative
    difference less the rho-th sigma difference, each distinct one built
    once; minus ``torsion_cd_difference_check``'s second residual."""
    d_cd, built = table.terms[0], {}
    return [VerificationReport.from_residuals(
        "T_tilde_invariance", {**base, "rho": rho},
        (_shared(built, lambda d: tensor_sub(d_cd, d), table.sigma[rho]),))
        for rho in rho_values]


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


def family_invariance_check(table, p_values, q_values, values: dict,
                            draw: int, base: dict) -> VerificationReport:
    """F_src - F_tgt over the (p, q) grid, through the linearity of the
    family: cell (p, q) is ``table.common`` - u d_sigma[p] - u' d_swapped[q],
    each a source value less an independent target value.  Each distinct
    pair of label differences is summed once; on a passing instance every
    label's difference is the same object, so the grid is one sum."""
    params = [values[name] for name in PARAM_NAMES]
    u, up = params[:2]
    common, sums = table.common(params), {}
    cells = [((p, q), _shared(
        sums, lambda a, b: tensor_lincomb([(1, common), (-u, a), (-up, b)]),
        table.sigma[p], table.swapped[q]))
        for p in p_values for q in q_values]
    return _grid_report("family_invariance",
                        {**base, "which": table.which, "draw": draw}, values,
                        cells)


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
    cd, cd_swapped = space.torsion_cd(), space.torsion_cd_swapped()
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
    table = difference_table(src, tgt, kind, p_values, q_values)

    checks = torsion_cd_difference_check(src, tgt, p_values, table, base)
    checks.append(factorization_check(pair, m_bar, base))
    checks.append(w_invariance_check(table, base))
    checks.extend(t_tilde_invariance_check(p_values, table, base))
    checks.append(correlation_check(src, kind, p_values, q_values,
                                    draw_values[0], base))
    for draw, values in enumerate(draw_values):
        checks.append(family_invariance_check(table, p_values, q_values,
                                              values, draw, base))
    p_cell = p_values[label % len(p_values)]
    q_cell = q_values[(3 * label + 1) % len(q_values)]
    checks.append(R_and_K_transformation_check(
        table, p_cell, q_cell, draw_values[0]["u"], draw_values[0]["u'"],
        base))

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
    line; parse errors carry theirs.  Every line differentiates its
    constants at the lowest order of ``bindings``, the instance's order,
    whatever the orders of earlier results.  Only this loads the
    language."""
    from .dsl import EvaluationError, evaluate, lowest_order, parse_program

    env, order = dict(bindings), lowest_order(bindings)
    defined: dict[str, TensorField] = {}
    for lineno, name, plan in parse_program(text):
        try:
            tensor = evaluate(plan, env, order)
        except ValueError as exc:
            raise EvaluationError(f"line {lineno}: {exc}") from None
        env[name] = tensor
        defined[name] = tensor
    return defined
