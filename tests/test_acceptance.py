"""Headline acceptance checks, one summary line each.

Every comparison in this file is exact rational equality; there are no
numeric tolerances anywhere.  Run with

    pytest tests/test_acceptance.py -s

to see one PASS or FAIL line per criterion as it completes.
"""

import random

import pytest

from eqlab.dsl import evaluate, parse
from eqlab.geometry import curvature_R, curvature_family_span, random_connection
from eqlab.harness import correlation_check, run_verify_suite
from eqlab.invariants import (
    PARAM_NAMES,
    InvariantBundle,
    R_and_K_transformation_check,
    T_tilde,
    W_star,
    build_W_matrix,
    difference_table,
    family_span_dimension,
    sigma_coeff_matrix,
    torsion_cd_difference_check,
)
from eqlab.jets import jet_add, jet_mul, jet_partial
from eqlab.linalg import (
    RationalMatrix,
    generic_rank,
    random_substitution,
    rank_exact,
)
from eqlab.mapping import (
    FactorizationMismatch,
    basic_equation_residual,
    gamma_diff_factorized,
    synthesize_instance,
)
from eqlab.tensors import (
    DOWN,
    UP,
    base_numerators,
    random_field,
    tensor_add,
    tensor_scale,
    tensor_sub,
    transpose,
)

DIMS = range(2, 7)
LABELS = range(1, 9)
PAIRS_PER_KIND = 20

CURVATURE_SRC = ("d(Gamma[^i,_j,_m],_n) - d(Gamma[^i,_j,_n],_m)"
                 " + Gamma[^a,_j,_m]*Gamma[^i,_a,_n]"
                 " - Gamma[^a,_j,_n]*Gamma[^i,_a,_m]")


def announce(number: int, label: str, problems: list[str]) -> None:
    status = "FAIL" if problems else "PASS"
    print(f"acceptance {number:02d} {status}  {label}")
    assert not problems, "; ".join(problems)


@pytest.fixture(scope="module")
def pairs_dim2():
    """Twenty exact witnesses per kind in the smallest dimension."""
    return {kind: [synthesize_instance(2, kind, seed)
                   for seed in range(PAIRS_PER_KIND)]
            for kind in (1, 2)}


@pytest.fixture(scope="module")
def pairs_dim3():
    """Three-dimensional witnesses; the span claims collapse below
    dimension three, so these carry the independence checks."""
    return [synthesize_instance(3, 1, 0), synthesize_instance(3, 2, 1)]


def test_criterion_01_sigma_coefficient_matrix_rank():
    problems = []
    for n in DIMS:
        observed = rank_exact(sigma_coeff_matrix(n))
        if observed != 4:
            problems.append(f"dim {n}: rank {observed} != 4")
    announce(1, "sigma coefficient matrix has exact rank 4 for dims 2..6",
             problems)


def test_criterion_02_family_matrix_generic_rank(pairs_dim3):
    problems = []
    for n in DIMS:
        observed = generic_rank(build_W_matrix(n), trials=5, seed=0)
        if observed != 6:
            problems.append(f"dim {n}: generic rank {observed} != 6")
    span = family_span_dimension(pairs_dim3, seed=1)
    if span != 6:
        problems.append(f"sampled family span {span} != 6")
    announce(2, "family matrix has generic rank 6 for dims 2..6 and the "
                "sampled span on generic instances matches", problems)


def test_criterion_03_curvature_family_independence():
    span = curvature_family_span(3, seed=0)
    problems = [] if span == 5 else [f"span {span} != 5"]
    announce(3, "the five curvature-family directions are independent "
                "over 10 random connections", problems)


def test_criterion_04_w_star_invariance(pairs_dim2):
    problems = []
    for kind, pairs in pairs_dim2.items():
        for seed, pair in enumerate(pairs):
            residual = tensor_sub(W_star(pair.source, pair.mapping, kind),
                                  W_star(pair.target, pair.inverse(), kind))
            if not residual.is_zero():
                problems.append(f"kind {kind} seed {seed}")
    announce(4, f"W* agrees exactly across {PAIRS_PER_KIND} mapped pairs "
                "per kind", problems)


def test_criterion_05_family_invariance_all_cells(pairs_dim2):
    problems = []
    rng = random.Random(53)
    draws = [random_substitution(PARAM_NAMES, rng) for _ in range(3)]
    for kind, pairs in pairs_dim2.items():
        pair = pairs[0]
        src = InvariantBundle(pair.source, pair.mapping)
        tgt = InvariantBundle(pair.target, pair.inverse())
        for i, values in enumerate(draws):
            args = tuple(values[name] for name in PARAM_NAMES)
            for p in LABELS:
                for q in LABELS:
                    if src.family(kind, p, q, *args) != tgt.family(
                            kind, p, q, *args):
                        problems.append(f"kind {kind} draw {i} "
                                        f"cell ({p},{q})")
    announce(5, "all 64 families per kind agree at 3 random parameter "
                "draws", problems)


def test_criterion_06_exact_identity_suite(pairs_dim2, pairs_dim3):
    problems = []
    rng = random.Random(11)
    instances = [pairs_dim2[1][0], pairs_dim2[2][0]] + list(pairs_dim3)
    for pair in instances:
        dim, kind = pair.source.dim, pair.mapping.kind
        tag = f"dim {dim} kind {kind}"
        m_bar = pair.inverse()
        if not basic_equation_residual(pair.source, pair.mapping).is_zero():
            problems.append(f"{tag}: defining equation fails on the source")
        if not basic_equation_residual(pair.target, m_bar).is_zero():
            problems.append(f"{tag}: defining equation fails on the target")
        try:
            gamma_diff_factorized(pair, m_bar)
        except FactorizationMismatch:
            problems.append(f"{tag}: symmetric difference factorization")
        src = InvariantBundle(pair.source, pair.mapping)
        tgt = InvariantBundle(pair.target, m_bar)
        base = {"dim": dim, "kind": kind}
        table = difference_table(src, tgt, kind, LABELS, LABELS)
        for report in torsion_cd_difference_check(src, tgt, LABELS, table,
                                                   base):
            if not report.passed:
                problems.append(f"{tag}: torsion derivative difference "
                                f"at p={report.params['p']}")
        values = random_substitution(PARAM_NAMES, rng)
        grid = tuple(LABELS) if dim == 2 else (1, 4, 8)
        if not correlation_check(src, kind, grid, grid, values, {}).passed:
            problems.append(f"{tag}: family correlation")
        transformation = R_and_K_transformation_check(
            table, 2, 7, values["u"], values["u'"], base)
        if not transformation.passed:
            problems.append(f"{tag}: curvature transformation")
    announce(6, "the identity suite holds exactly on dim-2 and dim-3 "
                "instances of both kinds", problems)


def test_criterion_07_t_tilde_invariance_and_span(pairs_dim2, pairs_dim3):
    problems = []
    for kind, pairs in pairs_dim2.items():
        pair = pairs[0]
        m_bar = pair.inverse()
        for rho in LABELS:
            lhs = T_tilde(pair.source, pair.mapping, rho)
            if lhs != T_tilde(pair.target, m_bar, rho):
                problems.append(f"dim 2 kind {kind} rho {rho}")
    for pair in pairs_dim3:
        m_bar = pair.inverse()
        for rho in (1, 8):
            lhs = T_tilde(pair.source, pair.mapping, rho)
            if lhs != T_tilde(pair.target, m_bar, rho):
                problems.append(f"dim 3 kind {pair.mapping.kind} rho {rho}")
    rows = []
    for rho in LABELS:
        row = []
        for pair in pairs_dim3:
            deviation = tensor_sub(
                T_tilde(pair.source, pair.mapping, rho),
                pair.source.torsion_cd())
            row.append(base_numerators(deviation))
        rows.append(row)
    span = rank_exact(RationalMatrix.from_runs(rows))
    if span != 4:
        problems.append(f"combination span {span} != 4")
    announce(7, "T-tilde agrees across each mapping and its eight "
                "combinations span 4 directions", problems)


def test_criterion_08_negative_control_detects_sign_fault(pairs_dim2):
    passed, checks, _ = run_verify_suite(
        [(0, pairs_dim2[1][0])], p_values=[1], q_values=[1], draws=1,
        corrupt="psi-sign")
    failing = {c.check for c in checks if not c.passed}
    problems = []
    if passed:
        problems.append("corrupted inverse still passes the suite")
    if "W_invariance" not in failing:
        problems.append("W invariance misses the flipped sign")
    announce(8, "flipping the sign of the inverse psi is detected",
             problems)


def test_criterion_09_dsl_curvature_matches_builtin():
    plan = parse(CURVATURE_SRC)
    problems = []
    for seed in range(10):
        s = random_connection(3, 2, seed)
        if evaluate(plan, {"Gamma": s.sym()}) != curvature_R(s):
            problems.append(f"seed {seed}")
    announce(9, "curvature entered as expression text matches the "
                "built-in on 10 random spaces", problems)


def test_criterion_10_algebra_property_suites():
    problems = []
    rng = random.Random(2026)
    for case in range(100):
        dim = rng.choice((2, 3))
        a, b, c = (random_field(rng, dim, (), 2)[()] for _ in range(3))
        if jet_add(jet_add(a, b), c) != jet_add(a, jet_add(b, c)):
            problems.append(f"jet case {case}: addition associativity")
        if jet_mul(a, b) != jet_mul(b, a):
            problems.append(f"jet case {case}: product commutativity")
        if jet_mul(a, jet_add(b, c)) != jet_add(jet_mul(a, b),
                                                jet_mul(a, c)):
            problems.append(f"jet case {case}: distributivity")
        k = rng.randrange(dim)
        if jet_partial(jet_mul(a, b), k) != jet_add(
                jet_mul(jet_partial(a, k), b),
                jet_mul(a, jet_partial(b, k))):
            problems.append(f"jet case {case}: Leibniz rule")
        j = rng.randrange(dim)
        if jet_partial(jet_partial(a, j), k) != jet_partial(
                jet_partial(a, k), j):
            problems.append(f"jet case {case}: mixed partials")
    for case in range(100):
        dim = rng.choice((2, 3))
        t = random_field(rng, dim, (DOWN, DOWN), 2)
        u = random_field(rng, dim, (UP, DOWN), 2)
        v = random_field(rng, dim, (UP, DOWN), 2)
        s = random_connection(dim, 2, case)
        if (tensor_add(s.sym(), s.torsion()) != s.gamma
                or not tensor_add(s.torsion(),
                                  transpose(s.torsion(), (0, 2, 1))).is_zero()):
            problems.append(f"tensor case {case}: pair decomposition")
        if tensor_add(u, v) != tensor_add(v, u):
            problems.append(f"tensor case {case}: addition commutativity")
        if tensor_scale(2, tensor_add(u, v)) != tensor_add(
                tensor_scale(2, u), tensor_scale(2, v)):
            problems.append(f"tensor case {case}: scaling distributivity")
        if transpose(transpose(t, (1, 0)), (1, 0)) != t:
            problems.append(f"tensor case {case}: transpose involution")
    announce(10, "jet and tensor algebra identities hold on 100 random "
                 "cases each", problems)
