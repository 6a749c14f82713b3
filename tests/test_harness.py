"""The verify grids decide each distinct cell once.

The correlation grid reports one residual for every cell, and the
family-invariance grid sums each distinct pair of label differences once.
Both are held here against a cell-by-cell reference that sums every cell
on its own, on a passing instance, under the ``psi-sign`` fault, and on
bundles whose sigma differences differ from label to label.  There the
torsion-derivative, T-tilde and curvature-transformation checks, which
read the same table of differences, are held against sigma read on each
side.  The family and curvature-transformation checks, which sum K - R
from its torsion terms, are held against K + (W - R) built on each
side, also where the two torsions differ; verify builds K once per
instance.  README's restatements of T-tilde, family and curvature-
transformation residuals through the other checks' residuals are held
report by report, and tcd's and T-tilde's residuals are built once per
distinct sigma difference.  A fault matrix pins which checks each wrong field of the
inverse mapping and a wrong target connection fail, and that a wrong
source torsion is refused before any check; ``synth`` is held to one
basic-equation residual per pair.
"""

import sys
from collections import Counter
from fractions import Fraction

import pytest

from eqlab import geometry, harness, invariants, mapping
from eqlab.geometry import (GAMMA_VALENCE, Keeper, Space, curvature_K,
                            k_torsion_terms, torsion_square_terms)
from eqlab.harness import (
    correlation_check,
    corrupted_inverse,
    family_invariance_check,
    synthesized_pairs,
    t_tilde_invariance_check,
    verify_instance,
)
from eqlab.invariants import (PARAM_NAMES, RK_SQUARE_PARAMS, InvariantBundle,
                              R_and_K_transformation_check,
                              VerificationReport, _keyed_differences,
                              difference_table, torsion_cd_difference_check)
from eqlab.mapping import (AG3Mapping, BasicEquationError, MappedPair,
                           synthesize_instance)
from eqlab.tensors import (TensorField, tensor_add, tensor_lincomb,
                           tensor_neg, tensor_sub, transpose)
from helpers import const, sigma_star, t_tilde, zero

LABELS = list(range(1, 9))
GRIDS = [(LABELS, LABELS), ([2, 5, 8], [1, 4]), ([3, 3, 6], [7, 2, 7])]
VALUES = [
    dict(zip(PARAM_NAMES, (Fraction(3), Fraction(-1, 2), Fraction(2),
                           Fraction(1, 3), Fraction(-4)))),
    # a zero u' drops the swapped sigma term from every sum
    dict(zip(PARAM_NAMES, (Fraction(5, 7), Fraction(0), Fraction(-2),
                           Fraction(1), Fraction(7, 3)))),
]


@pytest.fixture(scope="module")
def pair():
    return synthesize_instance(2, 1, seed=1)


@pytest.fixture(scope="module")
def unrelated():
    return synthesize_instance(2, 1, seed=4)


def _bundle(space, mapping):
    # the order verify builds its bundles at: one below the data
    return InvariantBundle(space, mapping, max(space.gamma.order - 1, 0))


def _sides(case, pair, unrelated):
    src = _bundle(pair.source, pair.mapping)
    if case == "passing":
        tgt = _bundle(pair.target, pair.inverse())
    elif case == "psi-sign":
        tgt = _bundle(pair.target, corrupted_inverse(pair))
    else:
        tgt = _bundle(unrelated.target, unrelated.inverse())
    return src, tgt


def _reference(check, head, values, p_values, q_values, residual_at):
    """The report the grid gave when it summed every cell on its own."""
    failed, residuals = [], []
    for p in p_values:
        for q in q_values:
            residual = residual_at(p, q)
            if not residual.is_zero():
                failed.append([p, q])
            residuals.append(residual)
    params = {**head, "cells": len(residuals), "failed_cells": failed}
    params.update({name: values[name] for name in PARAM_NAMES})
    return VerificationReport.from_residuals(check, params, residuals)


def _reference_correlation(bundle, which, p_values, q_values, values):
    u, up, v, vp, w = (values[name] for name in PARAM_NAMES)
    cd = bundle.space.torsion_cd()
    v_term, vp_term, w_term = torsion_square_terms(bundle.space)
    fixed = tensor_lincomb([(1, bundle.w_star(which)), (u, cd),
                            (up, transpose(cd, (0, 1, 3, 2))), (v, v_term),
                            (vp, vp_term), (w, w_term)])
    return _reference(
        "correlation", {"which": which}, values, p_values, q_values,
        lambda p, q: tensor_lincomb(
            [(1, bundle.family(which, p, q, u, up, v, vp, w)), (-1, fixed),
             (u, bundle.sigma(p)), (up, sigma_star(bundle, q))]))


def _reference_family(src, tgt, which, p_values, q_values, values):
    params = [values[name] for name in PARAM_NAMES]
    u, up = params[:2]
    # K + (W - R) on each side, with W - R written out
    common = tensor_lincomb(
        [(1, curvature_K(src.space, *params)), (1, src.w_star(which)),
         (-1, src.space.curvature()), (-1, curvature_K(tgt.space, *params)),
         (-1, tgt.w_star(which)), (1, tgt.space.curvature())])
    return _reference(
        "family_invariance", {"which": which, "draw": 0}, values, p_values,
        q_values,
        lambda p, q: tensor_lincomb(
            [(1, common), (-u, tensor_sub(src.sigma(p), tgt.sigma(p))),
             (-up, tensor_sub(sigma_star(src, q), sigma_star(tgt, q)))]))


def _table_route(monkeypatch, src, tgt, p_values, q_values, table, values):
    """The torsion-derivative, T-tilde and curvature-transformation
    reports over the grid, each reading ``table``, with the residuals each
    report was built from: the last is the one that reads sigma."""
    u, up = values["u"], values["u'"]
    captured = []
    from_residuals = VerificationReport.from_residuals.__func__

    def capture(cls, check, params, residuals):
        captured.append(tuple(residuals))
        return from_residuals(cls, check, params, captured[-1])

    with monkeypatch.context() as patch:
        patch.setattr(VerificationReport, "from_residuals",
                      classmethod(capture))
        reports = (
            torsion_cd_difference_check(src, tgt, p_values, table, {})
            + t_tilde_invariance_check(p_values, table, {})
            + [R_and_K_transformation_check(table, p, q, u, up, {})
               for p in p_values for q in q_values])
    return [(r.check, r.params, residuals[-1])
            for r, residuals in zip(reports, captured)]


def _reference_per_side(src, tgt, p_values, q_values, values):
    """What ``_table_route`` gives, with sigma and swapped sigma read on
    each side and T-tilde built on each side."""
    u, up = values["u"], values["u'"]
    v, vp, w = RK_SQUARE_PARAMS
    lhs = tensor_sub(tgt.space.torsion_cd(), src.space.torsion_cd())
    # W and the five torsion terms of K - R, target less source
    exchanged = ([(1, tgt.w_star(1)), (-1, src.w_star(1))]
                 + list(zip((u, up, v, vp, w), k_torsion_terms(tgt.space)))
                 + [(-theta, term) for theta, term
                    in zip((u, up, v, vp, w), k_torsion_terms(src.space))])
    return (
        [("torsion_cd_difference", {"p": p}, tensor_lincomb(
            [(1, lhs), (-1, tgt.sigma(p)), (1, src.sigma(p))]))
         for p in p_values]
        + [("T_tilde_invariance", {"rho": rho},
            tensor_sub(t_tilde(src, rho), t_tilde(tgt, rho)))
           for rho in p_values]
        + [("R_K_transformation",
            {"which": 1, "p": p, "q": q, "u": u, "u'": up, "v": v, "v'": vp,
             "w": w},
            tensor_lincomb(
                exchanged
                + [(-u, tgt.sigma(p)), (u, src.sigma(p)),
                   (-up, sigma_star(tgt, q)), (up, sigma_star(src, q))]))
           for p in p_values for q in q_values])


def _assert_same(report, expected):
    assert report.passed == expected.passed
    assert report.params == expected.params
    assert (report.max_abs_residual_num_digits
            == expected.max_abs_residual_num_digits)
    assert report.to_json()["residual"] == expected.to_json()["residual"]


@pytest.mark.parametrize("case", ["passing", "psi-sign", "unrelated"])
@pytest.mark.parametrize("grid", range(len(GRIDS)))
def test_grids_match_the_cell_by_cell_reference(monkeypatch, case, grid, pair,
                                                unrelated):
    p_values, q_values = GRIDS[grid]
    src, tgt = _sides(case, pair, unrelated)
    table = difference_table(src, tgt, 1, p_values, q_values)
    for values in VALUES:
        _assert_same(
            correlation_check(src, 1, p_values, q_values, values, {}),
            _reference_correlation(src, 1, p_values, q_values, values))
        expected = _reference_family(src, tgt, 1, p_values, q_values, values)
        _assert_same(family_invariance_check(table, p_values, q_values,
                                             values, 0, {}),
                     expected)
        assert expected.passed == (case == "passing")
        route = _table_route(monkeypatch, src, tgt, p_values, q_values,
                             table, values)
        reference = _reference_per_side(src, tgt, p_values, q_values, values)
        assert route == reference
        assert (all(residual.is_zero() for _, _, residual in reference)
                == (case == "passing"))
    distinct = (len({id(d) for d in table.sigma.values()})
                * len({id(d) for d in table.swapped.values()}))
    if case == "passing":
        assert distinct == 1
    elif case == "unrelated":
        assert distinct > 1


def test_labels_are_keyed_by_the_first_equal_difference():
    a = TensorField.delta(2, 1)
    z = zero(2, a.valence, 1)
    values = {1: a, 2: z, 3: a, 4: z, 5: a}
    differences = _keyed_differences(
        [1, 2, 3, 4, 5, 3], values.__getitem__, lambda label: z)
    assert differences == {1: a, 2: z, 3: a, 4: z, 5: a}
    assert differences[3] is differences[1] is differences[5]
    assert differences[4] is differences[2]


def test_grid_report_lists_the_cells_of_each_failing_residual():
    a = TensorField.delta(2, 1)
    z = zero(2, a.valence, 1)
    cells = [((1, 1), z), ((1, 2), a), ((2, 1), z), ((2, 2), a),
             ((2, 2), a)]
    report = harness._grid_report("family_invariance", {"draw": 0},
                                  VALUES[0], cells)
    assert not report.passed
    assert report.params["cells"] == 5
    assert report.params["failed_cells"] == [[1, 2], [2, 2], [2, 2]]
    assert report.residual is a
    assert report.max_abs_residual_num_digits == 1


def test_passing_grid_sums_one_cell_per_draw(monkeypatch, pair):
    src, tgt = _sides("passing", pair, None)
    table = difference_table(src, tgt, 1, LABELS, LABELS)
    calls = []

    def counted(terms):
        calls.append(len(terms))
        return tensor_lincomb(terms)

    for module in (harness, invariants):
        monkeypatch.setattr(module, "tensor_lincomb", counted)
    report = family_invariance_check(table, LABELS, LABELS, VALUES[0], 0, {})
    assert report.passed and report.params["cells"] == 64
    # the label-free part (the W difference and the five torsion-term
    # differences of the table), then one sum for all 64 cells
    assert calls == [6, 3]


@pytest.mark.parametrize("draws", [1, 3])
def test_verify_builds_curvature_K_once_per_instance(monkeypatch, pair,
                                                     draws):
    """Only ``correlation``, which holds ``curvature_K`` to its definition,
    builds K; the family and curvature-transformation checks sum K - R
    from its torsion terms, whatever the number of draws."""
    built = []
    original = geometry.curvature_K

    def counted(*args):
        built.append(args)
        return original(*args)

    for module in (geometry, invariants, harness):
        if getattr(module, "curvature_K", None) is original:
            monkeypatch.setattr(module, "curvature_K", counted)
    reports, _ = verify_instance(pair, 0, LABELS, LABELS, draws)
    assert all(report.passed for report in reports)
    assert len(built) == 1


def test_verify_builds_no_family_member(monkeypatch, pair):
    """Every check that compares the two sides reads the one table of
    differences."""
    def unused(self, *args):
        raise AssertionError("verify read a family member")

    monkeypatch.setattr(InvariantBundle, "family", unused)
    built = []

    def counted(*args):
        built.append(args)
        return difference_table(*args)

    monkeypatch.setattr(harness, "difference_table", counted)
    reports, _ = verify_instance(pair, 0, LABELS, LABELS, 3)
    assert all(report.passed for report in reports)
    # the table is built once for the three draws
    assert len(built) == 1


def _verify_residuals(monkeypatch, pair, corrupt=None):
    """``verify_instance`` over the full grid at one draw, as
    {check: [(params, residuals)]}: each report with the residuals it was
    built from, a grid report with its residual per cell."""
    captured, grids = [], []
    from_residuals = VerificationReport.from_residuals.__func__
    grid_report = harness._grid_report

    def capture(cls, check, params, residuals):
        captured.append(tuple(residuals))
        return from_residuals(cls, check, params, captured[-1])

    def capture_grid(check, head, values, cells):
        grids.append(dict(cells))
        return grid_report(check, head, values, cells)

    with monkeypatch.context() as patch:
        patch.setattr(VerificationReport, "from_residuals",
                      classmethod(capture))
        patch.setattr(harness, "_grid_report", capture_grid)
        reports, _ = verify_instance(pair, 0, LABELS, LABELS, 1, corrupt)
    by_check, cells = {}, iter(grids)
    for report, residuals in zip(reports, captured, strict=True):
        if "cells" in report.params:
            residuals = next(cells)
        by_check.setdefault(report.check, []).append(
            (report.params, residuals))
    return by_check


def _unrelated_target(pair, unrelated):
    return MappedPair(pair.source, pair.mapping, unrelated.target)


@pytest.mark.parametrize("case", ["psi-sign", "unrelated"])
def test_the_restated_checks_combine_the_other_residuals(monkeypatch, case,
                                                         pair, unrelated):
    """README's restatement identities, report by report, where the
    residuals are nonzero: T-tilde at rho is minus tcd's second residual
    at p = rho; a family cell is the W residual less u tcd(p) and u'
    tcd*(q), plus the v, v' and w multiples of the torsion-square
    differences; R_K's residuals are minus the W residual and minus the
    family cell at its one cell."""
    if case == "psi-sign":
        checked, corrupt = pair, "psi-sign"
    else:
        checked, corrupt = _unrelated_target(pair, unrelated), None
    by_check = _verify_residuals(monkeypatch, checked, corrupt)
    tcd = {params["p"]: residuals[1]
           for params, residuals in by_check["torsion_cd_difference"]}
    [(_, (w_residual,))] = by_check["W_invariance"]
    squares = [tensor_sub(a, b) for a, b in zip(
        torsion_square_terms(checked.source),
        torsion_square_terms(checked.target))]
    assert not w_residual.is_zero()
    if case == "unrelated":
        assert not any(residual.is_zero() for residual in tcd.values())
        assert not any(square.is_zero() for square in squares)

    def cell(params, p, q):
        u, up, v, vp, w = (params[name] for name in PARAM_NAMES)
        return tensor_lincomb(
            [(1, w_residual), (-u, tcd[p]),
             (-up, transpose(tcd[q], (0, 1, 3, 2)))]
            + list(zip((v, vp, w), squares)))

    for params, (residual,) in by_check["T_tilde_invariance"]:
        assert residual == tensor_neg(tcd[params["rho"]])
    [(params, cells)] = by_check["family_invariance"]
    assert len(cells) == 64
    for (p, q), residual in cells.items():
        assert residual == cell(params, p, q)
    [(params, (residual_r, residual_k))] = by_check["R_K_transformation"]
    assert residual_r == tensor_neg(w_residual)
    assert residual_k == tensor_neg(cell(params, params["p"], params["q"]))


@pytest.mark.parametrize("case", ["passing", "unrelated"])
def test_each_distinct_residual_is_built_once(monkeypatch, case, pair,
                                              unrelated):
    """tcd's second residual and T-tilde's are built once per distinct
    sigma difference, not once per label: on a passing instance, one
    object each serves all eight reports."""
    checked = pair if case == "passing" else _unrelated_target(pair,
                                                               unrelated)
    by_check = _verify_residuals(monkeypatch, checked)
    for check, position in (("torsion_cd_difference", 1),
                            ("T_tilde_invariance", 0)):
        residuals = [residuals[position]
                     for _, residuals in by_check[check]]
        assert len(residuals) == 8
        assert len({id(residual) for residual in residuals}) == len(
            set(residuals))
        assert (len(set(residuals)) == 1) == (case == "passing")


def test_each_space_transposes_gamma_and_its_torsion_derivative_once(
        monkeypatch):
    """One verify instance transposes each space's connection by (0, 2, 1)
    at most once, for its symmetric part, and its torsion derivative by
    (0, 1, 3, 2) once, for the m/n swap that every reader of the K terms
    shares.  Counted per (object, permutation) through every module
    binding of ``transpose``."""
    calls = []

    def counted(a, perm):
        calls.append((a, tuple(perm)))
        return transpose(a, perm)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "eqlab"
                and getattr(module, "transpose", None) is transpose):
            monkeypatch.setattr(module, "transpose", counted)
    [(label, pair)] = synthesized_pairs(3, 1, [0])
    verify_instance(pair, label, LABELS, LABELS, 3)

    def count(tensor, perm):
        return sum(a is tensor and p == perm for a, p in calls)

    for space in (pair.source, pair.target):
        assert count(space.gamma, (0, 2, 1)) <= 1
        assert count(space.torsion_cd(), (0, 1, 3, 2)) == 1


def test_kept_results_do_not_grow_with_draws(monkeypatch):
    """A kept result is keyed by labels, never by a parameter draw, so a
    run with more draws keeps no more results."""
    misses = []
    cached = Keeper._cached

    def counted(self, key, compute):
        if key not in self._cache:
            misses.append(key[0])
        return cached(self, key, compute)

    monkeypatch.setattr(Keeper, "_cached", counted)
    kept = {}
    for draws in (1, 4):
        misses.clear()
        # a fresh pair, so its spaces keep nothing from the other run
        verify_instance(synthesize_instance(2, 1, seed=1), 0, [1, 2], [3],
                        draws)
        kept[draws] = Counter(misses)
    assert kept[4] == kept[1]


VALUE_CHECKS = {"W_invariance", "family_invariance", "R_K_transformation"}
# correlation reads the source bundle alone, so no inverse field reaches it
ALL_BUT_CORRELATION = VALUE_CHECKS | {"torsion_cd_difference",
                                      "sym_difference_factorization",
                                      "T_tilde_invariance"}


@pytest.mark.parametrize("field, failing", [
    # psi-bar enters no check: W*, eta and T-tilde never read it
    ("psi", set()),
    ("nu", VALUE_CHECKS),
    ("mu", VALUE_CHECKS),
    ("sigma", ALL_BUT_CORRELATION),
    ("phi", ALL_BUT_CORRELATION),
])
def test_each_wrong_inverse_field_fails_its_checks(monkeypatch, pair, field,
                                                   failing):
    """The inverse mapping with one field doubled, over the full grid and
    one draw: the set of check kinds that fail is pinned per field."""
    inverse = MappedPair.inverse

    def faulty(self):
        m = inverse(self)
        fields = {name: getattr(m, name)
                  for name in ("psi", "sigma", "phi", "nu", "mu")}
        fields[field] = tensor_lincomb([(2, fields[field])])
        return AG3Mapping(**fields, kind=m.kind)

    monkeypatch.setattr(MappedPair, "inverse", faulty)
    reports, _ = verify_instance(pair, 0, LABELS, LABELS, 1)
    assert {r.check for r in reports if not r.passed} == failing


def _shifted(space: Space, shifts: dict) -> Space:
    """The space with ``shifts[i, j, k]`` added to the constant term of
    Gamma^i_jk."""
    dim, order = space.dim, space.gamma.order
    bump = TensorField.build(dim, GAMMA_VALENCE, lambda idx:
                             const(dim, order, shifts.get(idx, 0)))
    return Space(dim, tensor_add(space.gamma, bump))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("shifts, failing", [
    ({}, set()),
    # Gamma^1_11, diagonal in its lower slots: bench's bad-target.json fault
    ({(0, 0, 0): 1}, ALL_BUT_CORRELATION),
], ids=["image", "gamma111-plus-1"])
def test_a_wrong_target_connection_fails_its_checks(dim, shifts, failing):
    """A hand-built pair, whose target is checked against nothing, over
    the full grid and one draw: the failing check kinds are pinned."""
    good = synthesize_instance(dim, 1, seed=0)
    pair = MappedPair(good.source, good.mapping, _shifted(good.target, shifts))
    reports, _ = verify_instance(pair, 0, LABELS, LABELS, 1)
    assert {r.check for r in reports if not r.passed} == failing


@pytest.mark.parametrize("dim", [2, 3])
def test_a_wrong_source_torsion_is_refused_before_any_check(dim):
    """Gamma^1_12 + 1 and Gamma^1_21 - 1 change the source torsion alone;
    the mapping then misses its basic equation on that source, and the
    pair's inverse refuses it, so this fault never reaches a check."""
    good = synthesize_instance(dim, 1, seed=0)
    source = _shifted(good.source, {(0, 0, 1): 1, (0, 1, 0): -1})
    pair = MappedPair(source, good.mapping, good.target)
    with pytest.raises(BasicEquationError, match="residual is nonzero"):
        verify_instance(pair, 0, LABELS, LABELS, 1)


def _k_route_member(bundle, which, p, q, params):
    """K + (W - R) - u sigma_p - u' sigma*_q, K from ``curvature_K``."""
    return tensor_lincomb(
        [(1, curvature_K(bundle.space, *params)), (1, bundle.w_star(which)),
         (-1, bundle.space.curvature()), (-params[0], bundle.sigma(p)),
         (-params[1], sigma_star(bundle, q))])


@pytest.mark.parametrize("dim, kind", [(2, 1), (3, 2)])
def test_unequal_torsion_keeps_the_k_route_residuals(monkeypatch, dim, kind):
    """A hand-built target whose torsion differs from the source's, so
    the torsion-square differences do not vanish: every family cell and
    both curvature-transformation residuals equal the route that builds
    K + (W - R) on each side."""
    good = synthesize_instance(dim, kind, seed=0)
    target = _shifted(good.target, {(0, 0, 1): 1, (0, 1, 0): -1})
    src = _bundle(good.source, good.mapping)
    tgt = _bundle(target, good.inverse())
    for square, square_bar in zip(torsion_square_terms(src.space),
                                  torsion_square_terms(tgt.space)):
        assert square != square_bar
    values = VALUES[0]
    params = [values[name] for name in PARAM_NAMES]
    grids = []
    monkeypatch.setattr(harness, "_grid_report",
                        lambda check, head, values, cells: grids.append(cells))
    family_invariance_check(difference_table(src, tgt, kind, LABELS, LABELS),
                            LABELS, LABELS, values, 0, {})
    (cells,) = grids
    assert len(cells) == 64
    for (p, q), residual in cells:
        assert residual == tensor_sub(
            _k_route_member(src, kind, p, q, params),
            _k_route_member(tgt, kind, p, q, params))

    captured = []
    from_residuals = VerificationReport.from_residuals.__func__

    def capture(cls, check, head, residuals):
        captured.append(tuple(residuals))
        return from_residuals(cls, check, head, captured[-1])

    monkeypatch.setattr(VerificationReport, "from_residuals",
                        classmethod(capture))
    u, up = params[:2]
    report = R_and_K_transformation_check(
        difference_table(src, tgt, kind, [3], [6]), 3, 6, u, up, {})
    (residual_r, residual_k), = captured
    k_params = (u, up, *RK_SQUARE_PARAMS)
    corrections = [(-1, src.w_star(kind)), (1, src.space.curvature()),
                   (1, tgt.w_star(kind)), (-1, tgt.space.curvature())]
    assert residual_r == tensor_lincomb(
        [(1, tgt.space.curvature()), (-1, src.space.curvature())]
        + corrections)
    assert residual_k == tensor_lincomb(
        [(1, curvature_K(tgt.space, *k_params)),
         (-1, curvature_K(src.space, *k_params))] + corrections
        + [(-u, tgt.sigma(3)), (u, src.sigma(3)),
           (-up, sigma_star(tgt, 6)), (up, sigma_star(src, 6))])
    assert not report.passed


def test_synth_computes_one_residual_per_pair(monkeypatch):
    """The certificate states the residual that building the pair proved
    zero; it is not computed a second time."""
    residual = mapping.basic_equation_residual
    calls = []

    def counted(*args):
        calls.append(args)
        return residual(*args)

    for module in (mapping, harness):
        if getattr(module, "basic_equation_residual", None) is residual:
            monkeypatch.setattr(module, "basic_equation_residual", counted)
    doc = harness.synth_document(2, 1, seed=0)
    assert len(calls) == 1
    assert doc["certificate"] == {
        "check": "basic_equation_residual",
        "params": {"dim": 2, "kind": 1, "seed": 0, "order": 2},
        "pass": True, "max_abs_residual_num_digits": 0, "residual": None,
        "rank": None}
