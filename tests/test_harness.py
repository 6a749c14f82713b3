"""The verify grids decide each distinct cell once.

The correlation grid reports one residual for every cell, and the
family-invariance grid sums each distinct pair of label differences once.
Both are held here against a cell-by-cell reference that sums every cell
on its own, on a passing instance, under the ``psi-sign`` fault, and on
bundles whose sigma differences differ from label to label.  A fault
matrix pins which checks each wrong field of the inverse mapping and a
wrong target connection fail, and that a wrong source torsion is refused
before any check; ``synth`` is held to one basic-equation residual per
pair.
"""

from collections import Counter
from fractions import Fraction

import pytest

from eqlab import harness, mapping
from eqlab.geometry import (GAMMA_VALENCE, Keeper, Space, curvature_K,
                            torsion_square_terms)
from eqlab.harness import (
    _keyed_differences,
    correlation_check,
    corrupted_inverse,
    family_invariance_check,
    sigma_differences,
    verify_instance,
)
from eqlab.invariants import PARAM_NAMES, InvariantBundle, VerificationReport
from eqlab.jets import JetScalar
from eqlab.mapping import (AG3Mapping, BasicEquationError, MappedPair,
                           synthesize_instance)
from eqlab.tensors import (TensorField, tensor_add, tensor_lincomb, tensor_sub,
                           transpose)

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
             (u, bundle.sigma(p)), (up, bundle.sigma_swapped(q))]))


def _reference_family(src, tgt, which, p_values, q_values, values):
    params = [values[name] for name in PARAM_NAMES]
    u, up = params[:2]
    common = tensor_lincomb(
        [(1, curvature_K(src.space, *params)), (1, src.correction(which)),
         (-1, curvature_K(tgt.space, *params)), (-1, tgt.correction(which))])
    return _reference(
        "family_invariance", {"which": which, "draw": 0}, values, p_values,
        q_values,
        lambda p, q: tensor_lincomb(
            [(1, common), (-u, tensor_sub(src.sigma(p), tgt.sigma(p))),
             (-up, tensor_sub(src.sigma_swapped(q),
                              tgt.sigma_swapped(q)))]))


def _assert_same(report, expected):
    assert report.passed == expected.passed
    assert report.params == expected.params
    assert (report.max_abs_residual_num_digits
            == expected.max_abs_residual_num_digits)
    assert report.to_json()["residual"] == expected.to_json()["residual"]


@pytest.mark.parametrize("case", ["passing", "psi-sign", "unrelated"])
@pytest.mark.parametrize("grid", range(len(GRIDS)))
def test_grids_match_the_cell_by_cell_reference(case, grid, pair, unrelated):
    p_values, q_values = GRIDS[grid]
    src, tgt = _sides(case, pair, unrelated)
    differences = sigma_differences(src, tgt, p_values, q_values)
    for values in VALUES:
        _assert_same(
            correlation_check(src, 1, p_values, q_values, values, {}),
            _reference_correlation(src, 1, p_values, q_values, values))
        expected = _reference_family(src, tgt, 1, p_values, q_values, values)
        _assert_same(family_invariance_check(src, tgt, 1, p_values, q_values,
                                             values, 0, {}, differences),
                     expected)
        assert expected.passed == (case == "passing")
    d_sigma, d_swapped = differences
    distinct = (len({id(d) for d in d_sigma.values()})
                * len({id(d) for d in d_swapped.values()}))
    if case == "passing":
        assert distinct == 1
    elif case == "unrelated":
        assert distinct > 1


def test_labels_are_keyed_by_the_first_equal_difference():
    a = TensorField.delta(2, 1)
    zero = TensorField.zero(2, a.valence, 1)
    values = {1: a, 2: zero, 3: a, 4: zero, 5: a}
    differences = _keyed_differences(
        [1, 2, 3, 4, 5, 3], values.__getitem__, lambda label: zero)
    assert differences == {1: a, 2: zero, 3: a, 4: zero, 5: a}
    assert differences[3] is differences[1] is differences[5]
    assert differences[4] is differences[2]


def test_grid_report_lists_the_cells_of_each_failing_residual():
    a = TensorField.delta(2, 1)
    zero = TensorField.zero(2, a.valence, 1)
    cells = [((1, 1), zero), ((1, 2), a), ((2, 1), zero), ((2, 2), a),
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
    differences = sigma_differences(src, tgt, LABELS, LABELS)
    calls = []

    def counted(terms):
        calls.append(len(terms))
        return tensor_lincomb(terms)

    monkeypatch.setattr(harness, "tensor_lincomb", counted)
    report = family_invariance_check(src, tgt, 1, LABELS, LABELS, VALUES[0],
                                     0, {}, differences)
    assert report.passed and report.params["cells"] == 64
    # the parameter-free part, then one sum for all 64 cells
    assert calls == [4, 3]


def test_verify_builds_no_family_member(monkeypatch, pair):
    def unused(self, *args):
        raise AssertionError("verify read a family member")

    monkeypatch.setattr(InvariantBundle, "family", unused)
    built = []

    def counted(*args):
        built.append(args)
        return sigma_differences(*args)

    monkeypatch.setattr(harness, "sigma_differences", counted)
    reports, _ = verify_instance(pair, 0, LABELS, LABELS, 3)
    assert all(report.passed for report in reports)
    # the label differences are built once for the three draws
    assert len(built) == 1


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
                             JetScalar.constant(dim, order, shifts.get(idx, 0)))
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
