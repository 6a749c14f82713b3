"""The verify grids decide each distinct cell once.

The correlation grid reports one residual for every cell, and the
family-invariance grid sums each distinct pair of label differences once.
Both are held here against a cell-by-cell reference that sums every cell
on its own, on a passing instance, under the ``psi-sign`` fault, and on
bundles whose sigma differences differ from label to label.
"""

from fractions import Fraction

import pytest

from eqlab import harness
from eqlab.geometry import torsion_square_terms
from eqlab.harness import (
    _keyed_differences,
    correlation_check,
    corrupted_inverse,
    family_invariance_check,
    sigma_differences,
    verify_instance,
)
from eqlab.invariants import PARAM_NAMES, InvariantBundle, VerificationReport
from eqlab.mapping import synthesize_instance
from eqlab.tensors import TensorField, tensor_lincomb, tensor_sub, transpose

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
        [(1, src.curvature_k(*params)), (1, src.correction(which)),
         (-1, tgt.curvature_k(*params)), (-1, tgt.correction(which))])
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
        _assert_same(family_invariance_check(src, tgt, 1, p_values, q_values,
                                             values, 0, {}), expected)
        assert expected.passed == (case == "passing")
    (keys_p, _), (keys_q, _) = differences
    distinct = len(set(keys_p.values())) * len(set(keys_q.values()))
    if case == "passing":
        assert distinct == 1
    elif case == "unrelated":
        assert distinct > 1


def test_labels_are_keyed_by_the_first_equal_difference():
    a = TensorField.delta(2, 1)
    zero = TensorField.zero(2, a.valence, 1)
    values = {1: a, 2: zero, 3: a, 4: zero, 5: a}
    keys, differences = _keyed_differences(
        [1, 2, 3, 4, 5, 3], values.__getitem__, lambda label: zero)
    assert keys == {1: 1, 2: 2, 3: 1, 4: 2, 5: 1}
    assert differences == {1: a, 2: zero}


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
