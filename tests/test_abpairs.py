"""The gain and no-regression rules of ``tools/abpairs.py`` on fixed
numbers."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "abpairs.py"
_SPEC = importlib.util.spec_from_file_location("abpairs", _PATH)
abpairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(abpairs)

# ten parent runs: inclusive quartiles 1.0225 and 1.0775, a spread of 0.055
PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.06, 1.07, 1.08, 1.09, 1.10]


def test_a_clear_gain_holds():
    v = abpairs.verdict(PARENT, [x - 0.1 for x in PARENT], "lower")
    assert (v.wins, v.pairs, v.gain) == (10, 10, True)
    assert v.parent_median == pytest.approx(1.05)
    assert v.change_median == pytest.approx(0.95)
    assert v.parent_iqr == pytest.approx(0.055)


def test_nine_wins_of_ten_suffice_and_eight_do_not():
    change = [x - 0.1 for x in PARENT]
    change[0] = PARENT[0] + 0.01
    assert abpairs.verdict(PARENT, change, "lower")[3:] == (9, 10, True)
    change[1] = PARENT[1]  # a tie counts for neither side
    assert abpairs.verdict(PARENT, change, "lower")[3:] == (8, 10, False)


def test_every_pair_won_by_less_than_the_spread_is_no_gain():
    v = abpairs.verdict(PARENT, [x - 0.01 for x in PARENT], "lower")
    assert (v.wins, v.gain) == (10, False)


def test_higher_is_better_reads_the_other_way():
    up = [x + 0.1 for x in PARENT]
    assert abpairs.verdict(PARENT, up, "higher").gain
    assert abpairs.verdict(PARENT, up, "lower")[3:] == (0, 10, False)


def test_unpaired_runs_are_refused():
    with pytest.raises(ValueError):
        abpairs.verdict(PARENT, PARENT[:9], "lower")


def test_a_median_past_the_bound_is_worse():
    # the bound is a share of the parent's median: 0.25 * 1.05 = 0.2625
    assert abpairs.regression(PARENT, [x + 0.3 for x in PARENT], "lower",
                              0.25) == "worse"
    assert abpairs.regression(PARENT, [x + 0.1 for x in PARENT], "lower",
                              0.25) == "no worse"


def test_a_median_exactly_at_the_bound_is_no_worse():
    assert abpairs.regression([4.0] * 10, [5.0] * 10, "lower",
                              0.25) == "no worse"


def test_a_spread_past_the_bound_is_unresolved():
    # the parent's spread, 0.055, exceeds 0.05 * 1.05 = 0.0525
    assert abpairs.regression(PARENT, PARENT, "lower", 0.05) == "unresolved"
    # ... unless every change run beats every parent run
    better = [x - 0.2 for x in PARENT]
    assert abpairs.regression(PARENT, better, "lower", 0.05) == "no worse"
    # a worse median is worse, whatever the spread
    assert abpairs.regression(PARENT, [x + 0.06 for x in PARENT], "lower",
                              0.05) == "worse"


def test_no_regression_reads_higher_is_better_the_other_way():
    down = [x - 0.3 for x in PARENT]
    assert abpairs.regression(PARENT, down, "higher", 0.25) == "worse"
    assert abpairs.regression(PARENT, down, "lower", 0.25) == "no worse"
    up = [x + 0.2 for x in PARENT]
    assert abpairs.regression(PARENT, up, "higher", 0.05) == "no worse"
    assert abpairs.regression(PARENT, PARENT, "higher", 0.05) == "unresolved"
