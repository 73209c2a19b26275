import pytest
from hypothesis import given, strategies as st

from turnout import calibration_points, lift_points, roc_points

import oracles

SCORES = [0.9, 0.8, 0.3, 0.1]
FLAGS = [True, False, True, False]


# ----------------------------------------------------------------- roc


def test_roc_hand_example():
    curve = roc_points(SCORES, FLAGS)
    assert curve.kind == "roc"
    assert curve.points == ((0.0, 0.0), (0.0, 0.5), (0.5, 0.5), (0.5, 1.0), (1.0, 1.0))
    assert curve.auc == pytest.approx(0.75, abs=1e-12)


def test_roc_tied_scores_enter_as_one_block():
    curve = roc_points([0.7, 0.7, 0.7, 0.2], [True, False, True, False])
    assert curve.points == ((0.0, 0.0), (0.5, 1.0), (1.0, 1.0))
    assert curve.auc == pytest.approx(0.75, abs=1e-12)


def test_roc_constant_scorer_is_the_diagonal():
    curve = roc_points([0.5] * 4, [True, True, False, False])
    assert curve.points == ((0.0, 0.0), (1.0, 1.0))
    assert curve.auc == pytest.approx(0.5, abs=1e-12)


def test_roc_requires_both_outcomes():
    with pytest.raises(ValueError):
        roc_points([0.1, 0.9], [True, True])
    with pytest.raises(ValueError):
        roc_points([0.1, 0.9], [False, False])
    with pytest.raises(ValueError):
        roc_points([], [])
    with pytest.raises(ValueError):
        roc_points([0.1, 0.2], [True])


@st.composite
def scored_records(draw, max_size=12):
    n = draw(st.integers(min_value=2, max_value=max_size))
    grid = [i / 8 for i in range(9)]  # coarse grid so ties actually happen
    scores = [draw(st.sampled_from(grid)) for _ in range(n)]
    flags = [draw(st.booleans()) for _ in range(n)]
    flags[0], flags[-1] = True, False
    return scores, flags


@given(scored_records())
def test_roc_is_monotone_and_anchored(case):
    scores, flags = case
    curve = roc_points(scores, flags)
    xs = [p[0] for p in curve.points]
    ys = [p[1] for p in curve.points]
    assert curve.points[0] == (0.0, 0.0)
    assert curve.points[-1] == (1.0, 1.0)
    assert xs == sorted(xs)
    assert ys == sorted(ys)
    assert all(0.0 <= v <= 1.0 for v in xs + ys)


@given(scored_records())
def test_roc_auc_equals_pair_ranking_statistic(case):
    scores, flags = case
    curve = roc_points(scores, flags)
    want = oracles.auc_pair_statistic(scores, flags)
    assert curve.auc == pytest.approx(float(want), abs=1e-12)


# ---------------------------------------------------------------- lift


def test_lift_hand_example():
    curve = lift_points(SCORES, FLAGS)
    assert curve.kind == "lift"
    xs = [p[0] for p in curve.points]
    ys = [p[1] for p in curve.points]
    assert xs == [0.25, 0.5, 0.75, 1.0]
    assert ys == pytest.approx([2.0, 1.0, 4 / 3, 1.0], abs=1e-12)


def test_lift_ties_stay_in_record_order():
    curve = lift_points([0.5, 0.5], [False, True])
    assert curve.points[0] == (0.5, 0.0)
    assert curve.points[1] == (1.0, 1.0)


def test_lift_requires_a_positive():
    with pytest.raises(ValueError):
        lift_points([0.4, 0.6], [False, False])


@given(scored_records())
def test_lift_ends_at_one(case):
    scores, flags = case
    curve = lift_points(scores, flags)
    assert curve.points[-1][0] == 1.0
    assert curve.points[-1][1] == pytest.approx(1.0, abs=1e-12)
    assert len(curve.points) == len(scores)
    # lift can never exceed 1 / prevalence
    bound = len(scores) / sum(flags)
    assert all(0.0 <= y <= bound + 1e-12 for _, y in curve.points)


# --------------------------------------------------------- calibration


def test_calibration_hand_example():
    curve = calibration_points([0.0, 0.1, 0.9, 1.0], [False, False, False, True], bins=5)
    assert curve.kind == "calibration"
    assert curve.points == ((0.05, 0.0), (0.95, 0.5))


def test_calibration_bins_are_right_closed():
    # 0.2 belongs to (0.1, 0.2]; 0.21 starts the next bin
    curve = calibration_points([0.15, 0.2, 0.21], [False, True, True], bins=10)
    assert len(curve.points) == 2
    assert curve.points[0] == (pytest.approx(0.175), pytest.approx(0.5))
    assert curve.points[1] == (pytest.approx(0.21), pytest.approx(1.0))


def test_calibration_zero_scores_stay_in_the_first_bin():
    curve = calibration_points([0.0, 0.0], [False, True], bins=10)
    assert curve.points == ((0.0, 0.5),)


def test_calibration_omits_empty_bins():
    curve = calibration_points([0.05, 0.95], [False, True], bins=10)
    assert len(curve.points) == 2


def test_calibration_needs_two_bins():
    with pytest.raises(ValueError):
        calibration_points([0.5], [True], bins=1)


@given(scored_records())
def test_calibration_points_stay_in_the_unit_square(case):
    scores, flags = case
    curve = calibration_points(scores, flags, bins=10)
    assert 1 <= len(curve.points) <= 10
    assert all(0.0 <= x <= 1.0 and 0.0 <= y <= 1.0 for x, y in curve.points)
    xs = [x for x, _ in curve.points]
    assert xs == sorted(xs)  # bins are visited left to right


# ------------------------------------------- vectorised vs loop oracles


@st.composite
def tied_scores(draw, max_size=60):
    """Scores with heavy ties (a coarse grid) mixed with arbitrary floats,
    including values just outside [0, 1] that calibration clamps."""
    n = draw(st.integers(min_value=2, max_value=max_size))
    grid = st.sampled_from([-0.25, 0.0, 0.1, 0.2, 1 / 3, 0.5, 0.7, 0.9, 1.0, 1.5])
    free = st.floats(min_value=-1.0, max_value=2.0, allow_nan=False)
    scores = [draw(st.one_of(grid, grid, free)) for _ in range(n)]
    flags = [draw(st.booleans()) for _ in range(n)]
    flags[0], flags[-1] = True, False
    return scores, flags


@given(tied_scores())
def test_roc_equals_the_quadratic_sweep_exactly(case):
    scores, flags = case
    curve = roc_points(scores, flags)
    points, auc = oracles.roc_curve(scores, flags)
    assert curve.points == tuple(points)
    assert curve.auc == auc


@given(tied_scores())
def test_lift_equals_the_per_record_loop_exactly(case):
    scores, flags = case
    assert lift_points(scores, flags).points == tuple(oracles.lift_curve(scores, flags))


@given(tied_scores(), st.integers(min_value=2, max_value=12))
def test_calibration_equals_the_per_record_loop_exactly(case, bins):
    scores, flags = case
    curve = calibration_points(scores, flags, bins=bins)
    assert curve.points == tuple(oracles.calibration_curve(scores, flags, bins))


def test_curves_reject_non_finite_scores():
    for bad in (float("nan"), float("inf")):
        for curve in (roc_points, lift_points, calibration_points):
            with pytest.raises(ValueError, match="finite"):
                curve([0.5, bad], [True, False])
