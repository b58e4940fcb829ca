"""Game values, dynamic programming identity, cross-solver agreement."""

from __future__ import annotations

import numpy as np
import pytest

from isaacs import pde
from isaacs.games import compute_values, dpp_check, fixed_control_crosscheck
from isaacs.model import SpaceTimeGrid
from isaacs.problems import builtin

DYNKIN_COARSE = SpaceTimeGrid(-9.0, 9.0, 101, 400, 1.0)


def test_separable_game_fields_coincide_bitwise():
    bp = builtin("separable_game")
    verdict = compute_values(bp.spec, bp.grid)
    assert verdict.has_value
    assert verdict.max_gap == 0.0
    assert verdict.order_violation <= 0.0
    assert verdict.isaacs.satisfied
    assert np.array_equal(verdict.lower.values, verdict.upper.values)


def test_bilinear_game_keeps_its_exact_gap():
    # degenerate dynamics integrate the saddle gap without any truncation
    # error: the fields are exactly -(T - t) and +(T - t)
    bp = builtin("bilinear_game")
    verdict = compute_values(bp.spec, bp.grid)
    assert not verdict.has_value
    assert verdict.isaacs.max_gap == 2.0
    assert verdict.order_violation <= 0.0
    t = verdict.lower.times
    assert np.allclose(verdict.lower.values, -(1.0 - t)[:, None], atol=1e-12)
    assert np.allclose(verdict.upper.values, (1.0 - t)[:, None], atol=1e-12)
    assert float(verdict.lower.initial()[0]) == -1.0
    assert float(verdict.upper.initial()[0]) == 1.0


def test_lower_value_never_exceeds_upper_value():
    for name in ("constant", "dynkin_heat", "separable_game", "bilinear_game"):
        bp = builtin(name)
        verdict = compute_values(bp.spec, bp.grid)
        assert verdict.order_violation <= 1e-12, name


def test_dynamic_programming_recomposition_is_exact():
    bp = builtin("dynkin_heat")
    for kind in ("lower", "upper"):
        report = dpp_check(bp.spec, DYNKIN_COARSE, kind)
        assert report.kind == kind
        assert report.split_level == 200
        assert report.max_residual == 0.0
        assert report.passed


def test_dynamic_programming_accepts_any_interior_split():
    bp = builtin("dynkin_heat")
    for split in (DYNKIN_COARSE.dt, 0.25, 0.5, 0.9975):
        report = dpp_check(bp.spec, DYNKIN_COARSE, "lower", split=split)
        assert report.max_residual == 0.0, split
    with pytest.raises(ValueError, match="strictly inside"):
        dpp_check(bp.spec, DYNKIN_COARSE, "lower", split=1.0)
    with pytest.raises(ValueError, match="not a grid time level"):
        dpp_check(bp.spec, DYNKIN_COARSE, "lower", split=DYNKIN_COARSE.dt / 3.0)


def test_dynamic_programming_recomposes_an_already_solved_field():
    # compute_values marches both reductions side by side; its fields are
    # the ones dpp_check would solve, so recomposing them is still exact
    bp = builtin("separable_game")
    grid = SpaceTimeGrid(-6.0, 6.0, 51, 400, 1.0)
    verdict = compute_values(bp.spec, grid)
    for kind, full in (("lower", verdict.lower), ("upper", verdict.upper)):
        assert dpp_check(bp.spec, grid, kind, full=full) == dpp_check(bp.spec, grid, kind)
    with pytest.raises(ValueError, match="whole-interval 'upper' field"):
        dpp_check(bp.spec, grid, "upper", full=verdict.lower)
    with pytest.raises(ValueError, match="whole-interval 'lower' field"):
        dpp_check(bp.spec, DYNKIN_COARSE, "lower", full=verdict.lower)


def test_frozen_controls_reconcile_the_two_solver_families():
    bp = builtin("dynkin_heat")
    report = fixed_control_crosscheck(bp.spec, bp.grid, (0.0, 0.0))
    assert report.passed
    assert report.max_diff < report.tolerance
    assert report.controls == (0.0, 0.0)
    i0, i1 = report.inner
    assert 0 < i0 < i1 < bp.grid.nx


@pytest.mark.parametrize(
    "controls, message",
    [
        ((9.0, 9.0), "control 9.0 is not on grid 'u'"),
        (9.0, r"controls must be one \(u, v\) pair, got 9.0"),
    ],
    ids=["off_the_grid", "not_a_pair"],
)
def test_crosscheck_refuses_a_pair_off_the_grids_before_marching(
    monkeypatch, controls, message
):
    def no_march(*args):
        raise AssertionError("marched before checking the pair")

    monkeypatch.setattr(pde, "_march", no_march)
    bp = builtin("dynkin_heat")
    with pytest.raises(ValueError, match=message):
        fixed_control_crosscheck(bp.spec, bp.grid, controls)


def test_crosscheck_tightens_under_refinement():
    bp = builtin("dynkin_heat")
    base = fixed_control_crosscheck(bp.spec, bp.grid, (0.0, 0.0))
    fine = fixed_control_crosscheck(
        bp.spec, SpaceTimeGrid(-9.0, 9.0, 401, 1600, 1.0), (0.0, 0.0)
    )
    assert fine.max_diff < base.max_diff


def test_crosscheck_respects_an_explicit_tolerance():
    bp = builtin("dynkin_heat")
    report = fixed_control_crosscheck(bp.spec, bp.grid, (0.0, 0.0), tolerance=1e-15)
    assert not report.passed


def test_game_value_tolerance_scales_with_the_grid():
    bp = builtin("separable_game")
    coarse = compute_values(bp.spec, SpaceTimeGrid(-6.0, 6.0, 101, 120, 1.0))
    fine = compute_values(bp.spec, bp.grid)
    assert fine.value_tol < coarse.value_tol
