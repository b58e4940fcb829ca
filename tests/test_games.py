"""Game values, dynamic programming identity, cross-solver agreement."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from isaacs import pde
from isaacs.cli import _march_fields
from isaacs.forwardsim import build_lattice
from isaacs.games import (
    CrosscheckReport,
    compute_values,
    dpp_check,
    dpp_report,
    dpp_split,
    fixed_control_crosscheck,
    value_verdict,
)
from isaacs.model import ControlGrid, PenalizationSchedule, SpaceTimeGrid
from isaacs.problems import BUILTINS, builtin
from isaacs.rbsde import solve_backward

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
    # the ones dpp_check would solve, so recomposing them from a head solved
    # on its own, or from the head a run's march joins to them, is exact
    bp = builtin("separable_game")
    grid = SpaceTimeGrid(-6.0, 6.0, 51, 400, 1.0)
    schedule = PenalizationSchedule((1.0, 4.0))
    verdict = compute_values(bp.spec, grid)
    fields = _march_fields(bp.spec, grid, schedule, ("game_value", "penalization", "dpp"))
    split, split_level = dpp_split(grid, None)
    assert split_level == 200
    for kind, full in (("lower", verdict.lower), ("upper", verdict.upper)):
        alone = dpp_check(bp.spec, grid, kind)
        head = pde.solve_isaacs_double_obstacle(
            bp.spec, grid, kind, terminal=full.values[split_level], t_hi=split
        )
        assert dpp_report(kind, split, full, head) == alone
        assert dpp_report(kind, split, fields[kind], fields[f"head_{kind}"]) == alone
        assert fields[f"head_{kind}"].values.tobytes() == head.values.tobytes()
    with pytest.raises(ValueError, match="strictly inside"):
        dpp_split(SpaceTimeGrid(-6.0, 6.0, 51, 1, 1.0), None)


def test_a_verdict_from_solved_fields_is_the_one_compute_values_returns():
    bp = builtin("bilinear_game")
    lower, upper = (
        pde.solve_isaacs_double_obstacle(bp.spec, bp.grid, kind) for kind in ("lower", "upper")
    )
    for seed in (0, 3):
        marched = compute_values(bp.spec, bp.grid, seed=seed)
        given = value_verdict(bp.spec, bp.grid, lower, upper, seed)
        assert repr(given) == repr(marched)
        assert given.lower.values.tobytes() == marched.lower.values.tobytes()
        assert given.upper.values.tobytes() == marched.upper.values.tobytes()


def test_frozen_controls_reconcile_the_two_solver_families():
    bp = builtin("dynkin_heat")
    report = fixed_control_crosscheck(bp.spec, build_lattice(bp.spec, 0.0, bp.grid))
    assert report.passed
    assert report.max_diff < report.tolerance
    assert report.controls == (0.0, 0.0)
    i0, i1 = report.inner
    assert 0 < i0 < i1 < bp.grid.nx


# transport has sigma = 0 and an off-node drift, so no lattice of it exists
@pytest.mark.parametrize("name", [name for name in BUILTINS if name != "transport"])
def test_the_crosscheck_reads_the_root_row_a_full_solve_stores(name):
    # the reference: the same report from `solve_backward`'s stored levels
    bp = builtin(name)
    lattice = build_lattice(bp.spec, 0.0, bp.grid)
    report = fixed_control_crosscheck(bp.spec, lattice)
    (u, v) = bp.spec.control_pair()
    frozen = dataclasses.replace(
        bp.spec,
        controls_i=ControlGrid(bp.spec.controls_i.label, (u,)),
        controls_ii=ControlGrid(bp.spec.controls_ii.label, (v,)),
    )
    w0 = pde.solve_isaacs_double_obstacle(frozen, bp.grid, "lower").initial()
    y0 = solve_backward(bp.spec, lattice).y[0]
    i0, i1 = bp.grid.nx // 4, bp.grid.nx - bp.grid.nx // 4
    max_diff = float(np.max(np.abs(y0[i0:i1] - w0[i0:i1])))
    tolerance = 5.0 * (bp.grid.dx + bp.grid.dt) * max(1.0, float(np.max(w0) - np.min(w0)))
    want = CrosscheckReport((u, v), max_diff, tolerance, (i0, i1), max_diff <= tolerance)
    assert repr(report) == repr(want)


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
    # dynkin_heat's b and sigma read neither control, so its chain is the
    # chain of any pair; only the pair the lattice records differs
    lattice = dataclasses.replace(build_lattice(bp.spec, 0.0, bp.grid), controls=controls)
    with pytest.raises(ValueError, match=message):
        fixed_control_crosscheck(bp.spec, lattice)


def test_crosscheck_tightens_under_refinement():
    bp = builtin("dynkin_heat")
    fine_grid = SpaceTimeGrid(-9.0, 9.0, 401, 1600, 1.0)
    base, fine = (
        fixed_control_crosscheck(bp.spec, build_lattice(bp.spec, 0.0, grid))
        for grid in (bp.grid, fine_grid)
    )
    assert fine.max_diff < base.max_diff


def test_crosscheck_respects_an_explicit_tolerance():
    bp = builtin("dynkin_heat")
    lattice = build_lattice(bp.spec, 0.0, bp.grid)
    report = fixed_control_crosscheck(bp.spec, lattice, tolerance=1e-15)
    assert not report.passed


def test_game_value_tolerance_scales_with_the_grid():
    bp = builtin("separable_game")
    coarse = compute_values(bp.spec, SpaceTimeGrid(-6.0, 6.0, 101, 120, 1.0))
    fine = compute_values(bp.spec, bp.grid)
    assert fine.value_tol < coarse.value_tol
