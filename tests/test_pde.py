"""Finite-difference marching: exact cases, a closed-form oracle, stability."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from isaacs import pde
from isaacs.cli import parse_config
from isaacs.model import (
    CoefficientSet,
    ControlGrid,
    ProblemSpec,
    SpaceTimeGrid,
    Variant,
    hamiltonian_tables,
    sigma_rows,
)
from isaacs.pde import (
    CflError,
    ConvergenceReport,
    _march,
    cfl_number,
    run_penalization_sweep,
    solve_isaacs_double_obstacle,
    solve_isaacs_penalized,
    solve_lower_and_upper,
    viscosity_residual,
)
from isaacs.problems import BUILTINS, builtin, from_expressions

DYNKIN_COARSE = SpaceTimeGrid(-9.0, 9.0, 101, 400, 1.0)


def _heat_spec(terminal, half_width=10.0):
    co = CoefficientSet(
        b=lambda t, x, u, v: 0.0 * np.asarray(x, dtype=float),
        sigma=lambda t, x, u, v: math.sqrt(2.0) + 0.0 * np.asarray(x, dtype=float),
        driver=lambda t, x, y, z, u, v: 0.0 * np.asarray(x, dtype=float),
        terminal=terminal,
        lower=lambda t, x: -half_width + 0.0 * np.asarray(x, dtype=float),
        upper=lambda t, x: half_width + 0.0 * np.asarray(x, dtype=float),
        lipschitz=1.0,
        driver_lipschitz=0.0,
    )
    return ProblemSpec(
        horizon=0.5,
        coefficients=co,
        controls_i=ControlGrid("u", (0.0,)),
        controls_ii=ControlGrid("v", (0.0,)),
    )


def test_constant_problem_is_reproduced_exactly():
    bp = builtin("constant")
    for kind in ("lower", "upper"):
        field = solve_isaacs_double_obstacle(bp.spec, bp.grid, kind)
        assert float(np.max(np.abs(field.values - 0.5))) == 0.0
        assert field.cfl_number < 0.9


def test_linear_fields_are_invariant_under_pure_diffusion():
    # a linear profile has zero curvature even at the ghost nodes, so the
    # march must carry it through unchanged up to accumulated roundoff
    spec = _heat_spec(lambda x: 2.0 * np.asarray(x, dtype=float) + 1.0, half_width=100.0)
    grid = SpaceTimeGrid(-4.0, 4.0, 81, 200, 0.5)
    field = solve_isaacs_double_obstacle(spec, grid, "lower")
    target = 2.0 * grid.space_nodes() + 1.0
    assert float(np.max(np.abs(field.values - target[None, :]))) < 1e-10


def _smoothed_tent(x, s):
    """E[tent(x + s N)] for a standard normal N, in closed form."""

    def cdf(t):
        return 0.5 * (1.0 + math.erf(t / math.sqrt(2.0)))

    def pdf(t):
        return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)

    a, b, c = (-1.0 - x) / s, (0.0 - x) / s, (1.0 - x) / s
    return (
        (1.0 + x) * (cdf(b) - cdf(a))
        + (1.0 - x) * (cdf(c) - cdf(b))
        + s * (pdf(a) - 2.0 * pdf(b) + pdf(c))
    )


def test_heat_march_matches_the_gaussian_convolution():
    # sigma^2 = 2 over horizon 1/2 smooths the tent by a standard normal
    spec = _heat_spec(lambda x: np.maximum(0.0, 1.0 - np.abs(np.asarray(x, dtype=float))))
    grid = SpaceTimeGrid(-8.0, 8.0, 201, 250, 0.5)
    field = solve_isaacs_double_obstacle(spec, grid, "lower")
    x = grid.space_nodes()
    inner = np.abs(x) <= 4.0
    exact = np.array([_smoothed_tent(v, 1.0) for v in x[inner]])
    err = float(np.max(np.abs(field.initial()[inner] - exact)))
    assert err < 5e-3


def test_free_penalization_with_zero_weights_is_the_unclamped_march():
    spec = _heat_spec(lambda x: np.maximum(0.0, 1.0 - np.abs(np.asarray(x, dtype=float))))
    grid = SpaceTimeGrid(-8.0, 8.0, 201, 250, 0.5)
    clamped = solve_isaacs_double_obstacle(spec, grid, "lower")
    free = solve_isaacs_penalized(spec, grid, "lower", "penalized", (0.0, 0.0))
    # obstacles sit far outside the solution's range, so the clamps never act
    assert np.array_equal(clamped.values, free.values)
    assert free.penalty == (0.0, 0.0)


def test_penalization_sweep_is_monotone_and_contracting():
    bp = builtin("dynkin_heat")
    report = run_penalization_sweep(bp.spec, DYNKIN_COARSE, (1.0, 4.0, 16.0, 64.0))
    assert report.monotone_violation_above <= 1e-9
    assert report.monotone_violation_below <= 1e-9
    assert report.sandwich_violation <= 1e-9
    assert report.diagonal_violation <= 1e-9
    assert report.two_sided_gap[-1] < report.two_sided_gap[0]
    assert 0.0 <= report.gap_ratio < 1.0
    assert report.final_above.penalty == (64.0, 0.0)
    assert report.final_below.penalty == (0.0, 64.0)


def test_gap_ratio_degenerates_gracefully():
    bp = builtin("constant")
    report = run_penalization_sweep(bp.spec, bp.grid, (1.0, 2.0))
    assert report.two_sided_gap == (0.0, 0.0)
    assert report.gap_ratio == 0.0


def test_viscosity_residual_vanishes_for_solver_fields():
    bp = builtin("dynkin_heat")
    field = solve_isaacs_double_obstacle(bp.spec, DYNKIN_COARSE, "lower")
    report = viscosity_residual(bp.spec, field)
    assert report.passed
    assert report.max_residual <= report.tolerance


def test_viscosity_residual_flags_perturbed_fields():
    bp = builtin("dynkin_heat")
    field = solve_isaacs_double_obstacle(bp.spec, DYNKIN_COARSE, "lower")
    bumped = field.values.copy()
    bumped[len(field.times) // 2, field.values.shape[1] // 2] += 1e-3
    broken = dataclasses.replace(field, values=bumped)
    report = viscosity_residual(bp.spec, broken)
    assert not report.passed
    assert report.max_residual > 0.01


def test_viscosity_residual_needs_a_reduction_label():
    bp = builtin("dynkin_heat")
    field = solve_isaacs_penalized(bp.spec, DYNKIN_COARSE, "lower", "penalized", (1.0, 1.0))
    with pytest.raises(ValueError, match="residual check"):
        viscosity_residual(bp.spec, field)


def test_unstable_grids_are_refused_before_marching():
    bp = builtin("dynkin_heat")
    coarse = SpaceTimeGrid(-9.0, 9.0, 201, 100, 1.0)  # dt sigma^2 / dx^2 ~ 2.5
    assert cfl_number(bp.spec, coarse) > 0.9
    with pytest.raises(CflError, match="admissible dt"):
        solve_isaacs_double_obstacle(bp.spec, coarse, "lower")
    # the advisory number for the pinned grid leaves room for the penalties
    assert cfl_number(bp.spec, bp.grid, penalty=64.0) < 0.9


def test_penalty_weight_tightens_the_stability_budget():
    bp = builtin("dynkin_heat")
    base = cfl_number(bp.spec, DYNKIN_COARSE)
    with_penalty = cfl_number(bp.spec, DYNKIN_COARSE, penalty=64.0)
    assert with_penalty > base
    with pytest.raises(CflError):
        solve_isaacs_penalized(
            bp.spec, DYNKIN_COARSE, "lower", "one_barrier_lower", 400.0
        )


def test_terminal_override_and_window_validation():
    bp = builtin("dynkin_heat")
    with pytest.raises(ValueError, match="nothing to solve"):
        solve_isaacs_double_obstacle(bp.spec, DYNKIN_COARSE, "lower", t_hi=0.0)
    with pytest.raises(ValueError, match="shape"):
        solve_isaacs_double_obstacle(
            bp.spec, DYNKIN_COARSE, "lower", terminal=np.zeros(7)
        )
    with pytest.raises(ValueError, match="below the lower obstacle"):
        solve_isaacs_double_obstacle(
            bp.spec, DYNKIN_COARSE, "lower", terminal=np.full(DYNKIN_COARSE.nx, -9.0)
        )
    with pytest.raises(ValueError, match="'lower' or 'upper'"):
        solve_isaacs_double_obstacle(bp.spec, DYNKIN_COARSE, "sideways")


def test_grid_validation_and_time_levels():
    with pytest.raises(ValueError, match="x_max"):
        SpaceTimeGrid(1.0, -1.0, 11, 10, 1.0)
    with pytest.raises(ValueError, match="3 space nodes"):
        SpaceTimeGrid(-1.0, 1.0, 2, 10, 1.0)
    with pytest.raises(ValueError, match="time step"):
        SpaceTimeGrid(-1.0, 1.0, 11, 0, 1.0)
    grid = SpaceTimeGrid(-1.0, 1.0, 11, 10, 1.0)
    assert grid.time_level(0.0) == 0
    assert grid.time_level(0.3) == 3
    assert grid.time_level(1.0) == 10
    with pytest.raises(ValueError, match="not a grid time level"):
        grid.time_level(0.05)


def test_interpolation_recovers_node_values():
    bp = builtin("constant")
    field = solve_isaacs_double_obstacle(bp.spec, bp.grid, "lower")
    assert field.interpolate(0.5, 0.0) == 0.5
    assert field.interpolate(0.123, 1.771) == pytest.approx(0.5, abs=1e-12)


# -- stacked marches ----------------------------------------------------------

_MIXED_ROWS = [
    (kind, Variant.named(name, penalty), f"{kind}_{name}")
    for kind in ("lower", "upper")
    for name, penalty in (
        ("two_barrier", None),
        ("one_barrier_lower", 0.0),
        ("one_barrier_lower", 1.0),
        ("one_barrier_lower", 4.0),
        ("one_barrier_upper", 0.0),
        ("one_barrier_upper", 1.0),
        ("one_barrier_upper", 4.0),
        ("penalized", (0.0, 0.0)),
        ("penalized", (4.0, 0.0)),
        ("penalized", (3.0, 2.0)),
    )
]

# the custom problem of the benchmark's default_checks workload, as INI text
_BENCHMARK_CUSTOM = """\
[problem]
name = custom
horizon = 0.5
b = 0.5 * (u + v) * exp(0 - x^2 / 8)
sigma = 0.8 + 0.2 * abs(u - v)
driver = 0.5 * (u - v) + 0.1 * min(max(y, 0 - 1), 1)
terminal = max(0, 1 - abs(x - 1)) - max(0, 1 - abs(x + 1))
lower = max(0, 1 - abs(x - 1)) - max(0, 1 - abs(x + 1)) - 0.4
upper = max(0, 1 - abs(x - 1)) - max(0, 1 - abs(x + 1)) + 0.4
controls_i = -1, 0, 1
controls_ii = -1, 0, 1
lipschitz = 1
driver_lipschitz = 0.1

[grid]
x_min = -4
x_max = 4
nx = 121
nt = 250
"""


def _y_dependent_custom():
    return from_expressions(
        horizon=0.5,
        b="0.5 * (u + v) * exp(0 - x^2 / 8)",
        sigma="0.8 + 0.2 * abs(u - v)",
        driver="0.5 * (u - v) + 0.1 * min(max(y, 0 - 1), 1) + 0.05 * exp(0 - y^2) * z",
        terminal="max(0, 1 - abs(x - 1)) - max(0, 1 - abs(x + 1))",
        lower="max(0, 1 - abs(x - 1)) - max(0, 1 - abs(x + 1)) - 0.4",
        upper="max(0, 1 - abs(x - 1)) - max(0, 1 - abs(x + 1)) + 0.4",
        controls_i=(-1.0, 0.0, 1.0),
        controls_ii=(-1.0, 0.0, 1.0),
        lipschitz=1.0,
        driver_lipschitz=0.2,
    )


def _stack_cases():
    for name in BUILTINS:
        bp = builtin(name)
        g = bp.grid
        # a quarter of the nodes keeps the pinned dt and only loosens the CFL
        grid = SpaceTimeGrid(g.x_min, g.x_max, (g.nx - 1) // 4 + 1, g.nt, g.horizon)
        yield pytest.param(bp.spec, grid, id=name)
    yield pytest.param(
        _y_dependent_custom(), SpaceTimeGrid(-4.0, 4.0, 41, 250, 0.5), id="custom"
    )
    spec, grid, _ = parse_config(_BENCHMARK_CUSTOM).resolve()
    yield pytest.param(spec, grid, id="benchmark_custom")


@pytest.mark.parametrize("spec,grid", _stack_cases())
def test_stacked_rows_are_bitwise_their_one_row_marches(spec, grid):
    t_hi = min(grid.nt, 100) * grid.dt  # the last 100 levels before the horizon
    stacked = _march(spec, grid, _MIXED_ROWS, None, t_hi, 0.9)
    for row, field in zip(_MIXED_ROWS, stacked):
        (alone,) = _march(spec, grid, [row], None, t_hi, 0.9)
        assert field.label == alone.label == row[2]
        assert field.penalty == alone.penalty
        assert (field.values == alone.values).all(), row
        assert field.values.tobytes() == alone.values.tobytes(), row
        assert np.float64(field.cfl_number).tobytes() == np.float64(
            alone.cfl_number
        ).tobytes()


@pytest.mark.parametrize("spec,grid", _stack_cases())
def test_stacked_tables_are_bitwise_the_per_pair_expression(spec, grid):
    co = spec.coefficients
    x = grid.space_nodes()
    rng = np.random.default_rng(3)
    w = rng.normal(size=(3, grid.nx))
    w[:, ::7] = -0.0
    t = 0.5 * grid.horizon
    derivatives = pde._derivatives(w, grid.dx)
    tables, max_s2, max_b, max_smag = hamiltonian_tables(spec, t, x, w, *derivatives)
    d2, dplus, dminus, dcentral = derivatives
    assert tables.shape == (len(spec.controls_i), len(spec.controls_ii)) + w.shape
    s2s, bs, smags = [], [], []
    for iu, u in enumerate(spec.controls_i.points):
        for iv, v in enumerate(spec.controls_ii.points):
            b = np.broadcast_to(np.asarray(co.b(t, x, u, v), dtype=float), x.shape)
            sig = sigma_rows(co, t, x, u, v)
            s2 = sig * sig
            f = np.broadcast_to(
                np.asarray(co.driver(t, x, w, dcentral * sig, u, v), dtype=float), w.shape
            )
            want = 0.5 * s2 * d2 + np.maximum(b, 0.0) * dplus + np.minimum(b, 0.0) * dminus + f
            assert tables[iu, iv].tobytes() == want.tobytes(), (u, v)
            s2s.append(np.max(s2))
            bs.append(np.max(np.abs(b)))
            smags.append(np.max(np.abs(sig)))
    assert (max_s2, max_b, max_smag) == (max(0.0, *s2s), max(0.0, *bs), max(0.0, *smags))


def test_stacked_sweep_raises_the_parents_cfl_error():
    # the above row at m = 64 is the first to fail, on the first level,
    # whether the sweep marches its reference or is given it
    bp = builtin("bilinear_game")
    lower, _ = solve_lower_and_upper(bp.spec, bp.grid)
    for reference in (None, lower):
        with pytest.raises(CflError) as info:
            run_penalization_sweep(bp.spec, bp.grid, bp.schedule, reference=reference)
        assert str(info.value) == (
            "stability number 1 exceeds margin 0.9 at t=0.984375;"
            " largest admissible dt is 0.0140625"
        )


@pytest.mark.parametrize("name", ["dynkin_heat", "separable_game", "custom"])
def test_a_sweep_given_its_reference_reports_what_marching_it_reports(name, monkeypatch):
    if name == "custom":
        spec, grid, _ = parse_config(_BENCHMARK_CUSTOM).resolve()
    else:
        bp = builtin(name)
        g = bp.grid
        spec, grid = bp.spec, SpaceTimeGrid(g.x_min, g.x_max, (g.nx - 1) // 2 + 1, g.nt, g.horizon)
    schedule = (1.0, 4.0, 16.0)
    lower, _ = solve_lower_and_upper(spec, grid)
    marched = run_penalization_sweep(spec, grid, schedule)
    rows = []
    original = pde._march

    def counting(spec, grid, rows_, *args):
        rows.append(len(rows_))
        return original(spec, grid, rows_, *args)

    monkeypatch.setattr(pde, "_march", counting)
    given_ = run_penalization_sweep(spec, grid, schedule, reference=lower)
    assert rows == [2 * len(schedule)]
    assert given_.reference is lower
    for field in dataclasses.fields(ConvergenceReport):
        assert repr(getattr(given_, field.name)) == repr(getattr(marched, field.name))
    for field in ("reference", "final_above", "final_below"):
        assert getattr(given_, field).values.tobytes() == getattr(marched, field).values.tobytes()


def test_a_sweep_refuses_a_reference_that_is_not_its_own():
    bp = builtin("dynkin_heat")
    lower, upper = solve_lower_and_upper(bp.spec, DYNKIN_COARSE)
    other_grid = SpaceTimeGrid(-9.0, 9.0, 101, 200, 1.0)
    for reference in (
        upper,
        solve_isaacs_penalized(bp.spec, DYNKIN_COARSE, "lower", "penalized", (0.0, 0.0)),
        dataclasses.replace(lower, penalty=(1.0, 0.0)),
        dataclasses.replace(lower, times=lower.times[:-1], values=lower.values[:-1]),
        dataclasses.replace(lower, nodes=lower.nodes + 0.5),
        solve_lower_and_upper(bp.spec, other_grid)[0],
    ):
        with pytest.raises(ValueError, match="is not the two-obstacle 'lower' field"):
            run_penalization_sweep(bp.spec, DYNKIN_COARSE, (1.0, 4.0), reference=reference)


def _climbing_spec():
    """W climbs by dt per level; the integrand turns nan once W passes 0.9."""
    co = CoefficientSet(
        b=lambda t, x, u, v: 0.0 * np.asarray(x, dtype=float),
        sigma=lambda t, x, u, v: 0.1 + 0.0 * np.asarray(x, dtype=float),
        driver=lambda t, x, y, z, u, v: np.where(np.asarray(y) > 0.9, np.nan, 1.0),
        terminal=lambda x: 0.5 + 0.0 * np.asarray(x, dtype=float),
        lower=lambda t, x: -1.0 + 0.0 * np.asarray(x, dtype=float),
        upper=lambda t, x: 0.8 + 0.0 * np.asarray(x, dtype=float),
        lipschitz=1.0,
        driver_lipschitz=0.0,
    )
    return ProblemSpec(
        horizon=1.0,
        coefficients=co,
        controls_i=ControlGrid("u", (0.0,)),
        controls_ii=ControlGrid("v", (0.0,)),
    )


def _first_error(spec, grid, rows, terminal=None):
    """The error of the first row whose one-row march fails."""
    for row in rows:
        try:
            _march(spec, grid, [row], terminal, None, 0.9)
        except ValueError as exc:
            return exc
    return None


def test_stacked_march_raises_the_first_failing_row_in_call_order():
    spec = _climbing_spec()
    grid = SpaceTimeGrid(-1.0, 1.0, 11, 100, 1.0)
    clamped = ("lower", Variant.named("two_barrier"), "clamped")
    climbs = ("lower", Variant.named("penalized", (0.0, 0.0)), "climbs")  # nan near t = 0.6
    unstable = ("lower", Variant.named("penalized", (200.0, 0.0)), "unstable")  # first level
    for rows in (
        [clamped, climbs, unstable],
        [clamped, unstable, climbs],
        [unstable, climbs],
        [climbs, clamped],
    ):
        expected = _first_error(spec, grid, rows)
        with pytest.raises(ValueError) as info:
            _march(spec, grid, rows, None, None, 0.9)
        assert type(info.value) is type(expected)
        assert str(info.value) == str(expected)
    # a later row failing at a later level still wins over the first level's
    # failure of an even later row
    with pytest.raises(ValueError, match="nonfinite Hamiltonian integrand"):
        _march(spec, grid, [clamped, climbs, unstable], None, None, 0.9)
    # terminal rows fail before any level is marched, row by row
    high = np.full(grid.nx, 0.85)
    rows = [climbs, clamped]
    expected = _first_error(spec, grid, rows, terminal=high)
    assert "nonfinite" in str(expected)
    with pytest.raises(ValueError) as info:
        _march(spec, grid, rows, high, None, 0.9)
    assert str(info.value) == str(expected)
    with pytest.raises(ValueError, match="exceed the upper obstacle"):
        _march(spec, grid, [clamped, climbs], high, None, 0.9)


def test_cfl_error_carries_its_numbers():
    bp = builtin("dynkin_heat")
    coarse = SpaceTimeGrid(-9.0, 9.0, 201, 100, 1.0)
    with pytest.raises(CflError) as info:
        solve_isaacs_double_obstacle(bp.spec, coarse, "lower")
    err = info.value
    assert err.t == 0.99
    assert err.margin == 0.9
    assert err.number > 0.9
    assert err.admissible_dt == 0.9 * coarse.dt / err.number
    assert err.admissible_dt < coarse.dt
    assert str(err) == (
        f"stability number {err.number:.4g} exceeds margin 0.9 at t=0.99;"
        f" largest admissible dt is {err.admissible_dt:.6g}"
    )
