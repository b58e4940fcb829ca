"""Finite-difference marching: exact cases, a closed-form oracle, stability."""

from __future__ import annotations

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isaacs import pde
from isaacs.cli import DEFAULT_CHECKS, _march_fields, parse_config
from isaacs.model import (
    CoefficientError,
    CoefficientSet,
    ControlGrid,
    HamiltonianInput,
    PenalizationSchedule,
    ProblemSpec,
    SpaceTimeGrid,
    Variant,
    hamiltonian_lower,
    hamiltonian_tables,
)
from isaacs.pde import (
    CflError,
    ConvergenceReport,
    _march,
    cfl_number,
    march_rows,
    raise_first_failure,
    run_penalization_sweep,
    solve_isaacs_double_obstacle,
    solve_isaacs_penalized,
    sweep_report,
    sweep_rows,
    two_barrier_row,
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


_PINNED_DT_TOO_COARSE = pytest.mark.xfail(
    strict=True,
    reason="bilinear_game's pinned dt = 1/64 meets the top default penalty 64 at a"
    " stability number of 1.0, above the margin 0.9 (ROADMAP item 1)",
)


@pytest.mark.parametrize(
    "name",
    [pytest.param(n, marks=_PINNED_DT_TOO_COARSE) if n == "bilinear_game" else n for n in BUILTINS],
)
def test_pinned_grids_leave_room_for_the_largest_default_penalty(name):
    bp = builtin(name)
    assert cfl_number(bp.spec, bp.grid, penalty=max(bp.schedule.levels)) < 0.9


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


# -- stacked marches ----------------------------------------------------------

_MIXED_ROWS = [
    (kind, Variant.named(name, penalty), f"{kind}_{name}", None)
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


def _assert_same_result(got, want):
    """Two march results are the same failure, or bitwise the same field."""
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert not isinstance(got, Exception), got
    assert got.label == want.label
    assert got.penalty == want.penalty
    assert got.times.tobytes() == want.times.tobytes()
    assert (got.values == want.values).all(), got.label
    assert got.values.tobytes() == want.values.tobytes(), got.label
    assert np.float64(got.cfl_number).tobytes() == np.float64(want.cfl_number).tobytes()


@pytest.mark.parametrize("spec,grid", _stack_cases())
def test_stacked_rows_are_bitwise_their_one_row_marches(spec, grid):
    t_hi = min(grid.nt, 100) * grid.dt  # the last 100 levels before the horizon
    stacked = _march(spec, grid, _MIXED_ROWS, None, t_hi, 0.9)
    for row, field in zip(_MIXED_ROWS, stacked):
        (alone,) = _march(spec, grid, [row], None, t_hi, 0.9)
        assert field.label == row[2]
        _assert_same_result(field, alone)


@pytest.mark.parametrize("spec,grid", _stack_cases())
def test_a_joining_row_is_bitwise_the_one_row_march_from_its_source(spec, grid):
    # each source row, and one upper head from a lower source, joined at the
    # first, the middle and the last level below the horizon
    sources = [
        two_barrier_row("lower", None),
        two_barrier_row("upper", None),
        _MIXED_ROWS[5],  # lower one_barrier_upper, m = 1
        _MIXED_ROWS[-1],  # upper penalized (3, 2)
    ]
    rows = list(sources)
    for s in (1, grid.nt // 2, grid.nt - 1):
        for i, (kind, variant, label, _) in enumerate(sources):
            rows.append((kind, variant, label, (i, s)))
        rows.append(("upper", Variant.named("two_barrier"), "upper", (0, s)))
    results = _march(spec, grid, rows, None, None, 0.9)
    for row, result in zip(rows[len(sources) :], results[len(sources) :]):
        source, s = row[3]
        start = results[source].values[s]
        (alone,) = _march(spec, grid, [row[:3] + (None,)], start, s * grid.dt, 0.9)
        _assert_same_result(result, alone)
        assert len(result.times) == s + 1
    for row, result in zip(sources, results):
        _assert_same_result(result, _march(spec, grid, [row], None, None, 0.9)[0])


def test_a_joining_row_carries_the_failure_of_a_source_that_failed_above_it():
    spec = _climbing_spec()
    grid = SpaceTimeGrid(-1.0, 1.0, 11, 100, 1.0)
    climbs = ("lower", Variant.named("penalized", (0.0, 0.0)), "climbs", None)
    unstable = ("lower", Variant.named("penalized", (200.0, 0.0)), "unstable", None)
    rows = [climbs, unstable]
    for s in (1, 30, 50, 80, 99):
        rows += [climbs[:3] + ((0, s),), unstable[:3] + ((1, s),)]
    results = _march(spec, grid, rows, None, None, 0.9)
    climbs_failed, unstable_failed = results[:2]
    assert "nonfinite" in str(climbs_failed)
    assert isinstance(unstable_failed, CflError)
    # climbs fails near t = 0.58, unstable on its first level, at t = 0.99;
    # a head joining below the level where its source failed carries the
    # source's failure, a head joining above it starts and fails as its
    # source did, with its own error
    for row, result in zip(rows[2:], results[2:]):
        source, s = row[3]
        if source == 1 or s < 58:
            assert result is results[source], row
        else:
            assert result is not results[source], row
            assert type(result) is type(results[source])
            assert str(result) == str(results[source])


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
            sig = np.broadcast_to(np.asarray(co.sigma(t, x, u, v), dtype=float), x.shape)
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


_RUN_CHECKS = ("game_value", "penalization", "dpp")


def test_stacked_sweep_raises_the_parents_cfl_error():
    # the above row at m = 64 is the first to fail, on the first level,
    # whether the sweep marches alone or with the rows of every marched check
    # of a run, where the two m = 64 rows fail with their own errors and
    # every other row completes
    bp = builtin("bilinear_game")
    grid = SpaceTimeGrid(-2.0, 2.0, 41, 64, 1.0)
    message = (
        "stability number 1 exceeds margin 0.9 at t=0.984375;"
        " largest admissible dt is 0.0140625"
    )
    with pytest.raises(CflError) as info:
        run_penalization_sweep(bp.spec, grid, bp.schedule)
    assert str(info.value) == message
    fields = _march_fields(bp.spec, grid, bp.schedule, _RUN_CHECKS)
    failed = {name: str(r) for name, r in fields.items() if isinstance(r, Exception)}
    last = 2 * len(bp.schedule) - 2
    assert failed == {f"sweep_{last}": message, f"sweep_{last + 1}": message}
    assert isinstance(fields[f"sweep_{last}"], CflError)


@pytest.mark.parametrize("name", ["dynkin_heat", "separable_game", "custom"])
def test_a_sweep_given_its_reference_reports_what_marching_it_reports(name, monkeypatch):
    # the penalization check of a run reads the statistics that the run's
    # one march fed from its reference and its rows, and reports what the
    # sweep marching them alone does
    if name == "custom":
        spec, grid, _ = parse_config(_BENCHMARK_CUSTOM).resolve()
    else:
        bp = builtin(name)
        g = bp.grid
        spec, grid = bp.spec, SpaceTimeGrid(g.x_min, g.x_max, (g.nx - 1) // 2 + 1, g.nt, g.horizon)
    schedule = (1.0, 4.0, 16.0)
    marched = run_penalization_sweep(spec, grid, schedule)
    rows = []
    original = pde._march

    def counting(spec, grid, rows_, *args):
        rows.append(len(rows_))
        return original(spec, grid, rows_, *args)

    monkeypatch.setattr(pde, "_march", counting)
    fields = _march_fields(spec, grid, PenalizationSchedule(schedule), _RUN_CHECKS)
    assert rows == [2 * len(schedule) + 4]
    reference = fields["lower"]
    # the reference is the two-obstacle lower field on this grid
    assert (reference.label, reference.penalty) == ("lower", (0.0, 0.0))
    assert reference.times.tobytes() == grid.time_nodes().tobytes()
    assert reference.nodes.tobytes() == grid.space_nodes().tobytes()
    # the run stores none of the sweep's rows; every level of them went to
    # the statistics
    assert all(fields[f"sweep_{i}"] is None for i in range(2 * len(schedule)))
    given_ = fields["sweep"].report()
    stored = march_rows(spec, grid, [two_barrier_row("lower", None), *sweep_rows(schedule)])
    # the numbers, level by level, are those of one np.max per difference of
    # whole fields; separable_game's obstacles never bind, the others' do
    whole = _whole_field_maxima(stored[0], stored[1:])
    assert {name: getattr(marched, name) for name in whole} == whole
    assert (min(marched.gap_above + marched.gap_below) > 0.0) == (name != "separable_game")
    for report in (given_, sweep_report(schedule, stored[0], stored[1:])):
        for field in dataclasses.fields(ConvergenceReport):
            assert repr(getattr(report, field.name)) == repr(getattr(marched, field.name))


def _whole_field_maxima(reference, penalized):
    """The sweep's gaps and violations taken over whole stored fields at
    once, as one np.max per difference of fields."""
    ref = reference.values
    above, below = [f.values for f in penalized[::2]], [f.values for f in penalized[1::2]]
    two_sided = [float(np.max(a - b)) for a, b in zip(above, below)]
    return {
        "gap_above": tuple(float(np.max(np.abs(a - ref))) for a in above),
        "gap_below": tuple(float(np.max(np.abs(b - ref))) for b in below),
        "two_sided_gap": tuple(two_sided),
        "monotone_violation_above": max(
            [-math.inf, *(float(np.max(a - p)) for p, a in zip(above, above[1:]))]
        ),
        "monotone_violation_below": max(
            [-math.inf, *(float(np.max(p - b)) for p, b in zip(below, below[1:]))]
        ),
        "sandwich_violation": max(
            [-math.inf]
            + [float(np.max(d)) for a, b in zip(above, below) for d in (ref - a, b - ref)]
        ),
        "diagonal_violation": max(
            [-math.inf, *(b - a for a, b in zip(two_sided, two_sided[1:]))]
        ),
    }


@pytest.mark.parametrize("with_nan", [False, True])
def test_sweep_report_takes_whole_field_maxima_of_any_fields(with_nan):
    # small integers tie often, so differences hold zeros of both signs; a
    # nan reaches every number whose differences it enters, as in one
    # np.max over whole fields
    rng = np.random.default_rng(7)
    values = rng.integers(-2, 3, size=(7, 6, 9)).astype(float)
    values[(values == 0.0) & (rng.random(values.shape) < 0.5)] = -0.0
    if with_nan:
        values[3, 2, 4] = math.nan  # the approximation from above at m = 2
    times, nodes = np.linspace(0.0, 1.0, 6), np.linspace(-1.0, 1.0, 9)
    reference, *penalized = (pde.ValueField("lower", times, nodes, v, 0.0) for v in values)
    report = sweep_report((1.0, 2.0, 4.0), reference, penalized)
    for name, want in _whole_field_maxima(reference, penalized).items():
        got = getattr(report, name)
        assert np.array_equal(got, want, equal_nan=True), name
    assert math.isnan(report.gap_above[1]) == with_nan


def _sweep_three_ways(spec, grid, schedule):
    """The sweep's report or first failure as `run_penalization_sweep`
    streams it, as the march of a run streams it, and as `sweep_report`
    reads it from the 2L + 1 fields `march_rows` stores."""

    def run():
        fields = _march_fields(spec, grid, schedule, _RUN_CHECKS)
        rows = ["lower", *(f"sweep_{i}" for i in range(2 * len(schedule)))]
        raise_first_failure([fields[row] for row in rows])
        return fields["sweep"].report()

    def stored():
        rows = [two_barrier_row("lower", None), *sweep_rows(schedule)]
        reference, *sweep = raise_first_failure(march_rows(spec, grid, rows))
        whole = _whole_field_maxima(reference, sweep)
        report = sweep_report(schedule, reference, sweep)
        # level by level the same numbers as over whole fields
        assert {name: getattr(report, name) for name in whole} == whole
        return report

    outcomes = []
    for solve in (lambda: run_penalization_sweep(spec, grid, schedule), run, stored):
        try:
            outcomes.append(solve())
        except ValueError as exc:
            outcomes.append(exc)
    return outcomes


def _assert_same_sweep(got, want):
    """Two sweep outcomes are the same failure, or reports with the same
    numbers to the bit, the sign of zero included."""
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert not isinstance(got, Exception), got
    assert got.levels == want.levels
    for name in (
        "gap_above",
        "gap_below",
        "two_sided_gap",
        "monotone_violation_above",
        "monotone_violation_below",
        "sandwich_violation",
        "diagonal_violation",
    ):
        a, b = getattr(got, name), getattr(want, name)
        assert a == b, name
        assert np.array(a).tobytes() == np.array(b).tobytes(), name


def _signed_zero_spec():
    """Zero payoff, driver and drift under a lower obstacle of -0.0: the
    approximation from above, held on that obstacle, and the one from below
    hold zeros of opposite signs, so above - below has zero maxima of both
    signs."""

    def zero(t, x, *_):
        return np.zeros(np.shape(x))

    co = CoefficientSet(
        b=zero,
        sigma=lambda t, x, u, v: np.full(np.shape(x), 0.5),
        driver=lambda t, x, y, z, u, v: np.zeros(np.shape(y)),
        terminal=lambda x: np.zeros(np.shape(x)),
        lower=lambda t, x: np.full(np.shape(x), -0.0),
        upper=lambda t, x: np.ones(np.shape(x)),
        lipschitz=1.0,
        driver_lipschitz=0.0,
    )
    return ProblemSpec(0.5, co, ControlGrid("u", (0.0,)), ControlGrid("v", (0.0,)))


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(data=st.data())
def test_a_streamed_sweep_is_bitwise_the_sweep_of_stored_fields(data):
    name = data.draw(st.sampled_from((*BUILTINS, "signed_zero")))
    if name == "signed_zero":
        spec, (x_min, x_max, horizon) = _signed_zero_spec(), (-2.0, 2.0, 0.5)
    else:
        bp = builtin(name)
        spec, (x_min, x_max, horizon) = bp.spec, (bp.grid.x_min, bp.grid.x_max, bp.grid.horizon)
    grid = SpaceTimeGrid(
        x_min, x_max, data.draw(st.integers(5, 41)), data.draw(st.integers(1, 80)), horizon
    )
    levels = data.draw(
        st.lists(
            st.sampled_from((0.5, 1.0, 2.0, 3.0, 4.0, 8.0, 16.0, 32.0, 64.0)),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    schedule = PenalizationSchedule(tuple(sorted(levels)))
    sweep, run, stored = _sweep_three_ways(spec, grid, schedule)
    _assert_same_sweep(sweep, stored)
    _assert_same_sweep(run, stored)


def test_a_streamed_sweep_fails_on_bilinear_games_pinned_grid():
    # the top penalty breaks the stability margin on the first level, with
    # one message whether the sweep is streamed or read from stored fields
    bp = builtin("bilinear_game")
    assert bp.grid == SpaceTimeGrid(-2.0, 2.0, 41, 64, 1.0)
    outcomes = _sweep_three_ways(bp.spec, bp.grid, bp.schedule)
    for outcome in outcomes:
        assert isinstance(outcome, CflError)
        assert str(outcome) == (
            "stability number 1 exceeds margin 0.9 at t=0.984375;"
            " largest admissible dt is 0.0140625"
        )


def test_the_library_sweep_stores_no_field(monkeypatch):
    # the statistics read every row of the sweep level by level, the
    # reference too, so the march maps no level of any field
    bp = builtin("dynkin_heat")
    *_, stored = _sweep_three_ways(bp.spec, bp.grid, bp.schedule)
    sizes = []
    original = pde.mapped_array

    def recording(shape):
        sizes.append(shape)
        return original(shape)

    monkeypatch.setattr(pde, "mapped_array", recording)
    report = run_penalization_sweep(bp.spec, bp.grid, bp.schedule)
    assert sizes == [(0, bp.grid.nx)]
    _assert_same_sweep(report, stored)


def test_a_zero_sweep_statistic_is_positive_zero():
    # above - below holds zeros of both signs; every difference is +0.0 at
    # the horizon, so each zero maximum is 0.0, on a small grid as on a
    # large one
    for nx, nt in ((5, 20), (41, 80)):
        report = run_penalization_sweep(
            _signed_zero_spec(), SpaceTimeGrid(-2.0, 2.0, nx, nt, 0.5), (1.0, 2.0, 4.0)
        )
        numbers = [
            *report.gap_above,
            *report.gap_below,
            *report.two_sided_gap,
            report.monotone_violation_above,
            report.monotone_violation_below,
            report.sandwich_violation,
            report.diagonal_violation,
        ]
        assert all(v == 0.0 and math.copysign(1.0, v) == 1.0 for v in numbers), numbers


def _mapped_bytes(fields):
    """Bytes of the blocks behind the stored fields that numpy did not
    allocate itself (the march's memory map), which tracemalloc cannot see."""
    blocks = {}
    for field in fields.values():
        if isinstance(field, pde.ValueField):
            root = field.values
            while isinstance(root.base, np.ndarray):
                root = root.base
            if root.base is not None:
                blocks[id(root)] = root.nbytes
    return sum(blocks.values())


def _run_march_peak(spec, grid, schedule):
    """Peak bytes of the default-check march of a run: what tracemalloc
    traces plus the memory map of the stored fields."""
    tracemalloc.start()
    try:
        fields = _march_fields(spec, grid, schedule, DEFAULT_CHECKS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak + _mapped_bytes(fields)


def test_a_run_march_holds_under_four_fields_whatever_the_schedule():
    # the run stores lower, upper and the two dpp heads of half the levels
    # each: three fields, and the sweep's 2L penalized rows only one level
    # at a time
    bp = builtin("dynkin_heat")
    grid = bp.grid
    assert (grid.nx, grid.nt, len(bp.schedule)) == (201, 400, 7)
    field = (grid.nt + 1) * grid.nx * 8
    default = _run_march_peak(bp.spec, grid, bp.schedule)
    assert default < 4 * field
    longer = PenalizationSchedule(tuple(4.0 * k for k in range(1, 17)))
    assert abs(_run_march_peak(bp.spec, grid, longer) - default) < field
    # the sweep's reader streams every penalized row: each ends in None,
    # and only the reference in its field
    rows = [two_barrier_row("lower", None), *sweep_rows(bp.schedule)]
    statistics = pde.SweepStatistics(bp.schedule, range(len(rows)))
    reference, *streamed = march_rows(bp.spec, DYNKIN_COARSE, rows, statistics)
    assert isinstance(reference, pde.ValueField)
    assert streamed == [None] * (2 * len(bp.schedule))


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
        (result,) = _march(spec, grid, [row], terminal, None, 0.9)
        if isinstance(result, Exception):
            return result
    return None


def test_stacked_march_raises_the_first_failing_row_in_call_order():
    spec = _climbing_spec()
    grid = SpaceTimeGrid(-1.0, 1.0, 11, 100, 1.0)
    clamped = ("lower", Variant.named("two_barrier"), "clamped", None)
    climbs = ("lower", Variant.named("penalized", (0.0, 0.0)), "climbs", None)  # nan near t = 0.6
    unstable = ("lower", Variant.named("penalized", (200.0, 0.0)), "unstable", None)  # first level
    for rows in (
        [clamped, climbs, unstable],
        [clamped, unstable, climbs],
        [unstable, climbs],
        [climbs, clamped],
    ):
        expected = _first_error(spec, grid, rows)
        results = _march(spec, grid, rows, None, None, 0.9)
        with pytest.raises(ValueError) as info:
            raise_first_failure(results)
        assert type(info.value) is type(expected)
        assert str(info.value) == str(expected)
        # no row stops another: each ends as its own one-row march does
        for row, result in zip(rows, results):
            _assert_same_result(result, _march(spec, grid, [row], None, None, 0.9)[0])
    # a later row failing at a later level still wins over the first level's
    # failure of an even later row
    with pytest.raises(ValueError, match="nonfinite Hamiltonian integrand"):
        raise_first_failure(_march(spec, grid, [clamped, climbs, unstable], None, None, 0.9))
    # terminal rows fail before any level is marched, row by row
    high = np.full(grid.nx, 0.85)
    rows = [climbs, clamped]
    expected = _first_error(spec, grid, rows, terminal=high)
    assert "nonfinite" in str(expected)
    with pytest.raises(ValueError) as info:
        raise_first_failure(_march(spec, grid, rows, high, None, 0.9))
    assert str(info.value) == str(expected)
    with pytest.raises(ValueError, match="exceed the upper obstacle"):
        raise_first_failure(_march(spec, grid, [clamped, climbs], high, None, 0.9))


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


def _late_nonfinite_spec(name, value):
    """b = 0 and sigma = 0.5, but the coefficient `name` is `value` at
    t <= 0.5 right of x = 0.3."""

    def coefficient(finite, late):
        def fn(t, x, u, v):
            x = np.asarray(x, dtype=float)
            return np.where((t <= 0.5) & (x > 0.3), late, finite)

        return fn

    finite = {"b": 0.0, "sigma": 0.5}
    co = CoefficientSet(
        **{key: coefficient(f, value if key == name else f) for key, f in finite.items()},
        driver=lambda t, x, y, z, u, v: 0.0 * np.asarray(x, dtype=float),
        terminal=lambda x: 0.0 * np.asarray(x, dtype=float),
        lower=lambda t, x: -1.0 + 0.0 * np.asarray(x, dtype=float),
        upper=lambda t, x: 1.0 + 0.0 * np.asarray(x, dtype=float),
        lipschitz=1.0,
        driver_lipschitz=0.0,
    )
    return ProblemSpec(1.0, co, ControlGrid("u", (0.0,)), ControlGrid("v", (0.0,)))


@pytest.mark.parametrize(
    "name, value",
    [("sigma", math.nan), ("b", math.nan), ("b", math.inf), ("sigma", math.inf)],
)
def test_every_backward_reader_names_a_nonfinite_b_or_sigma(name, value):
    spec = _late_nonfinite_spec(name, value)
    grid = SpaceTimeGrid(-1.0, 1.0, 11, 10, 1.0)

    def message(t, x=grid.space_nodes()[7]):  # the first node right of 0.3
        text = f"nonfinite {name} at t={t}, x={x}, controls (0.0, 0.0)"
        return f"^{re.escape(text)}$"

    # the march meets it at t = 0.5, where every row marching fails with it;
    # a row that failed above keeps its own failure, and a head joining
    # below carries its source's
    unstable = ("lower", Variant.named("one_barrier_lower", 10.0), "unstable", None)
    rows = [
        two_barrier_row("lower", None),
        two_barrier_row("upper", None),
        unstable,
        two_barrier_row("lower", (1, 3)),
    ]
    lower, upper, unstable_failed, head = _march(spec, grid, rows, None, None, 0.9)
    assert isinstance(unstable_failed, CflError) and unstable_failed.t == 0.9
    assert isinstance(lower, CoefficientError) and re.match(message(0.5), str(lower))
    assert upper is lower and head is lower
    with pytest.raises(CoefficientError, match=message(0.5)):
        solve_isaacs_double_obstacle(spec, grid, "upper")
    # these read from t = 0 up
    with pytest.raises(CoefficientError, match=message(0.0)):
        cfl_number(spec, grid)
    finite = _late_nonfinite_spec(name, {"b": 0.0, "sigma": 0.5}[name])
    field = solve_isaacs_double_obstacle(finite, grid)
    with pytest.raises(CoefficientError, match=message(0.0)):
        viscosity_residual(spec, field)
    with pytest.raises(CoefficientError, match=message(0.3, 0.7)):
        hamiltonian_lower(spec, HamiltonianInput(0.3, 0.7, 0.2, 1.5, -2.0))
