"""End-to-end gate for the structural guarantees, one verdict per property.

Each test exercises one advertised guarantee at its pinned tolerance on the
named built-in problems and prints a single PASS/FAIL line with the measured
numbers, so a plain pytest run doubles as the acceptance record.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np
import pytest

from isaacs import cli, games, pde, problems, rbsde
from isaacs.forwardsim import build_lattice
from isaacs.model import SpaceTimeGrid, isaacs_condition_check


def _verdict(label, ok, detail):
    print(f"[gate] {label}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def dynkin_sweep():
    bp = problems.builtin("dynkin_heat")
    started = time.monotonic()
    report = pde.run_penalization_sweep(bp.spec, bp.grid, bp.schedule)
    return report, time.monotonic() - started


def test_constant_problem_is_exact_and_fast():
    bp = problems.builtin("constant")
    started = time.monotonic()
    worst = 0.0
    for kind in ("lower", "upper"):
        field = pde.solve_isaacs_double_obstacle(bp.spec, bp.grid, kind)
        worst = max(worst, float(np.max(np.abs(field.values - 0.5))))
    lattice = build_lattice(bp.spec, 0.0, bp.grid)
    sol = rbsde.solve_backward(bp.spec, lattice, mode="two_barrier")
    worst = max(worst, max(float(np.max(np.abs(y - 0.5))) for y in sol.y))
    k_mass = max(
        float(np.max(sol.k_plus_mean)),
        float(np.max(sol.k_minus_mean)),
        max(float(np.max(np.abs(dk))) for dk in sol.dk_plus),
        max(float(np.max(np.abs(dk))) for dk in sol.dk_minus),
    )
    elapsed = time.monotonic() - started
    ok = worst <= 1e-10 and k_mass == 0.0 and elapsed <= 10.0
    _verdict(
        "flat problem reproduced exactly",
        ok,
        f"max value error {worst:.3e}, reflection mass {k_mass:.3e}, {elapsed:.2f} s",
    )


def test_penalization_squeeze_is_monotone_and_contracts(dynkin_sweep):
    report, elapsed = dynkin_sweep
    above_ratio = report.gap_above[-1] / report.gap_above[0]
    below_ratio = report.gap_below[-1] / report.gap_below[0]
    ok = (
        report.monotone_violation_above <= 1e-9
        and report.monotone_violation_below <= 1e-9
        and above_ratio <= 0.25
        and below_ratio <= 0.25
        and report.diagonal_violation <= 1e-9
        and elapsed <= 300.0
    )
    _verdict(
        "penalized approximations squeeze monotonically",
        ok,
        f"monotone {max(report.monotone_violation_above, report.monotone_violation_below):.2e},"
        f" gap ratios {above_ratio:.3f}/{below_ratio:.3f},"
        f" diagonal {report.diagonal_violation:.2e}, {elapsed:.2f} s",
    )


def test_penalized_fields_bracket_and_bound_the_reference(dynkin_sweep):
    report, _ = dynkin_sweep
    ga, gb = report.gap_above[-1], report.gap_below[-1]
    spread = report.two_sided_gap[-1]
    ok = (
        report.sandwich_violation <= 1e-9
        and max(ga, gb) <= spread + 1e-12
        and spread <= ga + gb + 1e-12
    )
    _verdict(
        "one-sided gaps bound the two-sided spread",
        ok,
        f"sandwich {report.sandwich_violation:.2e},"
        f" max(one-sided) {max(ga, gb):.4f} <= spread {spread:.4f}"
        f" <= sum {ga + gb:.4f}",
    )


def test_lattice_and_grid_solvers_agree_under_frozen_controls():
    bp = problems.builtin("dynkin_heat")
    fine_grid = SpaceTimeGrid(-9.0, 9.0, (bp.grid.nx - 1) * 2 + 1, bp.grid.nt * 4, 1.0)
    base, fine = (
        games.fixed_control_crosscheck(bp.spec, build_lattice(bp.spec, 0.0, grid))
        for grid in (bp.grid, fine_grid)
    )
    ok = base.passed and fine.passed and fine.max_diff < base.max_diff
    _verdict(
        "frozen-control solvers agree on the inner half-domain",
        ok,
        f"gap {base.max_diff:.5f} <= {base.tolerance:.5f},"
        f" refined gap {fine.max_diff:.5f} <= {fine.tolerance:.5f}",
    )


def test_recomposing_at_intermediate_times_changes_nothing():
    bp = problems.builtin("dynkin_heat")
    worst = -math.inf
    for kind in ("lower", "upper"):
        for split in (bp.grid.dt, 0.25, 0.5):
            report = games.dpp_check(bp.spec, bp.grid, kind, split=split)
            worst = max(worst, report.max_residual)
    ok = worst <= 1e-12
    _verdict(
        "dynamic programming recomposition is exact",
        ok,
        f"worst residual {worst:.3e} over splits (dt, T/4, T/2), both reductions",
    )


def test_randomized_monotone_data_keeps_solutions_ordered():
    bp = problems.builtin("dynkin_heat")
    grid = SpaceTimeGrid(-9.0, 9.0, 101, 100, 1.0)
    lattice = build_lattice(bp.spec, 0.0, grid)
    co = bp.spec.coefficients
    rng = np.random.default_rng(20260819)
    worst_y = -math.inf
    worst_k = -math.inf
    equal_trials = 0
    for trial in range(100):
        d_term = float(rng.uniform(0.0, 0.3))
        d_drive = float(rng.uniform(0.0, 0.3))
        center = float(rng.uniform(-3.0, 3.0))

        def shape(x, _c=center):
            return 1.0 / (1.0 + np.square(np.asarray(x, dtype=float) - _c))

        changes = {
            "terminal": lambda x, _f=co.terminal, _d=d_term: np.asarray(
                _f(x), dtype=float
            )
            + _d * shape(x),
            "driver": lambda t, x, y, z, u, v, _f=co.driver, _d=d_drive: np.asarray(
                _f(t, x, y, z, u, v), dtype=float
            )
            + _d,
        }
        if trial % 2:
            d_lo = float(rng.uniform(0.0, 0.2))
            d_up = float(rng.uniform(0.0, 0.2))
            changes["lower"] = lambda t, x, _f=co.lower, _d=d_lo: np.asarray(
                _f(t, x), dtype=float
            ) + _d
            changes["upper"] = lambda t, x, _f=co.upper, _d=d_up: np.asarray(
                _f(t, x), dtype=float
            ) + _d
        bigger = dataclasses.replace(
            bp.spec, coefficients=dataclasses.replace(co, **changes)
        )
        report = rbsde.comparison_check(bp.spec, bigger, lattice, samples=16, seed=trial)
        assert report.conclusive, report.hypothesis_detail
        worst_y = max(worst_y, report.max_y_violation)
        if report.equal_barriers:
            equal_trials += 1
            worst_k = max(
                worst_k, report.max_k_plus_violation, report.max_k_minus_violation
            )
    ok = worst_y <= 1e-10 and worst_k <= 1e-10 and equal_trials == 50
    _verdict(
        "comparison holds on randomized ordered data",
        ok,
        f"worst value violation {worst_y:.2e},"
        f" worst reflection violation {worst_k:.2e} over {equal_trials} equal-barrier trials",
    )


def test_reflection_increments_are_complementary_and_flat():
    cases = []
    bp = problems.builtin("dynkin_heat")
    grid = SpaceTimeGrid(-9.0, 9.0, 101, 100, 1.0)
    cases.append((bp.spec, build_lattice(bp.spec, 0.0, grid)))
    sep = problems.builtin("separable_game")
    cases.append((sep.spec, build_lattice(sep.spec, 0.0, sep.grid)))
    worst = 0.0
    nodes_checked = 0
    for spec, lattice in cases:
        sol = rbsde.solve_backward(spec, lattice, mode="two_barrier")
        co = spec.coefficients
        for j in range(len(sol.y) - 1):
            x = lattice.node_values(j)
            t = float(lattice.times[j])
            lo = np.broadcast_to(np.asarray(co.lower(t, x), dtype=float), x.shape)
            up = np.broadcast_to(np.asarray(co.upper(t, x), dtype=float), x.shape)
            worst = max(
                worst,
                float(np.max(np.abs(sol.dk_plus[j] * sol.dk_minus[j]))),
                float(np.max(np.abs((sol.y[j] - lo) * sol.dk_plus[j]))),
                float(np.max(np.abs((up - sol.y[j]) * sol.dk_minus[j]))),
            )
            nodes_checked += x.shape[0]
    ok = worst == 0.0
    _verdict(
        "reflection increments are exactly flat and exclusive",
        ok,
        f"largest complementarity product {worst:.1e} over {nodes_checked} nodes",
    )


def test_saddle_detection_separates_the_two_games():
    sep = problems.builtin("separable_game")
    sep_verdict = games.compute_values(sep.spec, sep.grid)
    bil = problems.builtin("bilinear_game")
    bil_isaacs = isaacs_condition_check(bil.spec, samples=64, seed=0, radius=2.0)
    bil_verdict = games.compute_values(bil.spec, bil.grid)
    ok = (
        sep_verdict.max_gap <= 1e-12
        and sep_verdict.has_value
        and bil_isaacs.max_gap == 2.0
        and not bil_verdict.has_value
    )
    _verdict(
        "separable game has a value, bilinear game does not",
        ok,
        f"separable field gap {sep_verdict.max_gap:.1e};"
        f" bilinear Hamiltonian gap {bil_isaacs.max_gap}"
        f" with field spread {bil_verdict.max_gap:.6f} (recorded, not judged)",
    )


def test_space_regularity_stays_bounded_under_refinement():
    bp = problems.builtin("dynkin_heat")
    quotients = []
    steps = []
    for factor in (1, 2, 4):
        grid = SpaceTimeGrid(
            -9.0, 9.0, (bp.grid.nx - 1) * factor + 1, bp.grid.nt * factor**2, 1.0
        )
        field = pde.solve_isaacs_double_obstacle(bp.spec, grid, "lower")
        quotients.append(float(np.max(np.abs(np.diff(field.initial())))) / grid.dx)
        steps.append(grid.dx)
    slope = float(np.polyfit(np.log(steps), np.log(quotients), 1)[0])
    ok = abs(slope) <= 0.2
    _verdict(
        "difference quotients show no growth trend",
        ok,
        f"quotients {[round(q, 4) for q in quotients]} at dx {steps}, log-log slope {slope:+.3f}",
    )


def test_thread_count_cannot_change_any_output_byte(tmp_path):
    config = cli.parse_config("[problem]\nname = dynkin_heat\n")
    out_a = tmp_path / "threads1"
    out_b = tmp_path / "threads8"
    cli.run(config, str(out_a), seed=0, threads=1, checks=("penalization",), quiet=True)
    cli.run(config, str(out_b), seed=0, threads=8, checks=("penalization",), quiet=True)
    same = {
        name: (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("sweep.csv", "verdict.json")
    }
    ok = all(same.values())
    _verdict(
        "outputs are bit-identical across thread counts",
        ok,
        f"byte-equal: {same}",
    )
