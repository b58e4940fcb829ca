"""Backward lattice solver: exact oracle, reflection structure, orderings."""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isaacs import rbsde
from isaacs.forwardsim import build_lattice
from isaacs.games import CrosscheckReader, fixed_control_crosscheck
from isaacs.model import (
    CoefficientError,
    CoefficientSet,
    ControlGrid,
    PenalizationSchedule,
    ProblemSpec,
    SpaceTimeGrid,
    Variant,
    obstacle_rows,
    on_nodes,
    shifted_spec,
)
from isaacs.problems import builtin, from_expressions
from isaacs.rbsde import (
    ComparisonReader,
    ComparisonReport,
    EstimateReader,
    _lattice_step,
    _occupation,
    apriori_estimate_check,
    backward_semigroup,
    comparison_check,
    read_alone,
    read_walk,
    solve_backward,
)

CONTROLS = (0.0, 0.0)


def _ramp_spec():
    """Deterministic oracle: no dynamics, driver -1, floor at -0.1.

    Backward from zero the unreflected solution is -(T - t); the floor stops
    it at -0.1, so Y(0) = -0.1 exactly, the lower reflection collects the
    whole shortfall (0.9 over the barrier window) and everything else stays
    zero.  With b = sigma = 0 the lattice chain is the identity and the whole
    recursion can be repeated with plain floats next to the solver.
    """
    co = CoefficientSet(
        b=lambda t, x, u, v: 0.0 * np.asarray(x, dtype=float),
        sigma=lambda t, x, u, v: 0.0 * np.asarray(x, dtype=float),
        driver=lambda t, x, y, z, u, v: -1.0 + 0.0 * np.asarray(x, dtype=float),
        terminal=lambda x: 0.0 * np.asarray(x, dtype=float),
        lower=lambda t, x: np.full_like(np.asarray(x, dtype=float), -0.1),
        upper=lambda t, x: np.full_like(np.asarray(x, dtype=float), 1.0),
        lipschitz=0.0,
        driver_lipschitz=0.0,
    )
    return ProblemSpec(
        horizon=1.0,
        coefficients=co,
        controls_i=ControlGrid("u", (0.0,)),
        controls_ii=ControlGrid("v", (0.0,)),
    )


def _ramp_lattice(nt=100):
    return build_lattice(_ramp_spec(), 0.0, SpaceTimeGrid(-1.0, 1.0, 5, nt, 1.0))


def _float_ramp_recursion(nt):
    """The same backward recursion in scalar arithmetic, step by step."""
    dt = 1.0 / nt
    y = 0.0
    levels = [y]
    pushes = []
    for _ in range(nt):
        y_tilde = y + dt * -1.0
        push = max(-0.1 - y_tilde, 0.0)
        y = max(y_tilde, -0.1)
        levels.append(y)
        pushes.append(push)
    return levels[::-1], pushes[::-1]


def test_ramp_oracle_value_and_reflection():
    spec, lattice = _ramp_spec(), _ramp_lattice()
    sol = solve_backward(spec, lattice, mode="two_barrier")
    levels, pushes = _float_ramp_recursion(100)

    assert float(sol.y[0][sol.root_index]) == -0.1
    for j in (0, 3, 42, 99, 100):
        assert np.all(sol.y[j] == levels[j])
    # all pushes happen at the lower barrier and sum to 0.9
    assert abs(float(sol.k_plus_mean[-1]) - 0.9) < 1e-12
    assert abs(float(sol.k_plus_mean[-1]) - sum(pushes)) < 1e-12
    assert np.all(sol.k_minus_mean == 0.0)
    assert all(np.all(dk == 0.0) for dk in sol.dk_minus)
    assert all(np.all(z == 0.0) for z in sol.z)
    assert sol.flatness_lower == 0.0
    assert sol.flatness_upper == 0.0
    assert sol.exclusion_max == 0.0


def test_cumulative_reflection_means_are_monotone_from_zero():
    sol = solve_backward(_ramp_spec(), _ramp_lattice(), mode="two_barrier")
    assert sol.k_plus_mean[0] == 0.0 and sol.k_minus_mean[0] == 0.0
    assert np.all(np.diff(sol.k_plus_mean) >= 0.0)
    assert np.all(np.diff(sol.k_minus_mean) >= 0.0)


def test_zero_penalty_equals_plain_bitwise():
    spec, lattice = _ramp_spec(), _ramp_lattice()
    plain = solve_backward(spec, lattice, mode="plain")
    pen = solve_backward(spec, lattice, mode="penalized", penalty=(0.0, 0.0))
    assert all(np.array_equal(a, b) for a, b in zip(plain.y, pen.y))
    assert float(plain.y[0][plain.root_index]) == pytest.approx(-1.0, abs=1e-12)
    assert all(np.all(dk == 0.0) for dk in plain.dk_plus)


def _dynkin_lattice():
    bp = builtin("dynkin_heat")
    grid = SpaceTimeGrid(-9.0, 9.0, 101, 100, 1.0)
    return bp.spec, build_lattice(bp.spec, 0.0, grid)


def test_two_barrier_solution_stays_sandwiched():
    spec, lattice = _dynkin_lattice()
    sol = solve_backward(spec, lattice, mode="two_barrier")
    co = spec.coefficients
    for j in range(len(sol.y)):
        x = lattice.node_values(j)
        t = float(lattice.times[j])
        assert np.all(sol.y[j] >= np.asarray(co.lower(t, x), dtype=float))
        assert np.all(sol.y[j] <= np.asarray(co.upper(t, x), dtype=float))


def test_reflection_increments_are_flat_and_mutually_exclusive():
    # the clamp construction makes the complementarity products exact zeros,
    # not merely small: a raised node sits bitwise on the obstacle
    spec, lattice = _dynkin_lattice()
    sol = solve_backward(spec, lattice, mode="two_barrier")
    co = spec.coefficients
    assert sum(float(np.sum(dk)) for dk in sol.dk_plus) > 0.0
    assert sum(float(np.sum(dk)) for dk in sol.dk_minus) > 0.0
    for j in range(len(sol.y) - 1):
        x = lattice.node_values(j)
        t = float(lattice.times[j])
        lo = np.asarray(co.lower(t, x), dtype=float)
        up = np.asarray(co.upper(t, x), dtype=float)
        assert np.all(sol.dk_plus[j] * sol.dk_minus[j] == 0.0)
        assert np.all((sol.y[j] - lo) * sol.dk_plus[j] == 0.0)
        assert np.all((up - sol.y[j]) * sol.dk_minus[j] == 0.0)
    assert sol.exclusion_max == 0.0
    assert sol.flatness_lower == 0.0 and sol.flatness_upper == 0.0


def test_occupation_law_stays_a_probability_vector():
    spec, lattice = _dynkin_lattice()
    sol = solve_backward(spec, lattice, mode="two_barrier")
    for w in sol.occupation:
        assert np.all(w >= 0.0)
        assert abs(float(np.sum(w)) - 1.0) < 1e-12


def test_one_barrier_approximations_squeeze_the_reflected_solution():
    spec, lattice = _dynkin_lattice()
    ref = solve_backward(spec, lattice, mode="two_barrier")
    tol = 1e-9
    prev_above = prev_below = None
    for m in (4.0, 16.0, 64.0):
        above = solve_backward(
            spec, lattice, mode="one_barrier_lower", penalty=m
        )
        below = solve_backward(
            spec, lattice, mode="one_barrier_upper", penalty=m
        )
        for j in range(len(ref.y)):
            assert np.all(above.y[j] >= ref.y[j] - tol)
            assert np.all(below.y[j] <= ref.y[j] + tol)
            if prev_above is not None:
                assert np.all(above.y[j] <= prev_above.y[j] + tol)
                assert np.all(below.y[j] >= prev_below.y[j] - tol)
        prev_above, prev_below = above, below
    gap = max(
        float(np.max(a - b)) for a, b in zip(prev_above.y, prev_below.y)
    )
    assert gap < 0.12


def test_recomposition_through_an_intermediate_step_is_exact():
    spec, lattice = _dynkin_lattice()
    full = solve_backward(spec, lattice, mode="two_barrier")
    head = backward_semigroup(spec, lattice, 0, 50, full.y[50])
    assert np.array_equal(head, full.y[0])


def test_solution_is_a_function_of_time_and_state_only():
    # restarting on a fresh lattice at t = 1/2 reproduces the tail of the
    # full solve bitwise wherever the node sets overlap, aligned by
    # first_index since either lattice may be capped at its halo; dyadic dt
    # keeps every time level exactly representable so the arithmetic is
    # identical
    bp = builtin("dynkin_heat")
    grid = SpaceTimeGrid(-9.0, 9.0, 101, 128, 1.0)
    big = build_lattice(bp.spec, 0.0, grid)
    sub = build_lattice(bp.spec, 0.5, grid)
    sol_big = solve_backward(bp.spec, big, mode="two_barrier")
    sol_sub = solve_backward(bp.spec, sub, mode="two_barrier")
    assert sub.n_steps == 64
    for j in (0, 32, 64):
        offset = sub.first_index[j] - big.first_index[64 + j]
        inner = sol_big.y[64 + j][offset : offset + sub.counts[j]]
        assert np.array_equal(inner, sol_sub.y[j])


def test_comparison_orders_solutions_and_reflections():
    spec, lattice = _dynkin_lattice()
    co = spec.coefficients
    bigger = dataclasses.replace(
        spec,
        coefficients=dataclasses.replace(
            co,
            terminal=lambda x, _f=co.terminal: np.asarray(_f(x), dtype=float) + 0.1,
            driver=lambda t, x, y, z, u, v, _f=co.driver: np.asarray(
                _f(t, x, y, z, u, v), dtype=float
            )
            + 0.1,
        ),
    )
    report = comparison_check(spec, bigger, lattice, samples=32)
    assert report.conclusive and report.equal_barriers
    assert report.max_y_violation <= 1e-10
    assert report.max_k_plus_violation <= 1e-10
    assert report.max_k_minus_violation <= 1e-10
    assert report.passed


def test_comparison_with_widened_barriers_skips_reflection_orderings():
    spec, lattice = _dynkin_lattice()
    co = spec.coefficients
    wider = dataclasses.replace(
        spec,
        coefficients=dataclasses.replace(
            co,
            upper=lambda t, x, _f=co.upper: np.asarray(_f(t, x), dtype=float) + 0.2,
        ),
    )
    report = comparison_check(spec, wider, lattice, samples=32)
    assert report.conclusive and not report.equal_barriers
    assert report.max_y_violation <= 1e-10
    assert report.max_k_plus_violation == -math.inf
    assert report.passed


def test_comparison_declines_unordered_data():
    spec, lattice = _dynkin_lattice()
    co = spec.coefficients
    smaller = dataclasses.replace(
        spec,
        coefficients=dataclasses.replace(
            co,
            terminal=lambda x, _f=co.terminal: np.asarray(_f(x), dtype=float) - 0.1,
        ),
    )
    report = comparison_check(spec, smaller, lattice, samples=32)
    assert not report.conclusive
    assert not report.passed
    assert "terminal ordering fails" in report.hypothesis_detail
    assert math.isnan(report.max_y_violation)


@pytest.mark.parametrize("samples", [0, -1])
def test_comparison_refuses_fewer_than_one_sample(samples):
    # with no samples drawn the ordering hypotheses would go unchecked and an
    # unordered pair would read as conclusive
    spec, lattice = _dynkin_lattice()
    smaller = shifted_spec(spec, -0.1, ("terminal",))
    with pytest.raises(ValueError, match="samples must be at least 1"):
        comparison_check(spec, smaller, lattice, samples=samples)


def test_apriori_constants_are_stable_under_refinement():
    bp = builtin("dynkin_heat")
    grid = SpaceTimeGrid(-9.0, 9.0, 101, 100, 1.0)
    report = apriori_estimate_check(bp.spec, build_lattice(bp.spec, 0.0, grid, CONTROLS))
    assert set(report.constants) == {"size", "state_lipschitz", "perturbation"}
    for name, value in report.constants.items():
        assert math.isfinite(value) and value > 0.0, name
    # halving dt would push sigma^2 dt / dx^2 past 1 here, so the checker
    # must fall back to the quartered step
    assert report.refinement == "dx/2, dt/4"
    assert report.passed, report.ratios


def test_refinement_fallback_is_for_infeasible_lattices_only():
    # the coefficient breaks once, on the first time off the base grid: the
    # dt/2 build hits that, and the error must surface instead of sending the
    # check to the dt/4 lattice (which would evaluate fine)
    bp = builtin("dynkin_heat")
    grid = SpaceTimeGrid(-9.0, 9.0, 41, 100, 1.0)
    co = bp.spec.coefficients
    broken = []

    def b(t, x, u, v):
        if not broken and abs(t * grid.nt - round(t * grid.nt)) > 1e-9:
            broken.append(t)
            raise RuntimeError(f"coefficient failed at t={t}")
        return co.b(t, x, u, v)

    spec = dataclasses.replace(bp.spec, coefficients=dataclasses.replace(co, b=b))
    base = build_lattice(spec, 0.0, grid, CONTROLS)
    with pytest.raises(RuntimeError, match="coefficient failed"):
        apriori_estimate_check(spec, base)
    assert broken == [0.5 / grid.nt]


def test_penalization_schedule_validation():
    assert list(PenalizationSchedule((1.0, 2.0))) == [1.0, 2.0]
    assert len(PenalizationSchedule((3.0,))) == 1
    with pytest.raises(ValueError, match="empty"):
        PenalizationSchedule(())
    with pytest.raises(ValueError, match="strictly increasing"):
        PenalizationSchedule((1.0, 1.0))
    with pytest.raises(ValueError, match="strictly increasing"):
        PenalizationSchedule((0.0, 1.0))


def test_explicit_step_contraction_precondition():
    spec, lattice = _ramp_spec(), _ramp_lattice()
    with pytest.raises(ValueError, match="not contracting"):
        solve_backward(spec, lattice, mode="penalized", penalty=(150.0, 0.0))


def test_control_and_step_range_validation():
    spec, lattice = _ramp_spec(), _ramp_lattice()
    # the chain of (1, 0), a pair off the ramp's u grid
    wide = dataclasses.replace(spec, controls_i=ControlGrid("u", (0.0, 1.0)))
    other = build_lattice(wide, 0.0, SpaceTimeGrid(-1.0, 1.0, 5, 100, 1.0), (1.0, 0.0))
    with pytest.raises(ValueError, match="not on grid"):
        solve_backward(spec, other)
    with pytest.raises(ValueError, match="bad step range"):
        solve_backward(spec, lattice, start_step=50, end_step=50)
    with pytest.raises(ValueError, match="unknown mode"):
        solve_backward(spec, lattice, mode="sideways")


_SMALL_GRIDS = {
    "dynkin_heat": SpaceTimeGrid(-9.0, 9.0, 37, 40, 1.0),
    "separable_game": SpaceTimeGrid(-6.0, 6.0, 41, 40, 1.0),
}
_ORDERED_CASES = [
    (name, pair)
    for name in sorted(_SMALL_GRIDS)
    for pair in builtin(name).spec.control_pairs()
]


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(
    case=st.sampled_from(_ORDERED_CASES),
    mode=st.sampled_from(("two_barrier", "one_barrier_lower", "one_barrier_upper", "plain")),
    d_term=st.floats(0.0, 0.4),
    d_drive=st.floats(0.0, 0.5),
    center=st.floats(-3.0, 3.0),
)
def test_comparison_holds_on_generated_ordered_data(case, mode, d_term, d_drive, center):
    name, pair = case
    spec = builtin(name).spec
    co = spec.coefficients
    bigger = dataclasses.replace(
        spec,
        coefficients=dataclasses.replace(
            co,
            terminal=lambda x: np.asarray(co.terminal(x), dtype=float)
            + d_term / (1.0 + np.square(np.asarray(x, dtype=float) - center)),
            driver=lambda t, x, y, z, u, v: np.asarray(
                co.driver(t, x, y, z, u, v), dtype=float
            )
            + d_drive,
        ),
    )
    lattice = build_lattice(spec, 0.0, _SMALL_GRIDS[name], pair)
    penalty = 4.0 if mode.startswith("one_barrier") else None
    report = comparison_check(spec, bigger, lattice, mode=mode, penalty=penalty, samples=16)
    assert report.conclusive, report.hypothesis_detail
    assert report.passed, report


def test_terminal_override_is_validated():
    spec, lattice = _ramp_spec(), _ramp_lattice()
    n_end = lattice.counts[lattice.n_steps]
    with pytest.raises(ValueError, match="shape"):
        solve_backward(spec, lattice, terminal=np.zeros(3))
    with pytest.raises(ValueError, match="below the lower obstacle"):
        solve_backward(spec, lattice, terminal=np.full(n_end, -5.0))
    with pytest.raises(ValueError, match="exceed the upper obstacle"):
        solve_backward(spec, lattice, terminal=np.full(n_end, 5.0))


def test_default_payoff_outside_a_clamped_obstacle_is_refused():
    # the grid solver refuses this payoff; the lattice solver must as well
    # and not silently clamp it on the first step
    spec = _ramp_spec()
    co = dataclasses.replace(spec.coefficients, terminal=lambda x: 2.0 + 0.0 * x)
    spec = dataclasses.replace(spec, coefficients=co)
    lattice = build_lattice(spec, 0.0, SpaceTimeGrid(-1.0, 1.0, 5, 100, 1.0))
    with pytest.raises(ValueError, match="exceed the upper obstacle"):
        solve_backward(spec, lattice, mode="two_barrier")
    with pytest.raises(ValueError, match="exceed the upper obstacle"):
        solve_backward(spec, lattice, mode="one_barrier_upper", penalty=1.0)
    solve_backward(spec, lattice, mode="one_barrier_lower", penalty=1.0)


def test_penalty_mode_argument_validation():
    spec, lattice = _ramp_spec(), _ramp_lattice()
    with pytest.raises(ValueError, match="takes no penalty"):
        solve_backward(spec, lattice, mode="two_barrier", penalty=3.0)
    with pytest.raises(ValueError, match="nonnegative"):
        solve_backward(spec, lattice, mode="one_barrier_lower", penalty=-1.0)
    with pytest.raises(ValueError, match="penalty pair"):
        solve_backward(spec, lattice, mode="penalized", penalty=5.0)


# -- the a-priori estimate walk ------------------------------------------


def _estimate_quantities(spec, lattice, perturbation):
    """The three estimate quotients of an `EstimateReader` fed by a walk of
    its own."""
    reader = EstimateReader(spec, lattice, perturbation)
    return read_alone(lattice, Variant.named("two_barrier"), reader).quantities()


class _RootRow:
    """A reader of one problem's rows that keeps the last row it is fed:
    after a whole walk, what `backward_semigroup(spec, lattice, 0, n_steps,
    None)` returns."""

    def __init__(self, spec):
        self.specs = (spec,)

    def feed(self, j, step, rows):
        ((self.values, *_),) = rows


def _reference_estimate_quantities(spec, lattice, perturbation):
    """The three estimate quotients composed from whole solves: two
    `solve_backward` calls, four Snell envelopes and three moment recursions,
    each its own backward pass over stored levels.  The streaming walk of
    `EstimateReader` must reproduce these numbers bitwise."""
    co = spec.coefficients
    n_steps = lattice.n_steps
    u, v = lattice.controls
    dt = float(lattice.times[1] - lattice.times[0])
    root = lattice.counts[0] // 2
    zeros = np.zeros(lattice.counts[n_steps])

    def expectation(y_next, j):
        center, probs = lattice.transition(j)
        return (
            probs[:, 0] * y_next[center - 1]
            + probs[:, 1] * y_next[center]
            + probs[:, 2] * y_next[center + 1]
        )

    def snell(level_fn):
        cur = level_fn(n_steps)
        for j in range(n_steps - 1, -1, -1):
            cur = np.maximum(level_fn(j), expectation(cur, j))
        return float(cur[root])

    def moments(terminal, increment):
        mean = terminal
        sq = terminal * terminal
        for j in range(n_steps - 1, -1, -1):
            em = expectation(mean, j)
            eq = expectation(sq, j)
            g = increment(j)
            mean = g + em
            sq = g * g + 2.0 * g * em + eq
        return float(mean[root]), float(sq[root])

    def obstacles(j):
        return obstacle_rows(co, float(lattice.times[j]), lattice.node_values(j))

    def f0_dt(j):
        x = lattice.node_values(j)
        f0 = co.driver(float(lattice.times[j]), x, 0.0, 0.0, u, v)
        return np.abs(np.broadcast_to(np.asarray(f0, float), x.shape)) * dt

    sol = solve_backward(spec, lattice, mode="two_barrier")
    lhs_size = snell(lambda j: sol.y[j] ** 2)
    phi = np.asarray(co.terminal(lattice.node_values(n_steps)), float)
    term_sq, _ = moments(phi ** 2 + zeros, lambda j: 0.0)
    _, drive_sq = moments(zeros, f0_dt)
    snell_lo = snell(lambda j: obstacles(j)[0] ** 2)
    snell_up = snell(lambda j: obstacles(j)[1] ** 2)
    rhs_size = term_sq + drive_sq + snell_lo + snell_up
    const_size = lhs_size / rhs_size if rhs_size > 0 else math.inf

    quot = float(np.max(np.abs(np.diff(sol.y[0])))) / lattice.grid.dx
    const_state = quot / max(co.lipschitz, 1e-30)

    eps = perturbation
    spec_b = shifted_spec(spec, eps, ("terminal", "driver", "upper"))
    sol_b = solve_backward(spec_b, lattice, mode="two_barrier")
    lhs_dy = snell(lambda j: (sol.y[j] - sol_b.y[j]) ** 2)
    lhs_dz, _ = moments(zeros, lambda j: (sol.z[j] - sol_b.z[j]) ** 2 * dt)
    _, lhs_dk = moments(
        zeros,
        lambda j: sol.dk_plus[j] - sol.dk_minus[j] - sol_b.dk_plus[j] + sol_b.dk_minus[j],
    )
    rhs_diff = eps * eps + (spec.horizon * eps) ** 2 + eps
    const_diff = (lhs_dy + lhs_dz + lhs_dk) / rhs_diff
    return {"size": const_size, "state_lipschitz": const_state, "perturbation": const_diff}


def _drifting_spec():
    """dynkin_heat's tents under the bounded drift 6 tanh(x), with a driver
    that reads y and z: on a grid with b dt / dx up to 0.6 the lattice's
    shift varies by node, so the transition centers are not contiguous."""
    spec = builtin("dynkin_heat").spec
    co = dataclasses.replace(
        spec.coefficients,
        b=lambda t, x, u, v: 6.0 * np.tanh(np.asarray(x, dtype=float)),
        sigma=lambda t, x, u, v: np.ones_like(np.asarray(x, dtype=float)),
        driver=lambda t, x, y, z, u, v: 0.3 * np.sin(np.asarray(x, dtype=float))
        - 0.2 * y
        + 0.1 * np.tanh(z),
        driver_lipschitz=0.3,
    )
    return dataclasses.replace(spec, coefficients=co)


_DRIFT_GRID = SpaceTimeGrid(-4.0, 4.0, 41, 50, 1.0)

_ESTIMATE_CASES = {
    "dynkin_heat": (builtin("dynkin_heat").spec, SpaceTimeGrid(-9.0, 9.0, 37, 40, 1.0)),
    "separable_game": (
        builtin("separable_game").spec,
        SpaceTimeGrid(-6.0, 6.0, 41, 40, 1.0),
    ),
    "bilinear_game": (builtin("bilinear_game").spec, SpaceTimeGrid(-2.0, 2.0, 21, 32, 1.0)),
    "drifting": (_drifting_spec(), _DRIFT_GRID),
}


def test_the_drifting_lattice_has_node_varying_shifts():
    spec, grid = _ESTIMATE_CASES["drifting"]
    lattice = build_lattice(spec, 0.0, grid)
    center, _ = lattice.transition(0)
    assert len(np.unique(np.diff(center))) > 1


@pytest.mark.parametrize("case", sorted(_ESTIMATE_CASES))
def test_estimate_walk_equals_the_solve_composition_bitwise(case):
    spec, grid = _ESTIMATE_CASES[case]
    for pair in spec.control_pairs():
        lattice = build_lattice(spec, 0.0, grid, pair)
        for eps in (0.1, 0.37):
            walk = _estimate_quantities(spec, lattice, eps)
            assert walk == _reference_estimate_quantities(spec, lattice, eps), (pair, eps)


# the lattices `isaacs run` walks: every builtin whose pinned grid admits
# one, and the time-dependent and multi-pair problems of the CI steps
_CI_TEXTS = dict(
    horizon=0.5,
    driver="0",
    terminal="max(0, 1 - abs(x))",
    lower="0 - 2",
    upper="2",
    lipschitz=1.0,
    driver_lipschitz=0.0,
)
_CI_GRID = SpaceTimeGrid(-4.0, 4.0, 41, 40, 0.5)
_RUN_LATTICES = {
    **{
        name: (builtin(name).spec, builtin(name).grid)
        for name in ("constant", "dynkin_heat", "bilinear_game", "separable_game")
    },
    "time_dependent": (
        from_expressions(
            **_CI_TEXTS,
            b="0.3 * t * (1 + u)",
            sigma="1 + 0.5 * t",
            controls_i=(0.0,),
            controls_ii=(0.0,),
        ),
        _CI_GRID,
    ),
    "multi_pair": (
        from_expressions(
            **{**_CI_TEXTS, "driver": "0.1 * v"},
            b="0.3 * u",
            sigma="1",
            controls_i=(-1.0, 1.0),
            controls_ii=(0.0, 1.0),
        ),
        _CI_GRID,
    ),
}


@pytest.mark.parametrize("case", sorted(_RUN_LATTICES))
def test_one_walk_reads_what_the_three_separate_walks_read_bitwise(case):
    spec, grid = _RUN_LATTICES[case]
    lattice = build_lattice(spec, 0.0, grid)
    lifted = shifted_spec(spec, 0.05, ("terminal", "driver"))
    readers = [
        ComparisonReader(spec, lifted, "two_barrier", 64, 3),
        CrosscheckReader(spec, lattice),
        EstimateReader(spec, lattice, 0.1),
    ]
    assert read_walk(lattice, Variant.named("two_barrier"), readers) == [None] * 3
    comparison, crosscheck, estimates = readers
    assert comparison.conclusive
    assert comparison.report() == comparison_check(spec, lifted, lattice, seed=3)
    y0 = backward_semigroup(spec, lattice, 0, lattice.n_steps, None)
    assert crosscheck.y0.tobytes() == y0.tobytes()
    assert repr(crosscheck.report()) == repr(fixed_control_crosscheck(spec, lattice))
    assert estimates.quantities() == _reference_estimate_quantities(spec, lattice, 0.1)
    assert repr(estimates.report()) == repr(apriori_estimate_check(spec, lattice))


def test_the_walk_carries_only_the_rows_its_readers_read(monkeypatch):
    spec, lattice = _ramp_spec(), _ramp_lattice()
    walked = []
    original = rbsde._walk

    def counting(specs, *args):
        walked.append(len(specs))
        return original(specs, *args)

    monkeypatch.setattr(rbsde, "_walk", counting)
    smaller = shifted_spec(spec, -0.05, ("terminal", "driver"))
    # the hypotheses fail for a problem above its comparand: no row is read
    inconclusive = ComparisonReader(spec, smaller, "two_barrier", 16, 0)
    assert inconclusive.specs == ()
    two_barrier = Variant.named("two_barrier")
    assert read_walk(lattice, two_barrier, [inconclusive]) == [None]
    assert walked == []
    initial = _RootRow(spec)
    assert read_walk(lattice, two_barrier, [inconclusive, initial]) == [None, None]
    assert walked == [1]
    report = inconclusive.report()
    assert not report.conclusive and not report.passed and math.isnan(report.max_y_violation)
    lifted = shifted_spec(spec, 0.05, ("terminal", "driver"))
    readers = [
        ComparisonReader(spec, lifted, "two_barrier", 16, 0),
        _RootRow(spec),
        EstimateReader(spec, lattice, 0.1),
    ]
    walked.clear()
    read_walk(lattice, two_barrier, readers)
    assert walked == [3]


def test_a_failing_row_stops_only_its_own_readers():
    # the lifted payoff leaves the upper obstacle, so the lifted row is
    # refused at the horizon; the readers of the other rows read every level
    spec, lattice = _ramp_spec(), _ramp_lattice()
    at_upper = dataclasses.replace(
        spec.coefficients, terminal=lambda x: np.full_like(np.asarray(x, dtype=float), 1.0)
    )
    spec = dataclasses.replace(spec, coefficients=at_upper)
    lifted = shifted_spec(spec, 0.05, ("terminal", "driver"))
    readers = [
        ComparisonReader(spec, lifted, "two_barrier", 16, 0),
        _RootRow(spec),
        EstimateReader(spec, lattice, 0.1),
    ]
    comparison, initial, estimates = read_walk(lattice, Variant.named("two_barrier"), readers)
    assert str(comparison) == "terminal values exceed the upper obstacle at t=1"
    assert initial is estimates is None
    y0 = backward_semigroup(spec, lattice, 0, lattice.n_steps, None)
    assert readers[1].values.tobytes() == y0.tobytes()
    assert readers[2].quantities() == _estimate_quantities(spec, lattice, 0.1)


def test_a_refused_coefficient_fails_only_the_rows_that_read_it():
    # the first row's sigma has the wrong shape, so that row fails at the
    # first level below the horizon; the second row evaluates its own sigma
    # and walks to the root as if it were walked alone
    bp = builtin("dynkin_heat")
    grid = bp.grid
    lattice = build_lattice(bp.spec, 0.0, SpaceTimeGrid(grid.x_min, grid.x_max, 37, 40, 1.0))
    co = bp.spec.coefficients

    def with_sigma(sigma):
        return dataclasses.replace(bp.spec, coefficients=dataclasses.replace(co, sigma=sigma))

    broken = with_sigma(lambda t, x, u, v: np.zeros(3))
    scaled = with_sigma(lambda t, x, u, v: 1.1 * co.sigma(t, x, u, v))
    readers = [_RootRow(broken), _RootRow(scaled)]
    failure, other = read_walk(lattice, Variant.named("two_barrier"), readers)
    assert isinstance(failure, CoefficientError)
    assert str(failure).startswith("sigma returned shape (3,) for nodes of shape")
    assert other is None
    y0 = backward_semigroup(scaled, lattice, 0, lattice.n_steps, None)
    assert readers[1].values.tobytes() == y0.tobytes()


def test_the_step_reads_contiguous_columns_of_the_stored_probabilities():
    bp = builtin("dynkin_heat")
    grid = bp.grid
    fine = SpaceTimeGrid(grid.x_min, grid.x_max, 2 * grid.nx - 1, 4 * grid.nt, grid.horizon)
    lattice = build_lattice(bp.spec, 0.0, fine)
    assert (lattice.counts[0], lattice.n_steps) == (401, 1600)
    assert any(a is b for a, b in zip(lattice.transitions, lattice.transitions[1:]))
    step = None
    for j in range(lattice.n_steps - 1, -1, -1):
        step = _lattice_step(lattice, j, step)
        _, probs = lattice.transition(j)
        for k, column in enumerate((step.p_down, step.p_stay, step.p_up)):
            assert column.flags.c_contiguous
            assert column.tobytes() == probs[:, k].tobytes(), (j, k)


def test_estimate_walk_refuses_what_solve_backward_refuses():
    spec, lattice = _ramp_spec(), _ramp_lattice()
    high = dataclasses.replace(
        spec, coefficients=dataclasses.replace(spec.coefficients, terminal=lambda x: 2.0 + 0.0 * x)
    )
    with pytest.raises(ValueError, match="exceed the upper obstacle"):
        solve_backward(high, lattice)
    with pytest.raises(ValueError, match="exceed the upper obstacle"):
        _estimate_quantities(high, lattice, 0.1)
    steep = dataclasses.replace(
        spec, coefficients=dataclasses.replace(spec.coefficients, driver_lipschitz=150.0)
    )
    with pytest.raises(ValueError, match="not contracting"):
        solve_backward(steep, lattice)
    with pytest.raises(ValueError, match="not contracting"):
        _estimate_quantities(steep, lattice, 0.1)


def _add_at_occupation(lattice, start_step, end_step, root_index):
    occ = [np.zeros(lattice.counts[start_step])]
    occ[0][root_index] = 1.0
    for j in range(start_step, end_step):
        center, probs = lattice.transition(j)
        nxt = np.zeros(lattice.counts[j + 1])
        np.add.at(nxt, (center[:, None] + (-1, 0, 1)).T, (occ[-1][:, None] * probs).T)
        occ.append(nxt)
    return occ


@pytest.mark.parametrize("steps", [(0, None, None), (7, 41, 3)])
def test_occupation_rows_equal_the_add_at_accumulation(steps):
    spec, grid = _ESTIMATE_CASES["drifting"]
    lattice = build_lattice(spec, 0.0, grid)
    start, end, root = steps
    end = lattice.n_steps if end is None else end
    root = lattice.counts[start] // 2 if root is None else root
    got = _occupation(lattice, start, end, root)
    want = _add_at_occupation(lattice, start, end, root)
    assert len(got) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def _lattice_of_the_second_pair():
    """separable_game on a small grid and the chain of (1, 0), which is not
    the pair of the first points of its control grids."""
    spec = builtin("separable_game").spec
    assert spec.control_pair() != (1.0, 0.0)
    return spec, build_lattice(spec, 0.0, SpaceTimeGrid(-6.0, 6.0, 41, 40, 1.0), (1.0, 0.0))


def test_every_reader_on_a_non_first_pair_lattice_reports_that_pair():
    spec, lattice = _lattice_of_the_second_pair()
    assert solve_backward(spec, lattice).controls == (1.0, 0.0)
    assert fixed_control_crosscheck(spec, lattice).controls == (1.0, 0.0)
    lifted = shifted_spec(spec, 0.05, ("terminal", "driver"))
    report = comparison_check(spec, lifted, lattice, samples=16)
    assert report.conclusive and report.passed, report
    assert apriori_estimate_check(spec, lattice).passed


def test_a_lattice_not_from_t0_is_refused_by_both_checks_alike():
    spec = builtin("separable_game").spec
    late = build_lattice(spec, 0.5, SpaceTimeGrid(-6.0, 6.0, 41, 40, 1.0))
    messages = []
    for check in (apriori_estimate_check, fixed_control_crosscheck):
        with pytest.raises(ValueError, match="must start at t = 0, not at t = 0.5") as caught:
            check(spec, late)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]


def test_every_reader_refuses_a_lattice_pair_off_the_control_grids():
    spec, lattice = _lattice_of_the_second_pair()
    # the same problem with u = 1 taken off its grid
    narrow = dataclasses.replace(spec, controls_i=ControlGrid("u", (0.0,)))
    lifted = shifted_spec(narrow, 0.05, ("terminal", "driver"))
    readers = {
        "solve_backward": lambda: solve_backward(narrow, lattice),
        "backward_semigroup": lambda: backward_semigroup(narrow, lattice, 0, 10, None),
        "comparison_check": lambda: comparison_check(narrow, lifted, lattice, samples=16),
        "apriori_estimate_check": lambda: apriori_estimate_check(narrow, lattice),
        "fixed_control_crosscheck": lambda: fixed_control_crosscheck(narrow, lattice),
    }
    for name, read in readers.items():
        with pytest.raises(ValueError, match="not on grid"):
            read()


# -- the streamed comparison ---------------------------------------------


def _reference_comparison(spec_a, spec_b, lattice, mode, penalty, equal_barriers):
    """`comparison_check`'s report on ordered data, composed from two whole
    `solve_backward` calls and maxima over their stored levels.  The
    streamed comparison must reproduce it bitwise."""
    sol_a = solve_backward(spec_a, lattice, mode=mode, penalty=penalty)
    sol_b = solve_backward(spec_b, lattice, mode=mode, penalty=penalty)
    y_viol = max(float(np.max(ya - yb)) for ya, yb in zip(sol_a.y, sol_b.y))
    if equal_barriers and mode == "two_barrier":
        km_viol = max(float(np.max(da - db)) for da, db in zip(sol_a.dk_minus, sol_b.dk_minus))
        kp_viol = max(float(np.max(db - da)) for da, db in zip(sol_a.dk_plus, sol_b.dk_plus))
    else:
        km_viol = kp_viol = -math.inf
    tol = 1e-10
    return ComparisonReport(
        conclusive=True,
        hypothesis_detail="ok",
        equal_barriers=equal_barriers,
        max_y_violation=y_viol,
        max_k_plus_violation=kp_viol,
        max_k_minus_violation=km_viol,
        tolerance=tol,
        passed=(y_viol <= tol and kp_viol <= tol and km_viol <= tol),
    )


_COMPARISON_MODES = [
    ("two_barrier", None),
    ("one_barrier_lower", 4.0),
    ("one_barrier_upper", 4.0),
    ("plain", None),
    ("penalized", (2.0, 3.0)),
]


def _rewrapped(spec):
    """The spec with sigma and both obstacles behind new callables of equal
    values, so that no row of a walk with `spec` first is shared."""
    co = spec.coefficients
    return dataclasses.replace(
        spec,
        coefficients=dataclasses.replace(
            co,
            sigma=lambda t, x, u, v: co.sigma(t, x, u, v),
            lower=lambda t, x: co.lower(t, x),
            upper=lambda t, x: co.upper(t, x),
        ),
    )


@pytest.mark.parametrize("case", sorted(_ESTIMATE_CASES))
def test_streamed_comparison_equals_the_solve_composition_bitwise(case):
    spec, grid = _ESTIMATE_CASES[case]
    lifted = shifted_spec(spec, 0.05, ("terminal", "driver"))
    others = {
        "equal": (lifted, True),
        "widened": (shifted_spec(spec, 0.05, ("terminal", "driver", "upper")), False),
        "rewrapped": (_rewrapped(lifted), True),
    }
    for pair in spec.control_pairs():
        lattice = build_lattice(spec, 0.0, grid, pair)
        for mode, penalty in _COMPARISON_MODES:
            for name, (other, equal) in others.items():
                got = comparison_check(spec, other, lattice, mode=mode, penalty=penalty)
                want = _reference_comparison(spec, other, lattice, mode, penalty, equal)
                # repr tells -0.0 from 0.0, which == does not
                assert repr(got) == repr(want), (pair, mode, name)

        full = solve_backward(spec, lattice)
        slab = solve_backward(spec, lattice, terminal=full.y[20], start_step=5, end_step=20)
        head = backward_semigroup(spec, lattice, 5, 20, full.y[20])
        assert np.array_equal(head, slab.y[0]), pair


# -- the sampled ordering hypotheses ---------------------------------------


def _reference_hypotheses(spec_a, spec_b, samples):
    """(conclusive, detail, equal_barriers) of the ordering hypotheses of
    `comparison_check`, read one sample at a time and drawn one scalar at a
    time, stopping at the first failure."""
    rng = np.random.default_rng(0)
    ca, cb = spec_a.coefficients, spec_b.coefficients
    radius, slack = 3.0, 1e-12
    equal_barriers = True

    def both(name, *args):
        return [on_nodes(getattr(co, name)(*args), (1,), name)[0] for co in (ca, cb)]

    for u, v in itertools.islice(itertools.cycle(spec_a.control_pairs()), samples):
        t = rng.uniform(0.0, spec_a.horizon)
        x = rng.uniform(-radius, radius)
        y = rng.uniform(-radius, radius)
        z = rng.uniform(-radius, radius)
        node = np.array([x])
        ta, tb = both("terminal", node)
        if ta > tb + slack:
            return False, f"terminal ordering fails at x={x:.6g}", False
        fa, fb = both("driver", t, node, y, z, u, v)
        if fa > fb + slack:
            return False, f"driver ordering fails at (t,x)=({t:.4g},{x:.4g})", False
        (ba, bb), (sa, sb) = both("b", t, node, u, v), both("sigma", t, node, u, v)
        if abs(ba - bb) > slack or abs(sa - sb) > slack:
            return False, "dynamics differ; solutions share one lattice", False
        (la, lb), (ua, ub) = both("lower", t, node), both("upper", t, node)
        if la - lb > slack or ua - ub > slack:
            return False, f"obstacle ordering fails at (t,x)=({t:.4g},{x:.4g})", False
        if abs(la - lb) > slack or abs(ua - ub) > slack:
            equal_barriers = False
    return True, "ok", equal_barriers


def _replaced(spec, **coefficients):
    return dataclasses.replace(
        spec, coefficients=dataclasses.replace(spec.coefficients, **coefficients)
    )


def _beyond(x, edge):
    """0.1 where x > edge (edge > 0) or x < edge (edge < 0), else 0."""
    x = np.asarray(x, dtype=float)
    return 0.1 * (x * np.sign(edge) > abs(edge))


def _failing(spec, hypothesis, edge=2.5):
    """`spec` made to break one ordering hypothesis on part of the box only,
    so that some samples pass it before one fails."""
    co = spec.coefficients
    if hypothesis == "terminal":
        return _replaced(spec, terminal=lambda x: co.terminal(x) - _beyond(x, edge))
    if hypothesis == "driver":
        return _replaced(
            spec, driver=lambda t, x, y, z, u, v: co.driver(t, x, y, z, u, v) - _beyond(x, edge)
        )
    if hypothesis == "dynamics":
        return _replaced(spec, b=lambda t, x, u, v: co.b(t, x, u, v) + _beyond(x, edge))
    return _replaced(spec, lower=lambda t, x: co.lower(t, x) - _beyond(x, edge))


def _hypothesis_cases():
    cases = dict(_ESTIMATE_CASES)
    cases["constant"] = (builtin("constant").spec, SpaceTimeGrid(-6.0, 6.0, 41, 40, 1.0))
    for name, (spec, grid) in sorted(cases.items()):
        lifted = shifted_spec(spec, 0.05, ("terminal", "driver"))
        others = {
            "equal": lifted,
            "widened": shifted_spec(spec, 0.05, ("terminal", "driver", "upper")),
            # the driver fails at an earlier sample than the terminal does
            "driver_first": _failing(_failing(spec, "terminal", -2.5), "driver"),
        }
        for hypothesis in ("terminal", "driver", "dynamics", "obstacle"):
            others[hypothesis] = _failing(spec, hypothesis)
        for other_name, other in others.items():
            yield pytest.param(spec, grid, other, id=f"{name}-{other_name}")


@pytest.mark.parametrize("spec, grid, other", _hypothesis_cases())
def test_sampled_hypotheses_are_those_of_the_sample_loop(spec, grid, other):
    lattice = build_lattice(spec, 0.0, grid)
    for samples in (1, 64, 200):
        conclusive, detail, equal = _reference_hypotheses(spec, other, samples)
        got = comparison_check(spec, other, lattice, samples=samples)
        if conclusive:
            want = _reference_comparison(spec, other, lattice, "two_barrier", None, equal)
        else:
            nan = math.nan
            want = ComparisonReport(False, detail, False, nan, nan, nan, 1e-10, False)
        assert repr(got) == repr(want), samples


def test_the_hypotheses_read_each_coefficient_once_over_all_samples():
    spec, lattice = _dynkin_lattice()

    def fixed(size):
        # a terminal of `size` values whatever the nodes, above spec's
        return _replaced(spec, terminal=lambda x: np.full(size, 10.0))

    # the read covers the 64 samples at once, so 64 values pass its shape
    # rule and the terminal ordering fails at the first sample
    report = comparison_check(fixed(64), spec, lattice, samples=64)
    assert not report.conclusive
    assert report.hypothesis_detail.startswith("terminal ordering fails at x=")
    refusal = r"terminal returned shape \(63,\) for nodes of shape \(64,\)"
    with pytest.raises(CoefficientError, match=refusal):
        comparison_check(fixed(63), spec, lattice, samples=64)


# -- nonfinite levels ------------------------------------------------------


def _hostile_spec(**overrides):
    """Heat flow between wide flat obstacles, with one coefficient replaced."""
    texts = dict(
        horizon=1.0,
        b="0",
        sigma="1",
        driver="0",
        terminal="max(0, 1 - abs(x))",
        lower="0 - 10",
        upper="10",
        controls_i=(0.0,),
        controls_ii=(0.0,),
        lipschitz=1.0,
        driver_lipschitz=0.0,
    )
    return from_expressions(**{**texts, **overrides})


_HOSTILE = [
    # exp(40 y^2) overflows once y leaves [-4.2, 4.2]; the clamp at 10 would
    # turn the infinite drive into a finite row and an infinite dK-
    ("two_barrier", {"driver": "exp(y^2 * 40)"}),
    ("plain", {"driver": "exp(y^2 * 40)"}),
    # infinite at the node x = 0
    ("plain", {"terminal": "1 / x"}),
]


@pytest.mark.parametrize(
    "mode, overrides", _HOSTILE, ids=["exp_driver", "exp_driver_plain", "inverse_payoff_plain"]
)
def test_the_walk_refuses_nonfinite_levels(mode, overrides):
    spec = _hostile_spec(**overrides)
    lattice = build_lattice(spec, 0.0, SpaceTimeGrid(-4.0, 4.0, 41, 100, 1.0))
    lifted = shifted_spec(spec, 0.05, ("terminal", "driver"))
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match="nonfinite .* at t="):
            solve_backward(spec, lattice, mode=mode)
        with pytest.raises(ValueError, match="nonfinite .* at t="):
            comparison_check(spec, lifted, lattice, mode=mode)
        # the estimates solve with both barriers, where an infinite payoff
        # already exceeds the upper obstacle
        with pytest.raises(ValueError):
            _estimate_quantities(spec, lattice, 0.1)
