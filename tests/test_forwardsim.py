"""Path simulation, lattice construction and forward stability estimates."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from isaacs.forwardsim import (
    LatticeError,
    build_lattice,
    check_forward_estimates,
    simulate_paths,
)
from isaacs.model import CoefficientSet, ControlGrid, ProblemSpec, SpaceTimeGrid
from isaacs.problems import builtin


def _scalar_spec(b, sigma, lipschitz=1.0):
    co = CoefficientSet(
        b=b,
        sigma=sigma,
        driver=lambda t, x, y, z, u, v: 0.0 * np.asarray(x, dtype=float),
        terminal=lambda x: 0.0 * np.asarray(x, dtype=float),
        lower=lambda t, x: -10.0 + 0.0 * np.asarray(x, dtype=float),
        upper=lambda t, x: 10.0 + 0.0 * np.asarray(x, dtype=float),
        lipschitz=lipschitz,
        driver_lipschitz=0.0,
    )
    return ProblemSpec(
        horizon=1.0,
        coefficients=co,
        controls_i=ControlGrid("u", (0.0,)),
        controls_ii=ControlGrid("v", (0.0,)),
    )


def test_frozen_dynamics_keep_paths_constant():
    spec = _scalar_spec(
        b=lambda t, x, u, v: 0.0 * np.asarray(x, dtype=float),
        sigma=lambda t, x, u, v: 0.0 * np.asarray(x, dtype=float),
    )
    batch = simulate_paths(spec, 0.0, 1.25, n_paths=8, n_steps=16, seed=0)
    assert batch.states.shape == (8, 17)
    assert np.all(batch.states == 1.25)
    assert batch.times[0] == 0.0 and batch.times[-1] == 1.0


def test_pure_drift_rides_the_characteristic():
    spec = _scalar_spec(
        b=lambda t, x, u, v: 1.0 + 0.0 * np.asarray(x, dtype=float),
        sigma=lambda t, x, u, v: 0.0 * np.asarray(x, dtype=float),
    )
    batch = simulate_paths(spec, 0.0, 0.0, n_paths=4, n_steps=32, seed=1)
    assert np.max(np.abs(batch.terminal - 1.0)) < 1e-12


def test_geometric_growth_matches_the_discrete_mean():
    # Euler preserves the mean of dX = mu X dt + s X dW step by step, so the
    # sample mean must sit near x0 (1 + mu dt)^n, not near x0 e^{mu T}
    mu, s, n_steps = 0.05, 0.2, 64
    spec = _scalar_spec(
        b=lambda t, x, u, v: mu * np.asarray(x, dtype=float),
        sigma=lambda t, x, u, v: s * np.asarray(x, dtype=float),
    )
    batch = simulate_paths(spec, 0.0, 1.0, n_paths=20000, n_steps=n_steps, seed=2)
    expected = (1.0 + mu / n_steps) ** n_steps
    se = np.std(batch.terminal) / math.sqrt(batch.n_paths)
    assert abs(float(np.mean(batch.terminal)) - expected) < 4.0 * se


def test_noise_streams_are_keyed_by_path_index():
    spec = _scalar_spec(
        b=lambda t, x, u, v: 0.0 * np.asarray(x, dtype=float),
        sigma=lambda t, x, u, v: 1.0 + 0.0 * np.asarray(x, dtype=float),
    )
    small = simulate_paths(spec, 0.0, 0.0, n_paths=10, n_steps=16, seed=5)
    large = simulate_paths(spec, 0.0, 0.0, n_paths=200, n_steps=16, seed=5)
    assert np.array_equal(small.states, large.states[:10])
    other = simulate_paths(spec, 0.0, 0.0, n_paths=10, n_steps=16, seed=6)
    assert not np.array_equal(small.states, other.states)


def test_simulation_rejects_bad_windows():
    spec = _scalar_spec(
        b=lambda t, x, u, v: 0.0 * np.asarray(x, dtype=float),
        sigma=lambda t, x, u, v: 1.0 + 0.0 * np.asarray(x, dtype=float),
    )
    with pytest.raises(ValueError, match="outside"):
        simulate_paths(spec, 1.0, 0.0, n_paths=1, n_steps=1, seed=0)
    with pytest.raises(ValueError, match="at least one"):
        simulate_paths(spec, 0.0, 0.0, n_paths=0, n_steps=1, seed=0)


def test_lattice_probabilities_at_the_half_point():
    # sigma^2 dt / dx^2 = 1/2 and no drift: rows must be (1/4, 1/2, 1/4)
    grid = SpaceTimeGrid(-2.0, 2.0, 41, 80, 1.0)  # dx = 0.1, dt = 1/80
    sig = math.sqrt(0.5 * grid.dx * grid.dx / grid.dt)
    spec = _scalar_spec(
        b=lambda t, x, u, v: 0.0 * np.asarray(x, dtype=float),
        sigma=lambda t, x, u, v: sig + 0.0 * np.asarray(x, dtype=float),
    )
    lattice = build_lattice(spec, 0.0, grid)
    center, probs = lattice.transition(0)
    assert np.allclose(probs[:, 0], 0.25, atol=1e-12)
    assert np.allclose(probs[:, 1], 0.50, atol=1e-12)
    assert np.allclose(probs[:, 2], 0.25, atol=1e-12)
    assert lattice.mean_error <= 1e-10 and lattice.var_error <= 1e-10


def test_degenerate_lattice_is_the_identity_chain():
    spec = _scalar_spec(
        b=lambda t, x, u, v: 0.0 * np.asarray(x, dtype=float),
        sigma=lambda t, x, u, v: 0.0 * np.asarray(x, dtype=float),
    )
    grid = SpaceTimeGrid(-1.0, 1.0, 11, 10, 1.0)
    lattice = build_lattice(spec, 0.0, grid)
    center, probs = lattice.transition(0)
    assert np.all(probs[:, 1] == 1.0)
    assert np.all(probs[:, 0] == 0.0) and np.all(probs[:, 2] == 0.0)
    # the node set still widens by the safety reach, values stay on the comb
    assert lattice.counts[1] == lattice.counts[0] + 2
    assert np.allclose(lattice.node_values(0), grid.space_nodes(), rtol=0, atol=1e-12)


def test_on_node_transport_shifts_by_exactly_one_column():
    # b dt / dx = 1: deterministic unit shift, feasible without any noise
    grid = SpaceTimeGrid(-2.0, 2.0, 41, 5, 0.5)  # dx = dt = 0.1
    spec = _scalar_spec(
        b=lambda t, x, u, v: 1.0 + 0.0 * np.asarray(x, dtype=float),
        sigma=lambda t, x, u, v: 0.0 * np.asarray(x, dtype=float),
    )
    lattice = build_lattice(spec, 0.0, grid)
    x0 = lattice.node_values(0)
    center, probs = lattice.transition(0)
    x1 = lattice.node_values(1)
    assert np.all(probs[:, 1] == 1.0)
    assert np.allclose(x1[center], x0 + grid.dx, atol=1e-12)


def test_node_sets_widen_by_the_pairs_own_reach():
    # b = u with dx = dt puts b dt / dx on the nodes 0 and 1: the chain of
    # u = 0 never shifts and widens by the one-node stencil reach, the chain
    # of u = 1 shifts one column per step and widens by two
    grid = SpaceTimeGrid(-1.0, 1.0, 21, 10, 1.0)  # dx = dt = 0.1
    spec = dataclasses.replace(
        _scalar_spec(
            b=lambda t, x, u, v: u + 0.0 * np.asarray(x, dtype=float),
            sigma=lambda t, x, u, v: 0.25 + 0.0 * np.asarray(x, dtype=float),
        ),
        controls_i=ControlGrid("u", (0.0, 1.0)),
    )
    still = build_lattice(spec, 0.0, grid, (0.0, 0.0))
    moving = build_lattice(spec, 0.0, grid, (1.0, 0.0))
    assert still.controls == (0.0, 0.0) and moving.controls == (1.0, 0.0)
    assert still.counts == tuple(21 + 2 * j for j in range(11))
    assert still.first_index == tuple(-j for j in range(11))
    assert moving.counts == tuple(21 + 4 * j for j in range(11))
    assert moving.first_index == tuple(-2 * j for j in range(11))
    # no pair given: the first point of each grid
    assert build_lattice(spec, 0.0, grid).counts == still.counts


def test_lattice_and_paths_take_one_pair_on_the_grids():
    spec = dataclasses.replace(
        _scalar_spec(
            b=lambda t, x, u, v: u + 0.0 * np.asarray(x, dtype=float),
            sigma=lambda t, x, u, v: 0.0 * np.asarray(x, dtype=float),
        ),
        controls_i=ControlGrid("u", (0.0, 1.0)),
    )
    grid = SpaceTimeGrid(-1.0, 1.0, 21, 10, 1.0)
    for bad, message in (((0.5, 0.0), "not on grid"), ([(0.0, 0.0)], r"one \(u, v\) pair")):
        with pytest.raises(ValueError, match=message):
            build_lattice(spec, 0.0, grid, bad)
        with pytest.raises(ValueError, match=message):
            simulate_paths(spec, 0.0, 0.0, n_paths=2, n_steps=4, seed=0, controls=bad)
    moving = simulate_paths(spec, 0.0, 0.0, n_paths=2, n_steps=4, seed=0, controls=(1.0, 0.0))
    assert np.allclose(moving.terminal, 1.0, rtol=0, atol=1e-12)
    assert np.all(simulate_paths(spec, 0.0, 0.0, n_paths=2, n_steps=4, seed=0).terminal == 0.0)


def test_off_node_transport_is_refused_with_a_hint():
    bp = builtin("transport")
    with pytest.raises(LatticeError, match="integer"):
        build_lattice(bp.spec, 0.0, bp.grid)


def test_too_coarse_time_step_is_refused_with_admissible_dt():
    spec = _scalar_spec(
        b=lambda t, x, u, v: 0.0 * np.asarray(x, dtype=float),
        sigma=lambda t, x, u, v: 2.0 + 0.0 * np.asarray(x, dtype=float),
    )
    grid = SpaceTimeGrid(-1.0, 1.0, 21, 4, 1.0)  # q = 4 * 0.25 / 0.01 = 100
    with pytest.raises(LatticeError, match="largest admissible dt"):
        build_lattice(spec, 0.0, grid)


def test_dense_transition_rows_are_probability_vectors():
    bp = builtin("dynkin_heat")
    grid = SpaceTimeGrid(-9.0, 9.0, 101, 100, 1.0)
    lattice = build_lattice(bp.spec, 0.0, grid)
    mat = lattice.dense_transition(3)
    assert mat.shape == (lattice.counts[3], lattice.counts[4])
    assert np.all(mat >= 0.0)
    assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-12)


def test_forward_estimates_match_the_contracting_flow():
    # dX = -X dt exactly: X_T^{x+d} - X_T^x = d (1 - dt)^n whatever the noise,
    # so the terminal ratio is (1 - dt)^{2n} and the sup ratio is 1 (at k = 0)
    spec = _scalar_spec(
        b=lambda t, x, u, v: -np.asarray(x, dtype=float),
        sigma=lambda t, x, u, v: 0.5 + 0.0 * np.asarray(x, dtype=float),
    )
    n_steps = 64
    report = check_forward_estimates(spec, n_paths=200, n_steps=n_steps, seed=3)
    assert report.passed
    assert abs(report.slope) <= 0.2
    expected = (1.0 - 1.0 / n_steps) ** (2 * n_steps)
    assert np.allclose(report.sup_ratios, 1.0, atol=1e-12)
    assert np.allclose(report.terminal_ratios, expected, rtol=1e-10)


def test_forward_estimates_flag_non_lipschitz_dynamics():
    # sign drift: the base path sits still at 0 while any shifted start
    # marches away, so sup |dX|^2 / delta^2 scales like 1 / delta^2 and the
    # log-log slope lands near -2, far outside the flat band
    spec = _scalar_spec(
        b=lambda t, x, u, v: np.sign(np.asarray(x, dtype=float)),
        sigma=lambda t, x, u, v: 0.0 * np.asarray(x, dtype=float),
    )
    report = check_forward_estimates(
        spec, base_state=0.0, offsets=(1e-3, 1e-2, 1e-1), n_paths=8, n_steps=16, seed=4
    )
    assert not report.passed
    assert report.slope < -1.5



def _composed_forward_estimates(spec, t0, base_state, offsets, n_paths, n_steps, seed, controls):
    """The forward check rebuilt from one `simulate_paths` call per start."""
    a = simulate_paths(spec, t0, base_state, n_paths, n_steps, seed, controls)
    sup, term = [], []
    for delta in offsets:
        b = simulate_paths(spec, t0, base_state + delta, n_paths, n_steps, seed, controls)
        dist = np.abs(a.states - b.states)
        sup.append(float(np.mean(np.max(dist, axis=1) ** 2)) / delta ** 2)
        term.append(float(np.mean(dist[:, -1] ** 2)) / delta ** 2)
    slope = float(np.polyfit(np.log(offsets), np.log(sup), 1)[0])
    return np.array(sup), np.array(term), slope


@pytest.mark.parametrize(
    "spec, t0, controls",
    [
        (
            _scalar_spec(
                b=lambda t, x, u, v: 2.0 * np.sin(np.asarray(x, dtype=float)) - t,
                sigma=lambda t, x, u, v: 0.4 + 0.3 * np.cos(np.asarray(x, dtype=float)),
            ),
            0.0,
            None,
        ),
        (builtin("separable_game").spec, 0.3, (1.0, -1.0)),
    ],
)
def test_forward_estimates_equal_the_per_offset_simulations(spec, t0, controls):
    offsets = (1e-3, 3.16e-3, 1e-2, 3.16e-2, 1e-1)
    report = check_forward_estimates(
        spec, t0=t0, base_state=0.25, offsets=offsets, n_paths=150, n_steps=40, seed=11,
        controls=controls,
    )
    sup, term, slope = _composed_forward_estimates(
        spec, t0, 0.25, offsets, 150, 40, 11, controls
    )
    assert np.array_equal(report.sup_ratios, sup)
    assert np.array_equal(report.terminal_ratios, term)
    assert report.slope == slope


def test_forward_estimates_validate_like_simulate_paths():
    spec = builtin("separable_game").spec
    with pytest.raises(ValueError, match="outside"):
        check_forward_estimates(spec, t0=1.0, n_paths=4, n_steps=4)
    with pytest.raises(ValueError, match="at least one path"):
        check_forward_estimates(spec, n_paths=0, n_steps=4)
    with pytest.raises(ValueError, match="not on grid"):
        check_forward_estimates(spec, n_paths=4, n_steps=4, controls=(0.5, 0.0))
