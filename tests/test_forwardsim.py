"""Path simulation, lattice construction and forward stability estimates."""

from __future__ import annotations

import dataclasses
import math
import re

import numpy as np
import pytest

from isaacs import forwardsim
from isaacs.forwardsim import (
    LatticeError,
    _path_increments,
    build_lattice,
    check_forward_estimates,
    simulate_paths,
)
from isaacs.model import (
    CoefficientError,
    CoefficientSet,
    ControlGrid,
    ProblemSpec,
    SpaceTimeGrid,
)
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


@pytest.mark.parametrize("seed", [0, 1, 5, 2 ** 64 - 1, 2 ** 70 + 3, -7])
def test_one_stream_object_draws_what_a_new_stream_per_path_draws(seed):
    # the reference: Philox(key=(seed, p)) built afresh for every path p
    root = math.sqrt(1 / 64)
    for n_paths, n_steps in ((1, 1), (3, 5), (40, 64), (7, 1000)):
        want = np.array([
            np.random.Generator(
                np.random.Philox(key=np.array([seed & (2 ** 64 - 1), p], dtype=np.uint64))
            ).standard_normal(n_steps) * root
            for p in range(n_paths)
        ]).reshape(n_paths, n_steps)
        got = _path_increments(seed, n_paths, n_steps, 1 / 64)
        assert got.tobytes() == want.tobytes(), (n_paths, n_steps)


def test_a_seed_outside_64_bits_is_refused():
    # the noise is keyed by 64 bits of the seed, so a seed outside [0, 2**64)
    # would draw the paths of another: -1 those of 2**64 - 1, 2**64 those of 0
    spec = _scalar_spec(
        b=lambda t, x, u, v: 0.0 * np.asarray(x, dtype=float),
        sigma=lambda t, x, u, v: 1.0 + 0.0 * np.asarray(x, dtype=float),
    )
    for seed in (-1, 2 ** 64, 10 ** 30):
        message = f"^seed must be in \\[0, 2\\*\\*64\\), got {seed}$"
        with pytest.raises(ValueError, match=message):
            simulate_paths(spec, 0.0, 0.0, n_paths=2, n_steps=2, seed=seed)
        with pytest.raises(ValueError, match=message):
            check_forward_estimates(spec, n_paths=2, n_steps=2, seed=seed)
    largest = simulate_paths(spec, 0.0, 0.0, n_paths=2, n_steps=2, seed=2 ** 64 - 1)
    smallest = simulate_paths(spec, 0.0, 0.0, n_paths=2, n_steps=2, seed=0)
    assert not np.array_equal(largest.states, smallest.states)


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


def test_no_level_passes_the_node_cap_and_a_refusal_names_the_level(monkeypatch):
    monkeypatch.setattr(forwardsim, "MAX_LEVEL_NODES", 64)
    grid = SpaceTimeGrid(-1.0, 1.0, 21, 8, 1.0)  # dt/dx = 1.25, sigma^2 dt/dx^2 = 0.5
    built = refused = 0
    for drift in np.linspace(0.0, 20.0, 81):
        spec = _scalar_spec(
            b=lambda t, x, u, v, c=drift: c + 0.0 * np.asarray(x, dtype=float),
            sigma=lambda t, x, u, v: 0.2 + 0.0 * np.asarray(x, dtype=float),
        )
        try:
            lattice = build_lattice(spec, 0.0, grid)
        except LatticeError as exc:
            # the level it names was built, so it too keeps under the cap
            named = re.match(r"a level of (\d+) nodes and a drift of up to", str(exc))
            assert named and int(named.group(1)) <= 64, exc
            refused += 1
        else:
            assert max(lattice.counts) <= 64
            built += 1
    assert built and refused
    # a grid as wide as the cap leaves no room for the next level's edge
    still = _scalar_spec(
        b=lambda t, x, u, v: 0.0 * np.asarray(x, dtype=float),
        sigma=lambda t, x, u, v: 0.0 * np.asarray(x, dtype=float),
    )
    with pytest.raises(LatticeError, match="a level of 64 nodes and a drift of up to 0 nodes"):
        build_lattice(still, 0.0, SpaceTimeGrid(-1.0, 1.0, 64, 8, 1.0))


_NONFINITE = pytest.mark.parametrize(
    "name, value",
    [("sigma", math.nan), ("b", math.nan), ("b", math.inf), ("sigma", math.inf)],
)


def _late_spec(name, value):
    """b = 0 and sigma = 0.5 on every state until t = 0.5, then the
    coefficient `name` is `value` right of x = 0.3."""

    def coefficient(finite, late):
        def fn(t, x, u, v):
            x = np.asarray(x, dtype=float)
            return np.where((t >= 0.5) & (x > 0.3), late, finite)

        return fn

    finite = {"b": 0.0, "sigma": 0.5}
    return _scalar_spec(
        **{key: coefficient(f, value if key == name else f) for key, f in finite.items()}
    )


@_NONFINITE
def test_a_nonfinite_b_or_sigma_is_refused_at_any_level(name, value):
    spec = _late_spec(name, value)
    grid = SpaceTimeGrid(-1.0, 1.0, 11, 10, 1.0)
    x = grid.x_min + grid.dx * 7  # the first node right of 0.3
    message = f"nonfinite {name} at t=0.5, x={x}, controls (0.0, 0.0)"
    with pytest.raises(CoefficientError, match=f"^{re.escape(message)}$"):
        build_lattice(spec, 0.0, grid)


@_NONFINITE
def test_euler_paths_name_a_nonfinite_b_or_sigma_at_the_step_that_meets_it(name, value):
    # the paths up to t = 0.5 are those of the finite coefficients
    finite = _late_spec(name, {"b": 0.0, "sigma": 0.5}[name])
    states = simulate_paths(finite, 0.0, 0.0, 64, 10, seed=1).states[:, 5]
    x = states[states > 0.3][0]  # path order
    message = f"nonfinite {name} at t=0.5, x={x}, controls (0.0, 0.0)"
    spec = _late_spec(name, value)
    for check in (
        lambda: simulate_paths(spec, 0.0, 0.0, 64, 10, seed=1),
        lambda: check_forward_estimates(spec, n_paths=64, n_steps=10, seed=1),
    ):
        with pytest.raises(CoefficientError, match=f"^{re.escape(message)}$"):
            check()


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
