"""Lattices confined to the grid plus a halo: shape, closure and exactness.

The reference is `_uncapped_lattice`, the builder as it was before the
halo: every level widens by the pair's reach, so the node set grows with
the square of the step count.  On the builtin problems the capped lattice
must reproduce what the solvers read at the root bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isaacs.forwardsim import ESCAPE_BOUND, RecombiningLattice, build_lattice
from isaacs.model import (
    CoefficientSet,
    ControlGrid,
    ProblemSpec,
    SpaceTimeGrid,
    on_nodes,
    shifted_spec,
)
from isaacs.problems import builtin
from isaacs.rbsde import _estimate_quantities, comparison_check, solve_backward


def _uncapped_lattice(spec, grid, controls=None):
    """The transitions of `build_lattice` from t = 0 without the halo: the
    node set of step j + 1 is that of step j widened by the reach on both
    sides, and no row is ever clipped."""
    dt, dx = grid.dt, grid.dx
    times = dt * np.arange(grid.nt + 1)
    controls = spec.control_pair(controls)
    u, v = controls
    co = spec.coefficients
    first_index, counts, transitions = [0], [grid.nx], []
    for j in range(grid.nt):
        t = float(times[j])
        lo, count = first_index[j], counts[j]
        x = grid.x_min + dx * (lo + np.arange(count))
        b = on_nodes(co.b(t, x, u, v), x.shape, "b")
        s2 = on_nodes(co.sigma(t, x, u, v), x.shape, "sigma") ** 2
        nu = b * (dt / dx)
        shift = np.rint(nu).astype(np.int64)
        resid = nu - shift
        q = s2 * dt / (dx * dx) + resid ** 2
        p_down, p_up = 0.5 * (q - resid), 0.5 * (q + resid)
        probs = np.stack([p_down, 1.0 - p_up - p_down, p_up], axis=1)
        np.clip(probs, 0.0, 1.0, out=probs)
        np.minimum(probs[:, 2], 1.0 - probs[:, 0], out=probs[:, 2])
        probs[:, 1] = 1.0 - probs[:, 0] - probs[:, 2]
        reach = int(np.max(np.abs(shift))) + 1
        first_index.append(lo - reach)
        counts.append(count + 2 * reach)
        center = np.arange(count) + shift + reach
        transitions.append((center.astype(np.int32), probs[:, 0].copy(), probs[:, 2].copy()))
    return RecombiningLattice(
        controls=controls,
        times=times,
        dx=dx,
        origin=grid.x_min,
        first_index=tuple(first_index),
        counts=tuple(counts),
        transitions=tuple(transitions),
        mean_error=0.0,
        var_error=0.0,
        halo=(),
        escape_bound=0.0,
        clipped_rows=0,
    )


# (problem, grid): each builtin on its own grid, where the 400-step ones
# reach the halo, and dynkin_heat on a coarser grid that reaches it sooner
_CASES = [
    ("constant", None),
    ("dynkin_heat", None),
    ("bilinear_game", None),
    ("separable_game", None),
    ("dynkin_heat", SpaceTimeGrid(-9.0, 9.0, 101, 400, 1.0)),
]


def _case(name, grid):
    bp = builtin(name)
    grid = grid or bp.grid
    return bp.spec, grid, build_lattice(bp.spec, 0.0, grid), _uncapped_lattice(bp.spec, grid)


def _bits(arrays):
    return [np.ascontiguousarray(a, dtype=float).tobytes() for a in arrays]


@pytest.mark.parametrize("name, grid", _CASES)
def test_the_root_level_is_bitwise_that_of_the_uncapped_lattice(name, grid):
    spec, grid, capped, uncapped = _case(name, grid)
    if grid.nt >= 400:
        assert capped.clipped_rows > 0 and sum(capped.counts) < sum(uncapped.counts)
    for j in (0, 1, grid.nt // 2, grid.nt):
        start = capped.first_index[j] - uncapped.first_index[j]
        inner = uncapped.node_values(j)[start : start + capped.counts[j]]
        assert np.array_equal(capped.node_values(j), inner)

    for mode, penalty in (
        ("two_barrier", None),
        ("one_barrier_lower", 4.0),
        ("penalized", (4.0, 4.0)),
    ):
        ours = solve_backward(spec, capped, capped.controls, mode=mode, penalty=penalty)
        ref = solve_backward(spec, uncapped, uncapped.controls, mode=mode, penalty=penalty)
        level = (ours.y[0], ours.z[0], ours.dk_plus[0], ours.dk_minus[0])
        expected = (ref.y[0], ref.z[0], ref.dk_plus[0], ref.dk_minus[0])
        assert _bits(level) == _bits(expected), mode

    lifted = shifted_spec(spec, 0.05, ("terminal", "driver"))
    ours = comparison_check(spec, lifted, capped, capped.controls, samples=16)
    ref = comparison_check(spec, lifted, uncapped, uncapped.controls, samples=16)
    assert ours == ref

    assert _estimate_quantities(spec, capped, 0.1) == _estimate_quantities(spec, uncapped, 0.1)


def _flat_spec(b, sigma):
    """Constant b and sigma, a bounded payoff, a driver free of (y, z) and
    obstacles that bind on part of the domain."""
    co = CoefficientSet(
        b=lambda t, x, u, v: np.full_like(np.asarray(x, dtype=float), b),
        sigma=lambda t, x, u, v: np.full_like(np.asarray(x, dtype=float), sigma),
        driver=lambda t, x, y, z, u, v: 0.5 * np.cos(np.asarray(x, dtype=float)),
        terminal=lambda x: 0.4 * np.sin(3.0 * np.asarray(x, dtype=float)),
        lower=lambda t, x: np.full_like(np.asarray(x, dtype=float), -0.45),
        upper=lambda t, x: np.full_like(np.asarray(x, dtype=float), 0.55),
        lipschitz=2.0,
        driver_lipschitz=0.0,
    )
    return ProblemSpec(
        horizon=1.0,
        coefficients=co,
        controls_i=ControlGrid("u", (0.0,)),
        controls_ii=ControlGrid("v", (0.0,)),
    )


def _assert_each_halo_is_the_smallest_whole_one(lattice, spec, grid):
    """halo[j] = ceil(D_j + h_j) of the `forwardsim` docstring, with the
    drift reach D_j and the variance W_j recomputed here from the constant
    b and sigma of a flat spec."""
    n = grid.nt
    beta = math.log(2.0 * n / ESCAPE_BOUND)
    co, (u, v) = spec.coefficients, lattice.controls
    reach = variance = 0.0
    for j, halo in enumerate(lattice.halo):
        gap = halo - reach  # the whole halo less the drift reach
        assert 2.0 * math.exp(-(gap ** 2) / (2.0 * variance + gap)) <= ESCAPE_BOUND / n
        # one node less would not meet the bound
        assert gap - 1.0 <= 0.0 or (gap - 1.0) ** 2 / (2.0 * variance + gap - 1.0) < beta
        if j < n:
            x = lattice.node_values(j)[:1]
            nu = float(co.b(0.0, x, u, v)[0]) * (grid.dt / grid.dx)
            sigma = float(co.sigma(0.0, x, u, v)[0])
            reach += max(abs(nu), abs(round(nu)))
            variance += sigma * sigma * grid.dt / (grid.dx * grid.dx)


def test_counts_stop_growing_at_the_halo_and_clipped_rows_stay_probabilities():
    grid = SpaceTimeGrid(-1.0, 1.0, 21, 200, 1.0)  # dx = 0.1, dt = 1/200
    spec = _flat_spec(0.0, math.sqrt(0.5 * grid.dx ** 2 / grid.dt))
    lattice = build_lattice(spec, 0.0, grid)
    n = grid.nt
    assert lattice.escape_bound == ESCAPE_BOUND == 2.0 ** -60
    # without drift the halo grows with the variance alone, from
    # ceil(ln(2N / ESCAPE_BOUND)) at step 0
    _assert_each_halo_is_the_smallest_whole_one(lattice, spec, grid)
    assert lattice.halo[0] == math.ceil(math.log(2.0 * n / ESCAPE_BOUND))
    # the lattice widens by one node a side until it reaches the halo,
    # which it does well before the last step
    assert lattice.halo[-1] < n
    assert lattice.counts == tuple(21 + 2 * min(j, lattice.halo[j]) for j in range(n + 1))
    assert lattice.first_index == tuple(-min(j, lattice.halo[j]) for j in range(n + 1))
    # each level that keeps its width clips its two edge rows inward
    still = sum(lattice.counts[j + 1] == lattice.counts[j] for j in range(n))
    assert lattice.clipped_rows == 2 * still > 0
    # a clipped row's mean is off by a whole node, yet the moment check
    # passed: it covers the unclipped rows only
    assert lattice.mean_error <= 1e-10 and lattice.var_error <= 1e-10
    for j in range(n):
        center, probs = lattice.transition(j)
        assert np.all(probs >= 0.0) and np.allclose(probs.sum(axis=1), 1.0, atol=1e-15)
        assert center.min() >= 1 and center.max() <= lattice.counts[j + 1] - 2


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    shift=st.integers(-2, 2),
    residual=st.floats(-0.5, 0.5),
    share=st.floats(0.0, 1.0),
    nx=st.integers(3, 21),
    nt=st.integers(1, 300),
)
# q = 1 exactly, where down + up rounds past 1
@example(shift=0, residual=0.375, share=1.0, nx=3, nt=127)
def test_every_halo_meets_its_own_levels_bound(shift, residual, share, nx, nt):
    # b dt / dx = shift + residual and sigma^2 dt / dx^2 = diffusion, over
    # the whole range where no probability is negative, its ends included
    low, high = abs(residual) * (1.0 - abs(residual)), 1.0 - residual ** 2
    diffusion = low + share * (high - low)
    grid = SpaceTimeGrid(-1.0, 1.0, nx, nt, 1.0)
    spec = _flat_spec(
        (shift + residual) * grid.dx / grid.dt, math.sqrt(diffusion) * grid.dx / math.sqrt(grid.dt)
    )
    lattice = build_lattice(spec, 0.0, grid)
    assert len(lattice.halo) == nt + 1
    _assert_each_halo_is_the_smallest_whole_one(lattice, spec, grid)
    for j in range(nt):
        center, probs = lattice.transition(j)
        assert center.dtype == np.intp and probs.shape == (lattice.counts[j], 3)
        assert np.all(probs >= 0.0) and np.allclose(probs.sum(axis=1), 1.0, atol=1e-15)
        assert center.min() >= 1 and center.max() <= lattice.counts[j + 1] - 2


@pytest.mark.parametrize("name, grid", _CASES)
def test_a_row_read_back_is_bitwise_the_row_built(name, grid):
    # the builder's rows, (down, stay, up) with up capped at 1 - down and
    # the stay probability assigned 1 - down - up after the clip,
    # recomputed here
    bp = builtin(name)
    grid = grid or bp.grid
    lattice = build_lattice(bp.spec, 0.0, grid)
    co, (u, v) = bp.spec.coefficients, lattice.controls
    for j in range(grid.nt):
        t, x = float(lattice.times[j]), lattice.node_values(j)
        nu = on_nodes(co.b(t, x, u, v), x.shape, "b") * (grid.dt / grid.dx)
        resid = nu - np.rint(nu)
        s2 = on_nodes(co.sigma(t, x, u, v), x.shape, "sigma") ** 2
        q = s2 * grid.dt / (grid.dx * grid.dx) + resid ** 2
        built = np.stack([0.5 * (q - resid), 1.0 - q, 0.5 * (q + resid)], axis=1)
        np.clip(built, 0.0, 1.0, out=built)
        np.minimum(built[:, 2], 1.0 - built[:, 0], out=built[:, 2])
        built[:, 1] = 1.0 - built[:, 0] - built[:, 2]
        center, probs = lattice.transition(j)
        assert center.dtype == np.intp and probs.tobytes() == built.tobytes(), j


@pytest.mark.parametrize("name, grid", _CASES)
def test_every_level_sits_inside_its_halo(name, grid):
    _, grid, lattice, uncapped = _case(name, grid)
    assert len(lattice.halo) == grid.nt + 1
    assert all(a <= b for a, b in zip(lattice.halo, lattice.halo[1:]))
    for j in range(grid.nt + 1):
        assert lattice.first_index[j] >= -lattice.halo[j]
        assert lattice.first_index[j] + lattice.counts[j] <= grid.nx + lattice.halo[j]
        assert lattice.counts[j] <= uncapped.counts[j]
    assert lattice.mean_error <= 1e-10 and lattice.var_error <= 1e-10


def test_the_estimate_lattices_hold_their_node_ceilings_at_20_bytes_a_node():
    bp = builtin("dynkin_heat")
    grid = bp.grid
    fine = SpaceTimeGrid(grid.x_min, grid.x_max, 2 * grid.nx - 1, 4 * grid.nt, grid.horizon)
    for g, ceiling in ((grid, 181_000), (fine, 1_410_000)):  # 241,001 and 3,203,601 uncapped
        lattice = build_lattice(bp.spec, 0.0, g)
        assert sum(lattice.counts) <= ceiling
        # an int32 center and the float64 down and up probabilities per node
        stored = sum(a.nbytes for arrays in lattice.transitions for a in arrays)
        assert stored == 20 * sum(lattice.counts[:-1])


@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(
    shift=st.integers(-2, 2),
    residual=st.floats(-0.3, 0.3),
    diffusion=st.floats(0.25, 0.75),
)
def test_the_halo_moves_the_root_values_by_at_most_the_escape_bound(shift, residual, diffusion):
    # b dt / dx = shift + residual, and sigma^2 dt / dx^2 in [1/4, 3/4]
    # keeps every probability nonnegative; a residual of at most 0.3 leaves
    # the halo at least 0.7 nodes a step behind the uncapped widening, so
    # 300 steps reach it
    grid = SpaceTimeGrid(-1.0, 1.0, 21, 300, 1.0)
    b = (shift + residual) * grid.dx / grid.dt
    spec = _flat_spec(b, math.sqrt(diffusion) * grid.dx / math.sqrt(grid.dt))
    capped = build_lattice(spec, 0.0, grid)
    uncapped = _uncapped_lattice(spec, grid)
    assert capped.clipped_rows > 0
    ours = solve_backward(spec, capped, capped.controls)
    ref = solve_backward(spec, uncapped, uncapped.controls)
    values = np.concatenate(ref.y + ours.y)
    osc = float(values.max() - values.min())
    rounding = 8.0 * float(np.spacing(np.max(np.abs(values))))
    assert np.max(np.abs(ours.y[0] - ref.y[0])) <= ESCAPE_BOUND * osc + rounding
