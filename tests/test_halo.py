"""Lattices confined to the grid plus a halo: shape, closure and exactness.

The reference is `_uncapped_lattice`, the builder as it was before the
halo: every level widens by the pair's reach, so the node set grows with
the square of the step count.  On the builtin problems the capped lattice
must reproduce what the solvers read at the root bit for bit.

A level that repeats the node set and the b and sigma bytes of its
neighbours shares their stored row object.  Its rows are held to the rows
the level makes on its own, and every walk over shared levels to the same
walk over a copy of the lattice whose levels share nothing.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import mmap

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isaacs.forwardsim import ESCAPE_BOUND, LatticeError, RecombiningLattice, build_lattice
from isaacs.games import CrosscheckReader
from isaacs.model import (
    CoefficientSet,
    ControlGrid,
    ProblemSpec,
    SpaceTimeGrid,
    Variant,
    on_nodes,
    shifted_spec,
)
from isaacs.problems import BUILTINS, builtin
from isaacs.rbsde import (
    EstimateReader,
    backward_semigroup,
    comparison_check,
    read_alone,
    solve_backward,
)


def _estimate_quantities(spec, lattice, perturbation):
    """The three estimate quotients of an `EstimateReader` fed by a walk of
    its own."""
    reader = EstimateReader(spec, lattice, perturbation)
    return read_alone(lattice, Variant.named("two_barrier"), reader).quantities()


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
        grid=grid,
        times=times,
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
        ours = solve_backward(spec, capped, mode=mode, penalty=penalty)
        ref = solve_backward(spec, uncapped, mode=mode, penalty=penalty)
        level = (ours.y[0], ours.z[0], ours.dk_plus[0], ours.dk_minus[0])
        expected = (ref.y[0], ref.z[0], ref.dk_plus[0], ref.dk_minus[0])
        assert _bits(level) == _bits(expected), mode

    lifted = shifted_spec(spec, 0.05, ("terminal", "driver"))
    ours = comparison_check(spec, lifted, capped, samples=16)
    ref = comparison_check(spec, lifted, uncapped, samples=16)
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


def _own_row(spec, lattice, grid, j):
    """(center, probs) of level j as the builder makes them from that
    level's own b and sigma and the node sets of levels j and j + 1:
    (down, stay, up) with up capped at 1 - down and the stay probability
    assigned 1 - down - up after the clip, and the center clipped inward."""
    co, (u, v) = spec.coefficients, lattice.controls
    t, x = float(lattice.times[j]), lattice.node_values(j)
    nu = on_nodes(co.b(t, x, u, v), x.shape, "b") * (grid.dt / grid.dx)
    shift = np.rint(nu).astype(np.int64)
    resid = nu - shift
    s2 = on_nodes(co.sigma(t, x, u, v), x.shape, "sigma") ** 2
    q = s2 * grid.dt / (grid.dx * grid.dx) + resid ** 2
    probs = np.stack([0.5 * (q - resid), 1.0 - q, 0.5 * (q + resid)], axis=1)
    np.clip(probs, 0.0, 1.0, out=probs)
    np.minimum(probs[:, 2], 1.0 - probs[:, 0], out=probs[:, 2])
    probs[:, 1] = 1.0 - probs[:, 0] - probs[:, 2]
    offset = lattice.first_index[j] - lattice.first_index[j + 1]
    center = np.clip(offset + np.arange(lattice.counts[j]) + shift, 1, lattice.counts[j + 1] - 2)
    return center, probs


@pytest.mark.parametrize("name, grid", _CASES)
def test_a_row_read_back_is_bitwise_the_row_built(name, grid):
    bp = builtin(name)
    grid = grid or bp.grid
    lattice = build_lattice(bp.spec, 0.0, grid)
    for j in range(grid.nt):
        center, probs = lattice.transition(j)
        own_center, own_probs = _own_row(bp.spec, lattice, grid, j)
        assert center.dtype == np.intp and np.array_equal(center, own_center), j
        assert probs.tobytes() == own_probs.tobytes(), j


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
    ours = solve_backward(spec, capped)
    ref = solve_backward(spec, uncapped)
    values = np.concatenate(ref.y + ours.y)
    osc = float(values.max() - values.min())
    rounding = 8.0 * float(np.spacing(np.max(np.abs(values))))
    assert np.max(np.abs(ours.y[0] - ref.y[0])) <= ESCAPE_BOUND * osc + rounding


# transport's sigma vanishes where its drift target is off the nodes, so it
# has no lattice
_LATTICE_BUILTINS = [name for name in BUILTINS if name != "transport"]


def _refined(spec, grid):
    """The refined grid of `apriori_estimate_check` and its lattice: dx/2
    and dt/2, or dt/4 where the dt/2 lattice is infeasible."""
    for factor in (2, 4):
        nx, nt = 2 * grid.nx - 1, factor * grid.nt
        fine = SpaceTimeGrid(grid.x_min, grid.x_max, nx, nt, grid.horizon)
        try:
            return fine, build_lattice(spec, 0.0, fine)
        except LatticeError:
            continue
    raise AssertionError("no refined lattice")


def _assert_shares_exactly_where_rows_repeat(spec, grid, lattice, time_free):
    """Every stored row is bitwise the row its own level makes; a level
    shares the triple of the level before only when levels j - 1, j and
    j + 1 hold one node set, and, with b and sigma free of t, always then;
    an object is shared by one run of adjacent levels only."""
    for j in range(lattice.n_steps):
        center, probs = lattice.transition(j)
        own_center, own_probs = _own_row(spec, lattice, grid, j)
        assert np.array_equal(center, own_center) and probs.tobytes() == own_probs.tobytes(), j
    nodes = list(zip(lattice.first_index, lattice.counts))
    for j in range(1, lattice.n_steps):
        one_set = nodes[j - 1] == nodes[j] == nodes[j + 1]
        shared = lattice.transitions[j] is lattice.transitions[j - 1]
        assert shared == one_set if time_free else not shared or one_set, j
    runs = [key for key, _ in itertools.groupby(id(triple) for triple in lattice.transitions)]
    assert len(runs) == len(set(runs))


@pytest.mark.parametrize("refined", (False, True))
@pytest.mark.parametrize("name", _LATTICE_BUILTINS)
def test_builtin_lattices_share_rows_exactly_where_they_repeat(name, refined):
    bp = builtin(name)
    if refined:
        grid, lattice = _refined(bp.spec, bp.grid)
    else:
        grid, lattice = bp.grid, build_lattice(bp.spec, 0.0, bp.grid)
    # no builtin's b or sigma depends on t
    _assert_shares_exactly_where_rows_repeat(bp.spec, grid, lattice, time_free=True)


def _unit_spec(grid, nu, diffusion, timed=None):
    """`_flat_spec` with b dt / dx = nu and sigma^2 dt / dx^2 = diffusion;
    `timed` names the one of b and sigma that grows with t, nu by 0.005 t
    or sigma by the factor 1 + 0.1 t, or is None."""
    spec = _flat_spec(nu * grid.dx / grid.dt, math.sqrt(diffusion) * grid.dx / math.sqrt(grid.dt))
    co = spec.coefficients
    if timed == "b":
        co = dataclasses.replace(
            co, b=lambda t, x, u, v: spec.coefficients.b(t, x, u, v) + 0.005 * t * grid.dx / grid.dt
        )
    elif timed == "sigma":
        co = dataclasses.replace(
            co, sigma=lambda t, x, u, v: spec.coefficients.sigma(t, x, u, v) * (1.0 + 0.1 * t)
        )
    return dataclasses.replace(spec, coefficients=co)


# a residual of at most 0.05 and sigma^2 dt / dx^2 in [0.1, 0.2] keep every
# probability nonnegative with either coefficient growing with t as well;
# without a shift the halo grows by less than a node a step, so the node
# set, once it fills the halo, repeats between the steps of the halo
_UNIT_SPECS = dict(
    shift=st.integers(-1, 1),
    residual=st.floats(-0.05, 0.05),
    diffusion=st.floats(0.1, 0.2),
    nx=st.integers(3, 21),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(**_UNIT_SPECS, nt=st.integers(1, 300), timed=st.sampled_from((None, "b", "sigma")))
def test_flat_lattices_share_rows_exactly_where_they_repeat(
    shift, residual, diffusion, nx, nt, timed
):
    grid = SpaceTimeGrid(-1.0, 1.0, nx, nt, 1.0)
    spec = _unit_spec(grid, shift + residual, diffusion, timed)
    lattice = build_lattice(spec, 0.0, grid)
    _assert_shares_exactly_where_rows_repeat(spec, grid, lattice, time_free=timed is None)
    if timed:
        assert len({id(triple) for triple in lattice.transitions}) == nt


def test_minus_zero_and_zero_are_different_bytes():
    # b is -0.0 at odd levels and 0.0 at even ones: the same rows as b = 0,
    # but no two adjacent levels have the same b bytes
    grid = SpaceTimeGrid(-1.0, 1.0, 21, 200, 1.0)
    zero = _unit_spec(grid, 0.0, 0.5)
    signed = dataclasses.replace(
        zero,
        coefficients=dataclasses.replace(
            zero.coefficients,
            b=lambda t, x, u, v: np.full_like(x, -0.0 if round(t * grid.nt) % 2 else 0.0),
        ),
    )
    plain, alternating = build_lattice(zero, 0.0, grid), build_lattice(signed, 0.0, grid)
    assert len({id(triple) for triple in plain.transitions}) < grid.nt
    assert len({id(triple) for triple in alternating.transitions}) == grid.nt
    assert (alternating.first_index, alternating.counts, alternating.halo) == (
        plain.first_index,
        plain.counts,
        plain.halo,
    )
    for j in range(grid.nt):
        assert _bits(alternating.transitions[j]) == _bits(plain.transitions[j]), j


def test_the_refined_dynkin_heat_lattice_stores_each_distinct_level_once():
    bp = builtin("dynkin_heat")
    fine, lattice = _refined(bp.spec, bp.grid)
    assert fine.nt == 4 * bp.grid.nt
    distinct = {id(triple): triple for triple in lattice.transitions}.values()
    # 1,401,269 nodes over 1600 levels, 28 MB of rows were each stored
    assert sum(a.nbytes for triple in distinct for a in triple) <= 20 * 460_000


def _owner(array):
    """The object that holds the memory of `array`: the end of its chain of
    bases, or the exporter of the buffer when that end is a memoryview."""
    while isinstance(array, np.ndarray):
        array = array.base
    return array.obj if isinstance(array, memoryview) else array


def test_the_dynkin_heat_lattices_keep_their_columns_in_memory_maps():
    # anonymous maps, whose pages go back to the system once a dropped
    # lattice's last column is gone, where the C heap would keep them
    bp = builtin("dynkin_heat")
    for lattice in (build_lattice(bp.spec, 0.0, bp.grid), _refined(bp.spec, bp.grid)[1]):
        distinct = {id(triple): triple for triple in lattice.transitions}.values()
        for triple in distinct:
            for column in triple:
                assert isinstance(_owner(column), mmap.mmap)


def test_the_crosscheck_reader_owns_its_grid_root_row():
    # a view of the frozen-control field's initial row would pin the whole
    # mapped field for as long as the reader lives
    bp = builtin("dynkin_heat")
    lattice = build_lattice(bp.spec, 0.0, bp.grid)
    reader = CrosscheckReader(bp.spec, lattice)
    assert not isinstance(_owner(reader.w0), mmap.mmap)


def _unshared(lattice):
    """A copy of `lattice` whose levels share no objects."""
    return dataclasses.replace(
        lattice,
        transitions=tuple(tuple(a.copy() for a in triple) for triple in lattice.transitions),
    )


def _solution_bits(solution):
    rows = solution.y + solution.z + solution.dk_plus + solution.dk_minus + solution.occupation
    sums = (solution.k_plus_mean, solution.k_minus_mean, solution.times)
    flat = (solution.flatness_lower, solution.flatness_upper, solution.exclusion_max)
    return _bits(rows) + _bits(sums) + [flat, solution.root_index]


def _moving(spec):
    """`spec` with sigma, the driver and both obstacles moving with t: a
    walk that took t or sigma of one level for those of the next would
    show."""
    co = spec.coefficients
    return dataclasses.replace(
        spec,
        coefficients=dataclasses.replace(
            co,
            sigma=lambda t, x, u, v: np.asarray(co.sigma(t, x, u, v)) * (1.0 + 0.1 * t),
            driver=lambda t, x, y, z, u, v: np.asarray(co.driver(t, x, y, z, u, v)) + 0.1 * t,
            lower=lambda t, x: np.asarray(co.lower(t, x)) - 0.01 * t,
            upper=lambda t, x: np.asarray(co.upper(t, x)) + 0.01 * t,
        ),
    )


def _assert_the_walk_reads_shared_levels_as_unshared_ones(spec, lattice):
    """Every solve of `spec`, moving with t, on `lattice` is bitwise the
    same solve on the copy of `lattice` whose levels share nothing."""
    spec, copy = _moving(spec), _unshared(lattice)
    n = lattice.n_steps
    ranges = [(0, None)] + ([(n // 3, n - n // 4)] if n // 3 < n - n // 4 else [])
    for mode, penalty in (
        ("two_barrier", None),
        ("one_barrier_lower", 4.0),
        ("penalized", (4.0, 4.0)),
    ):
        for start, end in ranges:
            ours, ref = (
                solve_backward(spec, lat, mode, penalty, None, start, end)
                for lat in (lattice, copy)
            )
            assert _solution_bits(ours) == _solution_bits(ref), (mode, start, end)
    for start, end in ranges:
        end = n if end is None else end
        ours, ref = (
            backward_semigroup(spec, lat, start, end, None) for lat in (lattice, copy)
        )
        assert ours.tobytes() == ref.tobytes(), (start, end)
    lifted = shifted_spec(spec, 0.05, ("terminal", "driver"))
    ours = comparison_check(spec, lifted, lattice, samples=16)
    assert ours.conclusive and ours == comparison_check(spec, lifted, copy, samples=16)
    assert _estimate_quantities(spec, lattice, 0.1) == _estimate_quantities(spec, copy, 0.1)


@pytest.mark.parametrize("name, grid", _CASES)
def test_a_walk_on_shared_levels_is_bitwise_the_walk_on_unshared_ones(name, grid):
    bp = builtin(name)
    lattice = build_lattice(bp.spec, 0.0, grid or bp.grid)
    assert any(a is b for a, b in zip(lattice.transitions, lattice.transitions[1:]))
    _assert_the_walk_reads_shared_levels_as_unshared_ones(bp.spec, lattice)


@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(**{**_UNIT_SPECS, "shift": st.just(0)}, nt=st.integers(60, 200))
def test_a_flat_walk_on_shared_levels_is_bitwise_the_walk_on_unshared_ones(
    shift, residual, diffusion, nx, nt
):
    grid = SpaceTimeGrid(-1.0, 1.0, nx, nt, 1.0)
    spec = _unit_spec(grid, shift + residual, diffusion)
    lattice = build_lattice(spec, 0.0, grid)
    assert any(a is b for a, b in zip(lattice.transitions, lattice.transitions[1:]))
    _assert_the_walk_reads_shared_levels_as_unshared_ones(spec, lattice)


def test_a_walk_reuses_a_step_only_on_one_node_set():
    # the node set moves one node to the right every third level, and
    # levels 0 to 6 share one triple and levels 7 to 11 another: level j
    # may take the step of level j + 1 only if it shares its triple and
    # levels j, j + 1 and j + 2 hold one node set (j = 0, 3 and 9)
    n, nt = 9, 12
    center = np.clip(np.arange(n), 1, n - 2).astype(np.int32)
    first = (center, np.full(n, 0.25), np.full(n, 0.3))
    then = (center, np.full(n, 0.2), np.full(n, 0.1))
    spec = _flat_spec(0.0, 1.0)
    lattice = RecombiningLattice(
        controls=(0.0, 0.0),
        grid=SpaceTimeGrid(-1.0, 1.0, n, nt, 1.0),
        times=np.arange(nt + 1) / nt,
        first_index=tuple(k // 3 for k in range(nt + 1)),
        counts=(n,) * (nt + 1),
        transitions=(first,) * 7 + (then,) * 5,
        mean_error=0.0,
        var_error=0.0,
        halo=(),
        escape_bound=0.0,
        clipped_rows=0,
    )
    _assert_the_walk_reads_shared_levels_as_unshared_ones(spec, lattice)
    # a walk of one level has no step to reuse
    values = None
    for j in range(nt - 1, -1, -1):
        values = backward_semigroup(spec, lattice, j, j + 1, values)
    whole = backward_semigroup(spec, lattice, 0, nt, None)
    assert whole.tobytes() == values.tobytes()
