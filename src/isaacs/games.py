"""Game values, dynamic programming and cross-solver consistency checks.

The lower value solves the double-obstacle equation with the max-min
Hamiltonian, the upper value with the min-max one, both on the
finite-difference grid, the only solver here that reduces over the
controls.  The max-min never exceeds the min-max, so the fields are
ordered; when the two Hamiltonians agree pointwise the fields coincide and
the game has a value.  The checks here measure exactly that, plus two
structural identities of the backward solvers: recomposing a solve at an
intermediate time changes nothing, and freezing the controls makes the
finite-difference and lattice solvers approximate the same linear problem,
which is the one place the lattice meets the game.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import forwardsim, pde, rbsde
from .model import ControlGrid, isaacs_condition_check


@dataclasses.dataclass(frozen=True)
class GameVerdict:
    """Both value fields plus the evidence for or against a game value.

    `max_gap` is the worst |upper - lower| over all levels and nodes,
    `order_violation` the worst (lower - upper), positive only if the
    ordering failed.  `has_value` requires the sampled Isaacs gap to vanish
    and the fields to agree within `value_tol`, the first-order
    discretization wobble at the fields' own scale.
    """

    lower: pde.ValueField
    upper: pde.ValueField
    max_gap: float
    order_violation: float
    isaacs: object
    value_tol: float
    has_value: bool


def compute_values(spec, grid, seed=0):
    """Solve both Hamiltonian reductions, in one stacked march, and compare
    them."""
    lower, upper = pde.solve_lower_and_upper(spec, grid)
    radius = max(abs(grid.x_min), abs(grid.x_max))
    isaacs = isaacs_condition_check(spec, seed=seed, radius=radius)
    max_gap = float(np.max(np.abs(upper.values - lower.values)))
    order_violation = float(np.max(lower.values - upper.values))
    spread = max(
        float(np.max(lower.values) - np.min(lower.values)),
        float(np.max(upper.values) - np.min(upper.values)),
    )
    value_tol = 10.0 * (grid.dx + grid.dt) * max(1.0, spread)
    return GameVerdict(
        lower=lower,
        upper=upper,
        max_gap=max_gap,
        order_violation=order_violation,
        isaacs=isaacs,
        value_tol=value_tol,
        has_value=bool(isaacs.satisfied and max_gap <= value_tol),
    )


@dataclasses.dataclass(frozen=True)
class DPPReport:
    """Residual of recomposing a solve at an intermediate level."""

    kind: str
    split_time: float
    split_level: int
    max_residual: float
    tolerance: float
    passed: bool


def dpp_check(spec, grid, kind="lower", split=None, full=None):
    """Freeze an intermediate level and re-solve the head of the interval.

    Solving on the whole interval, taking the level at the split time as
    terminal data, and solving again on the head must reproduce the original
    levels: the backward recursion repeats the same arithmetic on the same
    numbers, so the residual is exactly zero (the check allows 1e-12).
    `full` is the whole-interval `kind` field when it is already solved on
    this grid (as `compute_values` returns it); only the head is marched.
    """
    tolerance = 1e-12
    if split is None:
        split_level = grid.nt // 2
        split = split_level * grid.dt
    else:
        split_level = grid.time_level(split)
    if not 0 < split_level < grid.nt:
        raise ValueError(f"split {split!r} must be strictly inside the horizon")
    if full is None:
        full = pde.solve_isaacs_double_obstacle(spec, grid, kind)
    elif full.label != kind or full.values.shape != (grid.nt + 1, grid.nx):
        raise ValueError(
            f"full field {full.label!r} of shape {full.values.shape} is not the"
            f" whole-interval {kind!r} field on this grid"
        )
    head = pde.solve_isaacs_double_obstacle(
        spec, grid, kind, terminal=full.values[split_level], t_hi=split
    )
    residual = float(np.max(np.abs(head.values - full.values[: split_level + 1])))
    return DPPReport(
        kind=kind,
        split_time=float(split),
        split_level=split_level,
        max_residual=residual,
        tolerance=tolerance,
        passed=residual <= tolerance,
    )


@dataclasses.dataclass(frozen=True)
class CrosscheckReport:
    """Agreement of the two solver families under frozen controls."""

    controls: tuple
    max_diff: float
    tolerance: float
    inner: tuple
    passed: bool


def fixed_control_crosscheck(spec, grid, controls, tolerance=None, base=None):
    """Freeze one control pair and solve the resulting linear problem twice.

    The finite-difference march runs on singleton control grids, where both
    reductions collapse, and the lattice recursion on the pair's chain:
    both approximate the same reflected solution through different spatial
    schemes (upwind differences against exact-mean transitions).  Agreement
    is checked at the initial time on the inner half of the domain, out of
    reach of either boundary treatment at these horizons.  The default
    tolerance 5 (dx + dt) at the field's own scale matches the schemes'
    first-order disagreement.  `base` is the pair's lattice on `grid` from
    t = 0 when it is already built (as `isaacs run` builds it for its
    lattice checks); it is built here otherwise.
    """
    u, v = spec.control_pair(controls)
    frozen = dataclasses.replace(
        spec,
        controls_i=ControlGrid(spec.controls_i.label, (u,)),
        controls_ii=ControlGrid(spec.controls_ii.label, (v,)),
    )
    field = pde.solve_isaacs_double_obstacle(frozen, grid, "lower")
    lattice = forwardsim.base_lattice(spec, grid, (u, v), base)
    sol = rbsde.solve_backward(spec, lattice, (u, v))
    y0 = sol.initial_values()
    w0 = field.initial()
    i0, i1 = grid.nx // 4, grid.nx - grid.nx // 4
    max_diff = float(np.max(np.abs(y0[i0:i1] - w0[i0:i1])))
    if tolerance is None:
        spread = float(np.max(w0) - np.min(w0))
        tolerance = 5.0 * (grid.dx + grid.dt) * max(1.0, spread)
    return CrosscheckReport(
        controls=(u, v),
        max_diff=max_diff,
        tolerance=tolerance,
        inner=(i0, i1),
        passed=max_diff <= tolerance,
    )
