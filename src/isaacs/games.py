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

from . import pde, rbsde
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
    """Solve both Hamiltonian reductions, two rows of one stacked march, and
    compare them as `value_verdict` does."""
    rows = [pde.two_barrier_row(kind, None) for kind in ("lower", "upper")]
    lower, upper = pde.raise_first_failure(pde.march_rows(spec, grid, rows))
    return value_verdict(spec, grid, lower, upper, seed)


def value_verdict(spec, grid, lower, upper, seed):
    """The GameVerdict of the lower and upper two-obstacle fields on `grid`,
    with the Isaacs condition sampled under `seed`."""
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


def dpp_check(spec, grid, kind="lower", split=None):
    """Freeze an intermediate level and re-solve the head of the interval.

    Solving on the whole interval, taking the level at the split time as
    terminal data, and solving again on the head must reproduce the original
    levels: the backward recursion repeats the same arithmetic on the same
    numbers, so the residual is exactly zero (the check allows 1e-12).  The
    whole-interval field and the head, which joins it at the split level,
    are one march; `dpp_report` compares them.
    """
    split, split_level = dpp_split(grid, split)
    rows = [pde.two_barrier_row(kind, None), pde.two_barrier_row(kind, (0, split_level))]
    full, head = pde.raise_first_failure(pde.march_rows(spec, grid, rows))
    return dpp_report(kind, split, full, head)


def dpp_split(grid, split):
    """(split time, split level) of a dynamic-programming check: the middle
    level when `split` is None, else the grid level at time `split`, which
    must lie strictly inside the horizon."""
    if split is None:
        split_level = grid.nt // 2
        split = split_level * grid.dt
    else:
        split_level = grid.time_level(split)
    if not 0 < split_level < grid.nt:
        raise ValueError(f"split {split!r} must be strictly inside the horizon")
    return split, split_level


def dpp_report(kind, split, full, head):
    """The DPPReport of the whole-interval `kind` field and the head solved
    from its level at time `split`."""
    tolerance = 1e-12
    split_level = len(head.times) - 1
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


def fixed_control_crosscheck(spec, lattice, tolerance=None):
    """Freeze the lattice's control pair and solve the resulting linear
    problem twice.

    The finite-difference march runs on singleton control grids, where both
    reductions collapse (`frozen_control_field`), and the lattice recursion
    on the pair's chain: both approximate the same reflected solution
    through different spatial schemes (upwind differences against
    exact-mean transitions).  `crosscheck_report` compares them.  `lattice`
    must start at t = 0 (`rbsde.require_base`); the march runs on its grid.
    """
    field = frozen_control_field(spec, lattice)
    y0 = rbsde.backward_semigroup(spec, lattice, 0, lattice.n_steps, None)
    return crosscheck_report(lattice, field, y0, tolerance)


def frozen_control_field(spec, lattice):
    """The lower field of `spec` with its controls frozen at the pair of
    `lattice`, a base lattice, marched on the lattice's grid."""
    rbsde.require_base(lattice)
    u, v = spec.control_pair(lattice.controls)
    frozen = dataclasses.replace(
        spec,
        controls_i=ControlGrid(spec.controls_i.label, (u,)),
        controls_ii=ControlGrid(spec.controls_ii.label, (v,)),
    )
    return pde.solve_isaacs_double_obstacle(frozen, lattice.grid, "lower")


def crosscheck_report(lattice, field, y0, tolerance):
    """The CrosscheckReport of the frozen-control `field` against the
    lattice's root level `y0`.  Agreement is checked at the initial time on
    the inner half of the domain, out of reach of either boundary treatment
    at these horizons.  The default tolerance (None) 5 (dx + dt) at the
    field's own scale matches the schemes' first-order disagreement."""
    grid = lattice.grid
    w0 = field.initial()
    i0, i1 = grid.nx // 4, grid.nx - grid.nx // 4
    max_diff = float(np.max(np.abs(y0[i0:i1] - w0[i0:i1])))
    if tolerance is None:
        spread = float(np.max(w0) - np.min(w0))
        tolerance = 5.0 * (grid.dx + grid.dt) * max(1.0, spread)
    return CrosscheckReport(
        controls=lattice.controls,
        max_diff=max_diff,
        tolerance=tolerance,
        inner=(i0, i1),
        passed=max_diff <= tolerance,
    )
