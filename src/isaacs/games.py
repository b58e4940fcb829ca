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
which is the one place the lattice meets the game.  `CrosscheckReader`
marches that problem when it is made and reads the lattice's root row off
a walk, its own in `fixed_control_crosscheck` or that of `isaacs run`.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import pde, rbsde
from .model import ControlGrid, Variant, isaacs_condition_check


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
    problem twice: the finite-difference march of `CrosscheckReader`
    against the lattice recursion, which a walk of its own feeds to it.
    `lattice` must start at t = 0 (`rbsde.require_base`); the march runs on
    its grid.
    """
    reader = CrosscheckReader(spec, lattice)
    return rbsde.read_alone(lattice, Variant.named("two_barrier"), reader).report(tolerance)


class CrosscheckReader:
    """The frozen-control crosscheck on one base lattice, the reader of a
    two-barrier walk of `spec`.  Made, it refuses a lattice not from t = 0
    and a pair off the control grids of `spec`, then marches the lower
    field with the controls frozen to singleton grids at the lattice's
    pair, where both reductions collapse, and keeps its initial row.  Fed,
    it keeps the walk's root row: the same reflected solution through
    another spatial scheme (exact-mean transitions against upwind
    differences)."""

    def __init__(self, spec, lattice):
        rbsde.require_base(lattice)
        u, v = spec.control_pair(lattice.controls)
        frozen = dataclasses.replace(
            spec,
            controls_i=ControlGrid(spec.controls_i.label, (u,)),
            controls_ii=ControlGrid(spec.controls_ii.label, (v,)),
        )
        self.specs = (spec,)
        self.grid, self.controls = lattice.grid, lattice.controls
        # a copy, so that the reader does not pin the whole stored field
        self.w0 = pde.solve_isaacs_double_obstacle(frozen, lattice.grid, "lower").initial().copy()

    def feed(self, j, step, rows):
        ((self.y0, *_),) = rows

    def report(self, tolerance=None):
        """The CrosscheckReport of the grid's initial row against the
        lattice's root row.  Agreement is checked on the inner half of the
        domain, out of reach of either boundary treatment at these
        horizons.  The default tolerance (None) 5 (dx + dt) at the field's
        own scale matches the schemes' first-order disagreement."""
        grid, w0 = self.grid, self.w0
        i0, i1 = grid.nx // 4, grid.nx - grid.nx // 4
        max_diff = float(np.max(np.abs(self.y0[i0:i1] - w0[i0:i1])))
        if tolerance is None:
            spread = float(np.max(w0) - np.min(w0))
            tolerance = 5.0 * (grid.dx + grid.dt) * max(1.0, spread)
        return CrosscheckReport(
            controls=self.controls,
            max_diff=max_diff,
            tolerance=tolerance,
            inner=(i0, i1),
            passed=max_diff <= tolerance,
        )
