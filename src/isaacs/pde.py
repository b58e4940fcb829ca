"""Finite-difference solvers for double-obstacle Isaacs equations.

The terminal-value problem on [0, T] x [x_min, x_max] is

    -dW/dt - H(t, x, W, DW, D2W) = 0   between the obstacles,
    lower(t, x) <= W(t, x) <= upper(t, x),

with W(T, .) the terminal payoff and H either the lower Hamiltonian
(max over u of min over v) or the upper one (min over v of max over u).

The scheme marches backward with an explicit monotone step.  Spatial
derivatives use ghost nodes of zero curvature at both ends (W[-1] =
2 W[0] - W[1]), central second differences, upwind first differences
split on the sign of the drift, and a central slope for the z argument
of the driver:

    step(t, x) = W_next + dt * ( H reduction over the control grids
                                 - m * max(W_next - upper, 0)
                                 + n * max(lower - W_next, 0) )

followed by clamping to the obstacles that the variant keeps hard: this is
`model.obstacle_step` with base W_next and drive H, and the penalty
weights and clamps come from a `model.Variant`.  The clamp makes each
level satisfy its obstacle constraints exactly and the discrete
complementarity residual vanish identically, which is what
`viscosity_residual` measures.

Monotonicity of the explicit step requires roughly

    dt * ( max sigma^2 / dx^2 + max |b| / dx
           + mu * (1 + max |sigma| / dx) + penalties ) <= 1

with mu the (y, z)-Lipschitz constant of the driver.  Every solve tracks
that number level by level and refuses to run past the margin 0.9
(`_CFL_MARGIN`), which the two one-row solvers take as `cfl_margin`.

Rows, each a (reduction, variant) pair, are marched side by side as one
(rows, nx) stack, and each level is a few whole-stack array operations:
b, sigma, the stability maxima and the obstacles do not depend on W and
are evaluated once per level, the driver sees the stacked W, the tables of
every control pair and row are one call of `model.hamiltonian_tables`,
each row reduces them by its `model.REDUCTIONS` entry, and one
`obstacle_step` takes the whole stack under per-row penalty and clamp
columns.  Each row's numbers are bitwise those of its own one-row march.
A penalization sweep is one such march of 2L+1 rows (reference, then
above and below for each of the L levels), or of 2L rows when it is given
the reference, and `solve_lower_and_upper` marches both reductions
together.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .model import (
    REDUCTIONS,
    PenalizationSchedule,
    Variant,
    hamiltonian_tables,
    obstacle_rows,
    obstacle_step,
)

_CFL_MARGIN = 0.9


class CflError(ValueError):
    """The explicit step would not be monotone on this grid.

    `number` is the stability number met at time `t`, `margin` the bound it
    broke and `admissible_dt` the largest step that would have kept it.
    """

    def __init__(self, number, t, dt, margin):
        self.number = number
        self.t = t
        self.margin = margin
        self.admissible_dt = margin * dt / number
        super().__init__(
            f"stability number {number:.4g} exceeds margin {margin} at"
            f" t={t:.6g}; largest admissible dt is {self.admissible_dt:.6g}"
        )


@dataclasses.dataclass(frozen=True)
class ValueField:
    """Backward solution levels on a space-time grid.

    values[j] approximates W(times[j], nodes); values[-1] is the terminal
    row.  `label` records the Hamiltonian reduction and variant, `penalty`
    the (upper, lower) penalty weights, `cfl_number` the worst stability
    number met while marching.
    """

    label: str
    times: np.ndarray
    nodes: np.ndarray
    values: np.ndarray
    cfl_number: float
    penalty: tuple = (0.0, 0.0)

    def initial(self):
        return self.values[0]

    def interpolate(self, t, x):
        """Bilinear interpolation, for plotting and spot checks."""
        tt = np.clip(t, self.times[0], self.times[-1])
        xx = np.clip(x, self.nodes[0], self.nodes[-1])
        dt = self.times[1] - self.times[0]
        dx = self.nodes[1] - self.nodes[0]
        jt = min(int((tt - self.times[0]) / dt), len(self.times) - 2)
        jx = min(int((xx - self.nodes[0]) / dx), len(self.nodes) - 2)
        at = (tt - self.times[jt]) / dt
        ax = (xx - self.nodes[jx]) / dx
        v = self.values
        return float(
            (1 - at) * ((1 - ax) * v[jt, jx] + ax * v[jt, jx + 1])
            + at * ((1 - ax) * v[jt + 1, jx] + ax * v[jt + 1, jx + 1])
        )


def _derivatives(w, dx):
    # ghost nodes with zero curvature: We[-1] = 2 W[0] - W[1]; w is (rows, nx)
    we = np.concatenate(
        (2.0 * w[:, :1] - w[:, 1:2], w, 2.0 * w[:, -1:] - w[:, -2:-1]), axis=1
    )
    d2 = (we[:, :-2] - 2.0 * w + we[:, 2:]) / (dx * dx)
    dplus = (we[:, 2:] - w) / dx
    dminus = (w - we[:, :-2]) / dx
    dcentral = (we[:, 2:] - we[:, :-2]) / (2.0 * dx)
    return d2, dplus, dminus, dcentral


def _nonfinite_error(t):
    return ValueError(f"nonfinite Hamiltonian integrand at t={t}")


def _stability_number(dt, dx, mu, max_s2, max_b, max_smag, penalties):
    # penalties are added one by one, after the rest, in a fixed float order
    number = max_s2 / dx**2 + max_b / dx + mu * (1.0 + max_smag / dx)
    for penalty in penalties:
        number = number + penalty
    return dt * number


def cfl_number(spec, grid, penalty=0.0):
    """Advisory worst-case stability number for the explicit step, sampled
    at five evenly spaced times.

    Solvers re-measure this level by level; use this to size a grid before
    committing to a long march.
    """
    x = grid.space_nodes()
    worst = 0.0
    w = np.zeros((1, x.shape[0]))  # W = 0, and so are all its derivatives
    mu = spec.coefficients.driver_lipschitz
    for t in np.linspace(0.0, grid.horizon, 5):
        tables, *maxima = hamiltonian_tables(spec, float(t), x, w, w, w, w, w)
        if not np.isfinite(tables).all():
            raise _nonfinite_error(float(t))
        worst = max(worst, _stability_number(grid.dt, grid.dx, mu, *maxima, (penalty,)))
    return worst


def _live_stack(rows, live):
    """The rows in `live` as one (rows, nx) stack: their index into the
    march's values, the stacked variant, the per-row penalty pairs and the
    per-row reduction."""
    kinds = [rows[r][0] for r in live]
    if len(set(kinds)) == 1:
        reduce = REDUCTIONS[kinds[0]]
    else:
        lower = np.array([[kind == "lower"] for kind in kinds])

        def reduce(tables):
            return np.where(lower, REDUCTIONS["lower"](tables), REDUCTIONS["upper"](tables))

    variants = [rows[r][1] for r in live]
    penalties = tuple(
        np.array([getattr(v, name) for v in variants]) for name in ("pen_upper", "pen_lower")
    )
    index = slice(None) if len(live) == len(rows) else np.array(live)
    return index, Variant.stacked(variants), penalties, reduce


def _march(spec, grid, rows, terminal, t_hi, cfl_margin):
    """March rows of (kind, variant, label) side by side; one ValueField each.

    A level is a few operations on the (rows, nx) stack of the rows still
    marching: the tables of every control pair and row at once, each row's
    reduction, and one `model.obstacle_step` under the stacked variants,
    whose columns are built once per set of marching rows.  b, sigma, the
    stability maxima and the obstacles are evaluated once per level for the
    whole stack, and each row holds exactly the numbers of its own one-row
    march.  A row stops at its own first failure (terminal row, nonfinite
    integrand, then stability, checked as in a one-row march); the march
    raises the failure of the first failing row, as marching the rows one
    after another would.
    """
    for kind, _, _ in rows:
        if kind not in REDUCTIONS:
            raise ValueError(f"kind must be 'lower' or 'upper', got {kind!r}")
    j_hi = grid.nt if t_hi is None else grid.time_level(t_hi)
    if j_hi == 0:
        raise ValueError("t_hi = 0 leaves nothing to solve")
    x = grid.space_nodes()
    dx, dt = grid.dx, grid.dt
    co = spec.coefficients
    mu = co.driver_lipschitz

    values = np.empty((len(rows), j_hi + 1, grid.nx))
    worst = np.zeros(len(rows))
    failures = {}
    for r, (_, variant, _) in enumerate(rows):
        try:
            values[r, j_hi] = variant.terminal_row(co, j_hi * dt, x, terminal)
        except ValueError as exc:
            failures[r] = exc
    live = [r for r in range(len(rows)) if r not in failures]
    stack = _live_stack(rows, live) if live else None
    for j in range(j_hi - 1, -1, -1):
        if failures and (not live or min(failures) < live[0]):
            break  # no row still marching comes before the first failure
        index, variant, penalties, reduce = stack
        t = j * dt
        w_next = values[index, j + 1]
        tables, *maxima = hamiltonian_tables(spec, t, x, w_next, *_derivatives(w_next, dx))
        finite = np.isfinite(tables).all(axis=(0, 1, 3))  # per row
        lo, up = obstacle_rows(co, t, x)
        numbers = _stability_number(dt, dx, mu, *maxima, penalties)
        ok = finite & ~(numbers > cfl_margin)
        if not ok.all():
            for i in np.flatnonzero(~ok):
                failures[live[i]] = (
                    CflError(float(numbers[i]), t, dt, cfl_margin)
                    if finite[i]
                    else _nonfinite_error(t)
                )
            live = [r for r, good in zip(live, ok) if good]
            if not live:
                continue
            index, variant, penalties, reduce = stack = _live_stack(rows, live)
            tables, w_next, numbers = tables[:, :, ok], w_next[ok], numbers[ok]
        # fmax, like a running max(), passes over a nan number (nan penalty)
        worst[index] = np.fmax(worst[index], numbers)
        values[index, j], _, _ = obstacle_step(w_next, reduce(tables), dt, lo, up, variant)
    if failures:
        raise failures[min(failures)]

    times = grid.time_nodes()[: j_hi + 1]
    return [
        ValueField(
            label=label,
            times=times,
            nodes=x,
            values=values[r],
            cfl_number=float(worst[r]),
            penalty=(variant.pen_upper, variant.pen_lower),
        )
        for r, (_, variant, label) in enumerate(rows)
    ]


def _two_barrier_row(kind):
    return (kind, Variant.named("two_barrier"), kind)


def solve_isaacs_double_obstacle(
    spec, grid, kind="lower", terminal=None, t_hi=None, cfl_margin=_CFL_MARGIN
):
    """Both obstacles hard; `kind` picks the Hamiltonian reduction.

    `terminal` overrides the payoff with values on the grid nodes, taken at
    time `t_hi` (a grid level, default the horizon); it must sit between the
    obstacles there.  Returns a ValueField over [0, t_hi].
    """
    return _march(spec, grid, [_two_barrier_row(kind)], terminal, t_hi, cfl_margin)[0]


def solve_lower_and_upper(spec, grid):
    """The lower and upper two-obstacle fields, marched side by side; each
    is bitwise the field `solve_isaacs_double_obstacle` returns for it."""
    rows = [_two_barrier_row("lower"), _two_barrier_row("upper")]
    lower, upper = _march(spec, grid, rows, None, None, _CFL_MARGIN)
    return lower, upper


def _penalized_row(kind, penalty_kind, penalty):
    return (kind, Variant.named(penalty_kind, penalty), f"{kind}_{penalty_kind}")


def solve_isaacs_penalized(
    spec,
    grid,
    kind="lower",
    penalty_kind="penalized",
    penalty=(0.0, 0.0),
    terminal=None,
    t_hi=None,
    cfl_margin=_CFL_MARGIN,
):
    """Penalized variants of the double-obstacle solve.

    `penalty_kind` names a `model.Variant` and `penalty` is its penalty
    argument: one_barrier_lower keeps the lower obstacle hard and penalizes
    the upper one with weight m (approximates the two-obstacle field from
    above as m grows); one_barrier_upper is the mirror image (from below);
    penalized drops both clamps and takes a penalty pair (m, n) for (upper,
    lower).
    """
    row = _penalized_row(kind, penalty_kind, penalty)
    return _march(spec, grid, [row], terminal, t_hi, cfl_margin)[0]


@dataclasses.dataclass(frozen=True)
class ConvergenceReport:
    """Outcome of a penalization sweep against the two-obstacle field.

    For each level m the sweep solves the approximation from above (lower
    obstacle hard, upper penalized) and from below (mirror image).  All
    violations are worst-case over nodes, levels and sweep stages; a healthy
    sweep has them at roundoff while the two-sided gap shrinks.
    """

    kind: str
    levels: tuple
    gap_above: tuple
    gap_below: tuple
    two_sided_gap: tuple
    monotone_violation_above: float
    monotone_violation_below: float
    sandwich_violation: float
    diagonal_violation: float
    reference: ValueField
    final_above: ValueField
    final_below: ValueField

    @property
    def gap_ratio(self):
        first, last = self.two_sided_gap[0], self.two_sided_gap[-1]
        if first == 0.0:
            return 0.0 if last == 0.0 else math.inf
        return last / first


def run_penalization_sweep(spec, grid, schedule, reference=None):
    """March the penalized approximations of the lower-Hamiltonian field
    through a schedule of weights, all levels and the reference side by
    side in one stacked march.

    `reference` is the two-obstacle lower field on this grid when it is
    already solved (as `games.compute_values` returns it); the march then
    leaves it out, and the report is bitwise the one that marches it.

    Checks, level by level: the approximation from above decreases, the one
    from below increases, both stay on the correct side of the two-obstacle
    field, and the two-sided gap between them never widens.
    """
    if not isinstance(schedule, PenalizationSchedule):
        schedule = PenalizationSchedule(tuple(schedule))
    kind = "lower"
    if reference is not None and (
        reference.label != kind
        or reference.penalty != (0.0, 0.0)
        or not np.array_equal(reference.times, grid.time_nodes())
        or not np.array_equal(reference.nodes, grid.space_nodes())
    ):
        raise ValueError(
            f"field {reference.label!r} with penalty {reference.penalty!r} on"
            f" {len(reference.times)} levels and {len(reference.nodes)} nodes is not"
            f" the two-obstacle {kind!r} field on this grid"
        )
    rows = [_two_barrier_row(kind)] if reference is None else []
    for m in schedule:
        rows.append(_penalized_row(kind, "one_barrier_lower", m))
        rows.append(_penalized_row(kind, "one_barrier_upper", m))
    penalized = _march(spec, grid, rows, None, None, _CFL_MARGIN)
    if reference is None:
        reference, *penalized = penalized
    gap_above = []
    gap_below = []
    two_sided = []
    mono_above = -math.inf
    mono_below = -math.inf
    sandwich = -math.inf
    diagonal = -math.inf
    prev_above = prev_below = None
    for above, below in zip(penalized[::2], penalized[1::2]):
        gap_above.append(float(np.max(np.abs(above.values - reference.values))))
        gap_below.append(float(np.max(np.abs(below.values - reference.values))))
        two_sided.append(float(np.max(above.values - below.values)))
        sandwich = max(
            sandwich,
            float(np.max(reference.values - above.values)),
            float(np.max(below.values - reference.values)),
        )
        if prev_above is not None:
            mono_above = max(mono_above, float(np.max(above.values - prev_above)))
            mono_below = max(mono_below, float(np.max(prev_below - below.values)))
            diagonal = max(diagonal, two_sided[-1] - two_sided[-2])
        prev_above = above.values
        prev_below = below.values
    return ConvergenceReport(
        kind=kind,
        levels=tuple(schedule.levels),
        gap_above=tuple(gap_above),
        gap_below=tuple(gap_below),
        two_sided_gap=tuple(two_sided),
        monotone_violation_above=mono_above,
        monotone_violation_below=mono_below,
        sandwich_violation=sandwich,
        diagonal_violation=diagonal,
        reference=reference,
        final_above=penalized[-2],
        final_below=penalized[-1],
    )


@dataclasses.dataclass(frozen=True)
class ResidualReport:
    """Worst discrete complementarity residual of a double-obstacle field."""

    max_residual: float
    time_index: int
    node_index: int
    tolerance: float
    passed: bool


def viscosity_residual(spec, field):
    """Measure how well a field satisfies the discrete double-obstacle
    equation in complementarity form.

    At every interior level the residual is

        max( min( -(W_next - W)/dt - H(t, W_next), W - lower ), W - upper )

    which vanishes identically for fields produced by the two-obstacle
    solver and grows like (perturbation / dt) for anything else.  The
    field's label names the reduction H.  The tolerance 1e-9 / dt admits
    accumulated roundoff but flags any real perturbation.
    """
    if field.label not in REDUCTIONS:
        raise ValueError(
            "residual check covers the two-obstacle fields; got label"
            f" {field.label!r}"
        )
    dt = float(field.times[1] - field.times[0])
    dx = float(field.nodes[1] - field.nodes[0])
    tolerance = 1e-9 / dt
    x = field.nodes
    worst = -1.0
    where = (0, 0)
    for j in range(len(field.times) - 1):
        t = float(field.times[j])
        w = field.values[j]
        w_next = field.values[j + 1 : j + 2]  # a stack of one row
        tables, _, _, _ = hamiltonian_tables(spec, t, x, w_next, *_derivatives(w_next, dx))
        if not np.isfinite(tables).all():
            raise _nonfinite_error(t)
        h = REDUCTIONS[field.label](tables)[0]
        lo, up = obstacle_rows(spec.coefficients, t, x)
        resid = np.maximum(np.minimum(-(w_next[0] - w) / dt - h, w - lo), w - up)
        k = int(np.argmax(np.abs(resid)))
        if abs(float(resid[k])) > worst:
            worst = abs(float(resid[k]))
            where = (j, k)
    return ResidualReport(
        max_residual=worst,
        time_index=where[0],
        node_index=where[1],
        tolerance=tolerance,
        passed=worst <= tolerance,
    )
