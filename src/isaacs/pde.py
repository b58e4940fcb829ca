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
(`_CFL_MARGIN`), which `solve_isaacs_double_obstacle` takes as `cfl_margin`.

Rows, each a (reduction, variant) pair, are marched side by side as one
(rows, nx) stack, and each level is a few whole-stack array operations:
b, sigma, the stability maxima and the obstacles do not depend on W and
are evaluated once per level, the driver sees the stacked W, the tables of
every control pair and row are one call of `model.hamiltonian_tables`,
each row reduces them by its `model.REDUCTIONS` entry, and one
`penalized_step` and `obstacle_clamp` take the whole stack under per-row
penalty and clamp columns; the march computes no reflection increments.
A row may also join the stack below the horizon, starting from the values
another row holds at that level, as a terminal override at that level
would.  Each row's numbers are bitwise those of its own one-row march, and
each row ends in its field or in its own first failure, so one failing row
never stops another.

`isaacs run` marches once: the lower and upper fields, the 2L rows of the
penalization sweep and the two dynamic-programming heads, which join at
the split level from the lower and the upper row, are one march, and each
check builds its report from the fields it needs.

The march holds one level of every row and stores whole fields for every
row but those a reader streams.  Every statistic of a sweep is a maximum of
differences between rows at one level and node, so `SweepStatistics`
takes them level by level as the march goes and streams the 2L penalized
rows: a sweep of 2L+1 rows (the reference, then above and below for each
level m) stores the reference field only, whatever L is.  `isaacs run`
stores the lower and upper fields and the two heads.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from .model import (
    REDUCTIONS,
    CoefficientError,
    PenalizationSchedule,
    Variant,
    hamiltonian_tables,
    mapped_array,
    obstacle_clamp,
    obstacle_rows,
    penalized_step,
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


def _march(spec, grid, rows, terminal, t_hi, cfl_margin, reader=None):
    """March rows of (kind, variant, label, join) side by side; returns, per
    row, its ValueField, its own first failure, or None for a row that
    marched to the end but whose field was not stored.

    A row whose join is None starts at level t_hi (a grid level, default the
    horizon) from `terminal` (default the payoff).  A row whose join is
    (source, s) starts at level s, below the source's own start, from the
    values the source row holds there: it joins the stack once level s is
    marched, or carries the source's failure if the source failed before
    reaching s.  Either start goes through `variant.terminal_row`, so a
    joining row is bitwise the one-row march with `terminal` the source's
    level s and `t_hi` = s dt, and its field covers levels 0..s.

    The march holds one (rows, nx) level of every row, as `rbsde._walk`
    does, and stores the field of every row not in `reader.streamed`, in one
    block mapped for the march.  A `reader` (a SweepStatistics) names the
    rows it reads in `reader.rows`: every level at which all of them are
    marching, from the first such level down to 0, goes to `reader.feed` as
    the (rows, nx) level, so a statistic of whole fields is taken level by
    level without storing them.

    A level is a few operations on the (rows, nx) stack of the rows marching
    then: the tables of every control pair and row at once, each row's
    reduction, and one `model.penalized_step` and `model.obstacle_clamp`
    under the stacked variants, whose columns are built once per set of
    marching rows.  b, sigma, the stability maxima and the obstacles are
    evaluated once per level for the whole stack, and each row holds exactly
    the numbers of its own one-row march.  A row stops at its own first
    failure (start row, nonfinite integrand, then stability, checked as in
    a one-row march) and the other rows march on: one failing row never
    stops another.  A coefficient that `hamiltonian_tables` refuses at a
    level is the failure of every row marching there.
    """
    for kind, _, _, _ in rows:
        if kind not in REDUCTIONS:
            raise ValueError(f"kind must be 'lower' or 'upper', got {kind!r}")
    j_hi = grid.nt if t_hi is None else grid.time_level(t_hi)
    if j_hi == 0:
        raise ValueError("t_hi = 0 leaves nothing to solve")
    starts = [j_hi if join is None else join[1] for _, _, _, join in rows]
    starting = {}  # level -> the rows that start there
    for r, start in enumerate(starts):
        starting.setdefault(start, []).append(r)
    x = grid.space_nodes()
    dx, dt = grid.dx, grid.dt
    co = spec.coefficients
    mu = co.driver_lipschitz

    level = np.empty((len(rows), grid.nx))  # the level each marching row holds
    # the levels of the stored rows: one block in an anonymous memory map of
    # its own (`model.mapped_array`), a view per row
    kept = [r for r in range(len(rows)) if reader is None or r not in reader.streamed]
    ends = list(itertools.accumulate(starts[r] + 1 for r in kept))
    stored = mapped_array((ends[-1] if kept else 0, grid.nx))
    fields = {r: stored[end - starts[r] - 1 : end] for r, end in zip(kept, ends)}
    worst = np.zeros(len(rows))
    results = [None] * len(rows)  # each row's failure, until its field is built
    live = []
    for j in range(j_hi, -1, -1):
        if j < j_hi and live:
            index, variant, penalties, reduce = stack
            t = j * dt
            w_next = level[index]
            try:
                with np.errstate(over="ignore", invalid="ignore"):  # refused below
                    tables, *maxima = hamiltonian_tables(
                        spec, t, x, w_next, *_derivatives(w_next, dx)
                    )
            except CoefficientError as exc:
                # a wrong-shaped coefficient or a nonfinite b or sigma: the
                # tables are one call for the whole stack, so every row fails
                for r in live:
                    results[r] = exc
                live = []
            else:
                finite = np.isfinite(tables).all(axis=(0, 1, 3))  # per row
                lo, up = obstacle_rows(co, t, x)
                numbers = _stability_number(dt, dx, mu, *maxima, penalties)
                ok = finite & ~(numbers > cfl_margin)
                if not ok.all():
                    for i in np.flatnonzero(~ok):
                        results[live[i]] = (
                            CflError(float(numbers[i]), t, dt, cfl_margin)
                            if finite[i]
                            else _nonfinite_error(t)
                        )
                    live = [r for r, good in zip(live, ok) if good]
                    if live:
                        index, variant, penalties, reduce = stack = _live_stack(rows, live)
                        tables, w_next, numbers = tables[:, :, ok], w_next[ok], numbers[ok]
                if live:
                    # fmax, like a running max(), passes over a nan number (nan penalty)
                    worst[index] = np.fmax(worst[index], numbers)
                    step = penalized_step(w_next, reduce(tables), dt, lo, up, variant)
                    level[index] = obstacle_clamp(step, lo, up, variant)
        if j in starting:
            for r in starting[j]:
                _, variant, _, join = rows[r]
                if join is not None and results[join[0]] is not None:
                    results[r] = results[join[0]]
                    continue
                start = terminal if join is None else level[join[0]]
                try:
                    level[r] = variant.terminal_row(co, j * dt, x, start)
                except ValueError as exc:
                    results[r] = exc
                else:
                    live = sorted(live + [r])
            stack = _live_stack(rows, live) if live else None
        for r in live:
            if r in fields:
                fields[r][j] = level[r]
        if reader is not None and all(
            starts[r] >= j and results[r] is None for r in reader.rows
        ):
            reader.feed(level)

    times = grid.time_nodes()
    for r, (_, variant, label, _) in enumerate(rows):
        if results[r] is None and r in fields:
            results[r] = ValueField(
                label=label,
                times=times[: starts[r] + 1],
                nodes=x,
                values=fields[r],
                cfl_number=float(worst[r]),
                penalty=(variant.pen_upper, variant.pen_lower),
            )
    return results


def march_rows(spec, grid, rows, reader=None):
    """The fields of `rows` from one stacked march over the whole grid, each
    row's ValueField or its own first failure; see `two_barrier_row` and
    `sweep_rows` for the rows.  A `reader` is fed as `_march` feeds it, and
    a row it streams ends in None, unless it failed."""
    return _march(spec, grid, rows, None, None, _CFL_MARGIN, reader)


def raise_first_failure(results):
    """The results of a march, once none of them is a failure; raises the
    first failure in row order otherwise, as marching the rows one after
    another would."""
    for result in results:
        if isinstance(result, Exception):
            raise result
    return results


def two_barrier_row(kind, join):
    """The two-obstacle row of reduction `kind`; `join` is None or the
    (source row, level) it starts from."""
    return (kind, Variant.named("two_barrier"), kind, join)


def solve_isaacs_double_obstacle(
    spec, grid, kind="lower", terminal=None, t_hi=None, cfl_margin=_CFL_MARGIN
):
    """Both obstacles hard; `kind` picks the Hamiltonian reduction.

    `terminal` overrides the payoff with values on the grid nodes, taken at
    time `t_hi` (a grid level, default the horizon); it must sit between the
    obstacles there.  Returns a ValueField over [0, t_hi].
    """
    rows = [two_barrier_row(kind, None)]
    return raise_first_failure(_march(spec, grid, rows, terminal, t_hi, cfl_margin))[0]


def _penalized_row(kind, penalty_kind, penalty):
    return (kind, Variant.named(penalty_kind, penalty), f"{kind}_{penalty_kind}", None)


def solve_isaacs_penalized(
    spec,
    grid,
    kind="lower",
    penalty_kind="penalized",
    penalty=(0.0, 0.0),
):
    """Penalized variants of the double-obstacle solve.

    `penalty_kind` names a `model.Variant` and `penalty` is its penalty
    argument: one_barrier_lower keeps the lower obstacle hard and penalizes
    the upper one with weight m (approximates the two-obstacle field from
    above as m grows); one_barrier_upper is the mirror image (from below);
    penalized drops both clamps and takes a penalty pair (m, n) for (upper,
    lower).
    """
    rows = [_penalized_row(kind, penalty_kind, penalty)]
    return raise_first_failure(march_rows(spec, grid, rows))[0]


def sweep_rows(schedule):
    """The 2L penalized rows of a sweep of the lower-Hamiltonian field, the
    approximation from above and then from below for each level m."""
    rows = []
    for m in schedule:
        rows.append(_penalized_row("lower", "one_barrier_lower", m))
        rows.append(_penalized_row("lower", "one_barrier_upper", m))
    return rows


@dataclasses.dataclass(frozen=True)
class ConvergenceReport:
    """Outcome of a penalization sweep against the two-obstacle field.

    For each level m the sweep solves the approximation from above (lower
    obstacle hard, upper penalized) and from below (mirror image).  All
    violations are worst-case over nodes, levels and sweep stages; a healthy
    sweep has them at roundoff while the two-sided gap shrinks.  The report
    holds these numbers only, no field.
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

    @property
    def gap_ratio(self):
        first, last = self.two_sided_gap[0], self.two_sided_gap[-1]
        if first == 0.0:
            return 0.0 if last == 0.0 else math.inf
        return last / first


class SweepStatistics:
    """The maxima a sweep reports, taken one time level at a time.

    `rows` are the indices, in the levels fed, of the reference and of the
    `sweep_rows` rows in that order, and `streamed` the penalized ones,
    whose fields the march does not store (a caller that reads the
    reference nowhere else adds its row too).  `feed` takes one (rows, nx)
    level and folds, node by node, running maxima over the levels fed: per
    level m of the schedule |above - reference|, |below - reference|,
    above - below, reference - above and below - reference, and per pair of
    adjacent levels the rise of above and the fall of below.  `report`
    takes each maximum over the nodes and makes the ConvergenceReport of
    them.  The running maxima are O(L x nx).
    """

    def __init__(self, schedule, rows):
        self.levels = tuple(schedule)
        n = len(self.levels)
        self.rows = list(rows)
        self.streamed = set(self.rows[1:])
        ref, above, below = [0] * n, list(range(1, 2 * n, 2)), list(range(2, 2 * n + 1, 2))
        # the rows of each difference, in the order listed above
        at = np.array(self.rows)
        self._minuend = at[above + below + above + ref + below + above[1:] + below[:-1]]
        self._subtrahend = at[ref + ref + below + above + ref + above[:-1] + below[1:]]
        self._maxima = None

    def feed(self, level):
        differences = level[self._minuend] - level[self._subtrahend]
        gaps = differences[: 2 * len(self.levels)]
        np.abs(gaps, out=gaps)
        if self._maxima is None:
            self._maxima = differences
        else:
            # maximum, like np.max over a whole field, passes a nan on
            np.maximum(self._maxima, differences, out=self._maxima)

    def report(self):
        n = len(self.levels)
        # + 0.0 turns -0.0 into 0.0: every difference is +0.0 at the horizon,
        # where all rows hold the payoff, so a zero maximum over the whole
        # field is 0.0, in whatever order its zeros of either sign are met
        maxima = (self._maxima.max(axis=1) + 0.0).tolist()
        gap_above, gap_below, two_sided, from_above, from_below = (
            maxima[k * n : (k + 1) * n] for k in range(5)
        )
        # each worst case as a running max() over the levels m in order
        sandwich = [v for pair in zip(from_above, from_below) for v in pair]
        diagonal = [b - a for a, b in zip(two_sided, two_sided[1:])]
        return ConvergenceReport(
            kind="lower",
            levels=self.levels,
            gap_above=tuple(gap_above),
            gap_below=tuple(gap_below),
            two_sided_gap=tuple(two_sided),
            monotone_violation_above=max([-math.inf, *maxima[5 * n : 6 * n - 1]]),
            monotone_violation_below=max([-math.inf, *maxima[6 * n - 1 :]]),
            sandwich_violation=max([-math.inf, *sandwich]),
            diagonal_violation=max([-math.inf, *diagonal]),
        )


def run_penalization_sweep(spec, grid, schedule):
    """March the penalized approximations of the lower-Hamiltonian field
    through a schedule of weights, all levels and the two-obstacle
    reference side by side in one stacked march, and report them as
    `sweep_report` does; the statistics are taken level by level as the
    march goes, and none of the 2L + 1 fields is stored.
    """
    if not isinstance(schedule, PenalizationSchedule):
        schedule = PenalizationSchedule(tuple(schedule))
    rows = [two_barrier_row("lower", None), *sweep_rows(schedule)]
    statistics = SweepStatistics(schedule, range(len(rows)))
    # only the statistics read the reference here
    statistics.streamed.add(0)
    raise_first_failure(march_rows(spec, grid, rows, statistics))
    return statistics.report()


def sweep_report(schedule, reference, penalized):
    """The sweep's report from the two-obstacle lower field `reference` and
    the fields of `sweep_rows(schedule)`, fed to SweepStatistics level by
    level from the horizon down, as the march feeds it.

    Checks, level by level: the approximation from above decreases, the one
    from below increases, both stay on the correct side of the two-obstacle
    field, and the two-sided gap between them never widens.
    """
    statistics = SweepStatistics(schedule, range(len(penalized) + 1))
    for j in range(len(reference.times) - 1, -1, -1):
        statistics.feed(np.stack([reference.values[j], *(f.values[j] for f in penalized)]))
    return statistics.report()


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
