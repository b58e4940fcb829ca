"""Backward solvers on the lattice: reflected, penalized and plain flavors.

Each solve holds one fixed control pair (u, v) on the control grids for
the whole horizon, as in the probabilistic representation of the game for
fixed controls, and runs on the lattice built for that pair: the lattice
is the pair's forward chain and carries the pair and its grid, so every
reader here takes the lattice alone and reads Y off it.  One explicit
backward step from level j+1 to level j at a node x reads

    ey  = E[Y_{j+1}]                      (lattice expectation)
    z   = slope * sigma,  slope = Cov(Y_{j+1}, X_{j+1}) / Var(X_{j+1})
    Y_j = obstacle_step(ey, f(t_j, x, ey, z, u, v), dt, lower, upper, variant)

where `mode` names the `model.Variant` and `model.obstacle_step` applies
its penalties (m, n) to the drive and then its clamps.  The clamp
residuals are the reflection increments dK+ and dK-, and the discrete
Skorokhod conditions hold for them as identities, both node by node and
in the occupation-weighted sums reported on the solution.

Every solve here iterates one walk down the lattice, `_walk`, that holds
only the current level of each of its rows, one row per problem.  A level
is the lattice's step geometry, which no coefficient enters, and the
sigma and obstacle rows, evaluated once per distinct callable for every
problem that reads it.  The walk has one failure rule: a row ends at the
first refusal of anything it reads and the others walk on, as the rows of
`pde._march` do.  It refuses an explicit step that does not contract,
dt * (driver_lipschitz + max(m, n)) >= 1, a lattice pair off a spec's
control grids, a nonfinite terminal row and, at any level, a coefficient
of the wrong shape or a nonfinite expectation or driver value.

A lattice check is one reader, made before the walk, fed by it a level at
a time and reporting after it: `ComparisonReader` folds the maxima of
`comparison_check`, `EstimateReader` the Snell envelopes and path-sum
moments of `apriori_estimate_check`, and `games.CrosscheckReader` keeps
the root level it compares with the grid; none stores a level.
`read_alone` feeds a walk of its own to one reader, as the library checks
do, and `read_walk` one walk to several: `isaacs run` walks each base
lattice once, with the rows its requested checks read.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import NamedTuple

import numpy as np

from .forwardsim import LatticeError, build_lattice
from .model import (
    SpaceTimeGrid,
    Variant,
    obstacle_rows,
    obstacle_step,
    on_nodes,
    raise_first_failure,
    shifted_spec,
)

# the data perturbation of the a priori estimates
PERTURBATION = 0.1


@dataclasses.dataclass(frozen=True)
class RBSDESolution:
    """Backward solution on lattice steps start_step .. end_step under one
    fixed control pair, `controls` = (u, v).

    Lists are indexed relative to start_step; entry j lives on the node set
    of lattice step start_step + j.  dk_plus[j] / dk_minus[j] are the
    reflection increments spent on [t_j, t_{j+1}] as functions of the step-j
    node; the cumulative reflection along a path is their sum along that
    path and is not a function of the current node, so the solution carries
    it in expectation: k_plus_mean[j] = E[K+ at t_j] under the occupation
    law of the chain started at the root node, zero at start_step and
    nondecreasing.  occupation[j] is that forward law; the flatness sums and
    the complementarity maximum are occupation-weighted.
    """

    mode: str
    penalty: tuple
    controls: tuple
    start_step: int
    end_step: int
    times: np.ndarray
    y: list
    z: list
    dk_plus: list
    dk_minus: list
    k_plus_mean: np.ndarray
    k_minus_mean: np.ndarray
    occupation: list
    root_index: int
    flatness_lower: float
    flatness_upper: float
    exclusion_max: float


class _Step(NamedTuple):
    """What the lattice alone decides of one backward step from level j+1
    to level j: the nodes, the transition's index columns and probabilities,
    and the target deviations of the chain.  The expectation reads the
    probabilities as three contiguous columns: p_down and p_up are the
    lattice's own arrays and p_stay is 1 - p_down - p_up, bitwise the
    middle column of `probs`, which the moments read."""

    t: float
    x: np.ndarray
    below: np.ndarray  # center - 1
    center: np.ndarray
    above: np.ndarray  # center + 1
    p_down: np.ndarray
    p_stay: np.ndarray
    p_up: np.ndarray
    probs: np.ndarray  # (n, 3): down, stay, up
    around: np.ndarray  # (n, 3) next-step indices
    deviation: np.ndarray  # (n, 3) targets minus their mean
    spread: np.ndarray  # Var(X_{j+1}) > 0
    var_x: np.ndarray  # Var(X_{j+1}), 1 where it vanishes


def _lattice_step(lattice, j, after):
    """The `_Step` of level j.  `after` is that of level j + 1, or None:
    when transitions[j] is the object transitions[j + 1] and levels j, j + 1
    and j + 2 hold one node set, the step is `after` at level j's time."""
    t = float(lattice.times[j])
    if (
        after is not None
        and lattice.transitions[j] is lattice.transitions[j + 1]
        and lattice.first_index[j] == lattice.first_index[j + 1] == lattice.first_index[j + 2]
        and lattice.counts[j] == lattice.counts[j + 1] == lattice.counts[j + 2]
    ):
        return after._replace(t=t)
    center, probs = lattice.transition(j)
    _, p_down, p_up = lattice.transitions[j]
    x = lattice.node_values(j)
    around = center[:, None] + (-1, 0, 1)
    targets = lattice.node_values(j + 1)[around]
    mean_x = np.einsum("ik,ik->i", probs, targets)
    deviation = targets - mean_x[:, None]
    var_x = np.einsum("ik,ik->i", probs, deviation ** 2)
    spread = var_x > 0.0
    return _Step(
        t=t,
        x=x,
        below=center - 1,
        center=center,
        above=center + 1,
        p_down=p_down,
        p_stay=1.0 - p_down - p_up,
        p_up=p_up,
        probs=probs,
        around=around,
        deviation=deviation,
        spread=spread,
        var_x=np.where(spread, var_x, 1.0),
    )


def _expectation(y_next, step):
    return (
        step.p_down * y_next[step.below]
        + step.p_stay * y_next[step.center]
        + step.p_up * y_next[step.above]
    )


def _reflected_step(co, variant, dt, u, v, step, sigma, y_next, lo, up):
    """The backward step of the module docstring: (Y_j, Z_j, dK+, dK-)."""
    ey = _expectation(y_next, step)
    cov = np.einsum("ik,ik->i", step.probs, y_next[step.around] * step.deviation)
    z = sigma * np.where(step.spread, cov / step.var_x, 0.0)
    fval = on_nodes(co.driver(step.t, step.x, ey, z, u, v), step.x.shape, "driver")
    if not (np.isfinite(ey).all() and np.isfinite(fval).all()):
        raise ValueError(f"nonfinite expectation or driver value at t={step.t:.6g}")
    y, dkp, dkm = obstacle_step(ey, fval, dt, lo, up, variant)
    return y, z, dkp, dkm


def _walk(specs, lattice, variant, terminal=None, start_step=0, end_step=None):
    """The backward recursion of every spec in `specs` on one lattice.

    Yields (end_step, None, rows) for the terminal level, then (j, step,
    rows) for each level j down to start_step, where rows[i] is (y, z, dK+,
    dK-, lo, up) of specs[i] on the step-j nodes, or the ValueError that
    stopped it: a row stops at its own first failure, carries it from then
    on, and never stops another row.  A level is the lattice's `_Step`
    (`_lattice_step`) and the rows of sigma, lower and upper, evaluated
    once per distinct callable and read by every row whose spec holds it,
    so that a refused coefficient fails exactly those rows.  Refusals: the
    step range, for the whole walk; per row, the contraction budget, the
    lattice's pair off its control grids, and a terminal row (`terminal`,
    or the payoff when None) outside a clamped obstacle or nonfinite; then,
    level by level, a refused coefficient and a nonfinite expectation or
    driver value.
    """
    n_total = lattice.n_steps
    if end_step is None:
        end_step = n_total
    if not 0 <= start_step < end_step <= n_total:
        raise ValueError(
            f"bad step range [{start_step}, {end_step}] for a {n_total}-step lattice"
        )
    dt = float(lattice.times[1] - lattice.times[0])
    pen = max(variant.pen_upper, variant.pen_lower)
    t_end = float(lattice.times[end_step])
    x_end = lattice.node_values(end_step)

    def start(spec):
        co = spec.coefficients
        mu = co.driver_lipschitz
        slope_budget = dt * (mu + pen)
        if slope_budget >= 1.0:
            raise ValueError(
                f"explicit step not contracting: dt*(driver_lipschitz + penalty)"
                f" = {slope_budget:.6g} >= 1; need dt < {1.0 / (mu + pen):.6g}"
            )
        spec.control_pair(lattice.controls)  # "not on grid" for a pair off its grids
        y = variant.terminal_row(co, t_end, x_end, terminal)
        zeros = [np.zeros_like(y) for _ in range(3)]
        return (y, *zeros, *obstacle_rows(co, t_end, x_end))

    rows = [_row_or_failure(start, spec) for spec in specs]
    yield end_step, None, rows

    u, v = lattice.controls
    step = None

    def coefficient(fn, name, *controls):
        # the row of the coefficient `name` at this level, evaluated once per
        # callable for every row that reads it; its refusal fails each of them
        key = (name, fn)
        if key not in level:
            level[key] = _row_or_failure(
                lambda: on_nodes(fn(step.t, step.x, *controls), step.x.shape, name)
            )
        return raise_first_failure([level[key]])[0]

    def advance(spec, row):
        co = spec.coefficients
        sigma = coefficient(co.sigma, "sigma", u, v)
        lo, up = coefficient(co.lower, "lower"), coefficient(co.upper, "upper")
        return (*_reflected_step(co, variant, dt, u, v, step, sigma, row[0], lo, up), lo, up)

    for j in range(end_step - 1, start_step - 1, -1):
        step, level = _lattice_step(lattice, j, step), {}
        rows = [
            _row_or_failure(advance, spec, row) if isinstance(row, tuple) else row
            for spec, row in zip(specs, rows)
        ]
        yield j, step, rows


def _row_or_failure(make, *args):
    """make(*args), a walk's row, or the ValueError that stopped it."""
    try:
        return make(*args)
    except ValueError as exc:
        return exc


def _occupation(lattice, start_step, end_step, root_index):
    """Forward law of the lattice's chain on steps start_step .. end_step,
    started at node root_index."""
    occ = [np.zeros(lattice.counts[start_step])]
    occ[0][root_index] = 1.0
    for j in range(start_step, end_step):
        center, probs = lattice.transition(j)
        # transposed so that all down moves land first, then stay, then up
        occ.append(
            np.bincount(
                (center[:, None] + (-1, 0, 1)).T.ravel(),
                weights=(occ[-1][:, None] * probs).T.ravel(),
                minlength=lattice.counts[j + 1],
            )
        )
    return occ


def solve_backward(
    spec,
    lattice,
    mode="two_barrier",
    penalty=None,
    terminal=None,
    start_step=0,
    end_step=None,
):
    """Run the explicit backward recursion described in the module docstring
    under the lattice's control pair.

    Both points of `lattice.controls` must sit on the control grids of
    `spec`.  `terminal` overrides the terminal payoff with given values on
    the node set of `end_step`.  In barrier modes the terminal row, given or
    default, must already sit inside the obstacles there.  The occupation
    law starts at the middle node of `start_step`.  Returns an
    RBSDESolution.
    """
    variant = Variant.named(mode, penalty)
    walk = _walk([spec], lattice, variant, terminal, start_step, end_step)
    end_step, _, rows = next(walk)
    ((y, z, dkp, dkm, _, _),) = raise_first_failure(rows)
    root_index = lattice.counts[start_step] // 2
    occ = _occupation(lattice, start_step, end_step, root_index)

    n_levels = end_step - start_step + 1
    levels = [None] * n_levels
    levels[-1] = (y, z, dkp, dkm)
    # occupation-weighted E[dK+], E[dK-], lower and upper flatness of step
    # k in column k + 1, summed in step order by the cumsum below
    sums = np.zeros((4, n_levels))
    excl = 0.0
    for j, _, rows in walk:
        ((y, z, dkp, dkm, lo, up),) = raise_first_failure(rows)
        k = j - start_step
        w = occ[k]
        sums[:, k + 1] = (
            np.sum(w * dkp),
            np.sum(w * dkm),
            np.sum(w * (y - lo) * dkp),
            np.sum(w * (up - y) * dkm),
        )
        excl = max(excl, float(np.max(dkp * dkm)))
        levels[k] = (y, z, dkp, dkm)

    y_list, z_list, dkp_list, dkm_list = (list(rows) for rows in zip(*levels))
    kp_mean, km_mean, flat_lo, flat_up = np.cumsum(sums, axis=1)
    return RBSDESolution(
        mode=mode,
        penalty=(variant.pen_upper, variant.pen_lower),
        controls=lattice.controls,
        start_step=start_step,
        end_step=end_step,
        times=lattice.times[start_step : end_step + 1],
        y=y_list,
        z=z_list,
        dk_plus=dkp_list,
        dk_minus=dkm_list,
        k_plus_mean=kp_mean,
        k_minus_mean=km_mean,
        occupation=occ,
        root_index=root_index,
        flatness_lower=float(flat_lo[-1]),
        flatness_upper=float(flat_up[-1]),
        exclusion_max=excl,
    )


def backward_semigroup(spec, lattice, start_step, end_step, values):
    """Evolve terminal `values` at end_step back to start_step.

    `values` must already sit between the obstacles at end_step; None
    evolves the payoff, as `solve_backward` does in two-barrier mode.  This
    is the one-slab evolution whose concatenation property the dynamic
    programming checks exercise, and it stores no levels.  Returns the array
    of values on the start_step nodes.
    """
    variant = Variant.named("two_barrier")
    for _, _, rows in _walk([spec], lattice, variant, values, start_step, end_step):
        ((y, *_),) = raise_first_failure(rows)
    return y


# a row that overflows is refused a level later, as nonfinite, and an
# infinite obstacle or an overflowing square fails the estimate quotients:
# neither warns
@np.errstate(over="ignore", invalid="ignore")
def read_walk(lattice, variant, readers):
    """Feed one walk of the whole lattice to every reader in `readers`;
    returns each reader's failure, or None for a reader fed every level.

    A reader names the problems whose rows it reads in `reader.specs`, and
    the walk carries each problem named once, in order of first use, so
    that readers naming one spec object read one row.  `reader.feed(j,
    step, rows)` takes the rows of its specs at each level j, from the last
    level (step None) to the root, for as long as none of them has failed
    and the reader itself has raised no ValueError; its failure is the
    first of these in that order.  A reader that names no spec is fed
    nothing, and the walk stops once every reader has failed.
    """
    specs, position = [], {}
    for reader in readers:
        for spec in reader.specs:
            if id(spec) not in position:
                position[id(spec)] = len(specs)
                specs.append(spec)
    index = [[position[id(spec)] for spec in reader.specs] for reader in readers]
    failures = [None] * len(readers)
    fed = [r for r, rows in enumerate(index) if rows]
    if not fed:
        return failures
    for j, step, rows in _walk(specs, lattice, variant):
        for r in fed:
            if failures[r] is None:
                try:
                    readers[r].feed(j, step, raise_first_failure([rows[i] for i in index[r]]))
                except ValueError as exc:
                    failures[r] = exc
        if all(failures[r] is not None for r in fed):
            break
    return failures


def read_alone(lattice, variant, reader):
    """`reader`, fed by a walk of `lattice` of its own; raises its failure."""
    raise_first_failure(read_walk(lattice, variant, [reader]))
    return reader


@dataclasses.dataclass(frozen=True)
class ComparisonReport:
    """Result of an ordered-data comparison between two problems.

    `conclusive` is False when the sampled ordering hypotheses failed, in
    which case no conclusion is drawn.  Violations are signed maxima; a
    negative or tiny value means the corresponding ordering held.
    """

    conclusive: bool
    hypothesis_detail: str
    equal_barriers: bool
    max_y_violation: float
    max_k_plus_violation: float
    max_k_minus_violation: float
    tolerance: float
    passed: bool


def _ordering_hypotheses(ca, cb, pairs, draws):
    """(conclusive, detail, equal_barriers) of the hypotheses of
    `comparison_check` at the sampled states `draws`, rows (t, x, y, z),
    under the control pairs cycled through.  Each coefficient is read once
    for all the samples, and the first failure in sample order, then in
    hypothesis order, is named."""
    slack = 1e-12
    t, x, y, z = np.ascontiguousarray(draws.T)
    if len(pairs) == 1:
        ((u, v),) = pairs
    else:
        cycled = itertools.islice(itertools.cycle(pairs), len(draws))
        u, v = (np.array(points, dtype=float) for points in zip(*cycled))

    def both(name, *args):
        return [on_nodes(getattr(co, name)(*args), x.shape, name) for co in (ca, cb)]

    ta, tb = both("terminal", x)
    fa, fb = both("driver", t, x, y, z, u, v)
    (ba, bb), (sa, sb) = both("b", t, x, u, v), both("sigma", t, x, u, v)
    (la, lb), (ua, ub) = both("lower", t, x), both("upper", t, x)
    with np.errstate(invalid="ignore"):  # equal infinite obstacles give nan: not apart
        dlo, dup = la - lb, ua - ub
    failing = np.array(
        [
            ta > tb + slack,
            fa > fb + slack,
            (np.abs(ba - bb) > slack) | (np.abs(sa - sb) > slack),
            (dlo > slack) | (dup > slack),
        ]
    )
    first = int(np.argmax(failing.any(axis=0)))
    kind = int(np.argmax(failing[:, first]))
    if not failing[kind, first]:
        return True, "ok", not ((np.abs(dlo) > slack) | (np.abs(dup) > slack)).any()
    t, x = draws[first, :2].tolist()
    return False, (
        f"terminal ordering fails at x={x:.6g}",
        f"driver ordering fails at (t,x)=({t:.4g},{x:.4g})",
        "dynamics differ; solutions share one lattice",
        f"obstacle ordering fails at (t,x)=({t:.4g},{x:.4g})",
    )[kind], False


class ComparisonReader:
    """The maxima of `comparison_check`, folded one level at a time as a
    walk goes.

    The ordering hypotheses are sampled under `seed` when the reader is
    made.  When they hold it reads the rows of both problems; when they fail
    it reads no row, and its report is inconclusive with nan maxima, which
    fail it.  With equal obstacles and `mode` two-barrier the reflection
    increments are compared too.
    """

    def __init__(self, spec_a, spec_b, mode, samples, seed):
        if samples < 1:
            raise ValueError(f"samples must be at least 1, got {samples!r}")
        radius = 3.0
        rng = np.random.default_rng(seed)
        # four draws per sample, one sample after another: t, x, y and z
        lows, highs = (0.0, -radius, -radius, -radius), (spec_a.horizon, radius, radius, radius)
        draws = rng.uniform(lows, highs, size=(samples, 4))
        self.conclusive, self.detail, self.equal_barriers = _ordering_hypotheses(
            spec_a.coefficients, spec_b.coefficients, list(spec_a.control_pairs()), draws
        )
        self.specs = (spec_a, spec_b) if self.conclusive else ()
        # checked on the per-step increments, which implies the ordering of
        # the cumulative reflection along every path
        self.reflections = self.equal_barriers and mode == "two_barrier"
        # the signed maxima of Y^a - Y^b, dK+^b - dK+^a and dK-^a - dK-^b; an
        # inconclusive check walks nothing, and its nan maxima fail it
        start = -math.inf if self.conclusive else math.nan
        self.max_y = self.max_k_plus = self.max_k_minus = start

    def feed(self, j, step, rows):
        (ya, _, kpa, kma, _, _), (yb, _, kpb, kmb, _, _) = rows
        # max(new, old) keeps the new value on ties: the walk runs backward,
        # so this is the first maximum in level order, as over stored levels
        self.max_y = max(float(np.max(ya - yb)), self.max_y)
        if self.reflections:
            self.max_k_minus = max(float(np.max(kma - kmb)), self.max_k_minus)
            self.max_k_plus = max(float(np.max(kpb - kpa)), self.max_k_plus)

    def report(self):
        tolerance = 1e-10
        return ComparisonReport(
            conclusive=self.conclusive,
            hypothesis_detail=self.detail,
            equal_barriers=self.equal_barriers,
            max_y_violation=self.max_y,
            max_k_plus_violation=self.max_k_plus,
            max_k_minus_violation=self.max_k_minus,
            tolerance=tolerance,
            passed=all(v <= tolerance for v in (self.max_y, self.max_k_plus, self.max_k_minus)),
        )


def comparison_check(
    spec_a,
    spec_b,
    lattice,
    mode="two_barrier",
    penalty=None,
    samples=64,
    seed=0,
):
    """Check Y^a <= Y^b given ordered data (terminal and driver).

    The ordering hypotheses (terminal_a <= terminal_b, driver_a <= driver_b,
    matching dynamics and ordered obstacles) are sampled first; if they fail
    the report is inconclusive and nothing is walked.  With equal obstacles
    and a two-barrier solve the reflection orderings dK-^a <= dK-^b and
    dK+^a >= dK+^b are checked on every step increment as well: the smaller
    solution is pushed down less at the upper obstacle and up more at the
    lower one.  This is one `ComparisonReader` fed by a walk of its own.
    """
    reader = ComparisonReader(spec_a, spec_b, mode, samples, seed)
    return read_alone(lattice, Variant.named(mode, penalty), reader).report()


@dataclasses.dataclass(frozen=True)
class EstimateReport:
    """Implied constants of the a priori bounds, base grid vs refined grid.

    `constants` maps inequality names to LHS/RHS quotients on the base
    lattice, `refined` the same on the refined one, `ratios` their
    refined/base ratios.  Passing means every ratio stays within
    [1/stability_factor, stability_factor]: the quotients behave like
    constants rather than like diverging discretization artifacts.
    """

    constants: dict
    refined: dict
    ratios: dict
    refinement: str
    stability_factor: float
    passed: bool


class EstimateReader:
    """The three quotients of `apriori_estimate_check` on one lattice,
    folded one level at a time as a two-barrier walk goes.

    It reads the rows of `spec` and of its copy with terminal, driver and
    upper obstacle shifted by `perturbation`, and advances every row whose
    root value the quotients read:

        Snell envelopes   |Y|^2, lower^2, upper^2, |Y - Y'|^2
        path-sum moments  E[S] and E[S^2] of S_j = g_j + S_{j+1}, for the
                          terminal square (S_N = phi^2, g = 0), the driver
                          at zero (g = |f(., 0, 0)| dt), the Z difference
                          (g = |Z - Z'|^2 dt) and the reflection difference
                          (g = dK+ - dK- - dK+' + dK-')

    It stores no levels and builds no occupation law; `quantities` forms
    the quotients once the root level is fed, and `report` holds them
    against those of the refined lattice.
    """

    def __init__(self, spec, lattice, perturbation):
        self.specs = (spec, shifted_spec(spec, perturbation, ("terminal", "driver", "upper")))
        self.lattice = lattice
        self.perturbation = perturbation
        self.dt = float(lattice.times[1] - lattice.times[0])

    def feed(self, j, step, rows):
        (y, z, dkp, dkm, lo, up), (y_b, z_b, dkp_b, dkm_b, _, _) = rows
        self.y = y
        if step is None:
            self.snell_y, self.snell_lo = y ** 2, lo ** 2
            self.snell_up, self.snell_dy = up ** 2, (y - y_b) ** 2
            self.term = self.snell_y  # E[phi^2] starts from the same squared payoff
            zeros = np.zeros_like(y)
            self.drive = self.drive_sq = self.dz_mean = self.dk = self.dk_sq = zeros
            return
        self.snell_y = np.maximum(y ** 2, _expectation(self.snell_y, step))
        self.snell_lo = np.maximum(lo ** 2, _expectation(self.snell_lo, step))
        self.snell_up = np.maximum(up ** 2, _expectation(self.snell_up, step))
        self.snell_dy = np.maximum((y - y_b) ** 2, _expectation(self.snell_dy, step))
        self.term = _expectation(self.term, step)

        dt, driver = self.dt, self.specs[0].coefficients.driver
        u, v = self.lattice.controls
        f0 = on_nodes(driver(step.t, step.x, 0.0, 0.0, u, v), step.x.shape, "driver")
        g = np.abs(f0) * dt
        mean = _expectation(self.drive, step)
        self.drive_sq = g * g + 2.0 * g * mean + _expectation(self.drive_sq, step)
        self.drive = g + mean

        dz = z - z_b
        self.dz_mean = dz * dz * dt + _expectation(self.dz_mean, step)

        g = dkp - dkm - dkp_b + dkm_b
        mean = _expectation(self.dk, step)
        self.dk_sq = g * g + 2.0 * g * mean + _expectation(self.dk_sq, step)
        self.dk = g + mean

    @np.errstate(over="ignore", invalid="ignore")  # see `read_walk`
    def quantities(self):
        spec = self.specs[0]
        root = self.lattice.counts[0] // 2

        # size bound: Snell(|Y|^2) against terminal, driver-at-zero and
        # obstacles; the driver enters through the second moment of
        # S_j = sum_{r>=j} |f0| dt
        rhs_size = (
            float(self.term[root])
            + float(self.drive_sq[root])
            + float(self.snell_lo[root])
            + float(self.snell_up[root])
        )
        const_size = float(self.snell_y[root]) / rhs_size if rhs_size > 0 else math.inf

        # initial-state stability: difference quotient of Y at the start level
        quot = float(np.max(np.abs(np.diff(self.y)))) / self.lattice.grid.dx
        const_state = quot / max(spec.coefficients.lipschitz, 1e-30)

        # data-perturbation bound: terminal, driver and upper obstacle shifted
        # by eps; the shifted upper obstacle enters through its square root
        # times bounded moments, hence the first-order eps term
        eps = self.perturbation
        rhs_diff = eps * eps + (spec.horizon * eps) ** 2 + eps
        const_diff = (
            float(self.snell_dy[root]) + float(self.dz_mean[root]) + float(self.dk_sq[root])
        ) / rhs_diff

        return {
            "size": const_size,
            "state_lipschitz": const_state,
            "perturbation": const_diff,
        }

    def report(self):
        """The EstimateReport of `quantities` against those of the refined
        lattice, built here from this lattice's grid and pair and walked on
        its own.

        Refinement halves dx; dt is halved when the pair's lattice still
        admits nonnegative probabilities at the finer spacing and quartered
        when that lattice is infeasible (the report records which); any
        other error propagates.
        """
        constants = self.quantities()
        spec, grid, controls = self.specs[0], self.lattice.grid, self.lattice.controls
        stability_factor = 2.0

        def finer(factor_t):
            nx = (grid.nx - 1) * 2 + 1
            return SpaceTimeGrid(grid.x_min, grid.x_max, nx, grid.nt * factor_t, grid.horizon)

        try:
            fine = build_lattice(spec, 0.0, finer(2), controls)
            refinement = "dx/2, dt/2"
        except LatticeError:
            fine = build_lattice(spec, 0.0, finer(4), controls)
            refinement = "dx/2, dt/4"
        reader = EstimateReader(spec, fine, self.perturbation)
        refined = read_alone(fine, Variant.named("two_barrier"), reader).quantities()

        ratios = {}
        stable = True
        for name, val in constants.items():
            ref = refined[name]
            if val == 0.0 and ref == 0.0:
                ratios[name] = 1.0
                continue
            if val <= 0.0 or not math.isfinite(val) or not math.isfinite(ref):
                ratios[name] = math.inf
                stable = False
                continue
            r = ref / val
            ratios[name] = r
            if not (1.0 / stability_factor <= r <= stability_factor):
                stable = False

        return EstimateReport(
            constants=constants,
            refined=refined,
            ratios=ratios,
            refinement=refinement,
            stability_factor=stability_factor,
            passed=stable,
        )


def require_base(lattice):
    """Refuse a lattice that does not start at t = 0, the one fit of a base
    lattice that its pair and grid do not carry."""
    if lattice.times[0] != 0.0:
        raise ValueError(f"a base lattice must start at t = 0, not at t = {lattice.times[0]:.6g}")


def apriori_estimate_check(spec, base):
    """Measure the implied constants of the a priori bounds and re-measure
    them on a refined grid.

    Three quotients are formed at the root node: the size bound (running
    square of Y against terminal, driver-at-zero and obstacle data), the
    initial-state Lipschitz quotient of Y against the declared state
    constant, and the data-perturbation bound (joint Y / Z / reflection
    difference against a perturbation of size PERTURBATION).  Running
    suprema are realized as Snell envelopes on the lattice, which the same
    inequalities dominate.  The check passes when refining the grid moves
    each quotient by at most a factor of 2 either way.

    Each lattice is walked once, from the last level to the root, by an
    `EstimateReader`: both reflected solves, the four Snell envelopes and
    the path-sum moments advance together, and no level is stored.  `base`
    is the lattice of one pair from t = 0 (`require_base`); the reader's
    `report` builds and walks the refined lattice.
    """
    require_base(base)
    reader = EstimateReader(spec, base, PERTURBATION)
    return read_alone(base, Variant.named("two_barrier"), reader).report()
