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

Every solve here iterates one walk down the lattice that holds only the
current level; the comparison and a-priori checks stream through it and
store no levels.  The walk refuses an explicit step that does not
contract, dt * (driver_lipschitz + max(m, n)) >= 1, a lattice pair that
is not on a spec's control grids, a nonfinite terminal row and, at any
level, a nonfinite expectation or driver value.
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
    shifted_spec,
)


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
    """What one backward step from level j+1 to level j reads that does not
    depend on the solved values: the nodes, the transition's index columns
    and probabilities, and the target deviations of the chain."""

    t: float
    x: np.ndarray
    below: np.ndarray  # center - 1
    center: np.ndarray
    above: np.ndarray  # center + 1
    probs: np.ndarray  # (n, 3): down, stay, up
    around: np.ndarray  # (n, 3) next-step indices
    deviation: np.ndarray  # (n, 3) targets minus their mean
    spread: np.ndarray  # Var(X_{j+1}) > 0
    var_x: np.ndarray  # Var(X_{j+1}), 1 where it vanishes
    sigma: np.ndarray


def _lattice_step(lattice, co, j, u, v, after=None):
    """The `_Step` of level j.  `after` is that of level j + 1, if known:
    when transitions[j] is the object transitions[j + 1] and levels j, j + 1
    and j + 2 hold one node set, every field but t and sigma is bitwise
    that of `after`, so only those two are made."""
    t = float(lattice.times[j])
    if (
        after is not None
        and lattice.transitions[j] is lattice.transitions[j + 1]
        and lattice.first_index[j] == lattice.first_index[j + 1] == lattice.first_index[j + 2]
        and lattice.counts[j] == lattice.counts[j + 1] == lattice.counts[j + 2]
    ):
        x = after.x
        return after._replace(t=t, sigma=on_nodes(co.sigma(t, x, u, v), x.shape, "sigma"))
    center, probs = lattice.transition(j)
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
        probs=probs,
        around=around,
        deviation=deviation,
        spread=spread,
        var_x=np.where(spread, var_x, 1.0),
        sigma=on_nodes(co.sigma(t, x, u, v), x.shape, "sigma"),
    )


def _expectation(y_next, step):
    return (
        step.probs[:, 0] * y_next[step.below]
        + step.probs[:, 1] * y_next[step.center]
        + step.probs[:, 2] * y_next[step.above]
    )


def _reflected_step(co, variant, dt, u, v, step, y_next, lo, up):
    """The backward step of the module docstring: (Y_j, Z_j, dK+, dK-)."""
    ey = _expectation(y_next, step)
    cov = np.einsum("ik,ik->i", step.probs, y_next[step.around] * step.deviation)
    z = step.sigma * np.where(step.spread, cov / step.var_x, 0.0)
    fval = on_nodes(co.driver(step.t, step.x, ey, z, u, v), step.x.shape, "driver")
    if not (np.isfinite(ey).all() and np.isfinite(fval).all()):
        raise ValueError(f"nonfinite expectation or driver value at t={step.t:.6g}")
    y, dkp, dkm = obstacle_step(ey, fval, dt, lo, up, variant)
    return y, z, dkp, dkm


def _walk(specs, lattice, variant, terminal=None, start_step=0, end_step=None):
    """The backward recursion of every spec in `specs` on one lattice.

    Yields (end_step, None, rows) for the terminal level, then (j, step,
    rows) for each level j down to start_step, where rows[i] = (y, z, dK+,
    dK-, lo, up) of specs[i] on the step-j nodes.  The lattice-only `_Step`
    is built once per level, and where the lattice shares level j + 1's
    transition with level j on one node set (`_lattice_step`) it is level
    j + 1's with t and sigma made anew; sigma and the obstacles are
    evaluated at every level.  A spec whose sigma, lower or upper is the
    first spec's callable reuses the first spec's row of it.  Refusals: the
    step range; for each spec in turn the contraction budget, the lattice's
    pair off its control grids, and a terminal row (`terminal`, or the
    payoff when None) outside a clamped obstacle or nonfinite; then, level
    by level, a nonfinite expectation or driver value.
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
    rows = []
    for spec in specs:
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
        rows.append((y, *zeros, *obstacle_rows(co, t_end, x_end)))
    yield end_step, None, rows

    u, v = lattice.controls
    first = specs[0].coefficients
    step = None
    for j in range(end_step - 1, start_step - 1, -1):
        step = _lattice_step(lattice, first, j, u, v, step)
        t, x = step.t, step.x
        lo_first, up_first = obstacle_rows(first, t, x)
        levels = []
        for spec, (y, *_) in zip(specs, rows):
            co = spec.coefficients
            own = step
            if co.sigma is not first.sigma:
                own = step._replace(sigma=on_nodes(co.sigma(t, x, u, v), x.shape, "sigma"))
            lo, up = lo_first, up_first
            if co.lower is not first.lower:
                lo = on_nodes(co.lower(t, x), x.shape, "lower")
            if co.upper is not first.upper:
                up = on_nodes(co.upper(t, x), x.shape, "upper")
            levels.append((*_reflected_step(co, variant, dt, u, v, own, y, lo, up), lo, up))
        rows = levels
        yield j, step, rows


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
    end_step, _, ((y, z, dkp, dkm, _, _),) = next(walk)
    root_index = lattice.counts[start_step] // 2
    occ = _occupation(lattice, start_step, end_step, root_index)

    n_levels = end_step - start_step + 1
    levels = [None] * n_levels
    levels[-1] = (y, z, dkp, dkm)
    # occupation-weighted E[dK+], E[dK-], lower and upper flatness of step
    # k in column k + 1, summed in step order by the cumsum below
    sums = np.zeros((4, n_levels))
    excl = 0.0
    for j, _, ((y, z, dkp, dkm, lo, up),) in walk:
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
        pass
    return rows[0][0]


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
    the report is inconclusive.  With equal obstacles and a two-barrier
    solve the reflection orderings dK-^a <= dK-^b and dK+^a >= dK+^b are
    checked on every step increment as well: the smaller solution is pushed
    down less at the upper obstacle and up more at the lower one.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples!r}")
    radius, tolerance = 3.0, 1e-10
    rng = np.random.default_rng(seed)
    # four draws per sample, one sample after another: t, x, y and z
    lows, highs = (0.0, -radius, -radius, -radius), (spec_a.horizon, radius, radius, radius)
    draws = rng.uniform(lows, highs, size=(samples, 4))
    conclusive, detail, equal_barriers = _ordering_hypotheses(
        spec_a.coefficients, spec_b.coefficients, list(spec_a.control_pairs()), draws
    )
    # an inconclusive check walks nothing, and its nan maxima fail it
    y_viol = kp_viol = km_viol = -math.inf if conclusive else math.nan
    if conclusive:
        # checked on the per-step increments, which implies the ordering of
        # the cumulative reflection along every path
        reflections = equal_barriers and mode == "two_barrier"
        # max(new, old) keeps the new value on ties: the walk runs backward,
        # so this is the first maximum in level order, as over stored levels
        for _, _, ((ya, _, kpa, kma, _, _), (yb, _, kpb, kmb, _, _)) in _walk(
            [spec_a, spec_b], lattice, Variant.named(mode, penalty)
        ):
            y_viol = max(float(np.max(ya - yb)), y_viol)
            if reflections:
                km_viol = max(float(np.max(kma - kmb)), km_viol)
                kp_viol = max(float(np.max(kpb - kpa)), kp_viol)
    return ComparisonReport(
        conclusive=conclusive,
        hypothesis_detail=detail,
        equal_barriers=equal_barriers,
        max_y_violation=y_viol,
        max_k_plus_violation=kp_viol,
        max_k_minus_violation=km_viol,
        tolerance=tolerance,
        passed=(y_viol <= tolerance and kp_viol <= tolerance and km_viol <= tolerance),
    )


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


# an infinite obstacle or an overflowing square fails the check, unwarned
@np.errstate(over="ignore", invalid="ignore")
def _estimate_quantities(spec, lattice, perturbation):
    """The three quotients of `apriori_estimate_check` on one lattice.

    One backward walk from the last level to the root carries the
    two-barrier solves of `spec` and of its perturbed copy side by side,
    together with every row whose root value the quotients read:

        Snell envelopes   |Y|^2, lower^2, upper^2, |Y - Y'|^2
        path-sum moments  E[S] and E[S^2] of S_j = g_j + S_{j+1}, for the
                          terminal square (S_N = phi^2, g = 0), the driver
                          at zero (g = |f(., 0, 0)| dt), the Z difference
                          (g = |Z - Z'|^2 dt) and the reflection difference
                          (g = dK+ - dK- - dK+' + dK-')

    This is `_walk` over both specs, the walk `solve_backward` takes, with
    its refusals; it stores no levels and builds no occupation law.
    """
    co = spec.coefficients
    eps = perturbation
    spec_b = shifted_spec(spec, eps, ("terminal", "driver", "upper"))
    u, v = lattice.controls
    dt = float(lattice.times[1] - lattice.times[0])
    walk = _walk([spec, spec_b], lattice, Variant.named("two_barrier"))

    _, _, ((y, _, _, _, lo, up), (y_b, *_)) = next(walk)
    snell_y, snell_lo, snell_up, snell_dy = y ** 2, lo ** 2, up ** 2, (y - y_b) ** 2
    term = snell_y  # E[phi^2] starts from the same squared payoff
    drive = drive_sq = dz_mean = dk = dk_sq = np.zeros(lattice.counts[lattice.n_steps])

    for _, step, ((y, z, dkp, dkm, lo, up), (y_b, z_b, dkp_b, dkm_b, _, _)) in walk:
        snell_y = np.maximum(y ** 2, _expectation(snell_y, step))
        snell_lo = np.maximum(lo ** 2, _expectation(snell_lo, step))
        snell_up = np.maximum(up ** 2, _expectation(snell_up, step))
        snell_dy = np.maximum((y - y_b) ** 2, _expectation(snell_dy, step))
        term = _expectation(term, step)

        f0 = on_nodes(co.driver(step.t, step.x, 0.0, 0.0, u, v), step.x.shape, "driver")
        g = np.abs(f0) * dt
        mean = _expectation(drive, step)
        drive_sq = g * g + 2.0 * g * mean + _expectation(drive_sq, step)
        drive = g + mean

        dz = z - z_b
        dz_mean = dz * dz * dt + _expectation(dz_mean, step)

        g = dkp - dkm - dkp_b + dkm_b
        mean = _expectation(dk, step)
        dk_sq = g * g + 2.0 * g * mean + _expectation(dk_sq, step)
        dk = g + mean

    root = lattice.counts[0] // 2

    # size bound: Snell(|Y|^2) against terminal, driver-at-zero and obstacles;
    # the driver enters through the second moment of S_j = sum_{r>=j} |f0| dt
    rhs_size = (
        float(term[root]) + float(drive_sq[root]) + float(snell_lo[root]) + float(snell_up[root])
    )
    const_size = float(snell_y[root]) / rhs_size if rhs_size > 0 else math.inf

    # initial-state stability: difference quotient of Y at the start level
    quot = float(np.max(np.abs(np.diff(y)))) / lattice.grid.dx
    const_state = quot / max(co.lipschitz, 1e-30)

    # data-perturbation bound: terminal, driver and upper obstacle shifted by
    # eps; the shifted upper obstacle enters through its square root times
    # bounded moments, hence the first-order eps term
    rhs_diff = eps * eps + (spec.horizon * eps) ** 2 + eps
    const_diff = (float(snell_dy[root]) + float(dz_mean[root]) + float(dk_sq[root])) / rhs_diff

    return {
        "size": const_size,
        "state_lipschitz": const_state,
        "perturbation": const_diff,
    }


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
    difference against a perturbation of size 0.1).  Running suprema are
    realized as Snell envelopes on the lattice, which the same inequalities
    dominate.  The check passes when refining the grid moves each quotient
    by at most a factor of 2 either way.

    Each lattice is walked once, from the last level to the root: both
    reflected solves, the four Snell envelopes and the path-sum moments
    advance together, and no level is stored.  `base` is the lattice of one
    pair from t = 0 (`require_base`); the refined lattice is built here from
    its grid and its pair.

    Refinement halves dx; dt is halved when the pair's lattice still admits
    nonnegative probabilities at the finer spacing and quartered when that
    lattice is infeasible (the report records which); any other error
    propagates.
    """
    require_base(base)
    grid, controls = base.grid, base.controls
    perturbation, stability_factor = 0.1, 2.0
    constants = _estimate_quantities(spec, base, perturbation)

    def finer(factor_t):
        nx = (grid.nx - 1) * 2 + 1
        return SpaceTimeGrid(grid.x_min, grid.x_max, nx, grid.nt * factor_t, grid.horizon)

    try:
        fine = build_lattice(spec, 0.0, finer(2), controls)
        refinement = "dx/2, dt/2"
    except LatticeError:
        fine = build_lattice(spec, 0.0, finer(4), controls)
        refinement = "dx/2, dt/4"
    refined = _estimate_quantities(spec, fine, perturbation)

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
