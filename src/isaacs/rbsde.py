"""Backward solvers on the lattice: reflected, penalized and plain flavors.

Each solve holds one fixed control pair (u, v) on the control grids for
the whole horizon, as in the probabilistic representation of the game for
fixed controls, and runs on the lattice built for that pair: the lattice
is the pair's forward chain, and the solve reads Y off it.  One explicit
backward step from level j+1 to level j at a node x reads

    ey  = E[Y_{j+1}]                      (lattice expectation)
    z   = slope * sigma,  slope = Cov(Y_{j+1}, X_{j+1}) / Var(X_{j+1})
    Y_j = obstacle_step(ey, f(t_j, x, ey, z, u, v), dt, lower, upper, variant)

where `mode` names the `model.Variant` and `model.obstacle_step` applies
its penalties (m, n) to the drive and then its clamps.  The clamp
residuals are the reflection increments dK+ and dK-, and the discrete
Skorokhod conditions hold for them as identities, both node by node and
in the occupation-weighted sums reported on the solution.

Stability of the explicit step requires dt * (driver_lipschitz + max(m, n))
< 1; the solver refuses to run outside that region.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import NamedTuple

import numpy as np

from .forwardsim import LatticeError, build_lattice
from .model import (
    PenalizationSchedule,  # noqa: F401  (re-exported)
    SpaceTimeGrid,
    Variant,
    obstacle_rows,
    obstacle_step,
    shifted_spec,
    sigma_rows,
)

_SANDWICH_TOL = 1e-9


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

    def initial_values(self):
        return self.y[0]


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


def _lattice_step(lattice, co, j, u, v):
    center, probs = lattice.transition(j)
    x = lattice.node_values(j)
    t = float(lattice.times[j])
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
        sigma=sigma_rows(co, t, x, u, v),
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
    fval = np.broadcast_to(
        np.asarray(co.driver(step.t, step.x, ey, z, u, v), dtype=float), step.x.shape
    )
    y, dkp, dkm = obstacle_step(ey, fval, dt, lo, up, variant)
    return y, z, dkp, dkm


def _contraction_check(co, variant, dt):
    mu = co.driver_lipschitz
    pen = max(variant.pen_upper, variant.pen_lower)
    slope_budget = dt * (mu + pen)
    if slope_budget >= 1.0:
        raise ValueError(
            f"explicit step not contracting: dt*(driver_lipschitz + penalty)"
            f" = {slope_budget:.6g} >= 1; need dt < {1.0 / (mu + pen):.6g}"
        )


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
    controls,
    mode="two_barrier",
    penalty=None,
    terminal=None,
    start_step=0,
    end_step=None,
    root_index=None,
    sandwich_tol=_SANDWICH_TOL,
):
    """Run the explicit backward recursion described in the module docstring
    under one fixed control pair.

    `controls` is that (u, v) pair; both points must sit on the control
    grids, and the lattice must be the chain of that pair.  `terminal`
    overrides the terminal payoff with given values on the node set of
    `end_step`.  In barrier modes the terminal row, given or default, must
    already sit inside the obstacles there.  Returns an RBSDESolution.
    """
    variant = Variant.named(mode, penalty)
    n_total = lattice.n_steps
    if end_step is None:
        end_step = n_total
    if not 0 <= start_step < end_step <= n_total:
        raise ValueError(
            f"bad step range [{start_step}, {end_step}] for a {n_total}-step lattice"
        )
    dt = float(lattice.times[1] - lattice.times[0])
    co = spec.coefficients
    _contraction_check(co, variant, dt)

    controls = spec.control_pair(controls)
    if controls != lattice.controls:
        raise ValueError(
            f"controls {controls!r} are not the pair {lattice.controls!r}"
            " the lattice was built for"
        )
    u, v = controls
    t_end = float(lattice.times[end_step])
    y_cur = variant.terminal_row(co, t_end, lattice.node_values(end_step), terminal, sandwich_tol)
    if root_index is None:
        root_index = lattice.counts[start_step] // 2
    occ = _occupation(lattice, start_step, end_step, root_index)

    n_levels = end_step - start_step + 1
    y_list = [None] * n_levels
    z_list = [None] * n_levels
    dkp_list = [None] * n_levels
    dkm_list = [None] * n_levels
    y_list[-1] = y_cur
    z_list[-1] = np.zeros_like(y_cur)
    dkp_list[-1] = np.zeros_like(y_cur)
    dkm_list[-1] = np.zeros_like(y_cur)
    # occupation-weighted E[dK+], E[dK-], lower and upper flatness of step
    # k in column k + 1, summed in step order by the cumsum below
    sums = np.zeros((4, n_levels))
    excl = 0.0

    for j in range(end_step - 1, start_step - 1, -1):
        k = j - start_step
        step = _lattice_step(lattice, co, j, u, v)
        lo, up = obstacle_rows(co, step.t, step.x)
        y_new, z, dkp, dkm = _reflected_step(co, variant, dt, u, v, step, y_cur, lo, up)

        w = occ[k]
        sums[:, k + 1] = (
            np.sum(w * dkp),
            np.sum(w * dkm),
            np.sum(w * (y_new - lo) * dkp),
            np.sum(w * (up - y_new) * dkm),
        )
        excl = max(excl, float(np.max(dkp * dkm)))

        y_list[k] = y_new
        z_list[k] = z
        dkp_list[k] = dkp
        dkm_list[k] = dkm
        y_cur = y_new

    kp_mean, km_mean, flat_lo, flat_up = np.cumsum(sums, axis=1)
    return RBSDESolution(
        mode=mode,
        penalty=(variant.pen_upper, variant.pen_lower),
        controls=controls,
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


def backward_semigroup(spec, lattice, controls, start_step, end_step, values):
    """Evolve terminal `values` at end_step back to start_step.

    `values` must already sit between the obstacles at end_step; this is the
    one-slab evolution whose concatenation property the dynamic programming
    checks exercise.  Returns the array of values on the start_step nodes.
    """
    sol = solve_backward(
        spec,
        lattice,
        controls,
        mode="two_barrier",
        terminal=values,
        start_step=start_step,
        end_step=end_step,
    )
    return sol.y[0]


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


def comparison_check(
    spec_a,
    spec_b,
    lattice,
    controls,
    mode="two_barrier",
    penalty=None,
    samples=64,
    seed=0,
    radius=3.0,
    tolerance=1e-10,
):
    """Check Y^a <= Y^b given ordered data (terminal and driver).

    The ordering hypotheses (terminal_a <= terminal_b, driver_a <= driver_b,
    matching dynamics and ordered obstacles) are sampled first; if they fail
    the report is inconclusive.  With equal obstacles and a two-barrier
    solve the reflection orderings dK-^a <= dK-^b and dK+^a >= dK+^b are
    checked on every step increment as well: the smaller solution is pushed
    down less at the upper obstacle and up more at the lower one.
    """
    rng = np.random.default_rng(seed)
    ca, cb = spec_a.coefficients, spec_b.coefficients
    slack = 1e-12
    detail = "ok"
    conclusive = True
    equal_barriers = True
    for u, v in itertools.islice(itertools.cycle(spec_a.control_pairs()), samples):
        t = rng.uniform(0.0, spec_a.horizon)
        x = rng.uniform(-radius, radius)
        y = rng.uniform(-radius, radius)
        z = rng.uniform(-radius, radius)
        if float(ca.terminal(x)) > float(cb.terminal(x)) + slack:
            conclusive, detail = False, f"terminal ordering fails at x={x:.6g}"
            break
        if float(ca.driver(t, x, y, z, u, v)) > float(cb.driver(t, x, y, z, u, v)) + slack:
            conclusive, detail = False, f"driver ordering fails at (t,x)=({t:.4g},{x:.4g})"
            break
        if abs(float(ca.b(t, x, u, v)) - float(cb.b(t, x, u, v))) > slack or np.max(
            np.abs(np.asarray(ca.sigma(t, x, u, v)) - np.asarray(cb.sigma(t, x, u, v)))
        ) > slack:
            conclusive, detail = False, "dynamics differ; solutions share one lattice"
            break
        dlo = float(ca.lower(t, x)) - float(cb.lower(t, x))
        dup = float(ca.upper(t, x)) - float(cb.upper(t, x))
        if dlo > slack or dup > slack:
            conclusive, detail = False, f"obstacle ordering fails at (t,x)=({t:.4g},{x:.4g})"
            break
        if abs(dlo) > slack or abs(dup) > slack:
            equal_barriers = False

    if not conclusive:
        return ComparisonReport(
            conclusive=False,
            hypothesis_detail=detail,
            equal_barriers=False,
            max_y_violation=math.nan,
            max_k_plus_violation=math.nan,
            max_k_minus_violation=math.nan,
            tolerance=tolerance,
            passed=False,
        )

    sol_a = solve_backward(spec_a, lattice, controls, mode=mode, penalty=penalty)
    sol_b = solve_backward(spec_b, lattice, controls, mode=mode, penalty=penalty)
    y_viol = max(
        float(np.max(ya - yb)) for ya, yb in zip(sol_a.y, sol_b.y)
    )
    if equal_barriers and mode == "two_barrier":
        # checked on the per-step increments, which implies the ordering of
        # the cumulative reflection along every path
        km_viol = max(
            float(np.max(da - db)) for da, db in zip(sol_a.dk_minus, sol_b.dk_minus)
        )
        kp_viol = max(
            float(np.max(db - da)) for da, db in zip(sol_a.dk_plus, sol_b.dk_plus)
        )
    else:
        km_viol = -math.inf
        kp_viol = -math.inf
    return ComparisonReport(
        conclusive=True,
        hypothesis_detail="ok",
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

    Only the rows of the current level are kept: the walk stores no levels
    and builds no occupation law.  The steps are those of `solve_backward`,
    which refuses the same data with the same messages.
    """
    co = spec.coefficients
    eps = perturbation
    spec_b = shifted_spec(spec, eps, ("terminal", "driver", "upper"))
    co_b = spec_b.coefficients
    variant = Variant.named("two_barrier")
    n_steps = lattice.n_steps
    dt = float(lattice.times[1] - lattice.times[0])
    u, v = spec.control_pair(lattice.controls)

    t_end = float(lattice.times[n_steps])
    x_end = lattice.node_values(n_steps)
    _contraction_check(co, variant, dt)  # the shifted copy has the same budget
    y = variant.terminal_row(co, t_end, x_end, None, _SANDWICH_TOL)
    y_b = variant.terminal_row(co_b, t_end, x_end, None, _SANDWICH_TOL)

    lo, up = obstacle_rows(co, t_end, x_end)
    snell_y, snell_lo, snell_up, snell_dy = y ** 2, lo ** 2, up ** 2, (y - y_b) ** 2
    term = snell_y  # E[phi^2] starts from the same squared payoff
    drive = drive_sq = dz_mean = dk = dk_sq = np.zeros(lattice.counts[n_steps])

    for j in range(n_steps - 1, -1, -1):
        step = _lattice_step(lattice, co, j, u, v)
        lo, up = obstacle_rows(co, step.t, step.x)
        # the perturbed copy shares sigma and the lower obstacle
        up_b = np.broadcast_to(np.asarray(co_b.upper(step.t, step.x), dtype=float), up.shape)
        y, z, dkp, dkm = _reflected_step(co, variant, dt, u, v, step, y, lo, up)
        y_b, z_b, dkp_b, dkm_b = _reflected_step(co_b, variant, dt, u, v, step, y_b, lo, up_b)

        snell_y = np.maximum(y ** 2, _expectation(snell_y, step))
        snell_lo = np.maximum(lo ** 2, _expectation(snell_lo, step))
        snell_up = np.maximum(up ** 2, _expectation(snell_up, step))
        snell_dy = np.maximum((y - y_b) ** 2, _expectation(snell_dy, step))
        term = _expectation(term, step)

        f0 = co.driver(step.t, step.x, 0.0, 0.0, u, v)
        g = np.abs(np.broadcast_to(np.asarray(f0, float), step.x.shape)) * dt
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
    quot = float(np.max(np.abs(np.diff(y)))) / lattice.dx
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


def apriori_estimate_check(
    spec,
    grid,
    controls,
    perturbation=0.1,
    stability_factor=2.0,
    base=None,
):
    """Measure the implied constants of the a priori bounds and re-measure
    them on a refined grid.

    Three quotients are formed at the root node: the size bound (running
    square of Y against terminal, driver-at-zero and obstacle data), the
    initial-state Lipschitz quotient of Y against the declared state
    constant, and the data-perturbation bound (joint Y / Z / reflection
    difference against the size of the perturbation).  Running suprema are
    realized as Snell envelopes on the lattice, which the same inequalities
    dominate.  The check passes when refining the grid moves each quotient
    by at most `stability_factor` either way.

    Each lattice is walked once, from the last level to the root: both
    reflected solves, the four Snell envelopes and the path-sum moments
    advance together, and no level is stored.  `base` is the lattice of
    `controls` on `grid` from t = 0 when it is already built (as the
    `comparison` check of `isaacs run` builds it); it is built here
    otherwise.

    Refinement halves dx; dt is halved when the pair's lattice still admits
    nonnegative probabilities at the finer spacing and quartered when that
    lattice is infeasible (the report records which); any other error
    propagates.
    """
    controls = spec.control_pair(controls)
    if base is None:
        base = build_lattice(spec, 0.0, grid, controls)
    elif (
        base.controls != controls
        or base.counts[0] != grid.nx
        or base.dx != grid.dx
        or base.origin != grid.x_min
        or not np.array_equal(base.times, grid.dt * np.arange(grid.nt + 1))
    ):
        raise ValueError(
            f"lattice of pair {base.controls!r} with {base.n_steps} steps and"
            f" {base.counts[0]} nodes from t = {base.times[0]:.6g} is not the base"
            f" lattice of pair {controls!r} on this grid"
        )
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
