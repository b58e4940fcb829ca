"""Forward dynamics: Monte Carlo paths and the recombining trinomial lattice.

Both views hold one control pair (u, v) on the control grids fixed for the
whole horizon, the first point of each grid unless told otherwise.  Paths
use explicit Euler steps

    X_{k+1} = X_k + b(t_k, X_k, u, v) dt + sigma(t_k, X_k, u, v) dW_k

with one counter-based Philox stream per path, keyed (seed, path index).
Path p therefore sees the same noise regardless of how many paths are
requested or how the work is scheduled, which is what makes reruns and
pairwise perturbation studies bit-reproducible.

The lattice is the Markov chain of the same dynamics on the spatial nodes
of a grid.  One step from node x targets the three nodes around
x + round(b dt / dx) dx with probabilities chosen so that the step mean is
exactly x + b dt and the step variance exactly sigma^2 dt:

    nu = b dt / dx,  shift = round(nu),  r = nu - shift
    q  = sigma^2 dt / dx^2 + r^2
    p_up = (q + r) / 2,  p_down = (q - r) / 2,  p_stay = 1 - q

All three probabilities must be nonnegative; q <= 1 caps the time step the
usual way, and q >= |r| fails exactly when the diffusion is too weak to
bridge an off-node drift target (for sigma = 0 the drift must land on a
node).  Node sets widen every step by the reach of the pair's own stencil,
max |shift| + 1 nodes per side, so that every stored transition row is a
genuine probability vector; no boundary absorption is ever applied.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .model import on_nodes, sigma_rows

_U64 = (1 << 64) - 1


class LatticeError(ValueError):
    """Lattice transition probabilities cannot be made nonnegative."""


@dataclasses.dataclass(frozen=True)
class ForwardTrajectoryBatch:
    """Euler paths: `states` has shape (n_paths, n_steps + 1), and
    `states[p, k]` is path p at `times[k]`."""

    times: np.ndarray
    states: np.ndarray
    seed: int

    @property
    def n_paths(self):
        return self.states.shape[0]

    @property
    def terminal(self):
        return self.states[:, -1]


def _path_increments(seed, n_paths, n_steps, dt):
    out = np.empty((n_paths, n_steps))
    root = math.sqrt(dt)
    for p in range(n_paths):
        bits = np.random.Philox(key=np.array([seed & _U64, p], dtype=np.uint64))
        gen = np.random.Generator(bits)
        out[p] = gen.standard_normal(n_steps) * root
    return out


def _time_levels(spec, t0, n_paths, n_steps):
    if not (0.0 <= t0 < spec.horizon):
        raise ValueError(f"t0 = {t0} outside [0, {spec.horizon})")
    if n_steps < 1 or n_paths < 1:
        raise ValueError("need at least one path and one step")
    dt = (spec.horizon - t0) / n_steps
    return dt, t0 + dt * np.arange(n_steps + 1)


def _euler(co, u, v, times, dt, x0, dw):
    """Euler states from x0 driven by the increments dw, shape (n_paths,
    n_steps + 1)."""
    states = np.empty((dw.shape[0], len(times)))
    states[:, 0] = x0
    for k in range(len(times) - 1):
        t = float(times[k])
        x = states[:, k]
        drift = on_nodes(co.b(t, x, u, v), x.shape)
        sig = sigma_rows(co, t, x, u, v)
        states[:, k + 1] = x + drift * dt + sig * dw[:, k]
    if not np.all(np.isfinite(states)):
        raise FloatingPointError("nonfinite state encountered during simulation")
    return states


def simulate_paths(
    spec,
    t0,
    x0,
    n_paths,
    n_steps,
    seed,
    controls=None,
):
    """Simulate Euler paths of the controlled state on [t0, horizon].

    `controls` is the (u, v) pair held on every path, which must sit on the
    control grids; None picks the first point of each grid.  The
    coefficient callables receive the whole (n_paths,) state array of a
    time level and must broadcast; sigma may come back in any shape
    `model.sigma_rows` accepts.
    """
    dt, times = _time_levels(spec, t0, n_paths, n_steps)
    u, v = spec.control_pair(controls)
    dw = _path_increments(seed, n_paths, n_steps, dt)
    states = _euler(spec.coefficients, u, v, times, dt, x0, dw)
    return ForwardTrajectoryBatch(times=times, states=states, seed=seed)


@dataclasses.dataclass(frozen=True)
class RecombiningLattice:
    """Trinomial chain of one control pair over the time levels of a grid.

    `controls` is the (u, v) pair whose dynamics the chain follows.  Step j
    runs from times[j] to times[j+1].  Node values at step j are
    origin + (first_index[j] + arange(counts[j])) * dx; step 0 coincides
    with the spatial nodes of the grid the lattice was built from, and the
    node set widens with j by the pair's reach so every transition row
    stays a probability vector.  transitions[j] is a pair (center, probs):
    row i of probs is the (down, stay, up) distribution over next-step
    local indices center[i] - 1, center[i], center[i] + 1.
    """

    controls: tuple
    times: np.ndarray
    dx: float
    origin: float
    first_index: tuple
    counts: tuple
    transitions: tuple
    mean_error: float
    var_error: float

    @property
    def n_steps(self):
        return len(self.times) - 1

    def node_values(self, step):
        lo = self.first_index[step]
        return self.origin + self.dx * (lo + np.arange(self.counts[step]))

    def transition(self, step):
        return self.transitions[step]

    def dense_transition(self, step):
        center, probs = self.transitions[step]
        mat = np.zeros((self.counts[step], self.counts[step + 1]))
        rows = np.arange(self.counts[step])
        for off, col in ((-1, 0), (0, 1), (1, 2)):
            mat[rows, center + off] = probs[:, col]
        return mat


def build_lattice(spec, t0, grid, controls=None, consistency_tol=1e-10):
    """Build the moment-matched trinomial lattice of one control pair.

    `controls` is that (u, v) pair, which must sit on the control grids of
    `spec`; None picks the first point of each grid.  `grid` supplies x_min,
    dx, dt, nx, nt and the horizon (any object with those attributes
    works).  t0 must sit on a time level.  Raises LatticeError when some
    transition probability would be below -1e-12, reporting the worst node
    and, when shrinking the step helps, the largest admissible dt.
    """
    dt, dx = grid.dt, grid.dx
    s0 = int(round(t0 / dt))
    if abs(s0 * dt - t0) > 1e-9 * max(1.0, abs(t0)) or not 0 <= s0 < grid.nt:
        raise ValueError(f"t0 = {t0} is not a time level of the grid")
    n_steps = grid.nt - s0
    times = t0 + dt * np.arange(n_steps + 1)
    controls = spec.control_pair(controls)
    u, v = controls
    co = spec.coefficients

    first_index = [0]
    counts = [grid.nx]
    transitions = []
    worst_mean = 0.0
    worst_var = 0.0

    for j in range(n_steps):
        t = float(times[j])
        lo = first_index[j]
        count = counts[j]
        x = grid.x_min + dx * (lo + np.arange(count))
        b = on_nodes(co.b(t, x, u, v), x.shape)
        sig = sigma_rows(co, t, x, u, v)
        s2 = sig * sig
        nu = b * (dt / dx)
        shift = np.rint(nu).astype(np.int64)
        resid = nu - shift
        q = s2 * dt / (dx * dx) + resid ** 2
        p_up = 0.5 * (q + resid)
        p_down = 0.5 * (q - resid)
        p_stay = 1.0 - p_up - p_down
        probs = np.stack([p_down, p_stay, p_up], axis=1)
        low = float(probs.min())
        if low < -1e-12:
            i = int(np.unravel_index(np.argmin(probs), probs.shape)[0])
            hints = []
            if q[i] > 1.0:
                dt_max = (1.0 - resid[i] ** 2) * dx * dx / s2[i]
                hints.append(f"largest admissible dt is {dt_max:.6g}")
            if q[i] < abs(resid[i]):
                if s2[i] == 0.0:
                    hints.append(
                        "sigma vanishes here, so b*dt/dx must be an integer"
                    )
                else:
                    hints.append(
                        f"need sigma^2*dt/dx^2 >= {abs(resid[i]) * (1 - abs(resid[i])):.6g}"
                    )
            raise LatticeError(
                f"negative transition probability {low:.3e} at node"
                f" x={x[i]:.6g}, t={t:.6g}, controls ({u!r}, {v!r})"
                + "".join("; " + h for h in hints)
            )
        np.clip(probs, 0.0, 1.0, out=probs)
        probs[:, 1] = 1.0 - probs[:, 0] - probs[:, 2]

        # exact local consistency, checked not assumed
        targets = x[:, None] + dx * (shift[:, None] + np.array([-1.0, 0.0, 1.0]))
        mean = np.einsum("ik,ik->i", probs, targets)
        var = np.einsum("ik,ik->i", probs, (targets - mean[:, None]) ** 2)
        worst_mean = max(worst_mean, float(np.max(np.abs(mean - (x + b * dt)))))
        worst_var = max(worst_var, float(np.max(np.abs(var - s2 * dt))))

        reach = int(np.max(np.abs(shift))) + 1
        first_index.append(lo - reach)
        counts.append(count + 2 * reach)
        # the next node set starts `reach` nodes lower
        transitions.append((np.arange(count) + shift + reach, probs))

    if worst_mean > consistency_tol or worst_var > consistency_tol:
        raise LatticeError(
            f"moment matching degraded: mean error {worst_mean:.3e},"
            f" variance error {worst_var:.3e} exceed {consistency_tol:.1e}"
        )

    return RecombiningLattice(
        controls=controls,
        times=times,
        dx=dx,
        origin=grid.x_min,
        first_index=tuple(first_index),
        counts=tuple(counts),
        transitions=tuple(transitions),
        mean_error=worst_mean,
        var_error=worst_var,
    )


def base_lattice(spec, grid, controls, lattice=None):
    """The lattice of the pair `controls` on `grid` from t = 0: `lattice`
    when it is already built, after checking that it is that lattice, and a
    new build otherwise."""
    controls = spec.control_pair(controls)
    if lattice is None:
        return build_lattice(spec, 0.0, grid, controls)
    if (
        lattice.controls != controls
        or lattice.counts[0] != grid.nx
        or lattice.dx != grid.dx
        or lattice.origin != grid.x_min
        or not np.array_equal(lattice.times, grid.dt * np.arange(grid.nt + 1))
    ):
        raise ValueError(
            f"lattice of pair {lattice.controls!r} with {lattice.n_steps} steps and"
            f" {lattice.counts[0]} nodes from t = {lattice.times[0]:.6g} is not the base"
            f" lattice of pair {controls!r} on this grid"
        )
    return lattice


@dataclasses.dataclass(frozen=True)
class ForwardEstimateReport:
    """Stability of paths under initial-state perturbation, shared noise.

    sup_ratios[i] = E[sup_k |X - X'|^2] / delta_i^2 and terminal_ratios the
    same at the final time, for offsets delta_i.  For Lipschitz dynamics the
    sup ratio is bounded and trend-free in delta (it includes k = 0, so it
    is >= 1 and equals 1 for contracting flows); `slope` is the fitted
    log-log trend, near 0 when the square-distance scaling holds.
    """

    offsets: np.ndarray
    sup_ratios: np.ndarray
    terminal_ratios: np.ndarray
    slope: float
    slope_tolerance: float
    passed: bool


def check_forward_estimates(
    spec,
    t0=0.0,
    base_state=0.0,
    offsets=(1e-3, 3.16e-3, 1e-2, 3.16e-2, 1e-1),
    n_paths=2000,
    n_steps=64,
    seed=0,
    controls=None,
):
    """Perturb the initial state and measure E[sup |dX|^2] / |dx0|^2.

    Every start shares the same per-path noise (same seed), drawn once, so
    the ratio isolates the flow's Lipschitz dependence on the start point;
    each start's paths are those `simulate_paths` returns for it.  Passes
    when ratios are finite and their log-log slope against the offset is
    within 0.2 of 0.
    """
    slope_tolerance = 0.2
    offsets = np.asarray(offsets, dtype=float)
    sup_ratios = np.empty_like(offsets)
    term_ratios = np.empty_like(offsets)
    dt, times = _time_levels(spec, t0, n_paths, n_steps)
    u, v = spec.control_pair(controls)
    dw = _path_increments(seed, n_paths, n_steps, dt)
    co = spec.coefficients
    a = _euler(co, u, v, times, dt, base_state, dw)
    for i, delta in enumerate(offsets):
        b = _euler(co, u, v, times, dt, base_state + delta, dw)
        dist = np.abs(a - b)
        sup_ratios[i] = float(np.mean(np.max(dist, axis=1) ** 2)) / delta ** 2
        term_ratios[i] = float(np.mean(dist[:, -1] ** 2)) / delta ** 2
    finite = bool(np.all(np.isfinite(sup_ratios)) and np.all(sup_ratios > 0))
    if finite:
        slope = float(np.polyfit(np.log(offsets), np.log(sup_ratios), 1)[0])
    else:
        slope = math.inf
    return ForwardEstimateReport(
        offsets=offsets,
        sup_ratios=sup_ratios,
        terminal_ratios=term_ratios,
        slope=slope,
        slope_tolerance=slope_tolerance,
        passed=finite and abs(slope) <= slope_tolerance,
    )
