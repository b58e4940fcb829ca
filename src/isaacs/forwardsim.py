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
max |shift| + 1 nodes per side, until they fill a halo of K_j nodes beyond
each end of the grid at step j; every stored transition row is a genuine
probability vector, and no boundary absorption is ever applied.

The halo comes from a tail bound.  In node units a path from a grid node
moves by the drift, at most D_j = sum over k < j of max(|nu_k|, |shift_k|)
(maxima over the step-k nodes), plus a martingale M_j whose steps xi - r
lie within 1.5 and have conditional variance q - r^2 = sigma^2 dt / dx^2,
at most V_k, its largest value over the step-k nodes.  Up to step j the
variance built up is at most W_j = V_0 + ... + V_{j-1}, and the
Bernstein form of Freedman's inequality (Ann. Probab. 3, 1975) bounds
P(|M_j| >= h) by 2 exp(-h^2 / (2 W_j + h)).  Over N steps let beta =
ln(2N / ESCAPE_BOUND), ESCAPE_BOUND = 2^-60, and

    h_j = (beta + sqrt(beta^2 + 8 beta W_j)) / 2,   K_j = ceil(D_j + h_j),

the smallest h with 2 exp(-h^2 / (2 W_j + h)) <= ESCAPE_BOUND / N; the
halo at step j is K_j nodes, ceil(beta) at step 0, and it never shrinks
because D_j and W_j never decrease.  Where a row's stencil would leave the
capped node set its center is clipped inward, a reflecting closure at the
halo's edge.  At step j a path sits at most D_j + |M_j| nodes beyond the
grid, and its row's center at most max |shift_j| further, so the row is
clipped only if D_{j+1} + |M_j| >= K_{j+1}, which takes |M_j| >= h_{j+1}.
M_j has built up at most W_j <= W_{j+1}, so that has probability at most
ESCAPE_BOUND / N, and by the union bound over the N steps the chain from
any grid node at step 0 meets a clipped row with probability at most
ESCAPE_BOUND.  The moment check covers the unclipped rows.

A stored transition is 20 bytes a node: the int32 center and the float64
down and up probabilities.  They live in anonymous memory maps
(`model.mapped_array`), carved in order in chunks of at least 1 MiB, not in
the C heap, so a dropped lattice returns its pages to the system at once.
The builder caps up at 1 - down, so that a down + up rounded past 1
leaves stay at 0 rather than at -2e-16, and the
stay probability is rebuilt on reading as 1 - down - up, the expression
the builder assigns it, so every row a solver reads is bitwise the row
that was built.  A level with the node set of the level before and of the
level after, and with the b and sigma bytes of the level before, would
rebuild the row before bit for bit, so it shares that triple object
instead: a lattice stores 20 bytes a node of its distinct levels only.
With b and sigma free of t, every level inside a run of one node set
shares.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .model import mapped_array, on_nodes, require_finite

_U64 = (1 << 64) - 1

# the most probability with which the chain from a grid node at step 0 ever
# meets a row clipped at the halo's edge (module docstring)
ESCAPE_BOUND = 2.0 ** -60

# the most nodes a level may hold: a drift that would carry the next level
# past it is refused before the level is built
MAX_LEVEL_NODES = 2 ** 20

# the smallest anonymous memory map a lattice carves its columns from
_CHUNK_BYTES = 1 << 20


class LatticeError(ValueError):
    """A lattice cannot be built: a transition probability would be
    negative, a level would pass MAX_LEVEL_NODES nodes, or the moments
    degraded."""


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
    # one stream object, put back for each path p to the state a new
    # Philox(key=(seed, p)) starts in: counter 0 and an empty buffer
    bits = np.random.Philox(key=np.array([seed & _U64, 0], dtype=np.uint64))
    gen = np.random.Generator(bits)
    fresh = bits.state
    for p in range(n_paths):
        fresh["state"]["key"][1] = p
        bits.state = fresh
        out[p] = gen.standard_normal(n_steps) * root
    return out


def _require_seed(seed):
    # the noise is keyed by 64 bits of the seed: another seed would alias one
    if not 0 <= seed <= _U64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")


def _time_levels(spec, t0, n_paths, n_steps):
    if not (0.0 <= t0 < spec.horizon):
        raise ValueError(f"t0 = {t0} outside [0, {spec.horizon})")
    if n_steps < 1 or n_paths < 1:
        raise ValueError("need at least one path and one step")
    dt = (spec.horizon - t0) / n_steps
    return dt, t0 + dt * np.arange(n_steps + 1)


def _euler(co, u, v, times, dt, x0, dw):
    """Euler states from x0 driven by the increments dw, shape (n_paths,
    n_steps + 1).  A nonfinite b or sigma is refused at the step that meets
    it, by `model.require_finite`; states that overflow with finite
    coefficients are refused at the end."""
    states = np.empty((dw.shape[0], len(times)))
    states[:, 0] = x0
    for k in range(len(times) - 1):
        t = float(times[k])
        x = states[:, k]
        drift = on_nodes(co.b(t, x, u, v), x.shape, "b")
        sig = on_nodes(co.sigma(t, x, u, v), x.shape, "sigma")
        require_finite("b", drift, t, x, [(u, v)])
        require_finite("sigma", sig, t, x, [(u, v)])
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
    time level and must broadcast to it.  `seed` must lie in [0, 2**64).
    """
    _require_seed(seed)
    dt, times = _time_levels(spec, t0, n_paths, n_steps)
    u, v = spec.control_pair(controls)
    dw = _path_increments(seed, n_paths, n_steps, dt)
    states = _euler(spec.coefficients, u, v, times, dt, x0, dw)
    return ForwardTrajectoryBatch(times=times, states=states, seed=seed)


@dataclasses.dataclass(frozen=True)
class RecombiningLattice:
    """Trinomial chain of one control pair over the time levels of a grid.

    `controls` is the (u, v) pair whose dynamics the chain follows and
    `grid` the grid it was built on, all a reader needs.  Step j runs from
    times[j] to times[j+1].  Node values at step j are grid.x_min +
    (first_index[j] + arange(counts[j])) * grid.dx; step 0 is the grid's
    nodes, and the node set widens with j by the pair's reach up to
    `halo[j]` nodes beyond each end of the grid, K_j of the module
    docstring, which grows with the variance the chain has built up by step
    j.  transitions[j] is the triple (center, p_down, p_up) of one int32 and
    two float64 columns, 20 bytes a node, each a view of an anonymous memory
    map that the system takes back once the lattice is dropped;
    `transition(j)` reads it as (center, probs).  It is the object
    transitions[j - 1] when steps j - 1, j and j + 1 hold one node set and
    b and sigma have the same bytes at steps j - 1 and j, so the lattice
    stores 20 bytes a node of each distinct step.

    At the halo's edge `clipped_rows` rows in all have their center clipped
    inward; the chain from a grid node at step 0 reaches one with
    probability at most `escape_bound`.  `mean_error` and `var_error` are
    the worst moment errors over the other rows.
    """

    controls: tuple
    grid: object
    times: np.ndarray
    first_index: tuple
    counts: tuple
    transitions: tuple
    mean_error: float
    var_error: float
    halo: tuple
    escape_bound: float
    clipped_rows: int

    @property
    def n_steps(self):
        return len(self.times) - 1

    def node_values(self, step):
        lo = self.first_index[step]
        return self.grid.x_min + self.grid.dx * (lo + np.arange(self.counts[step]))

    def transition(self, step):
        """(center, probs) of step `step`: row i of probs is the (down, stay,
        up) distribution over next-step local indices center[i] - 1,
        center[i], center[i] + 1, a probability vector on every row."""
        center, p_down, p_up = self.transitions[step]
        probs = np.empty((len(center), 3))
        probs[:, 0] = p_down
        probs[:, 1] = 1.0 - p_down - p_up
        probs[:, 2] = p_up
        return center.astype(np.intp), probs


class _Columns:
    """Copies of a lattice's columns, carved in order from anonymous memory
    maps (`model.mapped_array`) of at least _CHUNK_BYTES each.  One map is
    open at a time: a column that does not fit in what is left of it opens
    the next, so every map but the open one has less than one column's
    bytes unused.  A column is a view of its map, which it keeps alive."""

    def __init__(self):
        self._chunk = None
        self._used = 0

    def copy(self, column, dtype):
        """`column` cast to `dtype`, each column starting on 8 bytes."""
        dtype = np.dtype(dtype)
        size = len(column) * dtype.itemsize
        if self._chunk is None or self._used + size > len(self._chunk):
            self._chunk = mapped_array((max(size, _CHUNK_BYTES),), np.uint8)
            self._used = 0
        out = self._chunk[self._used : self._used + size].view(dtype)
        self._used += -(-size // 8) * 8
        out[...] = column
        return out


def build_lattice(spec, t0, grid, controls=None, consistency_tol=1e-10):
    """Build the moment-matched trinomial lattice of one control pair.

    `controls` is that (u, v) pair, which must sit on the control grids of
    `spec`; None picks the first point of each grid.  `grid` supplies x_min,
    dx, dt, nx, nt and the horizon (any object with those attributes
    works), and the lattice keeps both.  t0 must sit on a time level.
    Raises CoefficientError when b or sigma is nonfinite at a node, naming
    the first such node, and LatticeError when the drift would carry a
    level past MAX_LEVEL_NODES nodes or some transition probability would
    be below -1e-12, reporting the worst node and, when shrinking the step
    helps, the largest admissible dt.
    """
    dt, dx = grid.dt, grid.dx
    level = t0 / dt
    s0 = int(round(level)) if math.isfinite(level) else None
    if s0 is None or not 0 <= s0 < grid.nt or abs(s0 * dt - t0) > 1e-9 * max(1.0, abs(t0)):
        raise ValueError(f"t0 = {t0} is not a time level of the grid")
    n_steps = grid.nt - s0
    times = t0 + dt * np.arange(n_steps + 1)
    controls = spec.control_pair(controls)
    u, v = controls
    co = spec.coefficients

    # the halo K_j = ceil(D_j + h_j) of the module docstring, D_j being
    # drift_reach and W_j variance
    beta = math.log(2.0 * n_steps / ESCAPE_BOUND)
    drift_reach = variance = 0.0
    halo = [math.ceil(beta)]
    first_index = [0]
    counts = [grid.nx]
    transitions = []
    columns = _Columns()
    clipped_rows = 0
    worst_mean = 0.0
    worst_var = 0.0

    last_key = None
    for j in range(n_steps):
        t = float(times[j])
        lo = first_index[j]
        count = counts[j]
        x = grid.x_min + dx * (lo + np.arange(count))
        b = on_nodes(co.b(t, x, u, v), x.shape, "b")
        sig = on_nodes(co.sigma(t, x, u, v), x.shape, "sigma")
        # a level with the node set and the b and sigma bytes (so -0.0 is
        # not 0.0) of the level before has that level's probabilities and
        # maxima, still in hand, and passed its finiteness and sign checks
        key = (lo, count, b.tobytes(), sig.tobytes())
        repeat = key == last_key
        last_key = key
        if not repeat:
            require_finite("b", b, t, x, [controls])
            require_finite("sigma", sig, t, x, [controls])
            with np.errstate(over="ignore"):  # an infinite nu or s2 is refused below
                s2 = sig * sig
                nu = b * (dt / dx)
                diffusion = s2 * dt / (dx * dx)
            nu_max = float(np.max(np.abs(nu)))
            # the next level holds at most count + 2 (max |shift| + 1) nodes
            if not count + 2.0 * (np.rint(nu_max) + 1.0) <= MAX_LEVEL_NODES:
                raise LatticeError(
                    f"a level of {count} nodes and a drift of up to {nu_max:.6g} nodes a step"
                    f" at t={t:.6g}, controls ({u!r}, {v!r}), would make the next level"
                    f" pass {MAX_LEVEL_NODES} nodes"
                )
            shift = np.rint(nu).astype(np.int64)
            resid = nu - shift
            q = diffusion + resid ** 2
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
            # up gives way where down + up rounds past 1, so stay is never negative
            np.minimum(probs[:, 2], 1.0 - probs[:, 0], out=probs[:, 2])
            probs[:, 1] = 1.0 - probs[:, 0] - probs[:, 2]
            shift_max = int(np.max(np.abs(shift)))
            diffusion_max = float(np.max(diffusion))

        drift_reach += max(nu_max, shift_max)
        variance += diffusion_max
        tail = 0.5 * (beta + math.sqrt(beta * beta + 8.0 * beta * variance))
        halo.append(math.ceil(drift_reach + tail))
        reach = shift_max + 1
        next_lo = max(lo - reach, -halo[-1])
        next_count = min(lo + count - 1 + reach, grid.nx - 1 + halo[-1]) - next_lo + 1
        first_index.append(next_lo)
        counts.append(next_count)
        if repeat and (next_lo, next_count) == (lo, count):
            # levels j - 1, j and j + 1 hold one node set, so row j is row
            # j - 1, clipped and checked as it was
            transitions.append(transitions[-1])
            clipped_rows += clipped
            continue

        center = np.arange(lo - next_lo, lo - next_lo + count) + shift
        kept = (center >= 1) & (center <= next_count - 2)
        clipped = int(np.count_nonzero(~kept))
        if clipped:
            # a reflecting closure at the halo's edge: clipped rows keep
            # their probabilities and leave the moment check
            clipped_rows += clipped
            np.clip(center, 1, next_count - 2, out=center)

        # exact local consistency of the stored rows, checked not assumed
        targets = grid.x_min + dx * (next_lo + center[:, None] + np.array([-1.0, 0.0, 1.0]))
        mean = np.einsum("ik,ik->i", probs, targets)
        var = np.einsum("ik,ik->i", probs, (targets - mean[:, None]) ** 2)
        mean_gap = np.max(np.abs(mean - (x + b * dt)), where=kept, initial=0.0)
        var_gap = np.max(np.abs(var - s2 * dt), where=kept, initial=0.0)
        worst_mean = max(worst_mean, float(mean_gap))
        worst_var = max(worst_var, float(var_gap))
        transitions.append(
            (
                columns.copy(center, np.int32),
                columns.copy(probs[:, 0], np.float64),
                columns.copy(probs[:, 2], np.float64),
            )
        )

    if worst_mean > consistency_tol or worst_var > consistency_tol:
        raise LatticeError(
            f"moment matching degraded: mean error {worst_mean:.3e},"
            f" variance error {worst_var:.3e} exceed {consistency_tol:.1e}"
        )

    return RecombiningLattice(
        controls=controls,
        grid=grid,
        times=times,
        first_index=tuple(first_index),
        counts=tuple(counts),
        transitions=tuple(transitions),
        mean_error=worst_mean,
        var_error=worst_var,
        halo=tuple(halo),
        escape_bound=ESCAPE_BOUND,
        clipped_rows=clipped_rows,
    )


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
    within 0.2 of 0.  `seed` must lie in [0, 2**64).
    """
    _require_seed(seed)
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
