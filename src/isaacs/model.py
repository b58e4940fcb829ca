"""Problem data for two-player zero-sum differential games with obstacles.

A problem couples controlled state dynamics

    dX_s = b(s, X_s, u_s, v_s) ds + sigma(s, X_s, u_s, v_s) dB_s

with a running driver f(s, x, y, z, u, v), a terminal payoff phi(x) and two
obstacles lower(t, x) < upper(t, x) that pin the value between them.  Player I
picks u from a finite grid and maximizes, player II picks v and minimizes.

The two Hamiltonians are

    H_lower(t,x,y,q,X) = max_u min_v { 1/2 sigma^2 X + q b + f(t,x,y,q sigma,u,v) }
    H_upper(t,x,y,q,X) = min_v max_u { same integrand }

H_lower <= H_upper always; equality of the two is what makes the game have
a value, and `isaacs_condition_check` measures the gap by sampling.  The
integrand is written once, in `hamiltonian_tables`, and the reductions in
`REDUCTIONS`: `pde` reads them on grid rows, this module at single points
and on the samples of `isaacs_condition_check`, all at once.

Conventions used across the package:

  * one equation: the state x, the Brownian motion B and z are scalars
  * coefficient callables take (t, x, u, v), the driver takes (t, x, y, z, u, v);
    x is a numpy array of states, and t, u, v, y and z are floats or arrays
    that broadcast against it; the callables must broadcast elementwise in
    every argument, t, u and v as well as x, y and z: `hamiltonian_tables`
    passes all the control pairs at once as columns of u and v, and the
    sampled checks pass one t per state (and one u and v, with more than one
    pair)
  * one shape rule, sigma included: every value a coefficient returns is read
    through `on_nodes`, which accepts it when it broadcasts to the shape of
    the states it was evaluated at and refuses it with CoefficientError
    otherwise; given P > 1 control pairs as columns, a value with one more
    axis than the states, of length P, is one value per pair, each read by
    that rule; `require_finite` names the first node and pair of a
    nonfinite b or sigma in every solver
  * `lipschitz` bounds the x-Lipschitz constant of every coefficient,
    `driver_lipschitz` bounds the (y, z)-Lipschitz constant of the driver

Both backward solvers (the lattice recursion in `rbsde` and the
finite-difference march in `pde`) take the same reflected step,
`obstacle_step`, under a `Variant` that says which obstacles it penalizes
and which it clamps to (the march steps its whole stack of rows at once,
under `Variant.stacked`, through the step's two halves `penalized_step` and
`obstacle_clamp`, since it keeps no reflection increments); the grid and
penalty-schedule types they share live here as well, and `mapped_array`,
the anonymous memory both keep their stored levels in.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import mmap
import numbers
from typing import Callable, NamedTuple

import numpy as np


class CoefficientError(ValueError):
    """A coefficient callable returned a nonfinite value or a value of the
    wrong shape."""


@dataclasses.dataclass(frozen=True)
class ControlGrid:
    """Finite set of control points for one player."""

    label: str
    points: tuple

    def __post_init__(self):
        if len(self.points) == 0:
            raise ValueError(f"control grid {self.label!r} is empty")
        for p in self.points:
            if not isinstance(p, numbers.Real):
                raise ValueError(
                    f"control grid {self.label!r} has point {p!r}, not a real number"
                )
            if not math.isfinite(p):
                raise ValueError(
                    f"control grid {self.label!r} has nonfinite point {p!r}"
                )

    def __len__(self):
        return len(self.points)


@dataclasses.dataclass(frozen=True)
class CoefficientSet:
    """All problem coefficients plus their declared Lipschitz constants."""

    b: Callable
    sigma: Callable
    driver: Callable
    terminal: Callable
    lower: Callable
    upper: Callable
    lipschitz: float
    driver_lipschitz: float

    def __post_init__(self):
        for value in (self.lipschitz, self.driver_lipschitz):
            if not (0.0 <= value < math.inf):
                raise ValueError("Lipschitz constants must be finite and nonnegative")


@dataclasses.dataclass(frozen=True)
class ProblemSpec:
    """A complete game: dynamics, driver, terminal payoff, obstacles, controls."""

    horizon: float
    coefficients: CoefficientSet
    controls_i: ControlGrid
    controls_ii: ControlGrid

    def __post_init__(self):
        if not (self.horizon > 0 and math.isfinite(self.horizon)):
            raise ValueError("horizon must be positive and finite")

    def control_pairs(self):
        for u in self.controls_i.points:
            for v in self.controls_ii.points:
                yield u, v

    def control_pair(self, controls=None):
        """`controls` checked to be one (u, v) pair on the control grids;
        None picks the first point of each grid."""
        if controls is None:
            return self.controls_i.points[0], self.controls_ii.points[0]
        if not (isinstance(controls, tuple) and len(controls) == 2):
            raise ValueError(f"controls must be one (u, v) pair, got {controls!r}")
        for point, grid in zip(controls, (self.controls_i, self.controls_ii)):
            if point not in grid.points:
                raise ValueError(f"control {point!r} is not on grid {grid.label!r}")
        return controls


@dataclasses.dataclass(frozen=True)
class SpaceTimeGrid:
    """Uniform grid on [0, horizon] x [x_min, x_max].

    nx counts nodes (so dx = (x_max - x_min) / (nx - 1)), nt counts time
    steps (so there are nt + 1 levels and dt = horizon / nt).
    """

    x_min: float
    x_max: float
    nx: int
    nt: int
    horizon: float

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ValueError("x_min and x_max must be finite")
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")
        if self.nx < 3:
            raise ValueError("need at least 3 space nodes for the stencil")
        # the schemes divide by dx^2, so it must be a positive finite float
        if not 0.0 < self.dx * self.dx < math.inf:
            raise ValueError(
                f"x_min = {self.x_min!r} and x_max = {self.x_max!r} over {self.nx} nodes"
                f" give a dx whose square leaves the float range"
            )
        if self.nt < 1:
            raise ValueError("need at least one time step")
        if not (self.horizon > 0 and math.isfinite(self.horizon)):
            raise ValueError("horizon must be positive and finite")

    @property
    def dx(self):
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def dt(self):
        return self.horizon / self.nt

    def space_nodes(self):
        return np.linspace(self.x_min, self.x_max, self.nx)

    def time_nodes(self):
        return np.linspace(0.0, self.horizon, self.nt + 1)

    def time_level(self, t):
        """Index of the time level at t, which must sit on the grid."""
        j = int(round(t / self.dt))
        if not 0 <= j <= self.nt or abs(j * self.dt - t) > 1e-9 * max(1.0, self.horizon):
            raise ValueError(
                f"t={t!r} is not a grid time level (dt={self.dt!r}, nt={self.nt})"
            )
        return j


@dataclasses.dataclass(frozen=True)
class PenalizationSchedule:
    """Strictly increasing positive penalty levels."""

    levels: tuple

    def __post_init__(self):
        if len(self.levels) == 0:
            raise ValueError("empty penalty schedule")
        prev = 0.0
        for m in self.levels:
            if not (m > prev and math.isfinite(m)):
                raise ValueError(
                    f"penalty levels must be strictly increasing and positive,"
                    f" got {self.levels}"
                )
            prev = m

    def __iter__(self):
        return iter(self.levels)

    def __len__(self):
        return len(self.levels)


# a private map, so that a forked process writes to its own copy, as it
# would of a heap array; Windows has neither fork nor the flags
_PRIVATE = {"flags": mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS} if hasattr(mmap, "MAP_PRIVATE") else {}


def mapped_array(shape, dtype=np.float64):
    """A zeroed array of `shape` in an anonymous memory map of its own.
    The system takes the pages back once the last view of it is dropped,
    where the C heap would keep freed blocks resident for reuse; both
    solvers keep the levels they store in such maps."""
    dtype = np.dtype(dtype)
    count = math.prod(shape)
    mapped = mmap.mmap(-1, max(count * dtype.itemsize, 1), **_PRIVATE)
    return np.frombuffer(mapped, dtype, count).reshape(shape)


# name -> (clamp lower, clamp upper, penalty argument), as in Variant
_VARIANTS = {
    "plain": (False, False, None),
    "penalized": (False, False, "pair"),
    "one_barrier_lower": (True, False, "upper"),
    "one_barrier_upper": (False, True, "lower"),
    "two_barrier": (True, True, None),
}


@dataclasses.dataclass(frozen=True)
class Variant:
    """How a backward step treats the obstacles: which it penalizes, with
    what weight, and which it clamps to.

        plain              no penalty, no clamp
        penalized          penalties (m, n) on (upper, lower), no clamp
        one_barrier_lower  upper penalty m, clamp to the lower obstacle
        one_barrier_upper  lower penalty m, clamp to the upper obstacle
        two_barrier        no penalty, clamp to both

    The one-barrier variants approximate the two-barrier solution from
    above and from below as m grows.
    """

    clamp_lower: bool
    clamp_upper: bool
    pen_upper: float = 0.0
    pen_lower: float = 0.0

    @classmethod
    def named(cls, name, penalty=None):
        """The variant called `name`, with `penalty` checked against it."""
        if name not in _VARIANTS:
            raise ValueError(f"unknown mode {name!r}; choose one of {tuple(_VARIANTS)}")
        clamp_lower, clamp_upper, takes = _VARIANTS[name]
        if takes is None:
            if penalty not in (None, 0, 0.0, (0.0, 0.0)):
                raise ValueError(f"mode {name!r} takes no penalty, got {penalty!r}")
            return cls(clamp_lower, clamp_upper)
        if takes == "pair":
            try:
                m, n = penalty
            except TypeError:
                raise ValueError(f"mode {name!r} takes an (upper, lower) penalty pair")
            if m < 0 or n < 0:
                raise ValueError("penalties must be nonnegative")
            return cls(clamp_lower, clamp_upper, float(m), float(n))
        m = float(penalty if penalty is not None else 0.0)
        if m < 0:
            raise ValueError("penalty must be nonnegative")
        if takes == "upper":
            return cls(clamp_lower, clamp_upper, pen_upper=m)
        return cls(clamp_lower, clamp_upper, pen_lower=m)

    @classmethod
    def stacked(cls, variants):
        """One variant for a (rows, nx) stack, row i under variants[i], as
        `obstacle_step` takes it: a field the variants share stays that one
        value, and a field they differ in becomes a (rows, 1) column."""
        fields = []
        for field in dataclasses.fields(cls):
            column = [getattr(variant, field.name) for variant in variants]
            fields.append(column[0] if len(set(column)) == 1 else np.array(column)[:, None])
        return cls(*fields)

    def terminal_row(self, coefficients, t, x, terminal):
        """The terminal row on the nodes x at time t: a copy of `terminal`,
        or the payoff when it is None.  Refuses a row whose shape is not that
        of x, that leaves an obstacle this variant clamps to by more than
        1e-9, the one terminal tolerance of both backward solvers, or that is
        nonfinite."""
        tol = 1e-9
        if terminal is None:
            terminal = on_nodes(coefficients.terminal(x), x.shape, "terminal")
        row = np.array(terminal, dtype=float)
        lo, up = obstacle_rows(coefficients, t, x)
        if row.shape != lo.shape:
            raise ValueError(f"terminal values have shape {row.shape}, nodes {lo.shape}")
        if self.clamp_lower and np.any(row < lo - tol):
            raise ValueError(f"terminal values dip below the lower obstacle at t={t:.6g}")
        if self.clamp_upper and np.any(row > up + tol):
            raise ValueError(f"terminal values exceed the upper obstacle at t={t:.6g}")
        if not np.isfinite(row).all():
            raise ValueError(f"nonfinite terminal values at t={t:.6g}")
        return row


def on_nodes(value, shape, name):
    """The value of the coefficient `name` as a float array of `shape`,
    broadcast unless it already has that shape; it may be the coefficient's
    own array, so never write into it.  Raises CoefficientError when the
    value does not broadcast to `shape`."""
    row = np.asarray(value, dtype=float)
    if row.shape == shape:
        return row
    if row.size == 1 == math.prod(shape) and row.ndim <= len(shape):
        # one value at one node: the view broadcasting would build costs more
        return row.reshape(shape)
    try:
        return np.broadcast_to(row, shape)
    except ValueError:
        raise CoefficientError(
            f"{name} returned shape {row.shape} for nodes of shape {shape}"
        ) from None


def require_finite(name, rows, t, x, pairs):
    """Raises CoefficientError when `rows`, the values of the coefficient
    `name` on the nodes x at time t (one time, or one per node) for each
    (u, v) in `pairs` (one row per pair), hold a nonfinite entry, naming the
    first such pair and then its first such node and its t."""
    finite = np.isfinite(rows).reshape(len(pairs), -1)
    if not finite.all():
        k, i = np.argwhere(~finite)[0]
        u, v = pairs[k]
        if np.ndim(t):  # t at each node
            t = np.broadcast_to(t, x.shape)[i]
        raise CoefficientError(
            f"nonfinite {name} at t={t}, x={x[i]}, controls ({u!r}, {v!r})"
        )


def obstacle_rows(coefficients, t, x):
    """The lower and upper obstacles at time t on the nodes x."""
    lo = on_nodes(coefficients.lower(t, x), x.shape, "lower")
    up = on_nodes(coefficients.upper(t, x), x.shape, "upper")
    return lo, up


def obstacle_step(base, drive, dt, lo, up, variant):
    """One explicit reflected step: returns (y, dK+, dK-).

        y~  = base + dt * ( drive - m * max(base - up, 0) + n * max(lo - base, 0) )
        dK+ = max(lo - y~, 0),  dK- = max(y~ - up, 0)   (clamped sides only)
        y   = min(max(y~, lo), up)                      (clamped sides only)

    with (m, n) the variant's penalty weights: y~ is `penalized_step` and y
    its `obstacle_clamp`.  dK+ > 0 forces y = lo exactly and dK- > 0 forces
    y = up exactly, so for lo < up the discrete Skorokhod conditions
    dK+ * dK- = (y - lo) * dK+ = (up - y) * dK- = 0 hold as identities in
    float arithmetic.

    base and drive are one row under a `Variant`, or a (rows, nx) stack
    under `Variant.stacked`, one variant per row; each row of a stack holds
    exactly the numbers of its own one-row step.
    """
    y = penalized_step(base, drive, dt, lo, up, variant)
    dkp = _on_rows(
        variant.clamp_lower, lambda: np.maximum(lo - y, 0.0), lambda: np.zeros_like(y)
    )
    dkm = _on_rows(
        variant.clamp_upper, lambda: np.maximum(y - up, 0.0), lambda: np.zeros_like(y)
    )
    return obstacle_clamp(y, lo, up, variant), dkp, dkm


def penalized_step(base, drive, dt, lo, up, variant):
    """The step y~ of `obstacle_step`, before the clamp.  A zero weight adds
    no term at all: adding +0.0 would turn a -0.0 drive into +0.0."""
    m, n = variant.pen_upper, variant.pen_lower
    drive = _on_rows(m > 0.0, lambda: drive - m * np.maximum(base - up, 0.0), lambda: drive)
    drive = _on_rows(n > 0.0, lambda: drive + n * np.maximum(lo - base, 0.0), lambda: drive)
    return base + dt * drive


def obstacle_clamp(y, lo, up, variant):
    """y clamped to the obstacles the variant keeps hard, as `obstacle_step`
    clamps y~; the march takes this and `penalized_step` and no dK."""
    y = _on_rows(variant.clamp_lower, lambda: np.maximum(y, lo), lambda: y)
    return _on_rows(variant.clamp_upper, lambda: np.minimum(y, up), lambda: y)


def _on_rows(flag, step, rest):
    """step() on the rows that `flag` marks and rest() on the others; `flag`
    is one bool, or a (rows, 1) column of them for a stack."""
    if isinstance(flag, np.ndarray):
        return np.where(flag, step(), rest())
    return step() if flag else rest()


def shifted_spec(spec, delta, names):
    """Copy of the problem with the named coefficients lifted by delta."""
    co = spec.coefficients
    lifted = {name: _lifted(getattr(co, name), delta) for name in names}
    return dataclasses.replace(spec, coefficients=dataclasses.replace(co, **lifted))


def _lifted(fn, delta):
    return lambda *args: np.asarray(fn(*args), dtype=float) + delta


@dataclasses.dataclass(frozen=True)
class HamiltonianInput:
    """Point (t, x, y, q, X) at which a Hamiltonian is evaluated."""

    t: float
    x: float
    y: float
    gradient: float
    hessian: float


class HamiltonianValue(NamedTuple):
    value: float
    u: object
    v: object


class Violation(NamedTuple):
    kind: str
    where: dict
    magnitude: float
    detail: str


@dataclasses.dataclass(frozen=True)
class ValidationReport:
    passed: bool
    violations: tuple
    samples: int
    seed: int


@dataclasses.dataclass(frozen=True)
class IsaacsReport:
    max_gap: float
    mean_gap: float
    samples: int
    tolerance: float
    satisfied: bool
    worst: HamiltonianInput


def hamiltonian_tables(spec, t, x, y, d2, dplus, dminus, dcentral):
    """The integrand 1/2 sigma^2 d2 + b+ dplus + b- dminus + f(t, x, y,
    dcentral sigma, u, v) of every control pair on a stack of rows, plus
    stability maxima: b and sigma are evaluated on the nodes x, shape (nx,),
    the driver on y, shape (rows, nx) like the x-derivatives of y.  Returns
    (tables of shape (nu, nv, rows, nx), max sigma^2, max |b|, max |sigma|).
    A nonfinite b or sigma is refused by `require_finite` before the driver
    is evaluated.

    Each coefficient is one call for all the pairs: with more than one pair,
    u and v are pair columns, shape (P, 1) for b and sigma and (P, 1, 1) for
    the driver, whose z is then (P, rows, nx), and `_per_pair` reads the
    values; with one pair they are the two points themselves.
    """
    co = spec.coefficients
    pairs = list(spec.control_pairs())
    count = len(pairs)
    if count == 1:
        ((u, v),) = pairs
    else:
        u, v = (np.array(points, dtype=float)[:, None] for points in zip(*pairs))
    b = _per_pair(co.b(t, x, u, v), count, x.shape, "b")
    sig = _per_pair(co.sigma(t, x, u, v), count, x.shape, "sigma")
    require_finite("b", b, t, x, pairs)
    require_finite("sigma", sig, t, x, pairs)
    if count == 1:
        f = co.driver(t, x, y, dcentral * sig[0], u, v)
    else:
        f = co.driver(t, x, y, dcentral * sig[:, None], u[:, None], v[:, None])
    f = _per_pair(f, count, y.shape, "driver")
    shape = (len(spec.controls_i), len(spec.controls_ii), 1) + x.shape
    b, sig = b.reshape(shape), sig.reshape(shape)
    s2 = sig * sig
    tables = (
        (0.5 * s2) * d2
        + np.maximum(b, 0.0) * dplus
        + np.minimum(b, 0.0) * dminus
        + f.reshape(shape[:2] + y.shape)
    )
    return tables, float(np.max(s2)), float(np.max(np.abs(b))), float(np.max(np.abs(sig)))


def _per_pair(value, count, shape, name):
    """The value of the coefficient `name` at `count` control pairs on nodes
    of `shape`, as a (count,) + shape array.  A value with one more axis than
    the nodes, of length count (and count > 1), holds one row per pair, each
    read by the one shape rule of `on_nodes`; any other value is read by
    `on_nodes` and holds for every pair."""
    row = np.asarray(value, dtype=float)
    if count > 1 and row.ndim == len(shape) + 1 and row.shape[0] == count:
        try:
            return np.broadcast_to(row, (count,) + shape)
        except ValueError:
            raise CoefficientError(
                f"{name} returned shape {row.shape[1:]} for nodes of shape {shape}"
            ) from None
    return np.broadcast_to(on_nodes(row, shape, name), (count,) + shape)


# the two Hamiltonians as reductions of the tables over the control axes
REDUCTIONS = {
    "lower": lambda tables: np.max(np.min(tables, axis=1), axis=0),
    "upper": lambda tables: np.min(np.max(tables, axis=0), axis=0),
}


def _pointwise(spec, point):
    """(H_lower, H_upper) at one point from its (nu, nv) integrand table, with
    d2 = X and every first derivative q; a nonfinite entry is refused,
    naming its pair."""
    q = np.array([[point.gradient]])
    with np.errstate(all="ignore"):  # refused below
        tables, *_ = hamiltonian_tables(
            spec, point.t, np.array([point.x]), np.array([[point.y]]),
            np.array([[point.hessian]]), q, q, q,
        )
    table = tables[:, :, 0, 0]
    if not np.isfinite(table).all():
        iu, iv = np.argwhere(~np.isfinite(table))[0]
        u, v = spec.controls_i.points[iu], spec.controls_ii.points[iv]
        raise CoefficientError(
            f"nonfinite integrand at t={point.t}, x={point.x}, controls ({u!r}, {v!r})"
        )
    lower, upper = REDUCTIONS["lower"](table), REDUCTIONS["upper"](table)
    # the first u whose min over v is the lower value, at its first such v,
    # and the first v whose max over u is the upper value, at its first such u
    at_lower = (table == lower) & (np.min(table, axis=1, keepdims=True) == lower)
    at_upper = (table == upper) & (np.max(table, axis=0, keepdims=True) == upper)
    pairs = np.argwhere(at_lower)[0], np.argwhere(at_upper.T)[0][::-1]
    us, vs = spec.controls_i.points, spec.controls_ii.points
    return [HamiltonianValue(float(table[i, j]), us[i], vs[j]) for i, j in pairs]


def hamiltonian_lower(spec, point):
    """max over u of min over v of the Hamiltonian integrand.

    Returns (value, u, v) with the first optimizing pair in grid order,
    so repeated calls are deterministic.
    """
    return _pointwise(spec, point)[0]


def hamiltonian_upper(spec, point):
    """min over v of max over u of the Hamiltonian integrand."""
    return _pointwise(spec, point)[1]


def isaacs_condition_check(spec, samples=64, seed=0, radius=2.0):
    """Sample Hamiltonian inputs and measure sup (H_upper - H_lower).

    The gap is nonnegative up to roundoff by the minimax inequality; a gap
    within 1e-9 means the two Hamiltonian tables coincide on the sampled
    set and the game value computations may be expected to agree.  All the
    samples are one table; a refused or nonfinite entry is named as one
    point at a time names it: the first sample in draw order, then its
    first pair.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples!r}")
    tolerance = 1e-9
    rng = np.random.default_rng(seed)
    lows = (-1.0, 0.0, -radius, -radius, -radius)
    highs = (1.0, spec.horizon, radius, radius, radius)
    # sample by sample, as many scalar draws would give them
    a, t, x, y, q = np.ascontiguousarray(rng.uniform(lows, highs, size=(samples, 5)).T)
    hessian = 2.0 * a
    points = [
        HamiltonianInput(*point)
        for point in zip(t.tolist(), x.tolist(), y.tolist(), q.tolist(), hessian.tolist())
    ]
    try:
        with np.errstate(all="ignore"):  # refused below
            tables, *_ = hamiltonian_tables(
                spec, t, x, y[None], hessian[None], q[None], q[None], q[None]
            )
        if not np.isfinite(tables).all():
            raise CoefficientError("nonfinite integrand")
    except CoefficientError:
        # the first sample in draw order, then its first pair, names it
        for point in points:
            _pointwise(spec, point)
        raise
    lower = REDUCTIONS["lower"](tables)[0].tolist()
    upper = REDUCTIONS["upper"](tables)[0].tolist()
    worst = None
    max_gap = -math.inf
    total = 0.0
    for point, low, up in zip(points, lower, upper):
        gap = up - low
        total += gap
        if gap > max_gap:
            max_gap = gap
            worst = point
    return IsaacsReport(
        max_gap=max_gap,
        mean_gap=total / samples,
        samples=samples,
        tolerance=tolerance,
        satisfied=max_gap <= tolerance,
        worst=worst,
    )


def validate_problem(spec, samples=200, seed=0):
    """Spot-check the structural assumptions on random points of the box
    |x|, |y|, |z| <= 3, each with a slack of 1e-8.

    Checks, each recorded as a Violation on failure:
      * all coefficients finite on the sampled box
      * strict obstacle separation lower < upper
      * terminal sandwich lower(T, x) <= phi(x) <= upper(T, x)
      * x-Lipschitz quotients of b, sigma, phi, lower, upper, f within the
        declared `lipschitz` constant
      * (y, z)-Lipschitz quotient of the driver within `driver_lipschitz`
      * linear growth of (|b| + |sigma|) and of the scalar data against
        (1 + |x|), with the growth constant implied by the declared
        Lipschitz constant plus the sampled values at x = 0

    Sampling is seeded, so the report is deterministic for a given seed.
    Each coefficient is read once for all the samples; a read that the shape
    rule refuses is one nonfinite violation, at the first sample.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples!r}")
    rng = np.random.default_rng(seed)
    co = spec.coefficients
    T = spec.horizon
    violations = []
    radius, slack = 3.0, 1e-8

    def record(kind, where, magnitude, detail):
        violations.append(Violation(kind, where, float(magnitude), detail))

    pairs = list(spec.control_pairs())

    # growth baselines at the origin
    origin = np.zeros(1)
    base_dyn = 0.0
    base_data = 0.0
    times = np.concatenate([rng.uniform(0.0, T, size=7), [0.0, T]])
    for t in times:
        for u, v in pairs:
            (b0,) = on_nodes(co.b(t, origin, u, v), (1,), "b").tolist()
            (s0,) = on_nodes(co.sigma(t, origin, u, v), (1,), "sigma").tolist()
            (f0,) = on_nodes(co.driver(t, origin, 0.0, 0.0, u, v), (1,), "driver").tolist()
            base_dyn = max(base_dyn, abs(b0) + abs(s0))
            base_data = max(base_data, abs(f0))
        (lo0,) = on_nodes(co.lower(t, origin), (1,), "lower").tolist()
        (up0,) = on_nodes(co.upper(t, origin), (1,), "upper").tolist()
        base_data = max(base_data, abs(lo0), abs(up0))
    (phi0,) = on_nodes(co.terminal(origin), (1,), "terminal").tolist()
    base_data = max(base_data, abs(phi0))
    growth_dyn = co.lipschitz + base_dyn
    growth_data = co.lipschitz + base_data

    # seven draws per sample, one sample after another: t, the states xa and
    # xb, the driver's (y, z) and its second point (y2, z2)
    lows, highs = (0.0,) + (-radius,) * 6, (T,) + (radius,) * 6
    draws = rng.uniform(lows, highs, size=(samples, 7))
    ts, xas, xbs, ys, zs, y2s, z2s = np.ascontiguousarray(draws.T)
    cycled = list(itertools.islice(itertools.cycle(pairs), samples))
    if len(pairs) == 1:
        ((us, vs),) = pairs
    else:
        us, vs = (np.tile(np.array(points, dtype=float), 2) for points in zip(*cycled))

    # every coefficient once, on the flat nodes [xa..., xb...] with t, u and
    # v at each node; the obstacles at the horizon once on [xa...], and the
    # driver at (y2, z2) and at (0, 0) once on [xa..., xa...]
    names = ("b", "sigma", "driver", "terminal", "lower", "upper")
    t_nodes, nodes = np.tile(ts, 2), np.concatenate([xas, xbs])
    try:
        raw = (
            co.b(t_nodes, nodes, us, vs),
            co.sigma(t_nodes, nodes, us, vs),
            co.driver(t_nodes, nodes, np.tile(ys, 2), np.tile(zs, 2), us, vs),
            co.terminal(nodes),
            co.lower(t_nodes, nodes),
            co.upper(t_nodes, nodes),
        )
        both = np.array([on_nodes(value, nodes.shape, name) for name, value in zip(names, raw)])
        lower_T = on_nodes(co.lower(T, xas), xas.shape, "lower").tolist()
        upper_T = on_nodes(co.upper(T, xas), xas.shape, "upper").tolist()
        zeros = np.zeros(samples)
        second = np.tile(xas, 2), np.concatenate([y2s, zeros]), np.concatenate([z2s, zeros])
        f_yz = on_nodes(co.driver(t_nodes, *second, us, vs), nodes.shape, "driver")
    except CoefficientError as exc:
        # the samples share one read, so it fails at the first of them
        t, xa = draws[0, :2].tolist()
        u, v = pairs[0]
        record("nonfinite", {"t": t, "x": xa, "u": u, "v": v}, math.inf, str(exc))
        return ValidationReport(False, tuple(violations), samples, seed)
    # per sample, each coefficient at its two states, in the order of `names`
    both = both.reshape(len(names), 2, samples)
    finite = np.isfinite(both).all(axis=(0, 1)).tolist()
    per_sample = zip(
        cycled, finite, both.transpose(2, 0, 1).tolist(), draws.tolist(),
        lower_T, upper_T, f_yz[:samples].tolist(), f_yz[samples:].tolist(),
    )
    for (u, v), ok, values, (t, xa, xb, y, z, y2, z2), lo_T, up_T, f_y2, f0 in per_sample:
        here = {"t": t, "x": xa, "u": u, "v": v}
        if not ok:
            record("nonfinite", here, math.inf, "coefficient returned nan/inf")
            continue
        (b_a, _), (s_a, _), (f_a, _), (phi_a, _), (lo_a, _), (up_a, _) = values

        if up_a - lo_a <= 0.0:
            record(
                "obstacle_separation", here, lo_a - up_a,
                f"lower={lo_a} >= upper={up_a}",
            )

        # the payoff takes no t, so phi_a is its value at the horizon
        if phi_a < lo_T - slack or phi_a > up_T + slack:
            record(
                "terminal_sandwich", here,
                max(lo_T - phi_a, phi_a - up_T),
                f"phi={phi_a} outside [{lo_T}, {up_T}] at horizon",
            )

        dist = abs(xa - xb)
        if dist > 1e-12:
            budget = co.lipschitz * dist + slack * (1.0 + co.lipschitz)
            for name, (at_a, at_b) in zip(names, values):
                gap = abs(at_a - at_b)
                if gap > budget:
                    record(
                        f"lipschitz_{name}", here, gap / dist,
                        f"|d{name}|/|dx| = {gap / dist:.6g} exceeds"
                        f" declared {co.lipschitz}",
                    )

        # the driver at (y2, z2) and at (0, 0), both at xa
        dyz = math.hypot(abs(y - y2), abs(z - z2))
        if dyz > 1e-12:
            gap = abs(f_a - f_y2)
            if gap > co.driver_lipschitz * dyz + slack * (1.0 + co.driver_lipschitz):
                record(
                    "lipschitz_driver_yz", here, gap / dyz,
                    f"|df|/|d(y,z)| = {gap / dyz:.6g} exceeds declared"
                    f" {co.driver_lipschitz}",
                )

        scale = 1.0 + abs(xa)
        dyn = abs(b_a) + abs(s_a)
        if dyn > growth_dyn * scale + slack * (1.0 + growth_dyn):
            record(
                "growth_dynamics", here, dyn / scale,
                f"(|b|+|sigma|)/(1+|x|) = {dyn / scale:.6g} exceeds {growth_dyn:.6g}",
            )
        data = max(abs(f0), abs(phi_a), abs(lo_a), abs(up_a))
        if data > growth_data * scale + slack * (1.0 + growth_data):
            record(
                "growth_data", here, data / scale,
                f"data/(1+|x|) = {data / scale:.6g} exceeds {growth_data:.6g}",
            )

    return ValidationReport(
        passed=not violations,
        violations=tuple(violations),
        samples=samples,
        seed=seed,
    )
