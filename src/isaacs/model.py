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
`REDUCTIONS`: `pde` reads them on grid rows, this module at single points.

Conventions used across the package:

  * one equation: the state x, the Brownian motion B and z are scalars
  * coefficient callables take (t, x, u, v), the driver takes (t, x, y, z, u, v);
    x and z are floats or numpy arrays and the callables must broadcast
    elementwise
  * `lipschitz` bounds the x-Lipschitz constant of every coefficient,
    `driver_lipschitz` bounds the (y, z)-Lipschitz constant of the driver

Both backward solvers (the lattice recursion in `rbsde` and the
finite-difference march in `pde`) take the same reflected step,
`obstacle_step`, under a `Variant` that says which obstacles it penalizes
and which it clamps to (the march steps its whole stack of rows at once,
under `Variant.stacked`); the grid and penalty-schedule types they share
live here as well.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Callable, NamedTuple

import numpy as np


class CoefficientError(ValueError):
    """A coefficient callable returned a nonfinite value."""


@dataclasses.dataclass(frozen=True)
class ControlGrid:
    """Finite set of control points for one player."""

    label: str
    points: tuple

    def __post_init__(self):
        if len(self.points) == 0:
            raise ValueError(f"control grid {self.label!r} is empty")
        for p in self.points:
            vals = p if isinstance(p, tuple) else (p,)
            if not all(math.isfinite(float(c)) for c in vals):
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
        of x, or that leaves an obstacle this variant clamps to by more than
        1e-9, the one terminal tolerance of both backward solvers."""
        tol = 1e-9
        if terminal is None:
            terminal = on_nodes(coefficients.terminal(x), x.shape)
        row = np.array(terminal, dtype=float)
        lo, up = obstacle_rows(coefficients, t, x)
        if row.shape != lo.shape:
            raise ValueError(f"terminal values have shape {row.shape}, nodes {lo.shape}")
        if self.clamp_lower and np.any(row < lo - tol):
            raise ValueError(f"terminal values dip below the lower obstacle at t={t:.6g}")
        if self.clamp_upper and np.any(row > up + tol):
            raise ValueError(f"terminal values exceed the upper obstacle at t={t:.6g}")
        return row


def on_nodes(value, shape):
    """A coefficient's value as a float array of `shape`, broadcast unless it
    already has that shape; it may be the coefficient's own array, so never
    write into it."""
    row = np.asarray(value, dtype=float)
    return row if row.shape == shape else np.broadcast_to(row, shape)


def obstacle_rows(coefficients, t, x):
    """The lower and upper obstacles at time t on the nodes x."""
    lo = on_nodes(coefficients.lower(t, x), x.shape)
    up = on_nodes(coefficients.upper(t, x), x.shape)
    return lo, up


def obstacle_step(base, drive, dt, lo, up, variant):
    """One explicit reflected step: returns (y, dK+, dK-).

        y~  = base + dt * ( drive - m * max(base - up, 0) + n * max(lo - base, 0) )
        dK+ = max(lo - y~, 0),  dK- = max(y~ - up, 0)   (clamped sides only)
        y   = min(max(y~, lo), up)                      (clamped sides only)

    with (m, n) the variant's penalty weights.  dK+ > 0 forces y = lo
    exactly and dK- > 0 forces y = up exactly, so for lo < up the discrete
    Skorokhod conditions dK+ * dK- = (y - lo) * dK+ = (up - y) * dK- = 0
    hold as identities in float arithmetic.

    base and drive are one row under a `Variant`, or a (rows, nx) stack
    under `Variant.stacked`, one variant per row; each row of a stack holds
    exactly the numbers of its own one-row step.  A zero weight adds no
    term at all: adding +0.0 would turn a -0.0 drive into +0.0.
    """
    m, n = variant.pen_upper, variant.pen_lower
    drive = _on_rows(m > 0.0, lambda: drive - m * np.maximum(base - up, 0.0), lambda: drive)
    drive = _on_rows(n > 0.0, lambda: drive + n * np.maximum(lo - base, 0.0), lambda: drive)
    y = base + dt * drive
    dkp = _on_rows(
        variant.clamp_lower, lambda: np.maximum(lo - y, 0.0), lambda: np.zeros_like(y)
    )
    dkm = _on_rows(
        variant.clamp_upper, lambda: np.maximum(y - up, 0.0), lambda: np.zeros_like(y)
    )
    y = _on_rows(variant.clamp_lower, lambda: np.maximum(y, lo), lambda: y)
    y = _on_rows(variant.clamp_upper, lambda: np.minimum(y, up), lambda: y)
    return y, dkp, dkm


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

    def summary(self):
        if self.passed:
            return f"ok ({self.samples} samples)"
        kinds = sorted({v.kind for v in self.violations})
        return f"{len(self.violations)} violation(s): {', '.join(kinds)}"


@dataclasses.dataclass(frozen=True)
class IsaacsReport:
    max_gap: float
    mean_gap: float
    samples: int
    tolerance: float
    satisfied: bool
    worst: HamiltonianInput


def _at_state(fn, t, x, u, v, name):
    """fn(t, x, u, v) at one scalar state, read as a float."""
    raw = np.asarray(fn(t, x, u, v), dtype=float)
    if raw.size != 1:
        raise CoefficientError(f"{name} returned shape {raw.shape} at one state")
    return float(raw.reshape(()))


def sigma_rows(coefficients, t, x, u, v):
    """Evaluate sigma on the scalar states x, shape (count,); returns x.shape.

    Coefficients are written elementwise and may come back as one value
    shared by every state, shape (), (1,) or (1, 1), or as one value per
    state, shape (count,), (count, 1) or (count, 1, 1).
    """
    x = np.asarray(x, dtype=float)
    raw = np.asarray(coefficients.sigma(t, x, u, v), dtype=float)
    if raw.shape in ((), (1,), (1, 1)):
        return np.broadcast_to(raw.reshape(()), x.shape)
    if raw.shape in (x.shape, x.shape + (1,), x.shape + (1, 1)):
        return raw.reshape(x.shape)
    raise CoefficientError(
        f"cannot interpret sigma shape {raw.shape} for {x.size} state(s)"
    )


def hamiltonian_tables(spec, t, x, y, d2, dplus, dminus, dcentral):
    """The integrand 1/2 sigma^2 d2 + b+ dplus + b- dminus + f(t, x, y,
    dcentral sigma, u, v) of every control pair on a stack of rows, plus
    stability maxima: b and sigma are evaluated on the nodes x, shape (nx,),
    the driver on y, shape (rows, nx) like the x-derivatives of y.  Returns
    (tables of shape (nu, nv, rows, nx), max sigma^2, max |b|, max |sigma|).
    """
    co = spec.coefficients
    bs, sigs, fs = [], [], []
    for u, v in spec.control_pairs():
        bs.append(on_nodes(co.b(t, x, u, v), x.shape))
        sig = sigma_rows(co, t, x, u, v)
        sigs.append(sig)
        fs.append(on_nodes(co.driver(t, x, y, dcentral * sig, u, v), y.shape))
    pairs = (len(spec.controls_i), len(spec.controls_ii))
    b = np.array(bs).reshape(pairs + (1,) + x.shape)
    sig = np.array(sigs).reshape(pairs + (1,) + x.shape)
    s2 = sig * sig
    tables = (
        (0.5 * s2) * d2
        + np.maximum(b, 0.0) * dplus
        + np.minimum(b, 0.0) * dminus
        + np.array(fs).reshape(pairs + y.shape)
    )
    # a nonfinite b or sigma makes every row's tables nonfinite, and no
    # caller reads the maxima of nonfinite tables
    return (
        tables,
        max(0.0, float(np.max(s2))),
        max(0.0, float(np.max(np.abs(b)))),
        max(0.0, float(np.max(np.abs(sig)))),
    )


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
    set and the game value computations may be expected to agree.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples!r}")
    tolerance = 1e-9
    rng = np.random.default_rng(seed)
    worst = None
    max_gap = -math.inf
    total = 0.0
    for _ in range(samples):
        a = rng.uniform(-1.0, 1.0)
        point = HamiltonianInput(
            t=rng.uniform(0.0, spec.horizon),
            x=rng.uniform(-radius, radius),
            y=rng.uniform(-radius, radius),
            gradient=rng.uniform(-radius, radius),
            hessian=2.0 * a,
        )
        lower, upper = _pointwise(spec, point)
        gap = upper.value - lower.value
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
    base_dyn = 0.0
    base_data = 0.0
    times = np.concatenate([rng.uniform(0.0, T, size=7), [0.0, T]])
    for t in times:
        for u, v in pairs:
            base_dyn = max(
                base_dyn,
                abs(_at_state(co.b, t, 0.0, u, v, "b"))
                + abs(_at_state(co.sigma, t, 0.0, u, v, "sigma")),
            )
            base_data = max(base_data, abs(float(co.driver(t, 0.0, 0.0, 0.0, u, v))))
        base_data = max(
            base_data,
            abs(float(co.lower(t, 0.0))),
            abs(float(co.upper(t, 0.0))),
        )
    base_data = max(base_data, abs(float(co.terminal(0.0))))
    growth_dyn = co.lipschitz + base_dyn
    growth_data = co.lipschitz + base_data

    for u, v in itertools.islice(itertools.cycle(pairs), samples):
        t = float(rng.uniform(0.0, T))
        xa = float(rng.uniform(-radius, radius))
        xb = float(rng.uniform(-radius, radius))
        y = float(rng.uniform(-radius, radius))
        z = float(rng.uniform(-radius, radius))
        here = {"t": t, "x": xa, "u": u, "v": v}

        try:
            b_a = _at_state(co.b, t, xa, u, v, "b")
            b_b = _at_state(co.b, t, xb, u, v, "b")
            s_a = _at_state(co.sigma, t, xa, u, v, "sigma")
            s_b = _at_state(co.sigma, t, xb, u, v, "sigma")
            f_a = float(co.driver(t, xa, y, z, u, v))
            f_b = float(co.driver(t, xb, y, z, u, v))
            lo_a = float(co.lower(t, xa))
            up_a = float(co.upper(t, xa))
            phi_a = float(co.terminal(xa))
            phi_b = float(co.terminal(xb))
            lo_b = float(co.lower(t, xb))
            up_b = float(co.upper(t, xb))
        except CoefficientError as exc:
            record("nonfinite", here, math.inf, str(exc))
            continue

        finite_probe = [
            abs(b_a), abs(s_a), f_a, lo_a, up_a, phi_a, f_b, lo_b, up_b, phi_b,
        ]
        if not all(math.isfinite(val) for val in finite_probe):
            record("nonfinite", here, math.inf, "coefficient returned nan/inf")
            continue

        if up_a - lo_a <= 0.0:
            record(
                "obstacle_separation", here, lo_a - up_a,
                f"lower={lo_a} >= upper={up_a}",
            )

        phi_T = float(co.terminal(xa))
        lo_T = float(co.lower(T, xa))
        up_T = float(co.upper(T, xa))
        if phi_T < lo_T - slack or phi_T > up_T + slack:
            record(
                "terminal_sandwich", here,
                max(lo_T - phi_T, phi_T - up_T),
                f"phi={phi_T} outside [{lo_T}, {up_T}] at horizon",
            )

        dist = abs(xa - xb)
        if dist > 1e-12:
            budget = co.lipschitz * dist + slack * (1.0 + co.lipschitz)
            for name, gap in (
                ("b", abs(b_a - b_b)),
                ("sigma", abs(s_a - s_b)),
                ("driver", abs(f_a - f_b)),
                ("terminal", abs(phi_a - phi_b)),
                ("lower", abs(lo_a - lo_b)),
                ("upper", abs(up_a - up_b)),
            ):
                if gap > budget:
                    record(
                        f"lipschitz_{name}", here, gap / dist,
                        f"|d{name}|/|dx| = {gap / dist:.6g} exceeds"
                        f" declared {co.lipschitz}",
                    )

        y2 = float(rng.uniform(-radius, radius))
        z2 = float(rng.uniform(-radius, radius))
        f_y2 = float(co.driver(t, xa, y2, z2, u, v))
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
        f0 = abs(float(co.driver(t, xa, 0.0, 0.0, u, v)))
        data = max(f0, abs(phi_a), abs(lo_a), abs(up_a))
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
