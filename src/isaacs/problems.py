"""Built-in problems with pinned grids and penalty schedules.

Each builtin is chosen to make one structural property observable with a
known answer: a flat problem whose value is exact, a pure transport whose
lattice is deliberately infeasible, a diffusion squeezed between obstacles
so both reflections act, a game with an irreducible Hamiltonian gap, and a
separable game whose two reductions coincide bitwise.  The pinned grids
keep every solve inside the explicit schemes' stability regions with room
for the largest default penalty weight, except bilinear_game's: its
dt = 1/64 meets the top weight 64 at a stability number of 1.0, above the
march's margin 0.9, so its penalization sweep fails with a CflError.

A problem is declared once.  Each factory returns its ProblemSpec and its
pinned grid, and every spec, a custom one from `from_expressions`
included, is built by `_spec` from the CoefficientSet fields and the two
control grids; a coefficient that is one number everywhere is `_flat`.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .expressions import parse_expression
from .model import (
    CoefficientSet,
    ControlGrid,
    PenalizationSchedule,
    ProblemSpec,
    SpaceTimeGrid,
)


@dataclasses.dataclass(frozen=True)
class BuiltinProblem:
    name: str
    spec: ProblemSpec
    grid: SpaceTimeGrid
    schedule: PenalizationSchedule


DEFAULT_SCHEDULE = PenalizationSchedule((1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0))


def _tent(y):
    return np.maximum(0.0, 1.0 - np.abs(y))


def _flat(value):
    """A coefficient equal to `value` everywhere, whatever its arguments."""
    return lambda t, x, *_: np.full_like(np.asarray(x, dtype=float), value)


def _spec(horizon, controls_i, controls_ii, **coefficients):
    """The game on control grids u and v, from its CoefficientSet fields."""
    return ProblemSpec(
        horizon=float(horizon),
        coefficients=CoefficientSet(**coefficients),
        controls_i=ControlGrid("u", tuple(float(p) for p in controls_i)),
        controls_ii=ControlGrid("v", tuple(float(p) for p in controls_ii)),
    )


def constant():
    """Flat payoff 0.5 pinned strictly between flat obstacles at -0.5 and 1.5.

    Every term of the equation vanishes, so the value is the constant itself
    at all times and both reflection processes stay identically zero.
    """
    c = 0.5
    spec = _spec(
        1.0,
        (0.0,),
        (0.0,),
        b=_flat(0.0),
        sigma=_flat(1.0),
        driver=_flat(0.0),
        terminal=lambda x: np.full_like(np.asarray(x, dtype=float), c),
        lower=_flat(c - 1.0),
        upper=_flat(c + 1.0),
        lipschitz=0.0,
        driver_lipschitz=0.0,
    )
    return spec, SpaceTimeGrid(-6.0, 6.0, 201, 400, 1.0)


def transport():
    """Pure drift with a tent payoff and obstacles too far away to matter.

    The value rides the characteristics at speed 1: W = payoff(x + T - t).
    The drift is off-node on the default grid, so with zero noise the
    lattice builder refuses it; the problem exists to exercise the
    degenerate-transport paths of the finite-difference scheme and the
    lattice feasibility errors.
    """
    spec = _spec(
        1.0,
        (0.0,),
        (0.0,),
        b=_flat(1.0),
        sigma=_flat(0.0),
        driver=_flat(0.0),
        terminal=lambda x: _tent(np.asarray(x, dtype=float)),
        lower=_flat(-10.0),
        upper=_flat(10.0),
        lipschitz=1.0,
        driver_lipschitz=0.0,
    )
    return spec, SpaceTimeGrid(-5.0, 5.0, 201, 400, 1.0)


def dynkin_heat():
    """Diffusion squeezed between obstacles that track the payoff.

    The payoff is a positive tent at +3/2 and a negative one at -3/2 and the
    obstacles follow it at distance 1/2.  Marching backward, the diffusion
    flattens both tents toward zero, so the value lands on the lower
    obstacle near the peak and on the upper obstacle near the dip: both
    reflections are genuinely active.  The driver is zero, which keeps the
    penalized approximations on the correct side of the reflected field
    node by node, not just in the limit.
    """

    def payoff(x):
        x = np.asarray(x, dtype=float)
        return _tent(x - 1.5) - _tent(x + 1.5)

    spec = _spec(
        1.0,
        (0.0,),
        (0.0,),
        b=_flat(0.3),
        sigma=_flat(math.sqrt(2.0)),
        driver=_flat(0.0),
        terminal=payoff,
        lower=lambda t, x: payoff(x) - 0.5,
        upper=lambda t, x: payoff(x) + 0.5,
        lipschitz=1.0,
        driver_lipschitz=0.0,
    )
    return spec, SpaceTimeGrid(-9.0, 9.0, 201, 400, 1.0)


def bilinear_game():
    """Degenerate dynamics with the saddle-free driver u * v.

    Player I's best guaranteed rate is -1 and player II's is +1, so the two
    Hamiltonians differ by exactly 2 everywhere and the game has no value:
    the reductions integrate to -(T - t) and +(T - t).
    """
    spec = _spec(
        1.0,
        (-1.0, 1.0),
        (-1.0, 1.0),
        b=_flat(0.0),
        sigma=_flat(0.0),
        driver=lambda t, x, y, z, u, v: u * v + np.zeros_like(np.asarray(x, dtype=float)),
        terminal=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        lower=_flat(-2.0),
        upper=_flat(2.0),
        lipschitz=0.0,
        driver_lipschitz=0.0,
    )
    return spec, SpaceTimeGrid(-2.0, 2.0, 41, 64, 1.0)


def separable_game():
    """Heat dynamics with the separable driver (u - v) / 2.

    Each player's best response is independent of the other's choice, the
    best-response tables coincide entry by entry, and the two reductions
    produce bitwise identical fields: the game trivially has a value.
    """
    spec = _spec(
        1.0,
        (-1.0, 0.0, 1.0),
        (-1.0, 0.0, 1.0),
        b=_flat(0.0),
        sigma=_flat(1.0),
        driver=lambda t, x, y, z, u, v: 0.5 * (u - v)
        + np.zeros_like(np.asarray(x, dtype=float)),
        # exp(-x^2) is 0.0 past |x| = 27.3, and the clamp keeps x^2 from overflowing
        terminal=lambda x: np.exp(-np.minimum(np.abs(np.asarray(x, dtype=float)), 30.0) ** 2),
        lower=_flat(-1.0),
        upper=_flat(2.0),
        lipschitz=1.0,
        driver_lipschitz=0.0,
    )
    return spec, SpaceTimeGrid(-6.0, 6.0, 201, 400, 1.0)


_FACTORIES = {
    f.__name__: f for f in (constant, transport, dynkin_heat, bilinear_game, separable_game)
}
BUILTINS = tuple(_FACTORIES)


def builtin(name):
    """Look up a built-in problem by name."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(f"unknown problem {name!r}; available: {', '.join(BUILTINS)}")
    return BuiltinProblem(name, *factory(), DEFAULT_SCHEDULE)


_ALLOWED_VARS = {
    "b": {"t", "x", "u", "v"},
    "sigma": {"t", "x", "u", "v"},
    "driver": {"t", "x", "y", "z", "u", "v"},
    "terminal": {"x"},
    "lower": {"t", "x"},
    "upper": {"t", "x"},
}


def from_expressions(
    horizon,
    b,
    sigma,
    driver,
    terminal,
    lower,
    upper,
    controls_i,
    controls_ii,
    lipschitz,
    driver_lipschitz,
):
    """Build a scalar-state problem from mini-language strings.

    See the expressions module for the grammar.  Each coefficient may only
    use the variables its role provides: b and sigma see (t, x, u, v), the
    driver sees (t, x, y, z, u, v), the terminal payoff sees x, the
    obstacles see (t, x).  The control grids are labelled u and v.
    """
    exprs = {}
    for name, text in (
        ("b", b),
        ("sigma", sigma),
        ("driver", driver),
        ("terminal", terminal),
        ("lower", lower),
        ("upper", upper),
    ):
        expr = parse_expression(text)
        stray = expr.variables - _ALLOWED_VARS[name]
        if stray:
            raise ValueError(
                f"{name} expression uses variable(s) {sorted(stray)};"
                f" allowed here: {sorted(_ALLOWED_VARS[name])}"
            )
        exprs[name] = expr

    eb, es, ef = exprs["b"], exprs["sigma"], exprs["driver"]
    ephi, elo, eup = exprs["terminal"], exprs["lower"], exprs["upper"]
    return _spec(
        horizon,
        controls_i,
        controls_ii,
        b=lambda t, x, u, v: eb(t=t, x=x, u=u, v=v),
        sigma=lambda t, x, u, v: es(t=t, x=x, u=u, v=v),
        driver=lambda t, x, y, z, u, v: ef(t=t, x=x, y=y, z=z, u=u, v=v),
        terminal=lambda x: ephi(x=x),
        lower=lambda t, x: elo(t=t, x=x),
        upper=lambda t, x: eup(t=t, x=x),
        lipschitz=float(lipschitz),
        driver_lipschitz=float(driver_lipschitz),
    )
