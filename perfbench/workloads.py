"""The benchmark's workloads: the INI configs each one feeds to `isaacs run`.

A workload is a fixed list of configs.  The seed is the only input that
varies between runs; it goes into each config's `[run] seed` and is passed
to `cli.run(seed=...)` as well, so the program sees nothing but the
generated configs.  This module imports nothing from `isaacs`.
"""

from __future__ import annotations

DEFAULT_CHECKS = ("validate", "game_value", "penalization", "dpp")
LATTICE_CHECKS = ("comparison", "crosscheck", "estimates", "forward")

CUSTOM_PROBLEM = """\
[problem]
name = custom
horizon = 0.5
b = 0.5 * (u + v) * exp(0 - x^2 / 8)
sigma = 0.8 + 0.2 * abs(u - v)
driver = 0.5 * (u - v) + 0.1 * min(max(y, 0 - 1), 1)
terminal = max(0, 1 - abs(x - 1)) - max(0, 1 - abs(x + 1))
lower = max(0, 1 - abs(x - 1)) - max(0, 1 - abs(x + 1)) - 0.4
upper = max(0, 1 - abs(x - 1)) - max(0, 1 - abs(x + 1)) + 0.4
controls_i = -1, 0, 1
controls_ii = -1, 0, 1
lipschitz = 1
driver_lipschitz = 0.1

[grid]
x_min = -4
x_max = 4
nx = 121
nt = 250
"""


def _builtin(name):
    return f"[problem]\nname = {name}\n"


# name -> configs as (label, problem section, checks); labels key the
# committed reference digests.
_WORKLOADS = {
    # The headline end-to-end run: every builtin on its pinned grid plus one
    # custom problem, all with the default checks.  The work is pde marches
    # and sweeps plus CSV formatting, no lattice; the builtins use cheap
    # lambda coefficients, while every coefficient of the custom problem
    # (state- and control-dependent drift and diffusion, a y-dependent
    # driver) goes through the expression interpreter.  24 checks.
    "default_checks": tuple(
        (name, _builtin(name), DEFAULT_CHECKS)
        for name in ("constant", "transport", "dynkin_heat", "bilinear_game", "separable_game")
    )
    + (("custom", CUSTOM_PROBLEM, DEFAULT_CHECKS),),
    # Lattice builds, rbsde solves and moment loops, Euler paths; about 1%
    # pde and no CSV.  transport is left out because its lattice is
    # infeasible by design, constant because it repeats dynkin_heat's
    # lattice shape.  12 checks; the refined lattices of `estimates` make
    # this the memory-heavy workload.
    "lattice_checks": tuple(
        (name, _builtin(name), LATTICE_CHECKS)
        for name in ("dynkin_heat", "bilinear_game", "separable_game")
    ),
}

NAMES = tuple(_WORKLOADS)


def configs(name, seed):
    """The workload's configs for `seed` as (label, INI text, checks)."""
    if name not in _WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(NAMES)}")
    return [
        (label, f"{problem}\n[run]\nchecks = {', '.join(checks)}\nseed = {seed}\n", checks)
        for label, problem, checks in _WORKLOADS[name]
    ]
