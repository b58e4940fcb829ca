"""Solve a two-barrier reflected backward equation and inspect the pushes.

The solution is kept between the obstacles by two increasing processes.
Their increments are complementary: at each node at most one barrier pushes,
and it only pushes where the solution sits exactly on that barrier.
"""

import numpy as np

from isaacs.forwardsim import build_lattice
from isaacs.model import SpaceTimeGrid
from isaacs.problems import builtin
from isaacs.rbsde import solve_backward

bp = builtin("dynkin_heat")
grid = SpaceTimeGrid(-9.0, 9.0, 101, 100, 1.0)
lattice = build_lattice(bp.spec, 0.0, grid)

sol = solve_backward(bp.spec, lattice, (0.0, 0.0), mode="two_barrier")
mid = len(sol.y[0]) // 2
print(f"value at x = 0: {sol.y[0][mid]:+.6f}")
print(f"mean lower push over [0,T]: {sol.k_plus_mean[-1]:.6f}")
print(f"mean upper push over [0,T]: {sol.k_minus_mean[-1]:.6f}")

# Structural identities hold to the last bit, not just to a tolerance.
worst = 0.0
for j in range(len(sol.y) - 1):
    worst = max(worst, float(np.max(np.abs(sol.dk_plus[j] * sol.dk_minus[j]))))
print(f"largest product of opposing pushes: {worst}")

# Tighten the obstacles and the pushes grow; the value stays sandwiched.
x0 = lattice.node_values(0)
lo = bp.spec.coefficients.lower(0.0, x0)
up = bp.spec.coefficients.upper(0.0, x0)
inside = np.all(sol.y[0] >= lo) and np.all(sol.y[0] <= up)
print(f"initial slice respects both barriers: {inside}")
