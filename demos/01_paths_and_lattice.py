"""Simulate the controlled state, then build the recombining lattice for it.

Shows the two forward views the solvers rely on: Monte Carlo paths for
diagnostics, and the trinomial lattice whose transition probabilities feed
every backward solve.
"""

import numpy as np

from isaacs.forwardsim import build_lattice, check_forward_estimates, simulate_paths
from isaacs.model import SpaceTimeGrid
from isaacs.problems import builtin

bp = builtin("dynkin_heat")
spec = bp.spec

# A handful of paths from x0 = 0 under the (only) control pair.
batch = simulate_paths(spec, 0.0, 0.0, n_paths=5, n_steps=8, seed=7)
print("simulated paths, one row per path:")
for row in batch.states:
    print("  " + " ".join(f"{v:+.3f}" for v in row))

# Moment growth along the flow: ratios stay bounded when the coefficients
# are Lipschitz, and the report says so.
report = check_forward_estimates(spec, n_paths=500, n_steps=32, seed=7)
print(f"\nforward estimates passed: {report.passed} (slope {report.slope:+.3f})")

# The lattice discretises the same dynamics.  It starts from every node of
# the initial slice and widens by one node per side per step up to a halo
# beyond each end of the grid.  The halo grows with the variance the chain
# has built up, more slowly than the lattice widens: a 100-step lattice
# never reaches it, and on 400 steps it caps the node count.
for nt in (100, 400):
    grid = SpaceTimeGrid(-9.0, 9.0, 101, nt, 1.0)
    lattice = build_lattice(spec, 0.0, grid)
    print(
        f"\nlattice: {lattice.counts[0]} -> {lattice.counts[-1]} nodes over {grid.nt} steps,"
        f" halo {lattice.halo[-1]} nodes, {lattice.clipped_rows} rows clipped at its edge"
    )
center, probs = lattice.transition(0)
print(f"root transition row (down, stay, up): {probs[0]}")
print(f"rows sum to one: {np.allclose(probs.sum(axis=1), 1.0)}")
print(f"lattice consistency: mean error {lattice.mean_error:.2e}, var error {lattice.var_error:.2e}")
