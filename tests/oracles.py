"""Reference computations that only the tests read.

Nothing in the package, its checks or its demos calls these.  Each reads
package code in another arrangement: the pointwise Hamiltonians pick
optimizers from `model`'s one-point integrand table and `REDUCTIONS`, the
residual re-steps a field with `model.hamiltonian_tables` and the march's
derivatives, and the sweep report feeds stored fields to
`pde.SweepStatistics`.  A test comparing against them still tests the
package.  pytest does not collect this module; its name does not start
with `test_`.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple

import numpy as np

from isaacs import pde
from isaacs.model import REDUCTIONS, _point_table, hamiltonian_tables, obstacle_rows


class HamiltonianValue(NamedTuple):
    value: float
    u: object
    v: object


def _pointwise(spec, point):
    """(H_lower, H_upper) at one point, each with its optimizing pair; a
    nonfinite table entry is refused, naming its first pair."""
    table = _point_table(spec, point)
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


def sweep_report(schedule, reference, penalized):
    """The sweep's report from the two-obstacle lower field `reference` and
    the fields of `pde.sweep_rows(schedule)`, fed to SweepStatistics level
    by level from the horizon down, as the march feeds it.

    Checks, level by level: the approximation from above decreases, the one
    from below increases, both stay on the correct side of the two-obstacle
    field, and the two-sided gap between them never widens.
    """
    statistics = pde.SweepStatistics(schedule, range(len(penalized) + 1))
    for j in range(len(reference.times) - 1, -1, -1):
        statistics.feed(np.stack([reference.values[j], *(f.values[j] for f in penalized)]))
    return statistics.report()


@dataclasses.dataclass(frozen=True)
class ResidualReport:
    """Worst discrete complementarity residual of a double-obstacle field."""

    max_residual: float
    time_index: int
    node_index: int
    tolerance: float
    passed: bool


def viscosity_residual(spec, field):
    """Measure how well a field satisfies the discrete double-obstacle
    equation in complementarity form.

    At every interior level the residual is

        max( min( -(W_next - W)/dt - H(t, W_next), W - lower ), W - upper )

    which vanishes identically for fields produced by the two-obstacle
    solver and grows like (perturbation / dt) for anything else.  The
    field's label names the reduction H.  The tolerance 1e-9 / dt admits
    accumulated roundoff but flags any real perturbation.
    """
    if field.label not in REDUCTIONS:
        raise ValueError(
            "residual check covers the two-obstacle fields; got label"
            f" {field.label!r}"
        )
    dt = float(field.times[1] - field.times[0])
    dx = float(field.nodes[1] - field.nodes[0])
    tolerance = 1e-9 / dt
    x = field.nodes
    worst = -1.0
    where = (0, 0)
    for j in range(len(field.times) - 1):
        t = float(field.times[j])
        w = field.values[j]
        w_next = field.values[j + 1 : j + 2]  # a stack of one row
        tables, _, _, _ = hamiltonian_tables(spec, t, x, w_next, *pde._derivatives(w_next, dx))
        if not np.isfinite(tables).all():
            raise pde._nonfinite_error(t)
        h = REDUCTIONS[field.label](tables)[0]
        lo, up = obstacle_rows(spec.coefficients, t, x)
        resid = np.maximum(np.minimum(-(w_next[0] - w) / dt - h, w - lo), w - up)
        k = int(np.argmax(np.abs(resid)))
        if abs(float(resid[k])) > worst:
            worst = abs(float(resid[k]))
            where = (j, k)
    return ResidualReport(
        max_residual=worst,
        time_index=where[0],
        node_index=where[1],
        tolerance=tolerance,
        passed=worst <= tolerance,
    )
