"""Span tracer for the benchmark's traced run.

`Tracer.install()` wraps, from outside the package, every public function
of each `isaacs` module at every name it is bound to (`pde` reaches
`model.sigma_rows` through its own `from .model import sigma_rows`, so that
binding is patched too), plus `Expression.__call__` and
`ExperimentConfig.resolve`.  The resolve wrapper also wraps the resolved
spec's coefficient callables.  `uninstall()` puts every original back.

Each wrapped call is a span named `<module>.<function>`.  Spans are folded
into per-name totals as they close: calls, inclusive seconds (outermost
call only, so recursion is not counted twice), self seconds (duration
minus the time covered by child spans) and calls that raised.  A few
boundaries also record work counts taken from their arguments and results.
Nothing in the package is edited, and no wrapped call changes its
arguments or its result.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import sys
import time
import types

import numpy as np

MODULES = ("expressions", "model", "forwardsim", "rbsde", "pde", "games", "problems", "cli")
COEFFICIENTS = ("b", "sigma", "driver", "terminal", "lower", "upper")
MARCHES = ("pde.solve_isaacs_double_obstacle", "pde.solve_isaacs_penalized")


def _modules():
    import isaacs
    import isaacs.cli  # noqa: F401  (not imported by the package itself)

    return {name: sys.modules[f"isaacs.{name}"] for name in MODULES}


def attribute_snapshot():
    """Identity of every attribute of the isaacs modules and the classes they
    define.  Two equal snapshots mean nothing was patched in between."""
    import isaacs

    modules = list(_modules().values())
    classes = [
        obj
        for mod in modules
        for obj in vars(mod).values()
        if isinstance(obj, type) and obj.__module__ == mod.__name__
    ]
    return {
        (getattr(owner, "__qualname__", owner.__name__), attr): id(value)
        for owner in (isaacs, *modules, *classes)
        for attr, value in vars(owner).items()
    }


def _terminal_key(terminal):
    if terminal is None:
        return None
    return hashlib.sha256(np.ascontiguousarray(terminal, dtype=float).tobytes()).hexdigest()


class Tracer:
    def __init__(self):
        self._stack = []  # open spans: [start, seconds covered by children]
        self._patches = []  # (owner, attribute, original)
        self.reset()

    def reset(self):
        """Start a new pass: zero every total and forget solve arguments."""
        self.spans = {}  # name -> [calls, inclusive s, self s, raised]
        self._depth = {}
        self.counts = {
            "pde.node_levels": 0,
            "forwardsim.lattice_nodes": 0,
            "forwardsim.path_steps": 0,
            "rbsde.node_steps": 0,
        }
        self._march_keys = set()
        self._lattice_keys = set()

    # -- spans ----------------------------------------------------------

    def wrap(self, name, fn, hook=None):
        """Return fn wrapped in a span; hook(arguments, result) runs after it."""
        stack = self._stack
        perf = time.perf_counter
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = self._depth
            totals = self.spans.get(name)
            if totals is None:
                totals = self.spans[name] = [0, 0.0, 0.0, 0]
            depth[name] = depth.get(name, 0) + 1
            frame = [perf(), 0.0]
            stack.append(frame)
            result = None
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                elapsed = perf() - frame[0]
                stack.pop()
                depth[name] -= 1
                totals[0] += 1
                if depth[name] == 0:
                    totals[1] += elapsed
                totals[2] += elapsed - frame[1]
                totals[3] += raised
                if stack:
                    stack[-1][1] += elapsed
                if hook is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(bound.arguments, result)

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        import isaacs

        modules = _modules()
        owners = [isaacs, *modules.values()]
        hooks = {
            "pde.solve_isaacs_double_obstacle": self._march_hook,
            "pde.solve_isaacs_penalized": self._march_hook,
            "forwardsim.build_lattice": self._lattice_hook,
            "forwardsim.simulate_paths": self._paths_hook,
            "rbsde.solve_backward": self._backward_hook,
        }
        for short, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not isinstance(fn, types.FunctionType)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                name = f"{short}.{attr}"
                wrapper = self.wrap(name, fn, hooks.get(name))
                for owner in owners:
                    for bound_name, value in list(vars(owner).items()):
                        if value is fn:
                            self._patch(owner, bound_name, wrapper)

        expression = modules["expressions"].Expression
        self._patch(expression, "__call__", self.wrap("expressions.eval", expression.__call__))

        config_cls = modules["cli"].ExperimentConfig
        resolve = self.wrap("cli.resolve", config_cls.resolve)

        def resolve_traced(config):
            spec, grid, schedule = resolve(config)
            co = spec.coefficients
            traced = {
                field: self.wrap(f"problems.coeff.{field}", getattr(co, field))
                for field in COEFFICIENTS
            }
            spec = dataclasses.replace(spec, coefficients=dataclasses.replace(co, **traced))
            return spec, grid, schedule

        self._patch(config_cls, "resolve", resolve_traced)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- work counts ----------------------------------------------------

    def _march_hook(self, a, field):
        penalty = a.get("penalty")
        self._march_keys.add(
            (
                a["spec"],
                a["grid"],
                a["kind"],
                a.get("penalty_kind"),
                tuple(penalty) if isinstance(penalty, (tuple, list)) else penalty,
                _terminal_key(a["terminal"]),
                a["t_hi"],
                a["cfl_margin"],
            )
        )
        if field is not None:
            self.counts["pde.node_levels"] += (len(field.times) - 1) * len(field.nodes)

    def _lattice_hook(self, a, lattice):
        self._lattice_keys.add((a["spec"], a["t0"], a["grid"], a["consistency_tol"]))
        if lattice is not None:
            self.counts["forwardsim.lattice_nodes"] += sum(lattice.counts)

    def _paths_hook(self, a, batch):
        self.counts["forwardsim.path_steps"] += int(a["n_paths"]) * int(a["n_steps"])

    def _backward_hook(self, a, solution):
        if solution is not None:
            self.counts["rbsde.node_steps"] += sum(len(y) for y in solution.y[:-1])

    # -- per-layer metrics ------------------------------------------------

    def _sum(self, names, column):
        return sum(self.spans[n][column] for n in names if n in self.spans)

    def _layer(self, prefix, column):
        return self._sum([n for n in self.spans if n.startswith(prefix)], column)

    def layer_metrics(self):
        """The pass's per-layer numbers, keyed by metric name."""
        marches = self._sum(MARCHES, 0)
        lattices = self._sum(["forwardsim.build_lattice"], 0)
        coefficients = [n for n in self.spans if n.startswith("problems.coeff.")]
        return {
            "pde.march_calls": marches,
            "pde.march_s": self._sum(MARCHES, 1),
            "pde.node_levels": self.counts["pde.node_levels"],
            "pde.march_failed": self._sum(MARCHES, 3),
            "pde.march_unique_ratio": len(self._march_keys) / marches if marches else 0.0,
            "pde.sweep_self_s": self._sum(["pde.run_penalization_sweep"], 2),
            "model.sigma_rows_calls": self._sum(["model.sigma_rows"], 0),
            "model.sigma_rows_s": self._sum(["model.sigma_rows"], 1),
            "model.validate_s": self._sum(["model.validate_problem"], 1),
            "model.isaacs_check_s": self._sum(["model.isaacs_condition_check"], 1),
            "problems.coeff_calls": self._sum(coefficients, 0),
            "problems.coeff_s": self._sum(coefficients, 1),
            "expressions.parse_s": self._sum(["expressions.parse_expression"], 1),
            "expressions.eval_calls": self._sum(["expressions.eval"], 0),
            "expressions.eval_s": self._sum(["expressions.eval"], 1),
            "forwardsim.build_lattice_calls": lattices,
            "forwardsim.build_lattice_s": self._sum(["forwardsim.build_lattice"], 1),
            "forwardsim.build_lattice_failed": self._sum(["forwardsim.build_lattice"], 3),
            "forwardsim.lattice_unique_ratio": (
                len(self._lattice_keys) / lattices if lattices else 0.0
            ),
            "forwardsim.lattice_nodes": self.counts["forwardsim.lattice_nodes"],
            "forwardsim.simulate_paths_s": self._sum(["forwardsim.simulate_paths"], 1),
            "forwardsim.path_steps": self.counts["forwardsim.path_steps"],
            "rbsde.solve_backward_calls": self._sum(["rbsde.solve_backward"], 0),
            "rbsde.solve_backward_s": self._sum(["rbsde.solve_backward"], 1),
            "rbsde.node_steps": self.counts["rbsde.node_steps"],
            "rbsde.estimates_self_s": self._sum(["rbsde.apriori_estimate_check"], 2),
            "rbsde.comparison_self_s": self._sum(["rbsde.comparison_check"], 2),
            "games.self_s": self._layer("games.", 2),
            "cli.self_s": self._layer("cli.", 2),
            "trace.spans": self._sum(list(self.spans), 0),
        }

    def span_table(self):
        """(name, calls, inclusive s, self s, raised), busiest first."""
        rows = [(name, *totals) for name, totals in self.spans.items()]
        return sorted(rows, key=lambda row: row[2], reverse=True)
