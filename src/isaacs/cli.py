"""Command line front end: INI-configured runs with reproducible outputs.

    isaacs run CONFIG --out DIR [--seed N] [--threads N] [--check NAME]...

A run resolves the problem (a builtin by name, or expression strings for a
custom one), executes the requested checks and writes into DIR:

    values_lower.csv   lower value field as t,x,value rows
    values_upper.csv   upper value field
    sweep.csv          penalization gaps per level
    verdict.json       per-check numbers and pass flags
    manifest.json      config echo, seed, thread count, package version,
                       sha256 of every data file, seconds per check, wall
                       clock

Every number is formatted with %.17g, newlines are LF and JSON keys are
sorted, so two runs with the same config and seed produce byte-identical
data files.  --threads (or ISAACS_THREADS) is recorded for provenance
only: the solvers are deterministic and single-threaded, and per-path
noise streams are keyed by path index, so the thread count cannot leak
into any result.

The exit status is 0 when every requested check passed, 1 when any
failed, 2 on configuration or usage errors.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import math
import os
import sys
import time

import numpy as np

from . import __version__, forwardsim, games, pde, problems, rbsde
from .model import PenalizationSchedule, SpaceTimeGrid, shifted_spec, validate_problem


class ConfigError(ValueError):
    """The INI file or the command line does not describe a valid run."""


CHECKS = (
    "validate",
    "game_value",
    "penalization",
    "dpp",
    "comparison",
    "crosscheck",
    "estimates",
    "forward",
)
DEFAULT_CHECKS = ("validate", "game_value", "penalization", "dpp")

_CUSTOM_KEYS = (
    "horizon",
    "b",
    "sigma",
    "driver",
    "terminal",
    "lower",
    "upper",
    "controls_i",
    "controls_ii",
    "lipschitz",
    "driver_lipschitz",
)
_SECTION_KEYS = {
    "problem": {"name", *_CUSTOM_KEYS},
    "grid": {"x_min", "x_max", "nx", "nt"},
    "penalization": {"levels"},
    "run": {"checks", "seed", "threads"},
}


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one run, round-trippable through INI text.

    `custom` holds the expression strings verbatim for a custom problem and
    is None for builtins; `grid` is (x_min, x_max, nx, nt) or None to use
    the builtin's pinned grid; `levels` overrides the penalty schedule.
    """

    problem: str
    custom: tuple | None
    grid: tuple | None
    levels: tuple | None
    checks: tuple
    seed: int
    threads: int | None

    def resolve(self):
        """Materialize (spec, grid, schedule) from the declaration."""
        if self.problem == "custom":
            fields = dict(self.custom)
            spec = problems.from_expressions(
                horizon=float(fields["horizon"]),
                b=fields["b"],
                sigma=fields["sigma"],
                driver=fields["driver"],
                terminal=fields["terminal"],
                lower=fields["lower"],
                upper=fields["upper"],
                controls_i=_parse_floats(fields["controls_i"]),
                controls_ii=_parse_floats(fields["controls_ii"]),
                lipschitz=float(fields["lipschitz"]),
                driver_lipschitz=float(fields["driver_lipschitz"]),
            )
            default_grid = None
            schedule = problems.DEFAULT_SCHEDULE
        else:
            bp = problems.builtin(self.problem)
            spec = bp.spec
            default_grid = bp.grid
            schedule = bp.schedule
        if self.grid is not None:
            x_min, x_max, nx, nt = self.grid
            grid = SpaceTimeGrid(x_min, x_max, nx, nt, spec.horizon)
        elif default_grid is not None:
            grid = default_grid
        else:
            raise ConfigError("a custom problem needs a [grid] section")
        if self.levels is not None:
            schedule = PenalizationSchedule(self.levels)
        return spec, grid, schedule

    def to_ini(self):
        """Canonical INI text; parse_config round-trips it exactly."""
        lines = ["[problem]", f"name = {self.problem}"]
        if self.custom is not None:
            lines.extend(f"{k} = {v}" for k, v in self.custom)
        if self.grid is not None:
            x_min, x_max, nx, nt = self.grid
            lines.extend(
                [
                    "",
                    "[grid]",
                    f"x_min = {x_min!r}",
                    f"x_max = {x_max!r}",
                    f"nx = {nx}",
                    f"nt = {nt}",
                ]
            )
        if self.levels is not None:
            lines.extend(
                ["", "[penalization]", "levels = " + ", ".join(repr(l) for l in self.levels)]
            )
        lines.extend(["", "[run]", "checks = " + ", ".join(self.checks)])
        lines.append(f"seed = {self.seed}")
        if self.threads is not None:
            lines.append(f"threads = {self.threads}")
        return "\n".join(lines) + "\n"


def _parse_floats(text):
    items = [p.strip() for p in str(text).split(",") if p.strip()]
    if not items:
        raise ConfigError(f"expected a comma-separated list of numbers, got {text!r}")
    try:
        return tuple(float(p) for p in items)
    except ValueError:
        raise ConfigError(f"bad number in list {text!r}")


def parse_config(text):
    """Parse INI text into an ExperimentConfig, rejecting unknown keys."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"INI syntax: {exc}")

    unknown_sections = set(cp.sections()) - set(_SECTION_KEYS)
    if unknown_sections:
        raise ConfigError(f"unknown section(s): {', '.join(sorted(unknown_sections))}")
    stray = [
        f"{key!r} in [{section}]"
        for section in cp.sections()
        for key in cp[section]
        if key not in _SECTION_KEYS[section]
    ]
    if stray:
        raise ConfigError("unknown key(s): " + ", ".join(stray))

    if "problem" not in cp or "name" not in cp["problem"]:
        raise ConfigError("missing [problem] section with a name")
    name = cp["problem"]["name"].strip()
    extra = set(cp["problem"]) - {"name"}
    if name == "custom":
        missing = [k for k in _CUSTOM_KEYS if k not in cp["problem"]]
        if missing:
            raise ConfigError(f"custom problem is missing: {', '.join(missing)}")
        custom = tuple((k, cp["problem"][k].strip()) for k in _CUSTOM_KEYS)
    else:
        if name not in problems.BUILTINS:
            raise ConfigError(
                f"unknown problem {name!r}; available: "
                + ", ".join(problems.BUILTINS)
                + ", custom"
            )
        if extra:
            raise ConfigError(
                f"key(s) {', '.join(sorted(extra))} are only valid for name = custom"
            )
        custom = None

    grid = None
    if "grid" in cp:
        missing = [k for k in ("x_min", "x_max", "nx", "nt") if k not in cp["grid"]]
        if missing:
            raise ConfigError(f"[grid] is missing: {', '.join(missing)}")
        try:
            grid = (
                float(cp["grid"]["x_min"]),
                float(cp["grid"]["x_max"]),
                int(cp["grid"]["nx"]),
                int(cp["grid"]["nt"]),
            )
        except ValueError as exc:
            raise ConfigError(f"bad [grid] value: {exc}")
    elif name == "custom":
        raise ConfigError("a custom problem needs a [grid] section")

    levels = None
    if "penalization" in cp:
        if "levels" not in cp["penalization"]:
            raise ConfigError("[penalization] is missing: levels")
        levels = _parse_floats(cp["penalization"]["levels"])
        try:
            PenalizationSchedule(levels)
        except ValueError as exc:
            raise ConfigError(str(exc))

    checks = DEFAULT_CHECKS
    seed = 0
    threads = None
    if "run" in cp:
        if "checks" in cp["run"]:
            checks = tuple(
                p.strip() for p in cp["run"]["checks"].split(",") if p.strip()
            )
            bad = [c for c in checks if c not in CHECKS]
            if bad:
                raise ConfigError(
                    f"unknown check(s) {', '.join(bad)}; available: {', '.join(CHECKS)}"
                )
            if not checks:
                raise ConfigError("checks list is empty")
        if "seed" in cp["run"]:
            try:
                seed = int(cp["run"]["seed"])
            except ValueError:
                raise ConfigError(f"seed must be an integer, got {cp['run']['seed']!r}")
            if seed < 0:
                raise ConfigError(f"seed must be nonnegative, got {seed}")
        if "threads" in cp["run"]:
            try:
                threads = int(cp["run"]["threads"])
            except ValueError:
                raise ConfigError(
                    f"threads must be an integer, got {cp['run']['threads']!r}"
                )
    return ExperimentConfig(
        problem=name,
        custom=custom,
        grid=grid,
        levels=levels,
        checks=checks,
        seed=seed,
        threads=threads,
    )


def _format_float(v):
    v = float(v)
    if math.isnan(v) or math.isinf(v):
        return f'"{v!r}"'
    return format(v, ".17g")


def _format_json(obj, indent=0):
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f'{inner}"{key}": {_format_json(obj[key], indent + 1)}'
            for key in sorted(obj)
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        parts = [f"{inner}{_format_json(item, indent + 1)}" for item in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(obj)
    if isinstance(obj, str):
        escaped = (
            obj.replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
            .replace("\t", "\\t")
        )
        return f'"{escaped}"'
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_text(out_dir, filename, text, outputs, quiet):
    path = os.path.join(out_dir, filename)
    data = text.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    outputs[filename] = hashlib.sha256(data).hexdigest()
    if not quiet:
        print(f"wrote {path}")


def _field_csv(field):
    # one % format per time level: the template holds every node's x and a
    # %.17g per value, which is _format_float on finite values; a level with
    # a nonfinite value is formatted value by value, to keep its quotes.
    # Formatting the whole field at once would keep 80k short strings alive.
    xs = [_format_float(x) for x in field.nodes.tolist()]
    template = "\n".join("{t}," + x + ",%.17g" for x in xs)
    lines = ["t,x,value"]
    for t, row in zip(field.times.tolist(), field.values):
        ts = _format_float(t)
        if np.isfinite(row).all():
            lines.append(template.replace("{t}", ts) % tuple(row.tolist()))
        else:
            lines.append(
                "\n".join(f"{ts},{x},{_format_float(v)}" for x, v in zip(xs, row.tolist()))
            )
    return "\n".join(lines) + "\n"


def _sweep_csv(report):
    lines = ["level,gap_above,gap_below,two_sided_gap"]
    for k, level in enumerate(report.levels):
        lines.append(
            ",".join(
                _format_float(v)
                for v in (
                    level,
                    report.gap_above[k],
                    report.gap_below[k],
                    report.two_sided_gap[k],
                )
            )
        )
    return "\n".join(lines) + "\n"


@dataclasses.dataclass(frozen=True)
class RunManifest:
    """Provenance record of one run.

    `timings` maps each check run to its seconds, data files included.
    They differ from run to run, so they are kept here and never in
    verdict.json.
    """

    version: str
    problem: str
    seed: int
    threads: int
    config: str
    checks: dict
    outputs: dict
    timings: dict
    wall_clock_s: float
    all_passed: bool


def _base_lattice(spec, grid, fields):
    """The lattice of the first control pair on `grid` from t = 0, built on
    first use and kept in `fields`."""
    if "lattice" not in fields:
        fields["lattice"] = forwardsim.build_lattice(spec, 0.0, grid)
    return fields["lattice"]


def _run_check(name, spec, grid, schedule, seed, out_dir, outputs, quiet, fields):
    """Execute one named check; returns a flat dict of JSON-safe numbers.

    `fields` carries what one check built to later checks of the same run:
    `penalization` takes the lower field `game_value` solved as its
    reference, `dpp` recomposes both fields instead of solving them again,
    and `comparison`, `crosscheck` and `estimates` share one base lattice.
    """
    if name == "validate":
        report = validate_problem(spec, seed=seed)
        return {
            "passed": bool(report.passed),
            "violations": len(report.violations),
            "samples": report.samples,
        }
    if name == "game_value":
        verdict = games.compute_values(spec, grid, seed=seed)
        fields.update(lower=verdict.lower, upper=verdict.upper)
        _write_text(out_dir, "values_lower.csv", _field_csv(verdict.lower), outputs, quiet)
        _write_text(out_dir, "values_upper.csv", _field_csv(verdict.upper), outputs, quiet)
        ok = verdict.order_violation <= 1e-10 and (
            verdict.max_gap <= verdict.value_tol if verdict.isaacs.satisfied else True
        )
        return {
            "passed": bool(ok),
            "has_value": bool(verdict.has_value),
            "isaacs_gap": verdict.isaacs.max_gap,
            "max_gap": verdict.max_gap,
            "order_violation": verdict.order_violation,
            "value_tol": verdict.value_tol,
        }
    if name == "penalization":
        report = pde.run_penalization_sweep(spec, grid, schedule, reference=fields.get("lower"))
        _write_text(out_dir, "sweep.csv", _sweep_csv(report), outputs, quiet)
        worst = max(
            report.monotone_violation_above,
            report.monotone_violation_below,
            report.sandwich_violation,
            report.diagonal_violation,
        )
        return {
            "passed": bool(worst <= 1e-9),
            "worst_violation": worst,
            "gap_ratio": report.gap_ratio,
            "final_gap": report.two_sided_gap[-1],
        }
    if name == "dpp":
        lo = games.dpp_check(spec, grid, "lower", full=fields.get("lower"))
        up = games.dpp_check(spec, grid, "upper", full=fields.get("upper"))
        return {
            "passed": bool(lo.passed and up.passed),
            "residual_lower": lo.max_residual,
            "residual_upper": up.max_residual,
            "split_time": lo.split_time,
        }
    if name == "comparison":
        lattice = _base_lattice(spec, grid, fields)
        lifted = shifted_spec(spec, 0.05, ("terminal", "driver"))
        report = rbsde.comparison_check(spec, lifted, lattice, lattice.controls, seed=seed)
        return {
            "passed": bool(report.passed),
            "conclusive": bool(report.conclusive),
            "max_y_violation": report.max_y_violation,
            "max_k_plus_violation": report.max_k_plus_violation,
            "max_k_minus_violation": report.max_k_minus_violation,
        }
    if name == "crosscheck":
        report = games.fixed_control_crosscheck(
            spec, grid, spec.control_pair(), base=_base_lattice(spec, grid, fields)
        )
        return {
            "passed": bool(report.passed),
            "max_diff": report.max_diff,
            "tolerance": report.tolerance,
        }
    if name == "estimates":
        report = rbsde.apriori_estimate_check(
            spec, grid, spec.control_pair(), base=_base_lattice(spec, grid, fields)
        )
        out = {"passed": bool(report.passed), "refinement": report.refinement}
        for key, val in report.constants.items():
            out[f"constant_{key}"] = val
        for key, val in report.ratios.items():
            out[f"ratio_{key}"] = val
        return out
    if name == "forward":
        report = forwardsim.check_forward_estimates(spec, seed=seed)
        return {
            "passed": bool(report.passed),
            "slope": report.slope,
            "terminal_ratios": list(report.terminal_ratios),
        }
    raise ConfigError(f"unknown check {name!r}")


def run(config, out_dir, seed=None, threads=None, checks=None, quiet=False):
    """Execute a configured run; returns the RunManifest.

    Explicit arguments override the config; the thread count falls back to
    ISAACS_THREADS and then to 1.  Data files and verdict.json are flushed
    as soon as each stage finishes, the manifest last.
    """
    started = time.monotonic()
    if seed is None:
        seed = config.seed
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    if threads is None:
        threads = config.threads
    if threads is None:
        env = os.environ.get("ISAACS_THREADS")
        if env is not None:
            try:
                threads = int(env)
            except ValueError:
                raise ConfigError(f"ISAACS_THREADS must be an integer, got {env!r}")
        else:
            threads = 1
    if threads < 1:
        raise ConfigError(f"thread count must be positive, got {threads}")
    if checks is None:
        checks = config.checks
    ordered = []
    for c in checks:
        if c not in CHECKS:
            raise ConfigError(f"unknown check {c!r}; available: {', '.join(CHECKS)}")
        if c not in ordered:
            ordered.append(c)

    try:
        spec, grid, schedule = config.resolve()
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc))

    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir!r}: {exc}")
    outputs = {}
    results = {}
    timings = {}
    fields = {}
    for name in ordered:
        check_started = time.monotonic()
        try:
            results[name] = _run_check(
                name, spec, grid, schedule, seed, out_dir, outputs, quiet, fields
            )
        except Exception as exc:  # a failed stage must not lose earlier output
            results[name] = {"passed": False, "error": f"{type(exc).__name__}: {exc}"}
        timings[name] = time.monotonic() - check_started
        if not quiet:
            print(f"check {name}: {'pass' if results[name]['passed'] else 'FAIL'}")
        _write_text(out_dir, "verdict.json", _format_json(results) + "\n", outputs, quiet=True)

    all_passed = all(r["passed"] for r in results.values())
    manifest = RunManifest(
        version=__version__,
        problem=config.problem,
        seed=seed,
        threads=threads,
        config=config.to_ini(),
        checks=results,
        outputs=dict(outputs),
        timings=timings,
        wall_clock_s=time.monotonic() - started,
        all_passed=all_passed,
    )
    _write_text(
        out_dir,
        "manifest.json",
        _format_json(dataclasses.asdict(manifest)) + "\n",
        outputs={},
        quiet=quiet,
    )
    return manifest


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="isaacs",
        description="solvers and structural checks for double-obstacle Isaacs equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute an INI-configured experiment")
    runp.add_argument("config", help="path to the INI file")
    runp.add_argument("--out", required=True, help="output directory")
    runp.add_argument("--seed", type=int, default=None, help="override the seed")
    runp.add_argument(
        "--threads",
        type=int,
        default=None,
        help="recorded thread count (results never depend on it)",
    )
    runp.add_argument(
        "--check",
        action="append",
        default=None,
        metavar="NAME",
        help=f"override configured checks, repeatable; one of: {', '.join(CHECKS)}",
    )
    runp.add_argument("--quiet", action="store_true", help="suppress progress lines")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text)
        manifest = run(
            config,
            args.out,
            seed=args.seed,
            threads=args.threads,
            checks=tuple(args.check) if args.check else None,
            quiet=args.quiet,
        )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if manifest.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
