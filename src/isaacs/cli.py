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
data files.  The two value files are written together, level by level, and
a row repeated in the other field or from the previous level has its text
formatted once.  --threads (or ISAACS_THREADS) is recorded for provenance
only: the solvers are deterministic and single-threaded, and per-path
noise streams are keyed by path index, so the thread count cannot leak
into any result.

The exit status is 0 when every requested check passed, 1 when any
failed, 2 on configuration or usage errors.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import dataclasses
import hashlib
import inspect
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, forwardsim, games, pde, problems, rbsde
from .model import PenalizationSchedule, SpaceTimeGrid, Variant, shifted_spec, validate_problem


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

_CUSTOM_KEYS = tuple(inspect.signature(problems.from_expressions).parameters)
# [grid]'s keys in order, each with the type its value is read as
_GRID_KEYS = {"x_min": float, "x_max": float, "nx": int, "nt": int}
_SECTION_KEYS = {
    "problem": {"name", *_CUSTOM_KEYS},
    "grid": set(_GRID_KEYS),
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
            for key in ("controls_i", "controls_ii"):
                fields[key] = _parse_floats(fields[key])
            spec = problems.from_expressions(**fields)
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
            # a continuation line is indented, a blank one included
            lines.extend(f"{k} = {v}".replace("\n", "\n    ") for k, v in self.custom)
        if self.grid is not None:
            lines.extend(["", "[grid]", *(f"{k} = {v!r}" for k, v in zip(_GRID_KEYS, self.grid))])
        if self.levels is not None:
            lines.extend(
                ["", "[penalization]", "levels = " + ", ".join(repr(l) for l in self.levels)]
            )
        lines.extend(["", "[run]", "checks = " + ", ".join(self.checks)])
        lines.append(f"seed = {self.seed}")
        if self.threads is not None:
            lines.append(f"threads = {self.threads}")
        return "\n".join(lines) + "\n"


def _items(text):
    """The nonblank items of the comma-separated list `text`, stripped."""
    return [p.strip() for p in str(text).split(",") if p.strip()]


def _parse_floats(text):
    items = _items(text)
    if not items:
        raise ConfigError(f"expected a comma-separated list of numbers, got {text!r}")
    try:
        return tuple(float(p) for p in items)
    except ValueError:
        raise ConfigError(f"bad number in list {text!r}")


def _check_list(checks):
    """`checks` as a tuple, once it names at least one check and only known ones."""
    checks = tuple(checks)
    bad = [c for c in checks if c not in CHECKS]
    if bad:
        raise ConfigError(f"unknown check(s) {', '.join(bad)}; available: {', '.join(CHECKS)}")
    if not checks:
        raise ConfigError("checks list is empty")
    return checks


def _require(cp, section, keys):
    """Refuse a [section] of `cp` that lacks any of `keys`, naming them."""
    missing = [k for k in keys if k not in cp[section]]
    if missing:
        raise ConfigError(f"[{section}] is missing: {', '.join(missing)}")


def _integer(section, key):
    """`section[key]` as an int, refused by name when it is not one."""
    try:
        return int(section[key])
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {section[key]!r}")


def parse_config(text):
    """Parse INI text into an ExperimentConfig, rejecting unknown keys."""
    # no header can name a section "\n", so [DEFAULT] is a section like any
    # other, and refused as unknown, not read into every other section
    cp = configparser.ConfigParser(interpolation=None, default_section="\n")
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
        _require(cp, "grid", _GRID_KEYS)
        try:
            grid = tuple(kind(cp["grid"][key]) for key, kind in _GRID_KEYS.items())
        except ValueError as exc:
            raise ConfigError(f"bad [grid] value: {exc}")
    elif name == "custom":
        raise ConfigError("a custom problem needs a [grid] section")

    levels = None
    if "penalization" in cp:
        _require(cp, "penalization", ("levels",))
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
            checks = _check_list(_items(cp["run"]["checks"]))
        if "seed" in cp["run"]:
            seed = _integer(cp["run"], "seed")
            _check_seed(seed)
        if "threads" in cp["run"]:
            threads = _integer(cp["run"], "threads")
    return ExperimentConfig(
        problem=name,
        custom=custom,
        grid=grid,
        levels=levels,
        checks=checks,
        seed=seed,
        threads=threads,
    )


def _check_seed(seed):
    # the forward check keys its path noise by 64 bits of the seed, so a
    # larger seed would alias a smaller one
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    if seed >= 2**64:
        raise ConfigError(f"seed must be below 2**64, got {seed}")


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
            f"{inner}{json.encoder.encode_basestring(key)}: {_format_json(obj[key], indent + 1)}"
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
        return json.encoder.encode_basestring(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_text(out_dir, filenames, steps, outputs, quiet):
    """Write the files `filenames` together: each step holds one string
    chunk per file.  Each file is hashed on its own, and only one chunk is
    held as bytes.  A file that cannot be written is a ConfigError naming
    it, and the files this call opened are removed, not left empty or cut
    short."""
    paths = [os.path.join(out_dir, name) for name in filenames]
    digests = [hashlib.sha256() for _ in filenames]
    handles = []
    try:
        with contextlib.ExitStack() as stack:
            for path in paths:
                handles.append(stack.enter_context(open(path, "wb")))
            for chunks in steps:
                for chunk, digest, fh in zip(chunks, digests, handles):
                    data = chunk.encode("utf-8")
                    digest.update(data)
                    fh.write(data)
    except OSError as exc:  # a failed open names its file, a failed write none
        for path in paths[: len(handles)]:
            with contextlib.suppress(OSError):
                os.remove(path)
        failed = exc.filename or " and ".join(paths)
        raise ConfigError(f"cannot write output file {failed!r}: {exc.strerror}")
    for name, path, digest in zip(filenames, paths, digests):
        outputs[name] = digest.hexdigest()
        if not quiet:
            print(f"wrote {path}")


def _value_csvs(lower, upper):
    """The text of values_lower.csv and values_upper.csv, written together:
    the header, then one (lower, upper) pair of chunks per time level.

    A row is keyed on its bytes, and a row whose bytes match the other
    field's row at this level or a row at the previous level reuses that
    row's text, with only the t column substituted again: under the Isaacs
    condition the two fields are often bitwise equal, and a stationary
    field repeats its rows.  Bytes, not values, since -0.0 prints "-0" and
    NaN equals nothing.  Any other row takes one % format through a
    template holding every node's x and a %.17g per value, which is
    _format_float on finite values; a row with a nonfinite value is
    formatted value by value, to keep its quotes.  The t column goes in
    last, and no formatted number holds the "{t}" it replaces.  At most two
    levels' texts are held, never a whole field.
    """
    if not all(
        a.shape == b.shape and a.tobytes() == b.tobytes()
        for a, b in ((lower.times, upper.times), (lower.nodes, upper.nodes))
    ):
        raise ValueError("the lower and upper fields do not share times and nodes")
    xs = [_format_float(x) for x in lower.nodes.tolist()]
    template = "\n".join("{t}," + x + ",%.17g" for x in xs) + "\n"

    def row_text(row):
        if np.isfinite(row).all():
            return template % tuple(row.tolist())
        return "".join(f"{{t}},{x},{_format_float(v)}\n" for x, v in zip(xs, row.tolist()))

    yield "t,x,value\n", "t,x,value\n"
    previous = {}
    for t, *rows in zip(lower.times.tolist(), lower.values, upper.values):
        ts = _format_float(t)
        texts, chunks = {}, {}
        keys = [row.tobytes() for row in rows]
        for key, row in zip(keys, rows):
            if key not in texts:
                text = previous.get(key)
                texts[key] = row_text(row) if text is None else text
                chunks[key] = texts[key].replace("{t}", ts)
        previous = texts
        yield tuple(chunks[key] for key in keys)


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

    `timings` maps each check run to its seconds, data files included;
    the run's one march counts toward the first check that needs it.
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


def _rows(check, grid, schedule):
    """The march rows `check` reads, by name, in the order its report reads
    them; {} for a check that marches nothing.  A dpp head names its join as
    (source row, split level), and dpp raises on a grid with no inner level.
    """
    lower = {"lower": pde.two_barrier_row("lower", None)}
    if check == "game_value":
        return lower | {"upper": pde.two_barrier_row("upper", None)}
    if check == "penalization":
        return lower | {f"sweep_{i}": row for i, row in enumerate(pde.sweep_rows(schedule))}
    if check == "dpp":
        _, level = games.dpp_split(grid, None)
        return {
            name: pde.two_barrier_row(kind, join)
            for kind in ("lower", "upper")
            for name, join in ((kind, None), (f"head_{kind}", (kind, level)))
        }
    return {}


def _march_fields(spec, grid, schedule, checks):
    """The rows that `checks` read, marched together once and stacked in
    order of first use, each join's source row name turned into its stack
    index: maps each row's name to its ValueField or its failure.  A check
    whose rows cannot be named adds none; it raises that error itself when
    it runs.  With penalization among `checks`, "sweep" maps to the
    `pde.SweepStatistics` the march fed level by level, and each sweep row
    that did not fail maps to None, as its field is not stored.
    """
    rows = {}
    for check in checks:
        with contextlib.suppress(ValueError):
            rows.update(_rows(check, grid, schedule))
    names = list(rows)
    stack = [
        (kind, variant, label, join and (names.index(join[0]), join[1]))
        for kind, variant, label, join in rows.values()
    ]
    readers = {}
    if "penalization" in checks:
        read = [names.index(name) for name in _rows("penalization", grid, schedule)]
        readers["sweep"] = pde.SweepStatistics(schedule, read)
    return dict(zip(names, pde.march_rows(spec, grid, stack, readers.get("sweep")))) | readers


# the reader of the base-lattice walk that each lattice check reports from,
# made from (spec, lattice, seed)
_LATTICE_READERS = {
    "comparison": lambda spec, lattice, seed: rbsde.ComparisonReader(
        spec, shifted_spec(spec, 0.05, ("terminal", "driver")), "two_barrier", 64, seed
    ),
    "crosscheck": lambda spec, lattice, seed: games.CrosscheckReader(spec, lattice),
    "estimates": lambda spec, lattice, seed: rbsde.EstimateReader(
        spec, lattice, rbsde.PERTURBATION
    ),
}


def _walk_lattice(spec, lattice, checks, seed):
    """The readers of the lattice checks among `checks`, fed by one
    two-barrier walk of `lattice` that carries only the rows they read, the
    lattice twin of `_march_fields`: maps each such check to its reader or
    to its failure.  A reader that cannot be made (its sampled hypotheses
    or its march raise) is that check's failure and reads no row; a row's
    failure, or a reader's own, fails only the checks that read it.
    """
    readers = {}
    for check in (c for c in checks if c in _LATTICE_READERS):
        try:
            readers[check] = _LATTICE_READERS[check](spec, lattice, seed)
        except ValueError as exc:
            readers[check] = exc
    walked = {name: r for name, r in readers.items() if not isinstance(r, Exception)}
    failures = rbsde.read_walk(lattice, Variant.named("two_barrier"), list(walked.values()))
    return readers | {name: f for name, f in zip(walked, failures) if f is not None}


def _run_check(name, checks, spec, grid, schedule, seed, out_dir, outputs, quiet, fields):
    """Execute one named check; returns a flat dict of JSON-safe numbers.

    `fields` carries what one check built to later checks of the same run.
    The first check that reads march rows marches the rows of every check
    in `checks` at once (see `_rows`), and each check builds its report from
    its own fields, failing with the first failure among them in its own
    row order.  `comparison`, `crosscheck` and `estimates` share one base
    lattice, the first control pair on `grid` from t = 0, and one walk of
    it: the first of them builds the lattice, makes the reader of every
    lattice check in `checks` and walks their rows at once (see
    `_walk_lattice`), and each reports from its own reader, or fails with
    its own first failure.  Only the verdict is built here: the refined
    lattice of `estimates` and the march of `crosscheck` are their readers'.
    """
    rows = _rows(name, grid, schedule)
    if not rows.keys() <= fields.keys():
        fields.update(_march_fields(spec, grid, schedule, checks))
    marched = pde.raise_first_failure([fields[row] for row in rows])
    if name in _LATTICE_READERS:
        if "lattice" not in fields:
            lattice = forwardsim.build_lattice(spec, 0.0, grid)
            fields.update(_walk_lattice(spec, lattice, checks, seed), lattice=lattice)
        (reader,) = pde.raise_first_failure([fields[name]])
        report = reader.report()
    if name == "validate":
        report = validate_problem(spec, seed=seed)
        return {
            "passed": bool(report.passed),
            "violations": len(report.violations),
            "samples": report.samples,
        }
    if name == "game_value":
        lower, upper = marched
        verdict = games.value_verdict(spec, grid, lower, upper, seed)
        _write_text(
            out_dir,
            ("values_lower.csv", "values_upper.csv"),
            _value_csvs(lower, upper),
            outputs,
            quiet,
        )
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
        report = fields["sweep"].report()
        _write_text(out_dir, ("sweep.csv",), [(_sweep_csv(report),)], outputs, quiet)
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
        split, _ = games.dpp_split(grid, None)
        lo, up = (
            games.dpp_report(full.label, split, full, head)
            for full, head in (marched[:2], marched[2:])
        )
        return {
            "passed": bool(lo.passed and up.passed),
            "residual_lower": lo.max_residual,
            "residual_upper": up.max_residual,
            "split_time": lo.split_time,
        }
    if name == "comparison":
        return {
            "passed": bool(report.passed),
            "conclusive": bool(report.conclusive),
            "max_y_violation": report.max_y_violation,
            "max_k_plus_violation": report.max_k_plus_violation,
            "max_k_minus_violation": report.max_k_minus_violation,
        }
    if name == "crosscheck":
        return {
            "passed": bool(report.passed),
            "max_diff": report.max_diff,
            "tolerance": report.tolerance,
        }
    if name == "estimates":
        out = {"passed": bool(report.passed), "refinement": report.refinement}
        for key, val in report.constants.items():
            out[f"constant_{key}"] = val
        for key, val in report.ratios.items():
            out[f"ratio_{key}"] = val
        return out
    # the one check left, forward
    report = forwardsim.check_forward_estimates(spec, seed=seed)
    return {
        "passed": bool(report.passed),
        "slope": report.slope,
        "terminal_ratios": list(report.terminal_ratios),
    }


def run(config, out_dir, seed=None, threads=None, checks=None, quiet=False):
    """Execute a configured run; returns the RunManifest.

    Explicit arguments override the config; the thread count falls back to
    ISAACS_THREADS and then to 1.  Data files and verdict.json are flushed
    as soon as each stage finishes, the manifest last.
    """
    started = time.monotonic()
    if seed is None:
        seed = config.seed
    _check_seed(seed)
    if threads is None:
        threads = config.threads
    if threads is None:
        threads = _integer(os.environ, "ISAACS_THREADS") if "ISAACS_THREADS" in os.environ else 1
    if threads < 1:
        raise ConfigError(f"thread count must be positive, got {threads}")
    ordered = list(dict.fromkeys(_check_list(config.checks if checks is None else checks)))

    try:
        spec, grid, schedule = config.resolve()
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
                name, ordered, spec, grid, schedule, seed, out_dir, outputs, quiet, fields
            )
        except ConfigError:  # an output file that cannot be written ends the run
            raise
        except Exception as exc:  # a failed stage must not lose earlier output
            results[name] = {"passed": False, "error": f"{type(exc).__name__}: {exc}"}
        timings[name] = time.monotonic() - check_started
        if not quiet:
            print(f"check {name}: {'pass' if results[name]['passed'] else 'FAIL'}")
        _write_text(
            out_dir, ("verdict.json",), [(_format_json(results) + "\n",)], outputs, quiet=True
        )

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
        ("manifest.json",),
        [(_format_json(dataclasses.asdict(manifest)) + "\n",)],
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
