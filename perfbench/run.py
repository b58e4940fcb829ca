"""Benchmark of `isaacs run` (`isaacs.cli.run`) over two workloads.

Run from the repository root:

    python3 perfbench/run.py --workload default_checks --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seconds 55      # every workload, both modes
    python3 perfbench/run.py --update-reference               # rewrite reference.json

Workloads are defined in `workloads.py`; each is a fixed list of INI
configs whose only varying input is the seed.  Everything runs on one
thread: the BLAS thread variables are set to 1 for every child process.

`--trace 0` reports the end-to-end metrics:

    wall_s            seconds of one closed-loop pass over the configs: the
                      sum over configs of each config's median `cli.run`
                      time over the passes of one fresh workload process
                      (at least two passes)
    setup_s           median over fresh interpreters of `import isaacs` plus
                      parse_config and resolve() for the workload's configs
    peak_rss_mb       peak resident set of the workload process
    check_pass_ratio  passed (config, check) pairs over pairs attempted; a
                      config whose outputs are wrong counts all its checks
                      as failed

`--trace 1` runs one untraced and one traced workload process (half the
seconds each) and reports the per-layer metrics of `tracer.py`, medians
over the traced passes, plus `trace.overhead_s`, the traced minus the
untraced pass seconds (each measured as wall_s is).

Outputs are checked in every pass.  The sha256 of each file a config writes
(all but manifest.json, which holds the wall clock) must match
`reference.json`, recorded at seed 0; at other seeds verdict.json carries
seed-dependent samples, so it is instead required to be identical in every
pass of the run, traced or not.  The data files do not depend on the seed
and are compared with the reference at every seed.  A config run that
raises or writes wrong bytes is a failed operation.

The last stdout line is the JSON result; the lines before it are for
people.  Exit status 2 means the benchmark could not run (for instance no
`src/isaacs` to run), and no result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
REFERENCE = os.path.join(HERE, "reference.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
REFERENCE_SEED = 0
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_PROBES = 10
TIME_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark itself could not run."""


def _child_env():
    env = dict(os.environ)
    env.update({name: "1" for name in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # byte-compile once, as an installed package would be
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _worker(args, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a workload process")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args],
            cwd=ROOT,
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload process timed out: {' '.join(args)}")
    if proc.returncode != 0:
        raise BenchError(
            f"workload process failed ({proc.returncode}): {' '.join(args)}\n"
            + proc.stderr[-3000:]
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _setup_s(workload, seed, count, deadline):
    args = ["setup", "--workload", workload, "--seed", str(seed)]
    return [_worker(args, deadline)["setup_s"] for _ in range(count)]


def _passes(workload, seed, seconds, min_passes, traced, work_dir, deadline):
    """One `worker.py passes` process."""
    args = [
        "passes",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(seconds),
        "--min-passes", str(min_passes),
        "--work-dir", work_dir,
    ]
    return _worker(args + (["--traced"] if traced else []), deadline)


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _declared_units(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    declared = _load_json(BENCHMARK)["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in declared}


def verify(workload, seed, passes, reference):
    """Check every config run of every pass; returns a tally and the problems.

    The tally counts config runs (attempted, failed) and (config, check)
    pairs (checks, checks_passed).
    """
    expected_files = reference["workloads"][workload]
    expected_checks = {label: checks for label, _, checks in workloads.configs(workload, seed)}
    tally = {"attempted": 0, "failed": 0, "checks": 0, "checks_passed": 0}
    problems = []
    first = {}
    for index, p in enumerate(passes):
        for label, checks in expected_checks.items():
            r = p["configs"].get(label)
            tally["attempted"] += 1
            tally["checks"] += len(checks)
            wrong = []
            if r is None:
                wrong.append("no result")
            else:
                expected = expected_files[label]
                if r["error"]:
                    wrong.append(r["error"])
                if sorted(r["files"]) != sorted(expected):
                    wrong.append(f"wrote {sorted(r['files'])}, expected {sorted(expected)}")
                for name, digest in sorted(r["files"].items()):
                    if name == "verdict.json" and seed != reference["seed"]:
                        continue
                    if expected.get(name, digest) != digest:
                        wrong.append(f"{name} differs from the reference")
                if first.setdefault(label, r["files"]) != r["files"]:
                    wrong.append("outputs differ from the run's first pass")
                if list(r["checks"]) != list(checks):
                    wrong.append(f"ran checks {list(r['checks'])}, expected {list(checks)}")
            if wrong:
                tally["failed"] += 1
                problems.append(f"pass {index} {label}: " + "; ".join(wrong))
            else:
                tally["checks_passed"] += sum(r["checks"].values())
    return tally, problems


def _environment():
    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": None,
        "commit": None,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if proc.returncode == 0:
            env["commit"] = proc.stdout.strip()
    return env


def _seconds(one_pass):
    return round(sum(r["seconds"] for r in one_pass["configs"].values()), 4)


def _per_pass(passes):
    """Seconds of one pass: the sum over configs of each config's median."""
    labels = passes[0]["configs"]
    return sum(statistics.median(p["configs"][label]["seconds"] for p in passes) for label in labels)


def run_workload(workload, seed, seconds, trace, reference, deadline, out):
    """One benchmark run; returns (tally, problems, metrics)."""
    work_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if not trace:
            # the first interpreter writes the bytecode caches and is not
            # counted; the rest are split around the passes so that a slow
            # spell of the machine weighs less on the median
            setup = _setup_s(workload, seed, 1 + SETUP_PROBES // 2, deadline)[1:]
            result = _passes(workload, seed, seconds, 2, False, work_dir, deadline)
            setup += _setup_s(workload, seed, SETUP_PROBES - len(setup), deadline)
            passes = result["passes"]
            tally, problems = verify(workload, seed, passes, reference)
            walls = [_seconds(p) for p in passes]
            q1, _, q3 = statistics.quantiles(walls, n=4)
            out(f"passes {len(walls)}: {walls}; median {statistics.median(walls):.4f},"
                f" quartiles {q1:.4f} .. {q3:.4f}")
            out(f"setup interpreters {len(setup)}: {[round(t, 4) for t in setup]}")
            metrics = {
                "wall_s": _per_pass(passes),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": result["peak_rss_mb"],
                "check_pass_ratio": tally["checks_passed"] / tally["checks"],
            }
            results = [result]
        else:
            plain = _passes(workload, seed, seconds / 2, 1, False, work_dir, deadline)
            traced = _passes(workload, seed, seconds / 2, 1, True, work_dir, deadline)
            tally, problems = verify(workload, seed, plain["passes"] + traced["passes"], reference)
            names = list(traced["passes"][0]["layers"])
            metrics = {
                name: statistics.median(p["layers"][name] for p in traced["passes"])
                for name in names
            }
            untraced_wall = _per_pass(plain["passes"])
            traced_wall = _per_pass(traced["passes"])
            metrics["trace.overhead_s"] = traced_wall - untraced_wall
            out(f"untraced passes {len(plain['passes'])}, {untraced_wall:.4f} s;"
                f" traced passes {len(traced['passes'])}, {traced_wall:.4f} s")
            out("spans of the last traced pass (name, calls, inclusive s, self s, raised):")
            for name, calls, inclusive, self_s, raised in traced["passes"][-1]["spans"]:
                out(f"  {name:44s} {calls:8d} {inclusive:10.4f} {self_s:10.4f} {raised:4d}")
            results = [plain, traced]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for r in results:
        if not r["unpatched"]:
            problems.append("an isaacs attribute was left patched after the passes")
    out(f"environment: {json.dumps({**_environment(), **results[0]['environment']})}")
    last = results[0]["passes"][-1]["configs"]
    for label, r in last.items():
        out(f"  {label:16s} " + " ".join(f"{k}={'pass' if v else 'FAIL'}" for k, v in r["checks"].items()))
    out(f"configs run {tally['attempted']}, failed {tally['failed']};"
        f" checks passed {tally['checks_passed']}/{tally['checks']}")
    for line in problems:
        out("PROBLEM " + line)
    units = _declared_units(trace)
    if sorted(metrics) != sorted(units):
        raise BenchError(f"measured {sorted(metrics)}, BENCHMARK.json declares {sorted(units)}")
    for name, unit in units.items():
        out(f"{workload} {name} = {metrics[name]!r} {unit}")
    return tally, problems, {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}


def update_reference(deadline):
    out = {"seed": REFERENCE_SEED, "workloads": {}}
    work_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        for workload in workloads.NAMES:
            result = _passes(workload, REFERENCE_SEED, 0.0, 1, False, work_dir, deadline)
            configs = result["passes"][0]["configs"]
            errors = {label: r["error"] for label, r in configs.items() if r["error"]}
            if errors:
                raise BenchError(f"{workload}: config runs raised {errors}")
            out["workloads"][workload] = {label: r["files"] for label, r in configs.items()}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE}")


def main(argv=None):
    parser = argparse.ArgumentParser(description="benchmark of `isaacs run`")
    parser.add_argument("--workload", choices=(*workloads.NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-reference", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "isaacs", "__init__.py")):
        print(f"error: no package to benchmark at {os.path.join(ROOT, 'src', 'isaacs')}",
              file=sys.stderr)
        return 2
    started = time.monotonic()
    try:
        if args.update_reference:
            update_reference(started + 3600.0)
            return 0
        reference = _load_json(REFERENCE)
        if args.workload == "all":
            runs = [(w, t) for w in workloads.NAMES for t in (0, 1)]
            deadline = started + 3600.0 * len(runs)
        else:
            runs = [(args.workload, args.trace)]
            deadline = started + TIME_LIMIT_S
        attempted = failed = 0
        correct = True
        metrics = {}
        for workload, trace in runs:
            print(f"== {workload} seed {args.seed} trace {trace}", flush=True)
            tally, problems, found = run_workload(
                workload, args.seed, args.seconds, trace, reference, deadline,
                lambda line: print(line, flush=True),
            )
            attempted += tally["attempted"]
            failed += tally["failed"]
            correct = correct and not problems
            prefix = f"{workload}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in found.items()})
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
