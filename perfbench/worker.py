"""One workload process of the benchmark; `run.py` starts it and reads its result.

    python3 perfbench/worker.py passes --workload W --seed N --seconds S [--min-passes K] [--traced]
    python3 perfbench/worker.py setup  --workload W --seed N

`passes` runs the workload's configs through `isaacs.cli.run` in a closed
loop, one config at a time, each into a fresh directory, with
`quiet=True`.  It stops starting passes once the next one would end after
S seconds (by the median pass so far), after at least K passes.  Only the
`cli.run` calls are timed; hashing and deleting their outputs are not.
With `--traced` the spans of `tracer.py` are installed first and each pass
also reports its per-layer numbers.

`setup` times, in this fresh interpreter, what every `isaacs run` pays
before its first check: `import isaacs`, then `parse_config` and
`ExperimentConfig.resolve()` for the workload's configs.

Both expect the repository root as the working directory, with the package
under `src/`; `run.py` arranges both.  The last stdout line is one JSON
object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

import workloads

def _setup(args):
    configs = workloads.configs(args.workload, args.seed)
    started = time.perf_counter()
    from isaacs import cli

    for _, text, _ in configs:
        cli.parse_config(text).resolve()
    return {"setup_s": time.perf_counter() - started}


def _digests(out_dir):
    """sha256 of every file the run wrote, except the manifest (wall clock)."""
    files = {}
    size = 0
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        size += len(data)
        if name != "manifest.json":
            files[name] = hashlib.sha256(data).hexdigest()
    return files, size


def _run_config(cli, label, config, checks, seed, work_dir):
    """One `cli.run` into a fresh directory: its seconds and what it wrote."""
    out_dir = tempfile.mkdtemp(prefix=f"{label}-", dir=work_dir)
    gc.collect()
    manifest = error = None
    started = time.perf_counter()
    try:
        manifest = cli.run(config, out_dir, seed=seed, quiet=True)
    except Exception as exc:  # recorded and counted as a failed operation
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - started
    files, size = _digests(out_dir)
    shutil.rmtree(out_dir)
    return {
        "seconds": seconds,
        "error": error,
        "files": files,
        "bytes": size,
        "checks": {
            name: bool(manifest.checks[name]["passed"]) if manifest else False
            for name in checks
        },
    }


def _pass(results):
    return {
        "wall_s": sum(r["seconds"] for r in results.values()),
        "bytes_written": sum(r["bytes"] for r in results.values()),
        "configs": results,
    }


def _passes(args):
    import numpy as np
    import tracer

    from isaacs import cli

    src = os.path.abspath("src")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"isaacs was imported from {cli.__file__}, not from {src}")
    configs = [
        (label, cli.parse_config(text), checks)
        for label, text, checks in workloads.configs(args.workload, args.seed)
    ]
    before = tracer.attribute_snapshot()
    spans = None
    if args.traced:
        spans = tracer.Tracer()
        spans.install()

    work_dir = tempfile.mkdtemp(prefix="passes-", dir=args.work_dir)
    passes = []
    started = time.perf_counter()
    try:
        while True:
            if spans is not None:
                spans.reset()
            results = {
                label: _run_config(cli, label, config, checks, args.seed, work_dir)
                for label, config, checks in configs
            }
            passes.append(_pass(results))
            if spans is not None:
                passes[-1]["layers"] = spans.layer_metrics()
                passes[-1]["layers"]["cli.bytes_written"] = passes[-1]["bytes_written"]
                passes[-1]["spans"] = spans.span_table()
            elapsed = time.perf_counter() - started
            typical = statistics.median(p["wall_s"] for p in passes)
            if len(passes) >= args.min_passes and elapsed + typical > args.seconds:
                break
    finally:
        if spans is not None:
            spans.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)
    return {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "unpatched": tracer.attribute_snapshot() == before,
        "environment": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas_threads": {
                k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")
            },
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("passes", "setup"))
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--min-passes", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--work-dir", default=".")
    args = parser.parse_args(argv)
    print(json.dumps(_setup(args) if args.mode == "setup" else _passes(args)))


if __name__ == "__main__":
    main()
