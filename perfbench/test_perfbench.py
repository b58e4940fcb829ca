"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

One untraced and one traced pass of every workload (about a minute): the
traced run must write the same bytes as the untraced one and as the
committed reference, and neither process may leave an `isaacs` attribute
patched.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def work_dir():
    path = tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_traced_pass_is_output_neutral(workload, work_dir):
    deadline = run.time.monotonic() + 600.0
    reference = run._load_json(run.REFERENCE)
    seed = reference["seed"]
    plain = run._passes(workload, seed, 0.0, 1, False, work_dir, deadline)
    traced = run._passes(workload, seed, 0.0, 1, True, work_dir, deadline)

    assert plain["unpatched"] and traced["unpatched"]
    assert "layers" not in plain["passes"][0]
    assert traced["passes"][0]["layers"]["trace.spans"] > 0

    files = {label: r["files"] for label, r in plain["passes"][0]["configs"].items()}
    assert files == reference["workloads"][workload]
    assert {label: r["files"] for label, r in traced["passes"][0]["configs"].items()} == files

    tally, problems = run.verify(workload, seed, plain["passes"] + traced["passes"], reference)
    assert problems == []
    assert tally["attempted"] == 2 * len(files) and tally["failed"] == 0


def _one_pass_result(workload, seed, files, checks_passed=True):
    return {
        "configs": {
            label: {
                "error": None,
                "files": dict(files[label]),
                "checks": {name: checks_passed for name in checks},
            }
            for label, _, checks in workloads.configs(workload, seed)
        }
    }


def test_verify_counts_wrong_bytes_against_the_config():
    reference = run._load_json(run.REFERENCE)
    files = reference["workloads"]["default_checks"]
    good = _one_pass_result("default_checks", 0, files)
    bad = _one_pass_result("default_checks", 0, files)
    bad["configs"]["dynkin_heat"]["files"]["sweep.csv"] = "0" * 64

    tally, problems = run.verify("default_checks", 0, [good, bad], reference)
    assert tally == {"attempted": 12, "failed": 1, "checks": 48, "checks_passed": 44}
    assert len(problems) == 1 and "sweep.csv differs from the reference" in problems[0]


def test_verdict_must_repeat_across_passes_at_other_seeds():
    reference = run._load_json(run.REFERENCE)
    files = reference["workloads"]["default_checks"]
    first = _one_pass_result("default_checks", 7, files)
    first["configs"]["custom"]["files"]["verdict.json"] = "a" * 64
    second = _one_pass_result("default_checks", 7, files)
    second["configs"]["custom"]["files"]["verdict.json"] = "b" * 64

    tally, problems = run.verify("default_checks", 7, [first], reference)
    assert tally["failed"] == 0 and problems == []
    tally, problems = run.verify("default_checks", 7, [first, second], reference)
    assert tally["failed"] == 1 and "differ from the run's first pass" in problems[0]


def test_refuses_to_run_without_the_package(work_dir):
    bare = os.path.join(work_dir, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    with open(os.path.join(bare, "BENCHMARK.json"), encoding="utf-8") as fh:
        command = json.load(fh)["command"]
    proc = subprocess.run(
        [*command, "--workload", "lattice_checks", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
