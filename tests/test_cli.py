"""Config parsing, run outputs, determinism and exit codes of the CLI."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import isaacs
from isaacs.cli import ConfigError, _field_csv, _format_float, main, parse_config, run

MINIMAL = """\
[problem]
name = constant
"""

CUSTOM = """\
[problem]
name = custom
horizon = 0.5
b = 0
sigma = 1
driver = 0
terminal = max(0, 1 - abs(x))
lower = 0 - 2
upper = 2
controls_i = 0
controls_ii = 0
lipschitz = 1
driver_lipschitz = 0

[grid]
x_min = -4.0
x_max = 4.0
nx = 81
nt = 100

[run]
checks = validate, dpp
seed = 7
"""


def test_minimal_config_fills_in_defaults():
    config = parse_config(MINIMAL)
    assert config.problem == "constant"
    assert config.custom is None and config.grid is None and config.levels is None
    assert config.checks == ("validate", "game_value", "penalization", "dpp")
    assert config.seed == 0 and config.threads is None
    spec, grid, schedule = config.resolve()
    assert grid.nx == 201 and grid.nt == 400
    assert tuple(schedule) == (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


def test_custom_config_resolves_expressions():
    config = parse_config(CUSTOM)
    assert config.problem == "custom"
    assert config.checks == ("validate", "dpp")
    spec, grid, schedule = config.resolve()
    assert spec.horizon == 0.5
    assert grid.nx == 81
    x = np.array([-0.5, 0.0, 2.0])
    assert np.array_equal(
        spec.coefficients.terminal(x), np.maximum(0.0, 1.0 - np.abs(x))
    )


def test_config_round_trips_through_ini_text():
    for text in (MINIMAL, CUSTOM):
        config = parse_config(text)
        assert parse_config(config.to_ini()) == config


def test_explicit_grid_and_levels_override_the_pinned_ones():
    text = MINIMAL + "\n[grid]\nx_min = -3\nx_max = 3\nnx = 61\nnt = 50\n"
    text += "\n[penalization]\nlevels = 2, 8\n"
    config = parse_config(text)
    spec, grid, schedule = config.resolve()
    assert (grid.x_min, grid.x_max, grid.nx, grid.nt) == (-3.0, 3.0, 61, 50)
    assert tuple(schedule) == (2.0, 8.0)


@pytest.mark.parametrize(
    "mangle, message",
    [
        (lambda t: t + "\n[extra]\nkey = 1\n", "unknown section"),
        (lambda t: t + "\n[run]\ngpu = yes\n", "unknown key"),
        (lambda t: t.replace("constant", "nonesuch"), "unknown problem"),
        (lambda t: t.replace("constant", "custom"), "custom problem is missing"),
        (lambda t: t + "\n[run]\nchecks = validate, warp\n", "unknown check"),
        (lambda t: t + "\n[run]\nseed = pi\n", "seed must be an integer"),
        (lambda t: t + "\n[grid]\nx_min = -1\nx_max = 1\nnx = 41\n", "missing"),
        (lambda t: t + "\n[penalization]\nlevels = 4, 2\n", "strictly increasing"),
        (
            lambda t: "[problem]\nname = constant\ndriver = 0\n",
            "only valid for name = custom",
        ),
        (lambda t: "[grid]\nx_min = 0\nx_max = 1\nnx = 11\nnt = 4\n", "missing"),
        (lambda t: t + "\n[penalization]\n", r"\[penalization\] is missing: levels"),
    ],
)
def test_bad_configs_are_rejected_with_cause(mangle, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(mangle(MINIMAL))


def test_run_writes_the_documented_files(tmp_path):
    config = parse_config(MINIMAL)
    out = tmp_path / "out"
    manifest = run(config, str(out), quiet=True)
    assert manifest.all_passed
    assert manifest.threads == 1 and manifest.seed == 0
    for name in (
        "values_lower.csv",
        "values_upper.csv",
        "sweep.csv",
        "verdict.json",
        "manifest.json",
    ):
        assert (out / name).exists(), name
    header, first = (out / "values_lower.csv").read_text().splitlines()[:2]
    assert header == "t,x,value"
    assert first.split(",")[2] == "0.5"
    with open(out / "verdict.json") as fh:
        verdict = json.load(fh)
    assert set(verdict) == {"validate", "game_value", "penalization", "dpp"}
    assert all(stage["passed"] for stage in verdict.values())
    with open(out / "manifest.json") as fh:
        recorded = json.load(fh)
    assert recorded["all_passed"] is True
    assert recorded["problem"] == "constant"
    assert set(recorded["outputs"]) == {
        "values_lower.csv",
        "values_upper.csv",
        "sweep.csv",
        "verdict.json",
    }


def test_verdict_is_flushed_even_when_a_stage_breaks(tmp_path):
    # the transport lattice is infeasible, so the comparison stage fails
    # without taking down the run or the earlier output
    config = parse_config("[problem]\nname = transport\n\n[run]\nchecks = comparison\n")
    manifest = run(config, str(tmp_path), quiet=True)
    assert not manifest.all_passed
    with open(tmp_path / "verdict.json") as fh:
        verdict = json.load(fh)
    assert verdict["comparison"]["passed"] is False
    assert "LatticeError" in verdict["comparison"]["error"]


def test_thread_count_is_recorded_but_inert(tmp_path):
    config = parse_config(MINIMAL)
    a = run(config, str(tmp_path / "a"), threads=1, checks=("game_value",), quiet=True)
    b = run(config, str(tmp_path / "b"), threads=8, checks=("game_value",), quiet=True)
    assert (a.threads, b.threads) == (1, 8)
    for name in ("values_lower.csv", "values_upper.csv", "verdict.json"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes(), name
    assert a.outputs == b.outputs


def test_dpp_after_game_value_reports_what_dpp_alone_reports(tmp_path):
    # with game_value first, dpp recomposes its fields instead of solving them
    config = parse_config(CUSTOM)
    both = run(config, str(tmp_path / "a"), checks=("game_value", "dpp"), quiet=True)
    alone = run(config, str(tmp_path / "b"), checks=("dpp",), quiet=True)
    assert both.checks["dpp"] == alone.checks["dpp"]
    assert both.checks["dpp"]["residual_lower"] == 0.0


def test_comparison_and_estimates_share_one_base_lattice(tmp_path, monkeypatch):
    from isaacs import forwardsim

    text = "[problem]\nname = dynkin_heat\n\n[grid]\nx_min = -9\nx_max = 9\nnx = 37\nnt = 40\n"
    config = parse_config(text)
    checks = ("comparison", "crosscheck", "estimates")
    alone = {
        check: run(config, str(tmp_path / check), checks=(check,), quiet=True).checks[check]
        for check in checks
    }
    built = []
    original = forwardsim.build_lattice

    def counting(spec, t0, grid, *args, **kwargs):
        built.append((t0, grid))
        return original(spec, t0, grid, *args, **kwargs)

    monkeypatch.setattr(forwardsim, "build_lattice", counting)
    monkeypatch.setattr(isaacs.rbsde, "build_lattice", counting)
    together = run(config, str(tmp_path / "together"), checks=checks, quiet=True)
    _, grid, _ = config.resolve()
    # the base lattice once, for the crosscheck too, then the one refined
    # lattice the estimates need
    assert built.count((0.0, grid)) == 1
    assert len(built) == 2
    assert together.checks == alone


def test_the_manifest_times_every_check_it_ran(tmp_path):
    config = parse_config(MINIMAL)
    checks = ("validate", "dpp", "game_value")
    manifest = run(config, str(tmp_path), checks=checks, quiet=True)
    assert list(manifest.timings) == list(checks)
    assert all(isinstance(s, float) and s >= 0.0 for s in manifest.timings.values())
    with open(tmp_path / "manifest.json") as fh:
        recorded = json.load(fh)
    assert set(recorded["timings"]) == set(checks) == set(recorded["checks"])
    with open(tmp_path / "verdict.json") as fh:
        assert "timings" not in fh.read()


def _per_value_csv(field):
    lines = ["t,x,value"]
    for t, row in zip(field.times.tolist(), field.values.tolist()):
        for x, v in zip(field.nodes.tolist(), row):
            lines.append(f"{_format_float(t)},{_format_float(x)},{_format_float(v)}")
    return "\n".join(lines) + "\n"


def test_field_csv_is_the_per_value_format():
    nodes = np.linspace(-1.0, 1.0, 4)
    times = np.linspace(0.0, 1.0, 5)
    tiny = np.nextafter(0.0, 1.0)  # the smallest subnormal
    values = np.array(
        [
            [-0.0, 0.0, tiny, -2.2250738585072014e-308 / 3],
            [1e300, -1e300, 0.1, 1.0 / 3.0],
            [np.nan, 1.0, -np.inf, np.inf],
            [-0.0, np.nan, 5e-324, 1e300],
            [2.0, -3.5, 1e-17, 123456789.125],
        ]
    )
    field = isaacs.ValueField("lower", times, nodes, values, 0.0)
    text = _field_csv(field)
    assert text.encode() == _per_value_csv(field).encode()
    rows = text.splitlines()
    assert rows[9:13] == [
        '0.5,-1,"nan"',
        "0.5,-0.33333333333333337,1",
        '0.5,0.33333333333333326,"-inf"',
        '0.5,1,"inf"',
    ]
    assert rows[1] == "0,-1,-0"


def test_threads_fall_back_to_the_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("ISAACS_THREADS", "3")
    config = parse_config(MINIMAL)
    manifest = run(config, str(tmp_path), checks=("validate",), quiet=True)
    assert manifest.threads == 3
    monkeypatch.setenv("ISAACS_THREADS", "many")
    with pytest.raises(ConfigError, match="ISAACS_THREADS"):
        run(config, str(tmp_path), checks=("validate",), quiet=True)


def test_run_rejects_unknown_checks_and_bad_threads(tmp_path):
    config = parse_config(MINIMAL)
    with pytest.raises(ConfigError, match="unknown check"):
        run(config, str(tmp_path), checks=("warp",), quiet=True)
    with pytest.raises(ConfigError, match="positive"):
        run(config, str(tmp_path), threads=0, quiet=True)


def test_main_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.ini"
    good.write_text("[problem]\nname = constant\n\n[run]\nchecks = validate\n")
    assert main(["run", str(good), "--out", str(tmp_path / "g"), "--quiet"]) == 0

    failing = tmp_path / "failing.ini"
    failing.write_text("[problem]\nname = transport\n\n[run]\nchecks = comparison\n")
    assert main(["run", str(failing), "--out", str(tmp_path / "f"), "--quiet"]) == 1

    bad = tmp_path / "bad.ini"
    bad.write_text("[problem]\nname = nonesuch\n")
    assert main(["run", str(bad), "--out", str(tmp_path / "b")]) == 2
    assert "unknown problem" in capsys.readouterr().err

    assert main(["run", str(tmp_path / "missing.ini"), "--out", str(tmp_path / "m")]) == 2


def test_main_check_override_and_custom_problem(tmp_path):
    path = tmp_path / "custom.ini"
    path.write_text(CUSTOM)
    code = main(
        [
            "run",
            str(path),
            "--out",
            str(tmp_path / "out"),
            "--check",
            "validate",
            "--check",
            "crosscheck",
            "--seed",
            "11",
            "--quiet",
        ]
    )
    assert code == 0
    with open(tmp_path / "out" / "manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["seed"] == 11
    assert set(manifest["checks"]) == {"validate", "crosscheck"}


def test_repeated_checks_run_once(tmp_path):
    config = parse_config(MINIMAL)
    manifest = run(
        config, str(tmp_path), checks=("validate", "validate"), quiet=True
    )
    assert list(manifest.checks) == ["validate"]


def test_deeply_nested_expression_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "deep.ini"
    path.write_text(CUSTOM.replace("driver = 0", "driver = " + "(" * 3000 + "0" + ")" * 3000))
    assert main(["run", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert "nest" in capsys.readouterr().err


def test_module_entry_point_reports_the_exit_status(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[problem]\nname = nonesuch\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(isaacs.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "isaacs.cli", "run", str(bad), "--out", str(tmp_path / "o")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2
    assert "unknown problem" in proc.stderr


def test_a_negative_seed_is_a_config_error(tmp_path, capsys):
    with pytest.raises(ConfigError, match="seed"):
        parse_config(MINIMAL + "\n[run]\nseed = -1\n")
    with pytest.raises(ConfigError, match="seed"):
        run(parse_config(MINIMAL), str(tmp_path / "r"), seed=-1, quiet=True)
    path = tmp_path / "negative.ini"
    path.write_text(MINIMAL + "\n[run]\nchecks = validate\nseed = -1\n")
    assert main(["run", str(path), "--out", str(tmp_path / "a"), "--quiet"]) == 2
    good = tmp_path / "good.ini"
    good.write_text(MINIMAL + "\n[run]\nchecks = validate\n")
    args = ["run", str(good), "--out", str(tmp_path / "b"), "--seed", "-1", "--quiet"]
    assert main(args) == 2
    assert "seed" in capsys.readouterr().err


def test_an_output_path_that_is_a_file_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "good.ini"
    path.write_text(MINIMAL + "\n[run]\nchecks = validate\n")
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    assert main(["run", str(path), "--out", str(taken), "--quiet"]) == 2
    assert str(taken) in capsys.readouterr().err


def test_a_config_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "latin1.ini"
    path.write_bytes("[problem]\nname = constant\n# café\n".encode("latin-1"))
    assert main(["run", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert "cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new",
    [
        ("x_max = 4.0", "x_max = inf"),
        ("lipschitz = 1", "lipschitz = nan"),
        ("driver_lipschitz = 0", "driver_lipschitz = inf"),
    ],
)
def test_nonfinite_declared_numbers_are_config_errors(tmp_path, capsys, old, new):
    path = tmp_path / "nonfinite.ini"
    path.write_text(CUSTOM.replace(old, new, 1))
    assert new in path.read_text()
    assert main(["run", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new, cause",
    [
        ("driver = 0", "driver = exp(y^2 * 40)", "nonfinite expectation or driver value at t="),
        # both checks solve with two barriers, where the infinite payoff at
        # x = 0 is refused before it is found nonfinite
        ("terminal = max(0, 1 - abs(x))", "terminal = 1 / x", "exceed the upper obstacle"),
    ],
)
def test_nonfinite_lattice_levels_are_failed_checks(tmp_path, old, new, cause):
    text = CUSTOM.replace(old, new).replace("0 - 2", "0 - 10").replace("upper = 2", "upper = 10")
    text = text.replace("nx = 81", "nx = 41")
    with np.errstate(all="ignore"):
        manifest = run(parse_config(text), str(tmp_path), checks=("comparison", "estimates"), quiet=True)
    assert not manifest.all_passed
    for check in ("comparison", "estimates"):
        result = manifest.checks[check]
        assert result["passed"] is False
        assert result["error"].startswith("ValueError: ") and cause in result["error"], result
