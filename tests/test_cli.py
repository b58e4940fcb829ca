"""Config parsing, run outputs, determinism and exit codes of the CLI."""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import isaacs
from isaacs import pde, problems
from isaacs.cli import (
    CHECKS,
    DEFAULT_CHECKS,
    ConfigError,
    _format_float,
    _format_json,
    _value_csvs,
    _write_text,
    main,
    parse_config,
    run,
)
from isaacs.model import PenalizationSchedule

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


def test_config_round_trips_through_ini_text(tmp_path):
    # a value may go on over indented lines, a blank one among them
    continued = CUSTOM.replace("sigma = 1\n", "sigma = 1\n    + 0\n")
    blank = CUSTOM.replace("sigma = 1\n", "sigma = 1\n\n    + 0\n")
    for text in (MINIMAL, CUSTOM, continued, blank):
        config = parse_config(text)
        assert parse_config(config.to_ini()) == config
    assert dict(parse_config(continued).custom)["sigma"] == "1\n+ 0"
    config = parse_config(blank)
    assert dict(config.custom)["sigma"] == "1\n\n+ 0"
    assert run(config, str(tmp_path), checks=("validate",), quiet=True).all_passed
    with open(tmp_path / "manifest.json") as fh:
        assert parse_config(json.load(fh)["config"]) == config


# every section and every key, a continuation line included
EVERY_KEY = CUSTOM.replace("sigma = 1\n", "sigma = 1\n    + 0\n").replace(
    "x_min = -4.0\nx_max = 4.0\nnx = 81\nnt = 100\n\n[run]\nchecks = validate, dpp\nseed = 7\n",
    "x_min = -4\nx_max = 4\nnx = 41\nnt = 40\n\n[penalization]\nlevels = 1, 4, 16\n\n"
    "[run]\nchecks = validate, game_value, penalization, dpp\nseed = 7\nthreads = 2\n",
)


def test_the_config_echo_is_pinned_byte_for_byte():
    # the round trip alone would pass a change of key order or number format
    assert parse_config(EVERY_KEY).to_ini() == (
        "[problem]\n"
        "name = custom\n"
        "horizon = 0.5\n"
        "b = 0\n"
        "sigma = 1\n"
        "    + 0\n"
        "driver = 0\n"
        "terminal = max(0, 1 - abs(x))\n"
        "lower = 0 - 2\n"
        "upper = 2\n"
        "controls_i = 0\n"
        "controls_ii = 0\n"
        "lipschitz = 1\n"
        "driver_lipschitz = 0\n"
        "\n"
        "[grid]\n"
        "x_min = -4.0\n"
        "x_max = 4.0\n"
        "nx = 41\n"
        "nt = 40\n"
        "\n"
        "[penalization]\n"
        "levels = 1.0, 4.0, 16.0\n"
        "\n"
        "[run]\n"
        "checks = validate, game_value, penalization, dpp\n"
        "seed = 7\n"
        "threads = 2\n"
    )


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
        # configparser would read [DEFAULT] into every section: a key blamed
        # on [problem], a name that [problem] does not hold
        (lambda t: "[DEFAULT]\nnx = 5\n\n" + t, r"^unknown section\(s\): DEFAULT$"),
        (lambda t: "[DEFAULT]\nname = constant\n\n[problem]\n", r"^unknown section\(s\): DEFAULT$"),
        (lambda t: "[DEFAULT]\nseed = 3\n\n[run]\n\n" + t, r"^unknown section\(s\): DEFAULT$"),
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


# small grids holding every way a check can go: custom with a schedule that
# fits its grid, bilinear_game, whose top default penalty breaks the
# stability margin, and transport, whose lattice is infeasible
_SMALL = {
    "custom": CUSTOM.replace("nx = 81", "nx = 25").replace("nt = 100", "nt = 40")
    + "\n[penalization]\nlevels = 1, 4, 16\n",
    "bilinear": "[problem]\nname = bilinear_game\n\n[grid]\n"
    "x_min = -2.0\nx_max = 2.0\nnx = 21\nnt = 32\n",
    "transport": "[problem]\nname = transport\n\n[grid]\nx_min = -3\nx_max = 3\nnx = 25\nnt = 40\n",
}


@functools.cache
def _alone(label, check):
    """The verdict entry and data-file digests of `check` run alone."""
    with tempfile.TemporaryDirectory() as out:
        manifest = run(parse_config(_SMALL[label]), out, checks=(check,), quiet=True)
    files = {name: d for name, d in manifest.outputs.items() if name != "verdict.json"}
    return manifest.checks[check], files


@settings(derandomize=True, max_examples=50, deadline=None)
@given(
    label=st.sampled_from(sorted(_SMALL)),
    checks=st.lists(st.sampled_from(CHECKS), min_size=1, max_size=10),
)
def test_every_check_reports_in_any_company_what_it_reports_alone(label, checks):
    # the checks share one march and one base lattice in every subset and
    # order, repeats included, and each reports what it reports alone, its
    # data files included; a row or a lattice that fails fails only its own
    # checks
    assert _alone("custom", "penalization")[0]["passed"] is True
    # bilinear_game's lower and upper values differ, so a head joined to the
    # wrong row would show
    assert _alone("bilinear", "game_value")[0]["max_gap"] > 0.0
    assert _alone("bilinear", "dpp")[0]["passed"] is True
    assert _alone("bilinear", "penalization")[0] == {
        "passed": False,
        "error": "CflError: stability number 1 exceeds margin 0.9 at t=0.96875;"
        " largest admissible dt is 0.028125",
    }
    assert _alone("transport", "comparison")[0]["error"].startswith("LatticeError")
    with tempfile.TemporaryDirectory() as out:
        joint = run(parse_config(_SMALL[label]), out, checks=checks, quiet=True)
    assert list(joint.checks) == list(dict.fromkeys(checks))
    for check in checks:
        entry, files = _alone(label, check)
        assert joint.checks[check] == entry, check
        for name, digest in files.items():
            assert joint.outputs[name] == digest, (check, name)


def test_dpp_on_a_grid_with_no_inner_level_fails_alone_and_in_company(tmp_path, monkeypatch):
    # nt = 1 has no level strictly inside the horizon, so dpp names no rows:
    # it marches nothing alone, the others march their rows without its
    # heads, and each check reports what it reports alone
    text = CUSTOM.replace("nx = 81", "nx = 9").replace("nt = 100", "nt = 1")
    config = parse_config(text + "\n[penalization]\nlevels = 0.5\n")
    alone = {
        check: run(config, str(tmp_path / check), checks=(check,), quiet=True).checks[check]
        for check in ("game_value", "penalization")
    }
    assert all(entry["passed"] for entry in alone.values())
    marched = []
    original = pde._march

    def counting(spec, grid, rows, *args):
        marched.append(len(rows))
        return original(spec, grid, rows, *args)

    monkeypatch.setattr(pde, "_march", counting)
    for checks, rows in (
        (("dpp",), []),
        (("dpp", "game_value"), [2]),
        (("penalization", "dpp"), [3]),
        (("game_value", "dpp", "penalization"), [4]),
    ):
        marched.clear()
        joint = run(config, str(tmp_path / "-".join(checks)), checks=checks, quiet=True)
        assert marched == rows, checks
        assert joint.checks.pop("dpp") == {
            "passed": False,
            "error": "ValueError: split 0.0 must be strictly inside the horizon",
        }
        assert joint.checks == {check: alone[check] for check in joint.checks}


def test_a_run_marches_once_and_a_check_alone_only_its_own_rows(tmp_path, monkeypatch):
    config = parse_config(CUSTOM)
    levels = len(config.resolve()[2])
    marched = []
    original = pde._march

    def counting(spec, grid, rows, *args):
        marched.append(len(rows))
        return original(spec, grid, rows, *args)

    monkeypatch.setattr(pde, "_march", counting)
    for checks, rows in (
        (DEFAULT_CHECKS, 2 + 2 * levels + 2),
        (("dpp",), 4),
        (("penalization",), 1 + 2 * levels),
        (("game_value",), 2),
        (("validate",), None),
    ):
        marched.clear()
        manifest = run(config, str(tmp_path / "-".join(checks)), checks=checks, quiet=True)
        assert manifest.all_passed
        assert marched == ([] if rows is None else [rows]), checks


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


def test_a_run_walks_the_base_lattice_once_with_only_the_rows_its_checks_read(
    tmp_path, monkeypatch
):
    config = parse_config(_AT_THE_UPPER_OBSTACLE)
    walked = []
    original = isaacs.rbsde._walk

    def counting(specs, *args):
        walked.append(len(specs))
        return original(specs, *args)

    monkeypatch.setattr(isaacs.rbsde, "_walk", counting)
    # rows per walk: the problem, comparison's lifted copy and the
    # estimates' perturbed copy; the estimates walk their refined lattice
    # on their own
    for checks, rows in (
        (("crosscheck",), [1]),
        (("comparison",), [2]),
        (("estimates",), [2, 2]),
        (("comparison", "crosscheck"), [2]),
        (("estimates", "forward", "comparison", "crosscheck"), [3, 2]),
        (("forward", "validate"), []),
    ):
        walked.clear()
        run(config, str(tmp_path / "-".join(checks)), checks=checks, quiet=True)
        assert walked == rows, checks


# the payoff is the upper obstacle, so comparison's lifted payoff leaves it
# at the horizon: only comparison fails, and every other lattice check
# reads its rows off the same base lattice
_AT_THE_UPPER_OBSTACLE = """\
[problem]
name = custom
horizon = 0.5
b = 0.2
sigma = 0.8
driver = 0.1 * min(max(y, 0 - 1), 1)
terminal = max(0, 1 - abs(x))
lower = 0 - 1
upper = max(0, 1 - abs(x))
controls_i = 0
controls_ii = 0
lipschitz = 1
driver_lipschitz = 0.1

[grid]
x_min = -3
x_max = 3
nx = 31
nt = 40
"""


def test_the_lattice_checks_fail_one_by_one(tmp_path):
    config = parse_config(_AT_THE_UPPER_OBSTACLE)
    checks = ("comparison", "crosscheck", "estimates", "forward")
    alone = {
        check: run(config, str(tmp_path / check), checks=(check,), quiet=True).checks[check]
        for check in checks
    }
    assert alone["comparison"] == {
        "passed": False,
        "error": "ValueError: terminal values exceed the upper obstacle at t=0.5",
    }
    assert all(alone[check]["passed"] for check in checks[1:])
    for order in (checks, checks[::-1], checks[1:] + checks[:1]):
        joint = run(config, str(tmp_path / "-".join(order)), checks=order, quiet=True)
        assert [c for c in order if not joint.checks[c]["passed"]] == ["comparison"]
        for check in order:
            assert _format_json(joint.checks[check]) == _format_json(alone[check]), check


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
    text = "".join(lower for lower, _ in _value_csvs(field, field))
    assert text.encode() == _per_value_csv(field).encode()
    rows = text.splitlines()
    assert rows[9:13] == [
        '0.5,-1,"nan"',
        "0.5,-0.33333333333333337,1",
        '0.5,0.33333333333333326,"-inf"',
        '0.5,1,"inf"',
    ]
    assert rows[1] == "0,-1,-0"


_VALUE_FILES = ("values_lower.csv", "values_upper.csv")

# zeros of both signs, NaNs of both signs, infinities, subnormals and the
# extremes of the finite floats
_SPECIAL = (
    0.0,
    -0.0,
    np.nan,
    -np.nan,
    np.inf,
    -np.inf,
    5e-324,
    -5e-324,
    2.2250738585072014e-308 / 3,
    1.7976931348623157e308,
    0.1,
    -1.0 / 3.0,
    1.0,
)


def _flip_zero_signs(row):
    """The row with every zero's sign flipped: equal under ==, other bytes."""
    return [(-v if v == 0.0 else v) for v in row]


def _flip_low_bit(array, k):
    """A copy of `array` whose entry k differs in its last mantissa bit."""
    bits = np.array(array, dtype=float).view(np.uint64)
    bits[k] ^= 1
    return bits.view(float)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(data=st.data())
def test_the_value_files_are_written_in_lockstep(data):
    # rows come from a small pool, so equal rows occur within a level,
    # across the two files and across consecutive levels; each zero-signed
    # row comes with its twin of the opposite zero signs
    nx = data.draw(st.integers(1, 4), label="nx")
    levels = data.draw(st.integers(1, 6), label="levels")
    value = st.sampled_from(_SPECIAL) | st.floats(width=64)
    base = data.draw(st.lists(st.lists(value, min_size=nx, max_size=nx), min_size=1, max_size=3))
    pool = base + [_flip_zero_signs(row) for row in base]
    picks = st.lists(st.integers(0, len(pool) - 1), min_size=levels, max_size=levels)
    times = np.array(data.draw(st.lists(value, min_size=levels, max_size=levels)))
    nodes = np.array(data.draw(st.lists(value, min_size=nx, max_size=nx)))
    fields = [
        isaacs.ValueField(label, times, nodes, np.array([pool[i] for i in data.draw(picks)]), 0.0)
        for label in ("lower", "upper")
    ]
    outputs = {}
    with tempfile.TemporaryDirectory() as out:
        _write_text(out, _VALUE_FILES, _value_csvs(*fields), outputs, quiet=True)
        for name, field in zip(_VALUE_FILES, fields):
            with open(os.path.join(out, name), "rb") as fh:
                written = fh.read()
            assert written == _per_value_csv(field).encode(), name
            assert outputs[name] == hashlib.sha256(written).hexdigest(), name
    assert set(outputs) == set(_VALUE_FILES)

    lower, upper = fields
    k = data.draw(st.integers(0, levels - 1), label="k")
    j = data.draw(st.integers(0, nx - 1), label="j")
    for other in (
        dataclasses.replace(upper, times=_flip_low_bit(times, k)),
        dataclasses.replace(upper, times=times[:-1], values=upper.values[:-1]),
        dataclasses.replace(upper, nodes=_flip_low_bit(nodes, j)),
        dataclasses.replace(upper, nodes=nodes[:-1], values=upper.values[:, :-1]),
    ):
        with pytest.raises(ValueError, match="times and nodes"):
            list(_value_csvs(lower, other))


def test_json_strings_escape_every_control_character():
    text = "".join(map(chr, range(0x20))) + '"\\ café ∂x \u2028'
    assert json.loads(_format_json(text)) == text
    assert json.loads(_format_json({text: [text]})) == {text: [text]}
    assert _format_json("\b\f\n\r\t\x0b\x1f") == '"\\b\\f\\n\\r\\t\\u000b\\u001f"'
    # strings without control characters keep their bytes
    assert _format_json('a "b" \\ é') == '"a \\"b\\" \\\\ é"'


def test_a_control_character_in_an_expression_keeps_the_manifest_json(tmp_path):
    path = tmp_path / "vt.ini"
    path.write_text(CUSTOM.replace("b = 0\n", "b = 0\x0b+ 0\n", 1))
    assert "\x0b" in path.read_text()
    args = ["run", str(path), "--out", str(tmp_path / "o"), "--check", "validate", "--quiet"]
    assert main(args) == 0
    with open(tmp_path / "o" / "manifest.json") as fh:
        manifest = json.load(fh)
    assert "b = 0\x0b+ 0\n" in manifest["config"]


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
    with pytest.raises(ConfigError, match="checks list is empty"):
        run(config, str(tmp_path), checks=(), quiet=True)
    with pytest.raises(ConfigError, match="checks list is empty"):
        run(dataclasses.replace(config, checks=()), str(tmp_path), quiet=True)
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


def test_an_overflowing_expression_fails_its_checks_without_a_warning(tmp_path):
    # 1e308 * x overflows to inf at |x| > 1.8: the checks name b, and numpy
    # prints nothing
    text = CUSTOM.replace("b = 0\n", "b = 1e308 * x\n", 1)
    text = text.replace("nx = 81", "nx = 21").replace("nt = 100", "nt = 20")
    config = tmp_path / "overflow.ini"
    config.write_text(text)
    src = os.path.dirname(os.path.dirname(os.path.abspath(isaacs.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "isaacs.cli", "run", str(config), "--out", str(out), "--quiet"]
        + ["--check", "validate", "--check", "game_value"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1
    assert "Warning" not in proc.stderr, proc.stderr
    with open(out / "verdict.json") as fh:
        checks = json.load(fh)
    assert checks["game_value"]["error"].startswith("CoefficientError: nonfinite b at t=")
    assert checks["validate"]["passed"] is False


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


def test_a_seed_of_2_to_the_64_or_more_is_a_config_error(tmp_path, capsys):
    # the path noise is keyed by 64 bits of the seed, so 2**64 would write
    # the forward entry of seed 0; the largest 64-bit seed runs
    big = 2 ** 64
    message = f"^seed must be below 2\\*\\*64, got {big}$"
    with pytest.raises(ConfigError, match=message):
        parse_config(MINIMAL + f"\n[run]\nseed = {big}\n")
    with pytest.raises(ConfigError, match=message):
        run(parse_config(MINIMAL), str(tmp_path / "r"), seed=big, quiet=True)
    path = tmp_path / "forward.ini"
    path.write_text(MINIMAL + "\n[run]\nchecks = validate, forward\n")
    args = ["run", str(path), "--quiet", "--out"]
    assert main([*args, str(tmp_path / "a"), "--seed", str(big)]) == 2
    assert f"seed must be below 2**64, got {big}" in capsys.readouterr().err
    assert main([*args, str(tmp_path / "b"), "--seed", str(big - 1)]) == 0


def _run_in_process(config, out):
    """main() on `config` writing to `out`: its exit code and stderr, and
    the warnings raised while it ran."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(["run", config, "--out", out, "--quiet"])
    return code, err.getvalue(), [str(w.message) for w in caught]


def _data_files(out):
    """Every file a run wrote but the manifest, which holds timings, by name."""
    if not os.path.isdir(out):
        return {}
    data = {}
    for name in sorted(os.listdir(out)):
        if name != "manifest.json":
            with open(os.path.join(out, name), "rb") as fh:
                data[name] = fh.read()
    return data


def _exit_code_of_two_equal_runs(text):
    """Run the config `text` twice; assert that each run exits 0, 1 or 2
    with no traceback and no warning, a refusal with one error line and
    any other outcome with a parseable verdict and manifest, and that the
    two runs agree on the outcome and on every data byte.  The exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "run.ini")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(text)
        outcomes = []
        for out in (os.path.join(tmp, "a"), os.path.join(tmp, "b")):
            code, err, caught = _run_in_process(config, out)
            assert code in (0, 1, 2), code
            assert "Traceback" not in err and "Warning" not in err, err
            assert caught == [], caught
            if code == 2:
                assert err.startswith("error: ") and err.count("\n") == 1, err
            else:
                for name in ("verdict.json", "manifest.json"):
                    with open(os.path.join(out, name), encoding="utf-8") as fh:
                        json.load(fh)
            outcomes.append((code, err, _data_files(out)))
        assert outcomes[0] == outcomes[1]
    return outcomes[0][0]


_SEEDS, _THREADS = (0, 1, 2 ** 64 - 1, 2 ** 64, -1, 10 ** 30), (-1, 0, 1, 4)


# each value is drawn from the accepted ones half the time, so that most
# examples reach a run and not only the refusal of their [run] section
@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(
    seed=st.sampled_from(_SEEDS[:3]) | st.sampled_from(_SEEDS),
    threads=st.sampled_from(_THREADS[2:]) | st.sampled_from(_THREADS),
    checks=st.lists(st.sampled_from(CHECKS), min_size=1, unique=True),
    nx=st.integers(3, 11),
    nt=st.integers(1, 20),
)
@example(seed=10 ** 30, threads=1, checks=["forward"], nx=5, nt=4)
def test_any_run_section_exits_0_1_or_2_and_reruns_to_the_same_bytes(
    seed, threads, checks, nx, nt
):
    text = (
        "[problem]\nname = dynkin_heat\n\n"
        f"[grid]\nx_min = -9.0\nx_max = 9.0\nnx = {nx}\nnt = {nt}\n\n"
        f"[run]\nchecks = {', '.join(checks)}\nseed = {seed}\nthreads = {threads}\n"
    )
    code = _exit_code_of_two_equal_runs(text)
    # a seed outside [0, 2**64) and a thread count below 1 are refused
    assert (code == 2) == (not 0 <= seed < 2 ** 64 or threads < 1)


def _expressions(names):
    """Text of expression trees from the parser's grammar over the variables
    `names`: numbers, names, the four operators, integer powers, negation
    and the four functions, every composite parenthesized."""
    leaves = st.floats(0.0, 4.0).map(repr) | st.sampled_from(sorted(names))

    def extend(children):
        return st.one_of(
            st.builds("({} {} {})".format, children, st.sampled_from("+-*/"), children),
            st.builds("({})^{}".format, children, st.integers(0, 3)),
            st.builds("(-{})".format, children),
            st.builds("{}({})".format, st.sampled_from(("abs", "exp")), children),
            st.builds(
                lambda name, args: f"{name}({', '.join(args)})",
                st.sampled_from(("min", "max")),
                st.lists(children, min_size=2, max_size=3),
            ),
        )

    return st.recursive(leaves, extend, max_leaves=6)


# a lattice widens by its drift at every level and caps no total, only one
# level (forwardsim.MAX_LEVEL_NODES); sigma needs no bound, since a level
# with sigma^2 dt/dx^2 > 1 is refused.  |b| <= 1000 keeps every lattice of
# these grids, the refined one of nx 21 and nt 48 too, under 150,000 nodes
# (3 MB); a nan b still meets its refusal, and a drift past the cap is
# pinned below
_DRIFT_BOUND = 1000


@st.composite
def _custom_coefficients(draw):
    """The six expressions of a custom problem, each over its allowed
    variables, b clamped to [-1000, 1000].  Three times in four an obstacle
    is wrapped as min(terminal, ...) or max(terminal, ...), so that it holds
    the terminal row and the solvers get past their first level."""
    texts = {name: draw(_expressions(names)) for name, names in problems._ALLOWED_VARS.items()}
    texts["b"] = f"min({_DRIFT_BOUND}, max(-{_DRIFT_BOUND}, {texts['b']}))"
    for name, wrap in (("lower", "min"), ("upper", "max")):
        if draw(st.integers(0, 3)):
            texts[name] = f"{wrap}({texts['terminal']}, {texts[name]})"
    return texts


_POINTS = st.lists(st.floats(-2.0, 2.0).map(repr), min_size=1, max_size=3)
_LATTICE_CHECKS = ("comparison", "crosscheck", "estimates")


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    coefficients=_custom_coefficients(),
    controls_i=_POINTS,
    controls_ii=_POINTS,
    lattice_checks=st.lists(st.sampled_from(_LATTICE_CHECKS), min_size=1, unique=True),
    other_checks=st.lists(st.sampled_from(CHECKS), unique=True),
    nx=st.integers(3, 11),
    nt=st.integers(1, 12),
)
def test_any_custom_problem_exits_0_1_or_2_and_reruns_to_the_same_bytes(
    coefficients, controls_i, controls_ii, lattice_checks, other_checks, nx, nt
):
    # the lattice checks run on the chain of the first pair of up to 3 x 3
    checks = list(dict.fromkeys(lattice_checks + other_checks))
    lines = [f"{name} = {text}" for name, text in coefficients.items()]
    text = (
        "[problem]\nname = custom\nhorizon = 0.5\n" + "\n".join(lines) + "\n"
        f"controls_i = {', '.join(controls_i)}\ncontrols_ii = {', '.join(controls_ii)}\n"
        "lipschitz = 1\ndriver_lipschitz = 1\n\n"
        f"[grid]\nx_min = -4.0\nx_max = 4.0\nnx = {nx}\nnt = {nt}\n\n"
        f"[run]\nchecks = {', '.join(checks)}\n"
    )
    _exit_code_of_two_equal_runs(text)


# a [grid] section is drawn ordinary half the time, with |x| <= 20, a span
# of at least 1, nx in [3, 41] and nt in [1, 80]: transport moves dt/dx
# nodes a step, so a small span would grow its lattice by about 2 dt/dx
# nodes a level, and MAX_LEVEL_NODES caps a level, not the lattice.  The
# other half draws hostile values as well: nx < 3, nt < 1, x_max <= x_min
# and nonfinite bounds.  The examples are bounds whose dx^2 overflows
# (through the span, then through the square) or underflows to 0, and a
# grid so far out that separable_game's payoff exp(-x^2) squares past the
# float range.
_NONFINITE = st.sampled_from((math.inf, -math.inf, math.nan))


@st.composite
def _grid_sections(draw):
    x_min = draw(st.floats(-20.0, 19.0))
    x_max = draw(st.floats(x_min + 1.0, 20.0))
    nx, nt = draw(st.integers(3, 41)), draw(st.integers(1, 80))
    if draw(st.booleans()):
        x_min, x_max = draw(st.sampled_from(((x_min, x_max), (x_max, x_min), (x_min, x_min))))
        x_min = draw(st.just(x_min) | _NONFINITE)
        x_max = draw(st.just(x_max) | _NONFINITE)
        nx = draw(st.just(nx) | st.integers(-2, 2))
        nt = draw(st.just(nt) | st.integers(-2, 0))
    return x_min, x_max, nx, nt


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    problem=st.sampled_from(problems.BUILTINS),
    grid=_grid_sections(),
    checks=st.lists(st.sampled_from(CHECKS), min_size=1, unique=True),
)
@example(problem="dynkin_heat", grid=(-1e308, 1e308, 11, 20), checks=list(CHECKS))
@example(problem="dynkin_heat", grid=(-8e307, 8e307, 11, 20), checks=list(CHECKS))
@example(problem="dynkin_heat", grid=(0.0, 1e-300, 11, 20), checks=list(CHECKS))
@example(problem="separable_game", grid=(1e160, 1.0000000000000006e160, 3, 4), checks=list(CHECKS))
def test_any_grid_section_exits_0_1_or_2_and_reruns_to_the_same_bytes(problem, grid, checks):
    x_min, x_max, nx, nt = grid
    text = (
        f"[problem]\nname = {problem}\n\n"
        f"[grid]\nx_min = {x_min!r}\nx_max = {x_max!r}\nnx = {nx}\nnt = {nt}\n\n"
        f"[run]\nchecks = {', '.join(checks)}\n"
    )
    code = _exit_code_of_two_equal_runs(text)
    # refused: too few nodes or steps, or a dx that is not positive or
    # whose square leaves the float range (every nonfinite bound does)
    dx = (x_max - x_min) / max(nx - 1, 1)
    assert (code == 2) == (nx < 3 or nt < 1 or not (dx > 0 and 0 < dx * dx < math.inf))


# a [penalization] schedule is drawn ordinary half the time: 1 to 8 strictly
# increasing weights in [1e-3, 1e3].  The other half lists up to 12 items
# of those and of hostile ones in any order, so that it may be empty, skip
# blank items, repeat or decrease, or hold a non-number, a nonfinite
# weight, one that parses to inf or to 0, or the float range's ends.  Each
# level adds two march rows, so no schedule has more than 12.
_HOSTILE_LEVELS = ("", " ", "four", "nan", "inf", "1e309", "1e-400", "0", "-1", "1e308", "5e-324")


@st.composite
def _level_lists(draw):
    weights = sorted(draw(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=8, unique=True)))
    items = [repr(w) for w in weights]
    if draw(st.booleans()):
        items = draw(
            st.lists(st.sampled_from(items) | st.sampled_from(_HOSTILE_LEVELS), max_size=12)
        )
    return ", ".join(items)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    problem=st.sampled_from(problems.BUILTINS),
    x_min=st.floats(-3.0, 2.0),
    span=st.floats(1.0, 6.0),
    nx=st.integers(3, 21),
    nt=st.integers(1, 40),
    levels=_level_lists(),
    other_checks=st.lists(st.sampled_from(CHECKS), unique=True),
)
# a sweep that passes, and one that meets the ends of the float range
@example(
    problem="constant", x_min=-3.0, span=6.0, nx=11, nt=40, levels="1.0, 2.0", other_checks=[]
)
@example(
    problem="dynkin_heat", x_min=-3.0, span=6.0, nx=11, nt=40, levels="5e-324, 1e308",
    other_checks=list(CHECKS),
)
def test_any_penalization_section_exits_0_1_or_2_and_reruns_to_the_same_bytes(
    problem, x_min, span, nx, nt, levels, other_checks
):
    # a grid with |x| <= 3 and a span of at least 1, so that it is never refused
    x_max = min(x_min + span, 3.0)
    checks = list(dict.fromkeys(["penalization", *other_checks]))
    text = (
        f"[problem]\nname = {problem}\n\n"
        f"[grid]\nx_min = {x_min!r}\nx_max = {x_max!r}\nnx = {nx}\nnt = {nt}\n\n"
        f"[penalization]\nlevels = {levels}\n\n"
        f"[run]\nchecks = {', '.join(checks)}\n"
    )
    code = _exit_code_of_two_equal_runs(text)
    # refused: a list with no item, an item that is no number, or weights
    # that are not strictly increasing, positive and finite
    try:
        PenalizationSchedule(tuple(float(p) for p in levels.split(",") if p.strip()))
    except ValueError:
        refused = True
    else:
        refused = False
    assert (code == 2) == refused


# what probing the custom-problem property with more examples found: each
# of these once raised a numpy warning on its way to the outcome given (an
# infinite obstacle, a sigma whose square overflows, a drift beyond the
# lattice's node cap, an infinite payoff)
@pytest.mark.parametrize(
    "changes, check, outcome",
    [
        ({"upper = 2": "upper = 1 / 0"}, "comparison", True),
        ({"upper = 2": "upper = 1 / 0", "sigma = 1": "sigma = 0"}, "estimates", False),
        ({"sigma = 1": "sigma = 1e200"}, "game_value", "ValueError: nonfinite Hamiltonian"),
        ({"sigma = 1": "sigma = 1e200"}, "comparison", "LatticeError: negative transition"),
        ({"b = 0": "b = 1e30"}, "crosscheck", "LatticeError: a level of 21 nodes and a drift of up to 6.25e+28"),
        (
            {"upper = 2": "upper = 1 / 0", "max(0, 1 - abs(x))": "1 / 0"},
            "penalization",
            "ValueError: nonfinite terminal values at t=0.5",
        ),
    ],
    ids=["inf_obstacle", "inf_estimates", "sigma_squared", "sigma_lattice", "drift", "inf_payoff"],
)
def test_an_overflowing_problem_reaches_its_outcome_without_a_warning(
    tmp_path, changes, check, outcome
):
    text = CUSTOM.replace("nx = 81", "nx = 21").replace("nt = 100", "nt = 20")
    for old, new in changes.items():
        text = text.replace(old, new)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run(parse_config(text), str(tmp_path), checks=(check,), quiet=True).checks[check]
    # True and False: the check passes or fails; a text: it fails with that error
    if isinstance(outcome, bool):
        assert result["passed"] is outcome and "error" not in result, result
    else:
        assert result["error"].startswith(outcome), result


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


def test_a_nonfinite_sigma_is_named_by_the_march_the_lattice_and_the_paths(tmp_path):
    text = CUSTOM.replace("sigma = 1\n", "sigma = 0/0\n", 1)
    text = text.replace("nx = 81", "nx = 41").replace("nt = 100", "nt = 20")
    checks = ("game_value", "comparison", "forward")
    with np.errstate(all="ignore"):
        manifest = run(parse_config(text), str(tmp_path), checks=checks, quiet=True)
    # the march meets it first at its first level, the others at t = 0
    where = {
        "game_value": "t=0.47500000000000003, x=-4.0",
        "comparison": "t=0.0, x=-4.0",
        "forward": "t=0.0, x=0.0",
    }
    for check in checks:
        assert manifest.checks[check] == {
            "passed": False,
            "error": f"CoefficientError: nonfinite sigma at {where[check]}, controls (0.0, 0.0)",
        }, check


def test_a_nonfinite_lattice_coefficient_is_a_failed_check(tmp_path):
    text = CUSTOM.replace("sigma = 1\n", "sigma = 0/0\n", 1)
    assert "0/0" in text
    checks = ("comparison", "crosscheck", "estimates")
    with np.errstate(all="ignore"):
        manifest = run(parse_config(text), str(tmp_path), checks=checks, quiet=True)
    for check in checks:
        assert manifest.checks[check] == {
            "passed": False,
            "error": "CoefficientError: nonfinite sigma at t=0.0, x=-4.0, controls (0.0, 0.0)",
        }, check
