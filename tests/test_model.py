"""Hamiltonian reductions, Isaacs condition and structural validation."""

from __future__ import annotations

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isaacs import pde
from isaacs.forwardsim import build_lattice, simulate_paths
from isaacs.model import (
    CoefficientError,
    CoefficientSet,
    ControlGrid,
    HamiltonianInput,
    ProblemSpec,
    SpaceTimeGrid,
    Variant,
    Violation,
    hamiltonian_tables,
    isaacs_condition_check,
    obstacle_step,
    on_nodes,
    validate_problem,
)
from isaacs.pde import solve_isaacs_double_obstacle, solve_isaacs_penalized
from isaacs.problems import BUILTINS, builtin, from_expressions
from isaacs.rbsde import comparison_check, solve_backward
from oracles import hamiltonian_lower, hamiltonian_upper


def _point(t=0.3, x=0.7, y=0.2, gradient=1.5, hessian=-2.0):
    return HamiltonianInput(t=t, x=x, y=y, gradient=gradient, hessian=hessian)


def test_bilinear_reductions_hit_the_hand_computed_saddle_gap():
    # with b = sigma = 0 the integrand is exactly u * v on {-1, 1}^2:
    # max_u min_v = -1, min_v max_u = +1, optimizers first in grid order
    spec = builtin("bilinear_game").spec
    lo = hamiltonian_lower(spec, _point())
    up = hamiltonian_upper(spec, _point())
    assert lo.value == -1.0
    assert up.value == 1.0
    assert (lo.u, lo.v) == (-1.0, 1.0)
    assert (up.u, up.v) == (-1.0, -1.0)


def test_singleton_controls_reduce_to_plain_evaluation():
    spec = builtin("dynkin_heat").spec
    g, h = 2.0, 1.0
    point = _point(gradient=g, hessian=h)
    expected = 0.5 * (math.sqrt(2.0) ** 2) * h + 0.3 * g
    assert abs(hamiltonian_lower(spec, point).value - expected) < 1e-14
    assert abs(hamiltonian_upper(spec, point).value - expected) < 1e-14


def _coupled_spec():
    co = CoefficientSet(
        b=lambda t, x, u, v: 0.1 * x + u,
        sigma=lambda t, x, u, v: 1.0 + 0.0 * x,
        driver=lambda t, x, y, z, u, v: u * v + 0.2 * y - 0.1 * z,
        terminal=lambda x: np.tanh(x),
        lower=lambda t, x: -3.0 + 0.0 * x,
        upper=lambda t, x: 3.0 + 0.0 * x,
        lipschitz=1.1,
        driver_lipschitz=0.3,
    )
    return ProblemSpec(
        horizon=1.0,
        coefficients=co,
        controls_i=ControlGrid("u", (-1.0, 0.0, 1.0)),
        controls_ii=ControlGrid("v", (-1.0, 1.0)),
    )


def test_minimax_inequality_on_random_points():
    spec = _coupled_spec()
    rng = np.random.default_rng(7)
    for _ in range(40):
        point = HamiltonianInput(
            t=rng.uniform(0.0, 1.0),
            x=rng.uniform(-2.0, 2.0),
            y=rng.uniform(-2.0, 2.0),
            gradient=rng.uniform(-2.0, 2.0),
            hessian=rng.uniform(-2.0, 2.0),
        )
        lo = hamiltonian_lower(spec, point).value
        up = hamiltonian_upper(spec, point).value
        assert up >= lo - 1e-12


def _custom_spec():
    # the benchmark's custom problem, with a z-dependent driver
    return from_expressions(
        horizon=0.5,
        b="0.5 * (u + v) * exp(0 - x^2 / 8)",
        sigma="0.8 + 0.2 * abs(u - v)",
        driver="0.5 * (u - v) + 0.1 * min(max(y, 0 - 1), 1) + 0.05 * exp(0 - y^2) * z",
        terminal="max(0, 1 - abs(x - 1)) - max(0, 1 - abs(x + 1))",
        lower="max(0, 1 - abs(x - 1)) - max(0, 1 - abs(x + 1)) - 0.4",
        upper="max(0, 1 - abs(x - 1)) - max(0, 1 - abs(x + 1)) + 0.4",
        controls_i=(-1.0, 0.0, 1.0),
        controls_ii=(-1.0, 0.0, 1.0),
        lipschitz=1.0,
        driver_lipschitz=0.2,
    )


_SPECS = {name: (lambda name=name: builtin(name).spec) for name in BUILTINS}
_SPECS.update(custom=_custom_spec, coupled=_coupled_spec)


# The scalar integrand and the nested loops of the pointwise Hamiltonians as
# written before they read the one stacked table; the package must match
# them byte for byte.
def _scalar(fn, *args):
    return float(np.asarray(fn(*args), dtype=float).reshape(()))


def _reference_integrand(spec, point, u, v):
    co = spec.coefficients
    sig = _scalar(co.sigma, point.t, point.x, u, v)
    b = _scalar(co.b, point.t, point.x, u, v)
    f = float(co.driver(point.t, point.x, point.y, point.gradient * sig, u, v))
    return 0.5 * (sig * sig * point.hessian) + point.gradient * b + f


def _reference_lower(spec, point):
    best = None
    for u in spec.controls_i.points:
        inner = None
        for v in spec.controls_ii.points:
            val = _reference_integrand(spec, point, u, v)
            if inner is None or val < inner[0]:
                inner = (val, v)
        if best is None or inner[0] > best[0]:
            best = (inner[0], u, inner[1])
    return best


def _reference_upper(spec, point):
    best = None
    for v in spec.controls_ii.points:
        inner = None
        for u in spec.controls_i.points:
            val = _reference_integrand(spec, point, u, v)
            if inner is None or val > inner[0]:
                inner = (val, u)
        if best is None or inner[0] < best[0]:
            best = (inner[0], inner[1], v)
    return best


def _same_optimum(got, want):
    value, u, v = want
    same_bytes = np.float64(got.value).tobytes() == np.float64(value).tobytes()
    return same_bytes and (got.u, got.v) == (u, v)


@pytest.mark.parametrize("name", sorted(_SPECS))
def test_pointwise_hamiltonians_and_isaacs_check_are_bitwise_the_scalar_loops(name):
    spec = _SPECS[name]()
    for seed in (0, 3, 7):
        for radius in (2.0, 4.0):
            report = isaacs_condition_check(spec, seed=seed, radius=radius)
            rng = np.random.default_rng(seed)
            worst, max_gap, total = None, -math.inf, 0.0
            for _ in range(report.samples):
                a = rng.uniform(-1.0, 1.0)
                point = HamiltonianInput(
                    t=rng.uniform(0.0, spec.horizon),
                    x=rng.uniform(-radius, radius),
                    y=rng.uniform(-radius, radius),
                    gradient=rng.uniform(-radius, radius),
                    hessian=2.0 * a,
                )
                lower, upper = _reference_lower(spec, point), _reference_upper(spec, point)
                assert _same_optimum(hamiltonian_lower(spec, point), lower), point
                assert _same_optimum(hamiltonian_upper(spec, point), upper), point
                gap = upper[0] - lower[0]
                total += gap
                if gap > max_gap:
                    worst, max_gap = point, gap
            assert np.float64(report.max_gap).tobytes() == np.float64(max_gap).tobytes()
            mean_gap = np.float64(total / report.samples)
            assert np.float64(report.mean_gap).tobytes() == mean_gap.tobytes()
            assert report.worst == worst


_COORDINATE = st.floats(-4.0, 4.0)


@settings(derandomize=True, database=None, deadline=None)
@given(
    name=st.sampled_from(sorted(_SPECS)),
    when=st.floats(0.0, 1.0),
    x=_COORDINATE,
    y=_COORDINATE,
    gradient=_COORDINATE,
    hessian=_COORDINATE,
)
def test_pointwise_hamiltonians_match_the_scalar_loops_anywhere(
    name, when, x, y, gradient, hessian
):
    # equal as numbers, not always as bytes: at q = +-0 with b < 0 the table's
    # b+ q + b- q adds a +0.0 that b q lacks, so an exactly zero value may
    # come out as +0.0 where the scalar loops gave -0.0
    spec = _SPECS[name]()
    point = HamiltonianInput(when * spec.horizon, x, y, gradient, hessian)
    assert tuple(hamiltonian_lower(spec, point)) == _reference_lower(spec, point)
    assert tuple(hamiltonian_upper(spec, point)) == _reference_upper(spec, point)


def _at(u, v, u0, v0):
    return (u == u0) & (v == v0)


def _broken_at(coefficient, bad):
    """`_coupled_spec` with `coefficient` inf wherever bad(x, u, v) holds,
    elementwise like every coefficient."""
    spec = _coupled_spec()
    fn = getattr(spec.coefficients, coefficient)

    def broken(*args):
        x, u, v = args[1], args[-2], args[-1]
        return np.where(bad(x, u, v), math.inf, fn(*args))

    co = dataclasses.replace(spec.coefficients, **{coefficient: broken})
    return dataclasses.replace(spec, coefficients=co)


# -- one call per coefficient for every control pair -------------------------

_BENCHMARK_CUSTOM = dict(
    b="0.5 * (u + v) * exp(0 - x^2 / 8)",
    sigma="0.8 + 0.2 * abs(u - v)",
    driver="0.5 * (u - v) + 0.1 * min(max(y, 0 - 1), 1)",
)
_EXPRESSIONS = {
    "b": ("0", "u", "u * v - x", "t * x - v", "max(u, v) * x", _BENCHMARK_CUSTOM["b"]),
    "sigma": ("1", "0.5 + 0 * u", "1 + 0.1 * x * u", "exp(0 - t) * (1 + v^2)",
              _BENCHMARK_CUSTOM["sigma"]),
    "driver": ("0", "u * v", "x * u + y * v", "t * y - v * z", "0.05 * exp(0 - y^2) * z + u",
               _BENCHMARK_CUSTOM["driver"]),
}


def _expression_spec(b, sigma, driver, controls_i, controls_ii):
    tent = "max(0, 1 - abs(x - 1)) - max(0, 1 - abs(x + 1))"
    return from_expressions(
        horizon=0.5, b=b, sigma=sigma, driver=driver, terminal=tent,
        lower=f"{tent} - 0.4", upper=f"{tent} + 0.4",
        controls_i=controls_i, controls_ii=controls_ii, lipschitz=1.0, driver_lipschitz=0.1,
    )


_SPECS["benchmark_custom"] = lambda: _expression_spec(
    **_BENCHMARK_CUSTOM, controls_i=(-1.0, 0.0, 1.0), controls_ii=(-1.0, 0.0, 1.0)
)
_CONTROLS = st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3)


@st.composite
def _table_specs(draw):
    """A spec of `_SPECS`, or an expression spec with 1-3 points per grid."""
    name = draw(st.sampled_from(sorted(_SPECS) + ["expressions"]))
    if name != "expressions":
        return _SPECS[name]()
    picks = {role: draw(st.sampled_from(texts)) for role, texts in _EXPRESSIONS.items()}
    return _expression_spec(**picks, controls_i=draw(_CONTROLS), controls_ii=draw(_CONTROLS))


def _per_pair_tables(spec, t, x, y, d2, dplus, dminus, dcentral):
    """`hamiltonian_tables` as one call of each coefficient per pair."""
    co = spec.coefficients
    tables, s2s, bs, sigs = [], [], [], []
    for u, v in spec.control_pairs():
        b = np.broadcast_to(np.asarray(co.b(t, x, u, v), dtype=float), x.shape)
        sig = np.broadcast_to(np.asarray(co.sigma(t, x, u, v), dtype=float), x.shape)
        f = np.broadcast_to(
            np.asarray(co.driver(t, x, y, dcentral * sig, u, v), dtype=float), y.shape
        )
        s2 = sig * sig
        tables.append(
            (0.5 * s2) * d2 + np.maximum(b, 0.0) * dplus + np.minimum(b, 0.0) * dminus + f
        )
        s2s.append(np.max(s2))
        bs.append(np.max(np.abs(b)))
        sigs.append(np.max(np.abs(sig)))
    shape = (len(spec.controls_i), len(spec.controls_ii)) + y.shape
    return np.array(tables).reshape(shape), float(max(s2s)), float(max(bs)), float(max(sigs))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    spec=_table_specs(),
    when=st.floats(0.0, 1.0),
    rows=st.integers(1, 3),
    nx=st.integers(3, 41),
    seed=st.integers(0, 2**16),
)
def test_tables_are_bitwise_one_call_per_pair(spec, when, rows, nx, seed):
    grid = SpaceTimeGrid(-4.0, 4.0, nx, 10, spec.horizon)
    x = grid.space_nodes()
    w = np.random.default_rng(seed).normal(size=(rows, nx))
    w[:, ::5] = -0.0
    args = (spec, when * spec.horizon, x, w, *pde._derivatives(w, grid.dx))
    got, want = hamiltonian_tables(*args), _per_pair_tables(*args)
    assert got[0].tobytes() == want[0].tobytes()
    for got_max, want_max in zip(got[1:], want[1:]):
        assert np.float64(got_max).tobytes() == np.float64(want_max).tobytes()


def test_a_march_level_and_the_isaacs_check_call_each_coefficient_once():
    calls = []
    spec = _counting(_SPECS["benchmark_custom"](), calls)
    grid = SpaceTimeGrid(-4.0, 4.0, 41, 40, spec.horizon)
    solve_isaacs_double_obstacle(spec, grid)
    for name in ("b", "sigma", "driver"):
        assert calls.count(name) == grid.nt, name
    calls.clear()
    isaacs_condition_check(spec, samples=64)
    assert sorted(calls) == ["b", "driver", "sigma"]


@pytest.mark.parametrize("coefficient", ["driver", "sigma"])
def test_a_nonfinite_integrand_names_its_first_pair_in_grid_order(coefficient):
    # nonfinite at (0, 1) and (1, -1): (0, 1) comes first with u outermost
    spec = _broken_at(coefficient, lambda x, u, v: _at(u, v, 0.0, 1.0) | _at(u, v, 1.0, -1.0))
    point = _point(hessian=0.0)
    for check in (
        lambda: hamiltonian_lower(spec, point),
        lambda: hamiltonian_upper(spec, point),
        lambda: isaacs_condition_check(spec, samples=1),
    ):
        with pytest.raises(CoefficientError, match=r"controls \(0\.0, 1\.0\)"):
            check()


@pytest.mark.parametrize("coefficient", ["driver", "sigma"])
def test_a_nonfinite_integrand_names_its_first_sample_then_its_first_pair(coefficient):
    # (1, -1) is bad at every sample and (0, 1), an earlier pair, at every
    # sample but the first: the first sample in draw order is named, at
    # (1, -1), though (0, 1) is bad at the second sample
    a, t, x = np.random.default_rng(0).uniform(
        (-1.0, 0.0, -2.0), (1.0, 1.0, 2.0), size=(1, 3)
    )[0]
    spec = _broken_at(
        coefficient, lambda xs, u, v: _at(u, v, 0.0, 1.0) & (xs != x) | _at(u, v, 1.0, -1.0)
    )
    name = "integrand" if coefficient == "driver" else coefficient
    message = f"nonfinite {name} at t={t}, x={x}, controls (1.0, -1.0)"
    for samples in (1, 2, 16):
        with pytest.raises(CoefficientError, match=f"^{re.escape(message)}$"):
            isaacs_condition_check(spec, samples=samples)


def test_a_nonfinite_sigma_at_one_t_per_node_names_that_nodes_t():
    spec = _broken_at("sigma", lambda x, u, v: (x > 0.0) & _at(u, v, 1.0, 1.0))
    t, x = np.array([0.1, 0.2, 0.3]), np.array([-1.0, 0.5, 2.0])
    w = np.zeros((1, 3))
    message = "nonfinite sigma at t=0.2, x=0.5, controls (1.0, 1.0)"
    with pytest.raises(CoefficientError, match=f"^{re.escape(message)}$"):
        hamiltonian_tables(spec, t, x, w, w, w, w, w)


@pytest.mark.parametrize("samples", [0, -1])
def test_isaacs_check_refuses_fewer_than_one_sample(samples):
    with pytest.raises(ValueError, match="samples must be at least 1"):
        isaacs_condition_check(_coupled_spec(), samples=samples)


@pytest.mark.parametrize("samples", [0, -1])
def test_validation_refuses_fewer_than_one_sample(samples):
    # with nothing sampled the report would read passed
    with pytest.raises(ValueError, match="samples must be at least 1"):
        validate_problem(_coupled_spec(), samples=samples)


def test_isaacs_check_separates_the_two_games():
    sep = isaacs_condition_check(builtin("separable_game").spec, samples=32)
    assert sep.satisfied
    assert sep.max_gap <= 1e-12
    bil = isaacs_condition_check(builtin("bilinear_game").spec, samples=32)
    assert not bil.satisfied
    assert bil.max_gap == 2.0
    assert bil.worst is not None


def test_isaacs_check_is_deterministic():
    spec = _coupled_spec()
    a = isaacs_condition_check(spec, samples=16, seed=3)
    b = isaacs_condition_check(spec, samples=16, seed=3)
    assert a.max_gap == b.max_gap
    assert a.mean_gap == b.mean_gap


def test_seeded_samplers_draw_the_pinned_stream():
    # recorded values: a changed draw order or count changes them
    report = isaacs_condition_check(_coupled_spec(), samples=16, seed=3)
    assert report.max_gap == 0.7142916171938478
    assert report.mean_gap == 0.13668134372233717

    spec = _coupled_spec()
    co = dataclasses.replace(
        spec.coefficients,
        b=lambda t, x, u, v: 2.0 * x + u,
        sigma=lambda t, x, u, v: 1.0 + x * x,
        driver=lambda t, x, y, z, u, v: u * v + 0.9 * y - 0.8 * z,
    )
    report = validate_problem(dataclasses.replace(spec, coefficients=co), samples=3, seed=5)
    first = {"t": 0.045275193902445166, "x": -2.7074537356369914, "u": -1.0, "v": -1.0}
    second = {"t": 0.8976776081085488, "x": 2.0653862256524462, "u": -1.0, "v": 1.0}
    third = {"t": 0.27145160453010153, "x": 2.2779070400095325, "u": 0.0, "v": -1.0}
    assert report.violations == (
        Violation("lipschitz_b", first, 2.0, "|db|/|dx| = 2 exceeds declared 1.1"),
        Violation(
            "lipschitz_driver_yz", first, 1.021338760123588,
            "|df|/|d(y,z)| = 1.02134 exceeds declared 0.3",
        ),
        Violation(
            "growth_dynamics", first, 3.977180634825981,
            "(|b|+|sigma|)/(1+|x|) = 3.97718 exceeds 3.1",
        ),
        Violation("lipschitz_b", second, 2.0, "|db|/|dx| = 2 exceeds declared 1.1"),
        Violation(
            "lipschitz_sigma", second, 1.419814211661115,
            "|dsigma|/|dx| = 1.41981 exceeds declared 1.1",
        ),
        Violation(
            "lipschitz_driver_yz", second, 0.6508081707173223,
            "|df|/|d(y,z)| = 0.650808 exceeds declared 0.3",
        ),
        Violation("lipschitz_b", third, 2.0, "|db|/|dx| = 2 exceeds declared 1.1"),
        Violation(
            "lipschitz_driver_yz", third, 0.9434135084631621,
            "|df|/|d(y,z)| = 0.943414 exceeds declared 0.3",
        ),
        Violation(
            "growth_dynamics", third, 3.277907040009533,
            "(|b|+|sigma|)/(1+|x|) = 3.27791 exceeds 3.1",
        ),
    )


def test_builtin_problems_pass_validation():
    for name in ("constant", "dynkin_heat", "bilinear_game", "separable_game"):
        report = validate_problem(builtin(name).spec, samples=60)
        assert report.passed, f"{name}: {report.violations}"
        assert report.samples == 60


def _counting(spec, calls):
    """`spec` with each coefficient appending its name to `calls` when called."""
    co = spec.coefficients

    def counted(name):
        fn = getattr(co, name)

        def coefficient(*args):
            calls.append(name)
            return fn(*args)

        return coefficient

    names = ("b", "sigma", "driver", "terminal", "lower", "upper")
    counted_co = dataclasses.replace(co, **{name: counted(name) for name in names})
    return dataclasses.replace(spec, coefficients=counted_co)


def test_validation_reads_the_payoff_twice_at_any_sample_count():
    # once at x = 0 for the growth baseline, once at all the sampled states
    # together; the terminal sandwich reuses the first states' values
    spec = builtin("dynkin_heat").spec
    for samples in (1, 37):
        calls = []
        report = validate_problem(_counting(spec, calls), samples=samples, seed=5)
        assert calls.count("terminal") == 2
        assert report == validate_problem(spec, samples=samples, seed=5)


@pytest.mark.parametrize("name", sorted(_SPECS))
def test_validation_calls_no_coefficient_more_often_with_more_samples(name):
    spec = _SPECS[name]()
    counts = []
    for samples in (1, 8, 200):
        calls = []
        validate_problem(_counting(spec, calls), samples=samples, seed=2)
        counts.append(sorted(calls))
    assert counts[0] == counts[1] == counts[2]


def test_crossed_obstacles_are_flagged():
    bp = builtin("dynkin_heat")
    co = dataclasses.replace(
        bp.spec.coefficients,
        lower=lambda t, x: 1.0 + 0.0 * np.asarray(x, dtype=float),
        upper=lambda t, x: -1.0 + 0.0 * np.asarray(x, dtype=float),
    )
    report = validate_problem(dataclasses.replace(bp.spec, coefficients=co), samples=40)
    assert not report.passed
    kinds = {v.kind for v in report.violations}
    assert "obstacle_separation" in kinds
    assert "terminal_sandwich" in kinds


def test_understated_lipschitz_constant_is_flagged():
    bp = builtin("dynkin_heat")
    co = dataclasses.replace(
        bp.spec.coefficients,
        b=lambda t, x, u, v: 5.0 * np.asarray(x, dtype=float),
        lipschitz=1.0,
    )
    report = validate_problem(dataclasses.replace(bp.spec, coefficients=co), samples=40)
    assert not report.passed
    assert any(v.kind == "lipschitz_b" for v in report.violations)


def test_understated_driver_lipschitz_is_flagged():
    bp = builtin("dynkin_heat")
    co = dataclasses.replace(
        bp.spec.coefficients,
        driver=lambda t, x, y, z, u, v: 3.0 * y + 0.0 * np.asarray(x, dtype=float),
        driver_lipschitz=0.5,
    )
    report = validate_problem(dataclasses.replace(bp.spec, coefficients=co), samples=40)
    assert not report.passed
    assert any(v.kind == "lipschitz_driver_yz" for v in report.violations)


def test_nonfinite_coefficients_are_flagged_not_raised():
    bp = builtin("constant")
    co = dataclasses.replace(
        bp.spec.coefficients,
        terminal=lambda x: np.where(np.asarray(x, dtype=float) > 0, np.nan, 0.0),
    )
    report = validate_problem(dataclasses.replace(bp.spec, coefficients=co), samples=40)
    assert not report.passed
    assert any(v.kind == "nonfinite" for v in report.violations)


def test_a_coefficient_nonfinite_at_the_second_sampled_state_is_flagged():
    # the first sample's second state, drawn after the 7 baseline times, t
    # and the first state
    xb = np.random.default_rng(0).uniform(-3.0, 3.0, size=10)[9]
    bp = builtin("constant")
    co = dataclasses.replace(
        bp.spec.coefficients,
        b=lambda t, x, u, v: np.where(np.asarray(x, dtype=float) == xb, np.nan, 0.0),
    )
    report = validate_problem(dataclasses.replace(bp.spec, coefficients=co), samples=1)
    assert [v.kind for v in report.violations] == ["nonfinite"]


@pytest.mark.parametrize("bound", [math.inf, -math.inf, math.nan])
def test_grid_bounds_must_be_finite(bound):
    with pytest.raises(ValueError, match="finite"):
        SpaceTimeGrid(-1.0, bound, 11, 4, 1.0)
    with pytest.raises(ValueError, match="finite"):
        SpaceTimeGrid(bound, 1.0, 11, 4, 1.0)


# the span overflows; the span is finite but dx^2 overflows; dx^2 underflows to 0
@pytest.mark.parametrize(
    "x_min, x_max", [(-1e308, 1e308), (-8e307, 8e307), (0.0, 1e-300)], ids=["span", "square", "zero"]
)
def test_a_grid_whose_dx_squared_leaves_the_float_range_is_refused(x_min, x_max):
    message = f"x_min = {x_min!r} and x_max = {x_max!r} over 11 nodes give a dx whose square"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        SpaceTimeGrid(x_min, x_max, 11, 20, 1.0)


@pytest.mark.parametrize("name", ["lipschitz", "driver_lipschitz"])
@pytest.mark.parametrize("value", [math.inf, math.nan, -1.0])
def test_lipschitz_constants_must_be_finite_and_nonnegative(name, value):
    co = builtin("constant").spec.coefficients
    with pytest.raises(ValueError, match="finite"):
        dataclasses.replace(co, **{name: value})


@pytest.mark.parametrize("point", [(0.0, 1.0), (0.5,), "1", None, 1j, np.zeros(1)], ids=repr)
def test_a_control_grid_refuses_a_point_that_is_not_a_real_number(point):
    message = f"control grid 'u' has point {point!r}, not a real number"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ControlGrid("u", (0.0, point))


def test_control_grid_and_spec_validation():
    with pytest.raises(ValueError, match="empty"):
        ControlGrid("u", ())
    with pytest.raises(ValueError, match="nonfinite"):
        ControlGrid("u", (0.0, math.inf))
    co = builtin("constant").spec.coefficients
    with pytest.raises(ValueError, match="horizon"):
        ProblemSpec(
            horizon=0.0,
            coefficients=co,
            controls_i=ControlGrid("u", (0.0,)),
            controls_ii=ControlGrid("v", (0.0,)),
        )
    with pytest.raises(ValueError, match="Lipschitz"):
        dataclasses.replace(co, lipschitz=-1.0)


@pytest.mark.parametrize(
    "name, penalty, expected",
    [
        ("plain", None, Variant(False, False, 0.0, 0.0)),
        ("penalized", (2.0, 3.0), Variant(False, False, 2.0, 3.0)),
        ("penalized", (1.5, 0.25), Variant(False, False, 1.5, 0.25)),
        ("one_barrier_lower", 5.0, Variant(True, False, 5.0, 0.0)),
        ("one_barrier_upper", 5.0, Variant(False, True, 0.0, 5.0)),
        ("two_barrier", None, Variant(True, True, 0.0, 0.0)),
    ],
)
def test_each_variant_name_maps_to_its_variant(name, penalty, expected):
    assert Variant.named(name, penalty) == expected


@pytest.mark.parametrize("solver", ["lattice", "grid"])
def test_unknown_variant_names_are_rejected_by_both_solvers(solver):
    spec = builtin("constant").spec
    grid = SpaceTimeGrid(-1.0, 1.0, 5, 10, 1.0)
    with pytest.raises(ValueError, match="unknown mode"):
        if solver == "lattice":
            solve_backward(spec, build_lattice(spec, 0.0, grid), mode="sideways")
        else:
            solve_isaacs_penalized(spec, grid, penalty_kind="sideways")


_PENALTIES = {
    "plain": None,
    "penalized": (3.0, 7.0),
    "one_barrier_lower": 5.0,
    "one_barrier_upper": 5.0,
    "two_barrier": None,
}


@st.composite
def _step_rows(draw):
    size = draw(st.integers(1, 8))
    finite = st.floats(-1e3, 1e3)

    def row(elements):
        return np.array(draw(st.lists(elements, min_size=size, max_size=size)))

    base, drive, lo = row(finite), row(finite), row(finite)
    up = lo + row(st.floats(1e-6, 1e3))
    dt = draw(st.floats(1e-4, 1.0))
    return base, drive, dt, lo, up


@settings(derandomize=True, database=None, deadline=None)
@given(name=st.sampled_from(sorted(_PENALTIES)), rows=_step_rows())
def test_obstacle_step_keeps_the_skorokhod_identities_exact(name, rows):
    base, drive, dt, lo, up = rows
    assert np.all(lo < up)
    variant = Variant.named(name, _PENALTIES[name])
    y, dkp, dkm = obstacle_step(base, drive, dt, lo, up, variant)
    assert np.all(dkp >= 0.0) and np.all(dkm >= 0.0)
    assert np.all(dkp * dkm == 0.0)
    assert np.all((y - lo) * dkp == 0.0)
    assert np.all((up - y) * dkm == 0.0)
    if variant.clamp_lower:
        assert np.all(y >= lo)
    if variant.clamp_upper:
        assert np.all(y <= up)


_STACKED = [
    ("two_barrier", None),
    ("one_barrier_lower", 0.0),
    ("one_barrier_lower", 4.0),
    ("one_barrier_upper", 0.0),
    ("one_barrier_upper", 4.0),
    ("penalized", (0.0, 0.0)),
    ("penalized", (4.0, 0.0)),
    ("penalized", (3.0, 7.0)),
    ("plain", None),
]


@settings(derandomize=True, database=None, deadline=None)
@given(
    picks=st.lists(st.sampled_from(range(len(_STACKED))), min_size=1, max_size=6),
    rows=_step_rows(),
)
def test_a_stacked_step_is_bitwise_each_rows_own_step(picks, rows):
    base, drive, dt, lo, up = rows
    variants = [Variant.named(*_STACKED[k]) for k in picks]
    # every row its own base and drive, zeros of both signs among them
    bases = np.stack([np.roll(base, i) * (-1.0) ** i for i in range(len(picks))])
    drives = np.stack([np.roll(drive, -i) * (-1.0) ** i for i in range(len(picks))])
    bases[:, 0] = -0.0
    drives[:, -1] = -0.0
    stacked = obstacle_step(bases, drives, dt, lo, up, Variant.stacked(variants))
    for i, variant in enumerate(variants):
        alone = obstacle_step(bases[i], drives[i], dt, lo, up, variant)
        for got, want in zip(stacked, alone):
            assert got[i].tobytes() == want.tobytes(), (i, variant)


def test_a_zero_penalty_keeps_the_sign_of_a_negative_zero_drive():
    # y = base + dt * drive is -0.0 only if the drive stays -0.0: a zero
    # weight must add no term, for -0.0 + 0.0 is +0.0
    lo, up = np.full(3, -1.0), np.full(3, 1.0)
    zero_weight = [
        Variant.named("penalized", (0.0, 0.0)),
        Variant.named("one_barrier_lower", 0.0),
        Variant.named("one_barrier_upper", 0.0),
        Variant.named("two_barrier"),
    ]
    weighted = Variant.named("penalized", (2.0, 3.0))
    variants = zero_weight + [weighted]
    base = np.full((len(variants), 3), -0.0)
    drive = np.full((len(variants), 3), -0.0)
    stacked, _, _ = obstacle_step(base, drive, 0.1, lo, up, Variant.stacked(variants))
    for i, variant in enumerate(zero_weight):
        alone, _, _ = obstacle_step(base[i], drive[i], 0.1, lo, up, variant)
        assert np.all(np.signbit(alone)) and np.all(np.signbit(stacked[i])), variant
    # a positive lower weight adds n * max(lo - base, 0) = +0.0 here
    assert not np.any(np.signbit(stacked[-1]))


def test_a_stacked_variant_keeps_shared_fields_and_stacks_the_others():
    two = Variant.named("two_barrier")
    assert Variant.stacked([two, two]) == two
    mixed = Variant.stacked([two, Variant.named("one_barrier_lower", 4.0)])
    assert mixed.clamp_lower is True
    assert mixed.clamp_upper.tolist() == [[True], [False]]
    assert mixed.pen_upper.tolist() == [[0.0], [4.0]]
    assert mixed.pen_lower == 0.0


_ROW = np.linspace(-1.0, 1.0, 5)


@pytest.mark.parametrize(
    "value, shape",
    [
        (2, (5,)),
        (np.float32(0.1), (5,)),
        (np.array([3.0]), (5,)),
        (_ROW, (5,)),
        ([0.0, 1.0, 2.0, 3.0, 4.0], (5,)),
        (_ROW, (3, 5)),
        (np.array([1, 2, 3])[:, None], (3, 5)),
        (np.outer(np.arange(3.0), _ROW), (3, 5)),
        # one value at one node takes the reshape path, bitwise the same
        (0.25, (1,)),
        (np.float64(-0.0), (1,)),
        (np.array([1.5]), (1,)),
        (np.array([[2.5]]), (1, 1)),
        (np.array(-3.0), (1, 1)),
        (np.array([7.0]), (1, 1)),
    ],
)
def test_on_nodes_is_a_float_broadcast(value, shape):
    row = on_nodes(value, shape, "b")
    expected = np.broadcast_to(np.asarray(value, dtype=float), shape)
    assert row.shape == shape and row.dtype == np.float64
    assert np.array_equal(row, expected)
    assert row.tobytes() == np.ascontiguousarray(expected).tobytes()


def test_on_nodes_returns_a_matching_float_array_itself():
    assert on_nodes(_ROW, _ROW.shape, "b") is _ROW


@pytest.mark.parametrize(
    "value, shape",
    [
        (np.zeros(3), (5,)),
        (np.zeros((2, 5)), (3, 5)),
        # np.broadcast_to never drops an axis, not even from one value
        (np.ones((1, 1, 1)), (1,)),
        (np.ones((1, 1, 1)), (1, 1)),
    ],
)
def test_on_nodes_refuses_shapes_that_do_not_broadcast(value, shape):
    message = f"driver returned shape {value.shape} for nodes of shape {shape}"
    with pytest.raises(CoefficientError, match=f"^{re.escape(message)}$"):
        on_nodes(value, shape, "driver")


def _wrong_shaped(name):
    bp = builtin("dynkin_heat")
    co = dataclasses.replace(bp.spec.coefficients, **{name: lambda *args: np.zeros(3)})
    return dataclasses.replace(bp.spec, coefficients=co)


_AT_ONE_STATE = ("b", "sigma", "driver", "terminal", "lower", "upper")


@pytest.mark.parametrize(
    "call, name, where",
    [
        (lambda spec: hamiltonian_lower(spec, _point()), "b", "for nodes of shape (1,)"),
        (lambda spec: hamiltonian_upper(spec, _point()), "b", "for nodes of shape (1,)"),
        (isaacs_condition_check, "b", "for nodes of shape (1,)"),
        (
            lambda spec: solve_isaacs_penalized(spec, SpaceTimeGrid(-1.0, 1.0, 11, 10, 1.0)),
            "b",
            "for nodes of shape (11,)",
        ),
        (
            lambda spec: build_lattice(spec, 0.0, SpaceTimeGrid(-1.0, 1.0, 11, 10, 1.0)),
            "b",
            "for nodes of shape (11,)",
        ),
    ]
    + [(validate_problem, name, "for nodes of shape (1,)") for name in _AT_ONE_STATE],
    ids=[
        "hamiltonian_lower", "hamiltonian_upper", "isaacs_condition_check", "march",
        "build_lattice",
    ]
    + [f"validate_problem_{name}" for name in _AT_ONE_STATE],
)
def test_a_wrong_shaped_coefficient_names_both_shapes(call, name, where):
    message = f"{name} returned shape (3,) {where}"
    with pytest.raises(CoefficientError, match=f"^{re.escape(message)}$"):
        call(_wrong_shaped(name))


# -- one shape rule ---------------------------------------------------------
#
# Every reader of a coefficient accepts a value that broadcasts to the shape
# of the states it was evaluated at (x, and for the driver x, y and z
# together), and refuses any other value with the same CoefficientError.

_CONSTANTS = {"b": 0.0, "sigma": 0.5, "driver": 0.0, "terminal": 0.0, "lower": -1.0, "upper": 1.0}
# the positions of the state arguments of each coefficient, x first
_STATE_ARGS = {"b": (1,), "sigma": (1,), "driver": (1, 2, 3), "terminal": (0,)}
_SHAPES = [(), (1,), ("n",), (2,), (1, 1), ("n", 1), ("n", 1, 1)]
_GRID = SpaceTimeGrid(-1.0, 1.0, 11, 10, 1.0)


def _shaped_spec(shapes, calls):
    """The constants of `_CONSTANTS`, coefficient `name` returning its
    constant in shapes[name], with "n" the number of x values it is given;
    each call appends (name, value shape, state shape) to `calls`."""

    def coefficient(name):
        states = _STATE_ARGS.get(name, (1,))

        def fn(*args):
            n = np.size(args[states[0]])
            shape = tuple(n if d == "n" else d for d in shapes.get(name, ()))
            calls.append((name, shape, np.broadcast_shapes(*(np.shape(args[i]) for i in states))))
            return np.full(shape, _CONSTANTS[name])

        return fn

    co = CoefficientSet(
        **{name: coefficient(name) for name in _CONSTANTS}, lipschitz=1.0, driver_lipschitz=0.0
    )
    return ProblemSpec(1.0, co, ControlGrid("u", (0.0,)), ControlGrid("v", (0.0,)))


def _fits(shape, states):
    try:
        return np.broadcast_shapes(shape, states) == states
    except ValueError:
        return False


_LATTICE = build_lattice(_shaped_spec({}, []), 0.0, _GRID)
_READERS = {
    "march": lambda spec: solve_isaacs_double_obstacle(spec, _GRID),
    "build_lattice": lambda spec: build_lattice(spec, 0.0, _GRID),
    "simulate_paths": lambda spec: simulate_paths(spec, 0.0, 0.0, 3, 4, seed=0),
    "hamiltonian_lower": lambda spec: hamiltonian_lower(spec, _point()),
    "validate_problem": lambda spec: validate_problem(spec, samples=8),
    "comparison_check": lambda spec: comparison_check(spec, spec, _LATTICE, samples=8),
}


def _assert_the_one_shape_rule(reader, shapes):
    calls = []
    try:
        _READERS[reader](_shaped_spec(shapes, calls))
    except CoefficientError as exc:
        refused = str(exc)
    else:
        refused = None
    misfits = [call for call in calls if not _fits(*call[1:])]
    expected = None
    if misfits:
        name, shape, states = misfits[0]
        expected = f"{name} returned shape {shape} for nodes of shape {states}"
    assert refused == expected, (reader, shapes)


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(
    reader=st.sampled_from(sorted(_READERS)),
    shapes=st.fixed_dictionaries({name: st.sampled_from(_SHAPES) for name in _CONSTANTS}),
)
def test_every_reader_takes_a_coefficient_by_the_one_shape_rule(reader, shapes):
    _assert_the_one_shape_rule(reader, shapes)


@pytest.mark.parametrize("shape", _SHAPES, ids=str)
@pytest.mark.parametrize("reader", sorted(_READERS))
def test_sigma_takes_the_one_shape_rule_at_every_reader(reader, shape):
    # (1, 1), (n, 1) and (n, 1, 1) were once read as one sigma per state
    _assert_the_one_shape_rule(reader, {"sigma": shape})


def test_a_payoff_of_one_value_passes_the_comparison_hypotheses():
    spec = builtin("constant").spec
    co = dataclasses.replace(spec.coefficients, terminal=lambda x: np.array([0.5]))
    spec = dataclasses.replace(spec, coefficients=co)
    lattice = build_lattice(spec, 0.0, SpaceTimeGrid(-1.0, 1.0, 11, 40, 1.0))
    report = comparison_check(spec, spec, lattice, samples=8)
    assert report.conclusive and report.passed
