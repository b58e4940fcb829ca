"""Hamiltonian reductions, Isaacs condition and structural validation."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isaacs.forwardsim import build_lattice
from isaacs.model import (
    CoefficientError,
    CoefficientSet,
    ControlGrid,
    HamiltonianInput,
    ProblemSpec,
    SpaceTimeGrid,
    Variant,
    Violation,
    hamiltonian_lower,
    hamiltonian_upper,
    isaacs_condition_check,
    obstacle_step,
    on_nodes,
    sigma_rows,
    validate_problem,
)
from isaacs.pde import solve_isaacs_penalized
from isaacs.problems import BUILTINS, builtin, from_expressions
from isaacs.rbsde import solve_backward


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


@pytest.mark.parametrize("coefficient", ["driver", "sigma"])
def test_a_nonfinite_integrand_names_its_first_pair_in_grid_order(coefficient):
    # nonfinite at (0, 1) and (1, -1): (0, 1) comes first with u outermost
    spec = _coupled_spec()
    bad = {(0.0, 1.0), (1.0, -1.0)}
    fn = getattr(spec.coefficients, coefficient)

    def broken(*args):
        u, v = args[-2:]
        return math.inf if (u, v) in bad else fn(*args)

    co = dataclasses.replace(spec.coefficients, **{coefficient: broken})
    spec = dataclasses.replace(spec, coefficients=co)
    point = _point(hessian=0.0)
    for check in (
        lambda: hamiltonian_lower(spec, point),
        lambda: hamiltonian_upper(spec, point),
        lambda: isaacs_condition_check(spec, samples=1),
    ):
        with pytest.raises(CoefficientError, match=r"controls \(0\.0, 1\.0\)"):
            check()


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
        assert report.passed, f"{name}: {report.summary()}"
        assert report.summary() == "ok (60 samples)"


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


@pytest.mark.parametrize("bound", [math.inf, -math.inf, math.nan])
def test_grid_bounds_must_be_finite(bound):
    with pytest.raises(ValueError, match="finite"):
        SpaceTimeGrid(-1.0, bound, 11, 4, 1.0)
    with pytest.raises(ValueError, match="finite"):
        SpaceTimeGrid(bound, 1.0, 11, 4, 1.0)


@pytest.mark.parametrize("name", ["lipschitz", "driver_lipschitz"])
@pytest.mark.parametrize("value", [math.inf, math.nan, -1.0])
def test_lipschitz_constants_must_be_finite_and_nonnegative(name, value):
    co = builtin("constant").spec.coefficients
    with pytest.raises(ValueError, match="finite"):
        dataclasses.replace(co, **{name: value})


def test_sigma_rows_normalizes_every_supported_shape():
    x = np.array([0.0, 1.0, 2.0])
    base = builtin("constant").spec.coefficients

    scalar = dataclasses.replace(base, sigma=lambda t, x, u, v: 0.7)
    rows = sigma_rows(scalar, 0.0, x, 0.0, 0.0)
    assert rows.shape == (3,) and np.all(rows == 0.7)

    per_node = dataclasses.replace(base, sigma=lambda t, x, u, v: np.asarray(x) * 2.0)
    rows = sigma_rows(per_node, 0.0, x, 0.0, 0.0)
    assert np.array_equal(rows, x * 2.0)

    for shape in ((), (1,), (1, 1)):
        shared = dataclasses.replace(base, sigma=lambda t, x, u, v: np.full(shape, 0.7))
        rows = sigma_rows(shared, 0.0, x, 0.0, 0.0)
        assert rows.shape == (3,) and np.all(rows == 0.7), shape
    for shape in ((3,), (3, 1), (3, 1, 1)):
        each = dataclasses.replace(base, sigma=lambda t, x, u, v: (x + 1.0).reshape(shape))
        rows = sigma_rows(each, 0.0, x, 0.0, 0.0)
        assert np.array_equal(rows, x + 1.0), shape


def test_sigma_rows_rejects_ambiguous_shapes():
    base = builtin("constant").spec.coefficients
    for shape in ((2, 2, 2), (2,), (3, 2)):
        bad = dataclasses.replace(base, sigma=lambda t, x, u, v: np.zeros(shape))
        with pytest.raises(CoefficientError, match="cannot interpret"):
            sigma_rows(bad, 0.0, np.zeros(3), 0.0, 0.0)


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
            solve_backward(spec, build_lattice(spec, 0.0, grid), (0.0, 0.0), mode="sideways")
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
    ],
)
def test_on_nodes_is_a_float_broadcast(value, shape):
    row = on_nodes(value, shape)
    expected = np.broadcast_to(np.asarray(value, dtype=float), shape)
    assert row.shape == shape and row.dtype == np.float64
    assert np.array_equal(row, expected)
    assert row.tobytes() == np.ascontiguousarray(expected).tobytes()


def test_on_nodes_returns_a_matching_float_array_itself():
    assert on_nodes(_ROW, _ROW.shape) is _ROW


@pytest.mark.parametrize("value, shape", [(np.zeros(3), (5,)), (np.zeros((2, 5)), (3, 5))])
def test_on_nodes_refuses_shapes_that_do_not_broadcast(value, shape):
    with pytest.raises(ValueError):
        on_nodes(value, shape)
