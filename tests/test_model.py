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
    hamiltonian_lower,
    hamiltonian_upper,
    isaacs_condition_check,
    obstacle_step,
    sigma_rows,
    validate_problem,
)
from isaacs.pde import solve_isaacs_penalized
from isaacs.problems import builtin
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


def test_hamiltonian_input_symmetrizes_and_records_asymmetry():
    point = HamiltonianInput(t=0.0, x=0.0, y=0.0, gradient=0.0, hessian=1.0)
    assert point.asymmetry == 0.0
    with pytest.raises(ValueError, match="shape mismatch"):
        HamiltonianInput(t=0.0, x=0.0, y=0.0, gradient=(1.0, 2.0), hessian=1.0)


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


def test_sigma_rows_normalizes_every_supported_shape():
    x = np.array([0.0, 1.0, 2.0])
    base = builtin("constant").spec.coefficients

    scalar = dataclasses.replace(base, sigma=lambda t, x, u, v: 0.7)
    rows = sigma_rows(scalar, 0.0, x, 0.0, 0.0, 1)
    assert rows.shape == (3, 1) and np.all(rows == 0.7)

    per_node = dataclasses.replace(base, sigma=lambda t, x, u, v: np.asarray(x) * 2.0)
    rows = sigma_rows(per_node, 0.0, x, 0.0, 0.0, 1)
    assert np.array_equal(rows[:, 0], x * 2.0)

    const_row = dataclasses.replace(base, sigma=lambda t, x, u, v: np.array([0.3, 0.4]))
    rows = sigma_rows(const_row, 0.0, x, 0.0, 0.0, 2)
    assert rows.shape == (3, 2) and np.all(rows == np.array([0.3, 0.4]))

    full = dataclasses.replace(
        base, sigma=lambda t, x, u, v: np.stack([np.asarray(x), 0.0 * np.asarray(x)], axis=1)
    )
    rows = sigma_rows(full, 0.0, x, 0.0, 0.0, 2)
    assert rows.shape == (3, 2) and np.array_equal(rows[:, 0], x)


def test_sigma_rows_rejects_ambiguous_shapes():
    base = builtin("constant").spec.coefficients
    scalar = dataclasses.replace(base, sigma=lambda t, x, u, v: 0.7)
    with pytest.raises(CoefficientError, match="noise_dim"):
        sigma_rows(scalar, 0.0, np.zeros(3), 0.0, 0.0, 2)
    bad = dataclasses.replace(base, sigma=lambda t, x, u, v: np.zeros((2, 2, 2)))
    with pytest.raises(CoefficientError, match="cannot interpret"):
        sigma_rows(bad, 0.0, np.zeros(3), 0.0, 0.0, 1)


def test_sigma_rows_reads_vector_states_as_blocks():
    x = np.zeros((4, 2))
    base = builtin("constant").spec.coefficients
    mat = np.array([[1.0, 0.5, 0.0], [0.0, 2.0, 1.0]])
    shared = dataclasses.replace(base, sigma=lambda t, x, u, v: mat)
    rows = sigma_rows(shared, 0.0, x, 0.0, 0.0, 3)
    assert rows.shape == (4, 2, 3) and np.all(rows == mat)
    block = np.arange(24.0).reshape(4, 2, 3)
    full = dataclasses.replace(base, sigma=lambda t, x, u, v: block)
    assert np.array_equal(sigma_rows(full, 0.0, x, 0.0, 0.0, 3), block)
    scalar = dataclasses.replace(base, sigma=lambda t, x, u, v: 0.7)
    with pytest.raises(CoefficientError, match="noise_dim"):
        sigma_rows(scalar, 0.0, x, 0.0, 0.0, 3)


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
        ("free", (2.0, 3.0), Variant(False, False, 2.0, 3.0)),
        ("one_barrier_lower", 5.0, Variant(True, False, 5.0, 0.0)),
        ("one_barrier_upper", 5.0, Variant(False, True, 0.0, 5.0)),
        ("two_barrier", None, Variant(True, True, 0.0, 0.0)),
    ],
)
def test_each_variant_name_maps_to_its_variant(name, penalty, expected):
    assert Variant.named(name, penalty) == expected


def test_free_and_penalized_spell_the_same_variant():
    for pair in ((0.0, 0.0), (1.5, 0.25)):
        assert Variant.named("free", pair) == Variant.named("penalized", pair)


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
    "free": (7.0, 3.0),
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
