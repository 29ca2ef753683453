import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchkelly.errors import ConfigError
from benchkelly.model import CoefficientSet, ModelSpec, validate_model
from benchkelly.policy import (
    ROUTES,
    fractional_kelly,
    gain_table,
    optimal_gamma,
    optimal_h,
    optimal_nu,
)
from benchkelly.valuefn import solve_value_coefficients, value_function

from conftest import make_random_spec, make_scalar_spec, make_twofactor_spec


@pytest.fixture(scope="module")
def solved_random():
    """Three random solved models for identity sweeps."""
    out = []
    for seed in (21, 22, 23):
        rng = np.random.default_rng(seed)
        vm = validate_model(make_random_spec(rng))
        out.append((vm, solve_value_coefficients(vm, steps_per_year=252), rng))
    return out


def test_hand_value_no_hedge():
    # a = 0.04, A = 0, Lambda = 0, Xi = 0, theta = 1: h* = 0.5 * a / ss = 0.5
    spec = ModelSpec.constant(
        n=1, m=1, d=1, horizon_years=1.0, theta=1.0, x0=[0.0],
        asset_drift=[0.04], asset_vol=[[0.2]],
    )
    vm = validate_model(spec)
    vc = solve_value_coefficients(vm, steps_per_year=252)
    h = optimal_h(vm, vc, 0.3, np.zeros(1))
    assert h[0] == pytest.approx(0.5, abs=1e-12)


def test_zero_numerator_gives_zero_allocation():
    # pick x with a + A x = 0 in a hedge-free model: h* = 0
    spec = ModelSpec.constant(
        n=1, m=1, d=1, horizon_years=1.0, theta=1.0, x0=[0.0],
        asset_drift=[0.04], asset_factor_loading=[[0.2]], asset_vol=[[0.2]],
    )
    vm = validate_model(spec)
    vc = solve_value_coefficients(vm, steps_per_year=252)
    x = np.array([-0.2])  # a + A x = 0.04 - 0.04
    h = optimal_h(vm, vc, 0.0, x)
    # Lambda = 0 kills the gradient correction entirely
    assert abs(h[0]) < 1e-14


def test_theta_zero_is_exact_kelly(scalar_model):
    spec = make_scalar_spec(theta=0.0)
    vm = validate_model(spec)
    vc = solve_value_coefficients(vm, steps_per_year=252)
    x = np.array([0.4])
    block = vm.coefficients(0.2)
    gram = vm.gram_blocks(0.2)
    expected = gram.ss_solve(block.asset_drift + block.asset_factor_loading @ x)
    assert np.array_equal(optimal_h(vm, vc, 0.2, x), expected)


def test_theta_zero_optimal_table_is_the_kelly_table():
    # at theta = 0 the general formula's value-gradient terms vanish bit for bit
    rng = np.random.default_rng(67)
    specs = [make_scalar_spec(theta=0.0), make_twofactor_spec(theta=0.0)]
    specs += [make_random_spec(rng, theta=0.0) for _ in range(20)]
    for spec in specs:
        vm = validate_model(spec)
        vc = solve_value_coefficients(vm, steps_per_year=52)
        times = np.linspace(0.0, vm.horizon, 7, endpoint=False)
        kelly = gain_table(vm, None, times, "kelly")
        for route in ROUTES:
            optimal = gain_table(vm, vc, times, "optimal", route)
            assert optimal.gain[:, :, optimal.h].tobytes() == kelly.gain.tobytes()
            assert optimal.offset[:, optimal.h].tobytes() == kelly.offset.tobytes()


def test_kelly_limit_small_theta():
    spec = make_scalar_spec(theta=1e-8, bench_vol=[0.0])
    vm = validate_model(spec)
    vc = solve_value_coefficients(vm, steps_per_year=504)
    rng = np.random.default_rng(2)
    for _ in range(20):
        t = float(rng.uniform(0, 1))
        x = rng.standard_normal(1)
        h = optimal_h(vm, vc, t, x)
        kelly = fractional_kelly(vm, vc, t, x).kelly
        assert np.abs(h - kelly).max() < 1e-6


def test_route_equivalence_random_points(solved_random):
    for vm, vc, rng in solved_random:
        for _ in range(100):
            t = float(rng.uniform(0, vm.horizon))
            x = rng.standard_normal(vm.n)
            h1 = optimal_h(vm, vc, t, x, route="direct")
            h2 = optimal_h(vm, vc, t, x, route="twostep")
            assert np.abs(h1 - h2).max() <= 1e-12 * (1.0 + np.abs(h1).max())


def test_gamma_theta_zero_reduces_to_gradient_term():
    spec = make_scalar_spec(theta=0.0)
    vm = validate_model(spec)
    vc = solve_value_coefficients(vm, steps_per_year=252)
    x = np.array([0.3])
    gamma = optimal_gamma(vm, vc, 0.5, x)
    lam = vm.coefficients(0.5).factor_vol
    grad = value_function(vc, 0.5, x).gradient
    assert np.array_equal(gamma, lam.T @ grad)
    assert np.all(gamma == 0.0)  # gradient of the log criterion vanishes at theta = 0


def test_gamma_zero_gradient_form():
    # Du = 0 and Xi = 0: gamma* = -(theta/(theta+1)) Sigma'(SS)^-1 (a + A x)
    spec = ModelSpec.constant(
        n=1, m=1, d=2, horizon_years=1.0, theta=1.0, x0=[0.0],
        asset_drift=[0.04], asset_vol=[[0.2, 0.0]],
    )
    vm = validate_model(spec)
    vc = solve_value_coefficients(vm, steps_per_year=252)
    x = np.array([0.7])
    gamma = optimal_gamma(vm, vc, 0.2, x)
    block = vm.coefficients(0.2)
    gram = vm.gram_blocks(0.2)
    expected = -0.5 * (block.asset_vol.T @ gram.ss_solve(block.asset_drift))
    assert np.abs(gamma - expected).max() < 1e-14


def test_gamma_dual_forms_agree(solved_random):
    # optimal_gamma cross-asserts its two representations internally
    for vm, vc, rng in solved_random:
        for _ in range(50):
            t = float(rng.uniform(0, vm.horizon))
            x = rng.standard_normal(vm.n)
            optimal_gamma(vm, vc, t, x)  # raises RepresentationMismatch on failure


def test_nu_equals_factor_loading_of_gradient(solved_random):
    for vm, vc, rng in solved_random:
        t = float(rng.uniform(0, vm.horizon))
        x = rng.standard_normal(vm.n)
        nu = optimal_nu(vm, vc, t, x)
        lam = vm.coefficients(t).factor_vol
        grad = value_function(vc, t, x).gradient
        assert np.abs(nu - lam.T @ grad).max() < 1e-12 * (1.0 + np.abs(nu).max())


def test_nu_zero_without_factor_noise():
    spec = ModelSpec.constant(
        n=1, m=1, d=1, horizon_years=1.0, theta=1.0, x0=[0.0],
        asset_drift=[0.04], asset_factor_loading=[[1.0]], asset_vol=[[0.2]],
    )
    vm = validate_model(spec)
    vc = solve_value_coefficients(vm, steps_per_year=252)
    assert np.all(optimal_nu(vm, vc, 0.5, np.array([1.0])) == 0.0)


def test_tilt_relation(solved_random):
    for vm, vc, rng in solved_random:
        for _ in range(50):
            t = float(rng.uniform(0, vm.horizon))
            x = rng.standard_normal(vm.n)
            block = vm.coefficients(t)
            h = optimal_h(vm, vc, t, x)
            gamma = optimal_gamma(vm, vc, t, x)
            nu = optimal_nu(vm, vc, t, x)
            resid = gamma - nu + vm.theta * (block.asset_vol.T @ h - block.bench_vol)
            assert np.abs(resid).max() <= 1e-12 * (1.0 + np.abs(gamma).max())


def test_fractional_kelly_fields(scalar_model, scalar_vc):
    x = np.array([0.25])
    action = fractional_kelly(scalar_model, scalar_vc, 0.3, x)
    assert action.kelly_fraction == 0.5  # theta = 1
    # midpoint structure at theta = 1
    expected = 0.5 * action.kelly + 0.5 * (action.bench_track - action.hedge)
    assert np.abs(action.allocation - expected).max() < 1e-12


def test_pure_fractional_kelly_degenerate_benchmark():
    spec = ModelSpec.constant(
        n=1, m=1, d=1, horizon_years=1.0, theta=3.0, x0=[0.0],
        asset_drift=[0.04], asset_factor_loading=[[0.5]], asset_vol=[[0.2]],
    )
    vm = validate_model(spec)
    vc = solve_value_coefficients(vm, steps_per_year=252)
    action = fractional_kelly(vm, vc, 0.1, np.array([0.2]))
    assert np.all(action.bench_track == 0.0) and np.all(action.hedge == 0.0)
    assert np.abs(action.allocation - 0.25 * action.kelly).max() < 1e-14


def test_decomposition_reproduces_optimal(solved_random):
    for vm, vc, rng in solved_random:
        for _ in range(30):
            t = float(rng.uniform(0, vm.horizon))
            x = rng.standard_normal(vm.n)
            action = fractional_kelly(vm, vc, t, x)
            h = optimal_h(vm, vc, t, x)
            assert np.abs(action.allocation - h).max() <= 1e-12 * (1.0 + np.abs(h).max())
            # regularized form: h* = kelly + (SS)^-1 Sigma gamma*
            gram = vm.gram_blocks(t)
            sigma = vm.coefficients(t).asset_vol
            reg = action.kelly + gram.ss_solve(sigma @ action.tilt)
            assert np.abs(action.allocation - reg).max() <= 1e-12 * (1.0 + np.abs(h).max())


@settings(max_examples=30, deadline=None)
@given(
    x=st.floats(-3, 3, allow_nan=False),
    y=st.floats(-3, 3, allow_nan=False),
    t=st.floats(0.0, 1.0, allow_nan=False),
)
def test_policies_affine_in_state(scalar_model, scalar_vc, x, y, t):
    xa, xb = np.array([x]), np.array([y])
    mid = 0.5 * (xa + xb)
    for fn in (optimal_h, optimal_gamma, optimal_nu):
        fa = fn(scalar_model, scalar_vc, t, xa)
        fb = fn(scalar_model, scalar_vc, t, xb)
        fm = fn(scalar_model, scalar_vc, t, mid)
        assert np.abs(fm - 0.5 * (fa + fb)).max() <= 1e-12 * (1.0 + np.abs(fm).max())


@pytest.mark.parametrize("theta", [1.0, 0.0])
@pytest.mark.parametrize("route", ["direct", "twostep"])
def test_point_evaluators_are_one_row_batch_calls(theta, route):
    # the point evaluators read one row of the gain table the simulator steps through
    rng = np.random.default_rng(31)
    vm = validate_model(make_random_spec(rng, theta=theta, n=3, m=4, d=7))
    vc = solve_value_coefficients(vm, steps_per_year=252)
    for _ in range(10):
        t = float(rng.uniform(0, vm.horizon))
        x = rng.standard_normal(vm.n)
        block = vm.coefficients(t)
        table = gain_table(vm, vc, [t], route=route)
        C = table.controls(0, x[None, :])[0]
        direct = gain_table(vm, vc, [t])
        D = direct.controls(0, x[None, :])[0]
        G = D[direct.value_tilt] - vm.theta * (D[direct.h] @ block.asset_vol - block.bench_vol)
        kelly = gain_table(vm, None, [t], "kelly")
        assert np.array_equal(optimal_h(vm, vc, t, x, route), C[table.h])
        assert np.array_equal(optimal_nu(vm, vc, t, x), D[direct.nu])
        assert np.array_equal(optimal_gamma(vm, vc, t, x), G)
        action = fractional_kelly(vm, vc, t, x)
        assert np.array_equal(action.allocation, D[direct.h])
        assert np.array_equal(action.kelly, kelly.controls(0, x[None, :])[0, kelly.h])


def test_batch_evaluators_match_pointwise(solved_random):
    # a 7-row evaluation of the gain table agrees with the one-row point evaluators
    for vm, vc, rng in solved_random:
        t = float(rng.uniform(0, vm.horizon))
        X = rng.standard_normal((7, vm.n))
        direct = gain_table(vm, vc, [t])
        C = direct.controls(0, X)
        twostep = gain_table(vm, vc, [t], route="twostep")
        H2 = twostep.controls(0, X)[:, twostep.h]
        kelly = gain_table(vm, None, [t], "kelly")
        K = kelly.controls(0, X)[:, kelly.h]
        block = vm.coefficients(t)
        H, VT, NU = C[:, direct.h], C[:, direct.value_tilt], C[:, direct.nu]
        G = VT - vm.theta * (H @ block.asset_vol - block.bench_vol)
        for i, x in enumerate(X):
            assert np.abs(H[i] - optimal_h(vm, vc, t, x)).max() < 1e-13 * (1 + np.abs(H[i]).max())
            assert np.abs(H2[i] - optimal_h(vm, vc, t, x, "twostep")).max() < 1e-13 * (1 + np.abs(H[i]).max())
            assert np.abs(G[i] - optimal_gamma(vm, vc, t, x)).max() < 1e-12 * (1 + np.abs(G[i]).max())
            assert np.abs(NU[i] - optimal_nu(vm, vc, t, x)).max() < 1e-13 * (1 + np.abs(NU[i]).max())
            lam_grad = vm.coefficients(t).factor_vol.T @ value_function(vc, t, x).gradient
            assert np.abs(VT[i] - lam_grad).max() < 1e-13 * (1 + np.abs(VT[i]).max())
            assert np.abs(K[i] - fractional_kelly(vm, vc, t, x).kelly).max() < 1e-13 * (1 + np.abs(K[i]).max())


def _two_segment_spec(rng, theta):
    """A random model whose coefficients change at mid-horizon."""
    first = make_random_spec(rng, theta=theta, n=3, m=2, d=4)
    second = make_random_spec(rng, theta=theta, n=3, m=2, d=4)
    return dataclasses.replace(first, coeffs=CoefficientSet(
        knots=np.array([0.0, 0.5]), blocks=(first.coeffs.blocks[0], second.coeffs.blocks[0])))


@pytest.mark.parametrize("theta", [0.0, 0.5, 3.7])
def test_gain_table_rows_are_the_closed_form_controls(theta):
    # each row, at states x, is the closed form built from ce = quad x + lin
    rng = np.random.default_rng(47)
    vm = validate_model(_two_segment_spec(rng, theta))
    vc = solve_value_coefficients(vm, steps_per_year=252)
    times = np.sort(rng.uniform(0, vm.horizon, 9))
    X = rng.standard_normal((5, vm.n))
    tables = {route: gain_table(vm, vc, times, route=route) for route in ("direct", "twostep")}
    kelly = gain_table(vm, None, times, "kelly")

    def close(a, b):
        return np.abs(a - b).max() <= 1e-14 * np.abs(b).max()

    for j, t in enumerate(times.tolist()):
        block, gram = vm.coefficients(t), vm.gram_blocks(t)
        quad, lin, _ = vc.at(t)
        for x in X:
            ce = quad @ x + lin
            tilt = -theta * (block.factor_vol.T @ ce)
            kelly_h = gram.ss_solve(block.asset_drift + block.asset_factor_loading @ x)
            h = kelly_h if theta == 0.0 else gram.ss_solve(
                block.asset_drift + block.asset_factor_loading @ x + theta * gram.s_xi
                - theta * (gram.sl @ ce)) / (theta + 1.0)
            assert close(kelly.controls(j, x[None, :])[0], kelly_h)
            for table in tables.values():
                row = table.controls(j, x[None, :])[0]
                assert close(row[table.h], h)
                if theta > 0.0:
                    assert close(row[table.value_tilt], tilt)
                    assert close(row[table.nu], tilt)


def test_gain_table_rejects_coefficients_of_another_model(scalar_model, scalar_vc):
    other = validate_model(make_scalar_spec(theta=5.0))
    with pytest.raises(ConfigError, match="theta"):
        optimal_h(other, scalar_vc, 0.1, np.array([0.2]))
    shorter = validate_model(make_scalar_spec(horizon=0.5))
    with pytest.raises(ConfigError, match="horizon"):
        fractional_kelly(shorter, scalar_vc, 0.1, np.array([0.2]))
