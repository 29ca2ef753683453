import numpy as np
import pytest

from benchkelly import policy as policy_mod
from benchkelly.errors import ConfigError, SaddleViolation
from benchkelly.game import (
    bellman_isaacs_integrand,
    hamiltonians,
    running_payoff_g,
    running_payoff_g1,
    saddle_check,
    twostep_hamiltonian,
)
from benchkelly.model import ModelSpec, validate_model
from benchkelly.policy import fractional_kelly, gain_table, optimal_gamma, optimal_h
from benchkelly.valuefn import _SegmentTerms, solve_value_coefficients, value_function

from conftest import (make_random_spec, make_scalar_spec, make_two_segment_spec,
                      make_twofactor_spec)


def hamiltonian_F(model, theta, s, x, h, gamma, p) -> float:
    """Control-dependent part of the Bellman-Isaacs Hamiltonian (scaled by
    theta), written out term by term as a reference for the closed-form
    inner optimizers."""
    block = model.coefficients(s)
    gram = model.gram_blocks(s)
    return float(
        0.5 * h @ gram.ss @ h
        - h @ (block.asset_drift + block.asset_factor_loading @ x)
        - 0.5 / theta * gamma @ gamma
        - gamma @ (block.asset_vol.T @ h - block.bench_vol)
        + (1.0 / theta) * gamma @ (block.factor_vol.T @ p)
    )


@pytest.fixture(scope="module")
def plain_model():
    # m=1, d=1, Sigma=0.2, a=0.04, everything else zero
    spec = ModelSpec.constant(
        n=1, m=1, d=1, horizon_years=1.0, theta=1.0, x0=[0.0],
        asset_drift=[0.04], asset_vol=[[0.2]],
    )
    return validate_model(spec)


def test_payoff_zero_case():
    spec = ModelSpec.constant(n=1, m=1, d=1, horizon_years=1.0, theta=1.0, x0=[0.0],
                              asset_vol=[[0.2]])
    vm = validate_model(spec)
    val = running_payoff_g(vm, 0.0, np.zeros(1), np.zeros(1), np.zeros(1))
    assert val == 0.0


def test_payoff_hand_value(plain_model):
    val = running_payoff_g(plain_model, 0.0, np.zeros(1), np.array([1.0]), np.zeros(1))
    assert val == pytest.approx(-0.02, abs=1e-15)


def test_payoff_pure_entropy():
    spec = ModelSpec.constant(
        n=1, m=1, d=1, horizon_years=1.0, theta=2.0, x0=[0.0],
        asset_drift=[0.04], asset_vol=[[0.2]],
    )
    gamma = np.array([0.7])
    val = running_payoff_g(validate_model(spec), 0.0, np.array([3.0]), np.zeros(1), gamma)
    assert val == pytest.approx(-0.25 * 0.49, abs=1e-15)


@pytest.mark.parametrize("fn", ["running_payoff_g", "running_payoff_g1",
                                "twostep_hamiltonian", "saddle_check"])
def test_payoff_requires_positive_theta(fn):
    vm = validate_model(make_scalar_spec(theta=0.0))
    x, zero = np.array([0.1]), np.zeros(1)
    calls = {
        "running_payoff_g": lambda: running_payoff_g(vm, 0.0, x, zero, zero),
        "running_payoff_g1": lambda: running_payoff_g1(vm, 0.0, x, zero),
        "twostep_hamiltonian": lambda: twostep_hamiltonian(vm, 0.0, x, zero, zero, zero,
                                                           np.zeros((1, 1))),
        "saddle_check": lambda: saddle_check(
            vm, solve_value_coefficients(vm, steps_per_year=12), 0.5, x, probes=10),
    }
    with pytest.raises(ConfigError, match=f"{fn} requires theta > 0"):
        calls[fn]()


def test_payoffs_on_a_stack_equal_the_row_by_row_calls(twofactor_model, twofactor_vc):
    vm, vc = twofactor_model, twofactor_vc
    rng = np.random.default_rng(13)
    t, x = 0.35, np.array([0.4])
    H = rng.standard_normal((6, vm.m))
    G = rng.standard_normal((6, vm.d))
    X = rng.standard_normal((6, vm.n))
    stacks = {
        "g": (running_payoff_g(vm, t, X, H, G),
              [running_payoff_g(vm, t, *row) for row in zip(X, H, G)]),
        "g1": (running_payoff_g1(vm, t, X, H),
               [running_payoff_g1(vm, t, *row) for row in zip(X, H)]),
        "bracket": (bellman_isaacs_integrand(vm, vc, t, x, H, G),
                    [bellman_isaacs_integrand(vm, vc, t, x, h, g) for h, g in zip(H, G)]),
    }
    for name, (stacked, rows) in stacks.items():
        assert np.ndim(rows[0]) == 0, name
        assert stacked.shape == (6,), name
        np.testing.assert_allclose(stacked, rows, rtol=1e-14, atol=0, err_msg=name)


def test_transformed_payoff_is_the_game_payoff_at_the_maximizing_tilt():
    # g1(h) = g(h, -theta (Sigma' h - Xi)): the tilt maximizes -track . gamma
    # - |gamma|^2 / (2 theta), which leaves -ell + theta/2 |track|^2
    rng = np.random.default_rng(23)
    for _ in range(10):
        vm = validate_model(make_random_spec(rng))
        block = vm.coefficients(0.5)
        x = rng.standard_normal(vm.n)
        h = rng.standard_normal(vm.m)
        gamma = -vm.theta * (block.asset_vol.T @ h - block.bench_vol)
        g1 = running_payoff_g1(vm, 0.5, x, h)
        g = running_payoff_g(vm, 0.5, x, h, gamma)
        assert abs(g1 - g) <= 1e-12 * (1.0 + abs(g1))


def test_transformed_payoff_no_position():
    spec = ModelSpec.constant(
        n=1, m=1, d=1, horizon_years=1.0, theta=2.0, x0=[0.0],
        asset_vol=[[0.2]], bench_drift=0.03, bench_factor_loading=[0.4],
    )
    vm = validate_model(spec)
    x = np.array([2.0])
    val = running_payoff_g1(vm, 0.0, x, np.zeros(1))
    assert val == pytest.approx(0.03 + 0.8, abs=1e-14)


def test_transformed_payoff_hand_value(plain_model):
    val = running_payoff_g1(plain_model, 0.0, np.zeros(1), np.array([1.0]))
    assert val == pytest.approx(0.0, abs=1e-15)


def test_transformed_payoff_theta_one_drops_bench_variance():
    spec = ModelSpec.constant(
        n=1, m=1, d=2, horizon_years=1.0, theta=1.0, x0=[0.0],
        asset_vol=[[0.2, 0.0]], bench_vol=[0.0, 0.5],
    )
    vm = validate_model(spec)
    # h = 0, c = 0, C = 0: only the (theta-1)/2 * |Xi|^2 term could remain
    val = running_payoff_g1(vm, 0.0, np.zeros(1), np.zeros(1))
    assert val == 0.0


def test_hamiltonian_inner_zero(plain_model):
    val = hamiltonian_F(plain_model, 1.0, 0.0, np.zeros(1), np.zeros(1), np.zeros(1), np.zeros(1))
    assert val == 0.0


def test_inner_minimizer_matches_grid_search(plain_model):
    theta, t = 1.0, 0.0
    x = np.array([0.0])
    gamma = np.array([0.3])
    p = np.array([0.5])
    grid = np.linspace(-5, 5, 20001)
    vals = [hamiltonian_F(plain_model, theta, t, x, np.array([h]), gamma, p) for h in grid]
    h_grid = grid[int(np.argmin(vals))]
    block = plain_model.coefficients(t)
    gram = plain_model.gram_blocks(t)
    h_closed = gram.ss_solve(block.asset_drift + block.asset_vol @ gamma)
    assert abs(h_grid - h_closed[0]) <= (grid[1] - grid[0])


def test_inner_maximizer_matches_grid_search():
    spec = make_scalar_spec()
    vm = validate_model(spec)
    theta, t = 1.0, 0.0
    x = np.array([0.2])
    h = np.array([0.8])
    p = np.array([-0.4])
    grid = np.linspace(-5, 5, 20001)
    vals = [hamiltonian_F(vm, theta, t, x, h, np.array([g]), p) for g in grid]
    g_grid = grid[int(np.argmax(vals))]
    block = vm.coefficients(t)
    g_closed = block.factor_vol.T @ p - theta * (block.asset_vol.T @ h - block.bench_vol)
    assert abs(g_grid - g_closed[0]) <= (grid[1] - grid[0])


def test_point_evaluations_build_two_gain_tables(monkeypatch, scalar_model, scalar_vc):
    # fractional_kelly builds its optimal and Kelly rows once, and
    # saddle_check reads the candidate pair from one fractional_kelly call
    builds = []

    def counted(*args, **kwargs):
        builds.append(args[2])
        return gain_table(*args, **kwargs)

    monkeypatch.setattr(policy_mod, "gain_table", counted)
    x = np.array([0.3])
    fractional_kelly(scalar_model, scalar_vc, 0.4, x)
    assert len(builds) == 2
    saddle_check(scalar_model, scalar_vc, 0.4, x, probes=10)
    assert len(builds) == 4


def test_saddle_zero_radius_is_exact(scalar_model, scalar_vc):
    rep = saddle_check(scalar_model, scalar_vc, 0.4, np.array([0.3]), probes=200, radius=0.0)
    assert rep.max_violation_h == 0.0
    assert rep.max_violation_gamma == 0.0


def test_saddle_probes_scalar_model(scalar_model, scalar_vc):
    rep = saddle_check(scalar_model, scalar_vc, 0.5, np.array([0.1]),
                       probes=10_000, radius=0.5, seed=7)
    tol = 1e-9 * (1.0 + abs(rep.center_value))
    assert rep.max_violation_h < tol
    assert rep.max_violation_gamma < tol
    assert rep.probe_count == 10_000


def test_saddle_violation_raised_off_center(scalar_model, scalar_vc):
    x = np.array([0.3])
    h_bad = optimal_h(scalar_model, scalar_vc, 0.5, x) + 0.2
    with pytest.raises(SaddleViolation):
        saddle_check(scalar_model, scalar_vc, 0.5, x, probes=2000, h_center=h_bad)


def test_saddle_curvature_signs(scalar_model, scalar_vc):
    t, x = 0.3, np.array([0.2])
    h_hat = optimal_h(scalar_model, scalar_vc, t, x)
    g_hat = optimal_gamma(scalar_model, scalar_vc, t, x)
    center = bellman_isaacs_integrand(scalar_model, scalar_vc, t, x, h_hat, g_hat)
    rng = np.random.default_rng(3)
    for _ in range(10):
        dh = rng.standard_normal(1)
        up = bellman_isaacs_integrand(scalar_model, scalar_vc, t, x, h_hat + dh, g_hat)
        dn = bellman_isaacs_integrand(scalar_model, scalar_vc, t, x, h_hat - dh, g_hat)
        assert up + dn - 2 * center > 0.0  # strictly convex in the allocation
        dg = rng.standard_normal(1)
        up = bellman_isaacs_integrand(scalar_model, scalar_vc, t, x, h_hat, g_hat + dg)
        dn = bellman_isaacs_integrand(scalar_model, scalar_vc, t, x, h_hat, g_hat - dg)
        assert up + dn - 2 * center < 0.0  # strictly concave in the tilt


def test_minimax_gap_random_points(scalar_model, scalar_vc):
    rng = np.random.default_rng(5)
    for _ in range(50):
        t = float(rng.uniform(0, 1))
        x = rng.standard_normal(1)
        h_plus, h_minus = hamiltonians(scalar_model, scalar_vc, t, x)
        assert abs(h_plus - h_minus) < 1e-10 * (1.0 + abs(h_plus))


def test_minimax_gap_random_models():
    rng = np.random.default_rng(31)
    vm = validate_model(make_random_spec(rng, m=2, d=4))
    vc = solve_value_coefficients(vm, steps_per_year=252)
    for _ in range(20):
        t = float(rng.uniform(0, vm.horizon))
        x = rng.standard_normal(vm.n)
        h_plus, h_minus = hamiltonians(vm, vc, t, x)
        assert abs(h_plus - h_minus) < 1e-9 * (1.0 + abs(h_plus))


def test_minimax_gap_degenerate_no_factor_noise(plain_model):
    vc = solve_value_coefficients(plain_model, steps_per_year=252)
    h_plus, h_minus = hamiltonians(plain_model, vc, 0.4, np.zeros(1))
    assert abs(h_plus - h_minus) < 1e-14


def test_minimax_gap_kelly_mode():
    spec = make_scalar_spec(theta=0.0)
    vm = validate_model(spec)
    vc = solve_value_coefficients(vm, steps_per_year=252)
    h_plus, h_minus = hamiltonians(vm, vc, 0.5, np.array([0.3]))
    assert abs(h_plus - h_minus) == 0.0


def test_twostep_tilt_generates_quadratic_gradient_term(scalar_model, scalar_vc):
    rng = np.random.default_rng(9)
    theta = scalar_model.theta
    for _ in range(20):
        t = float(rng.uniform(0, 1))
        x = rng.standard_normal(1)
        h = rng.standard_normal(1)
        ve = value_function(scalar_vc, t, x)
        p = ve.ce_gradient
        quad, _, _ = scalar_vc.at(t)
        lam = scalar_model.coefficients(t).factor_vol
        nu_hat = -theta * (lam.T @ p)
        with_nu = twostep_hamiltonian(scalar_model, t, x, h, nu_hat, p, quad)
        at_zero = twostep_hamiltonian(scalar_model, t, x, h, np.zeros(1), p, quad)
        expected = -0.5 * theta * float(p @ lam @ lam.T @ p)
        assert with_nu - at_zero == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("case", ["twofactor", "two-segment", "kelly"])
def test_hamiltonian_is_the_assembled_time_derivative(case, twofactor_model, twofactor_vc):
    # the closed-form Hamiltonian and the backward system are written apart:
    # at grid nodes H / theta (-H at theta = 0) is the d/dt CE that
    # _SegmentTerms.derivative assembles from (quad, lin, level)
    if case == "twofactor":
        vm, vc = twofactor_model, twofactor_vc
    else:
        spec = (make_two_segment_spec(np.random.default_rng(47), 3.7) if case == "two-segment"
                else make_twofactor_spec(theta=0.0))
        vm = validate_model(spec)
        vc = solve_value_coefficients(vm, steps_per_year=252)
    rng = np.random.default_rng(5)
    # the knot node of the two-segment model, the first and last nodes included
    nodes = np.linspace(0, len(vc.grid) - 1, 9).astype(int)
    for j in nodes.tolist():
        t = float(vc.grid[j])
        d_quad, d_lin, d_level = _SegmentTerms(vm, t).derivative(vc.quad[j], vc.lin[j])
        for x in rng.standard_normal((3, vm.n)):
            d_ce = 0.5 * float(x @ d_quad @ x) + float(d_lin @ x) + d_level
            ham, _ = hamiltonians(vm, vc, t, x)
            rate = ham / vm.theta if vm.theta > 0 else -ham
            assert abs(d_ce - rate) <= 1e-12 * (1.0 + abs(d_ce)), (case, t)
