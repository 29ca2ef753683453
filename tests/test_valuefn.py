import numpy as np
import pytest
from scipy.integrate import solve_ivp

from benchkelly import valuefn
from benchkelly.errors import BlowUp, EigenvalueViolation, TimeOutOfRange
from benchkelly.model import ModelSpec, validate_model
from benchkelly.valuefn import (
    load_coefficients,
    riccati_residual,
    save_coefficients,
    solve_value_coefficients,
    value_function,
)

from conftest import make_scalar_spec


def test_zero_source_gives_zero_solution():
    # A = 0, C = 0, Xi = 0: no source terms, zero terminal -> identically zero
    spec = ModelSpec.constant(
        n=1, m=1, d=1, horizon_years=1.0, theta=1.0, x0=[0.0],
        asset_drift=[0.04], asset_vol=[[0.2]],
        factor_mean_reversion=[[-0.5]], factor_vol=[[0.1]],
    )
    vc = solve_value_coefficients(validate_model(spec), steps_per_year=504)
    assert np.all(vc.quad == 0.0)
    assert np.all(vc.lin == 0.0)
    # the level term still integrates the allocation payoff
    assert vc.level[0] > 0.0


def test_terminal_conditions_exact(scalar_vc):
    assert np.all(scalar_vc.quad[-1] == 0.0)
    assert np.all(scalar_vc.lin[-1] == 0.0)
    assert scalar_vc.level[-1] == 0.0


def test_terminal_value_zero_for_random_states(scalar_vc):
    rng = np.random.default_rng(0)
    for x in rng.standard_normal((100, 1)):
        ve = value_function(scalar_vc, scalar_vc.horizon, x)
        assert ve.log_criterion == 0.0
        assert np.all(ve.gradient == 0.0)


def test_symmetry_and_psd(scalar_vc):
    asym = max(np.abs(q - q.T).max() for q in scalar_vc.quad)
    assert asym < 1e-12
    min_eig = min(np.linalg.eigvalsh(q)[0] for q in scalar_vc.quad)
    assert min_eig >= -1e-10


def test_step_halving_reference(scalar_model):
    coarse = solve_value_coefficients(scalar_model, steps_per_year=504)
    fine = solve_value_coefficients(scalar_model, steps_per_year=1008)
    for a, b in (
        (coarse.quad[0, 0, 0], fine.quad[0, 0, 0]),
        (coarse.lin[0, 0], fine.lin[0, 0]),
        (coarse.level[0], fine.level[0]),
    ):
        assert abs(a - b) / abs(b) < 1e-8


def test_convergence_order_at_least_3_7(scalar_model):
    ref = solve_value_coefficients(scalar_model, steps_per_year=2048).quad[0, 0, 0]
    errs = []
    for spy in (16, 32, 64):
        q0 = solve_value_coefficients(scalar_model, steps_per_year=spy).quad[0, 0, 0]
        errs.append(abs(q0 - ref))
    order1 = np.log2(errs[0] / errs[1])
    order2 = np.log2(errs[1] / errs[2])
    assert min(order1, order2) >= 3.7


def test_theta_zero_matches_independent_lyapunov_oracle():
    spec = make_scalar_spec(theta=0.0, bench_vol=[0.0])
    vm = validate_model(spec)
    vc = solve_value_coefficients(vm, steps_per_year=1008)

    block = spec.coeffs.blocks[0]
    ss = float((block.asset_vol @ block.asset_vol.T)[0, 0])
    B = float(block.factor_mean_reversion[0, 0])
    A = float(block.asset_factor_loading[0, 0])

    def rhs(s, y):
        # theta = 0: d(quad)/ds = -2 B quad - A^2 / ss
        return [-2.0 * B * y[0] - A * A / ss]

    sol = solve_ivp(rhs, [1.0, 0.0], [0.0], rtol=1e-12, atol=1e-14, dense_output=True)
    oracle_q0 = sol.y[0, -1]
    assert vc.quad[0, 0, 0] == pytest.approx(oracle_q0, rel=1e-8)


def test_value_eval_relations(scalar_vc):
    x = np.array([0.3])
    ve = value_function(scalar_vc, 0.4, x)
    assert ve.log_criterion == pytest.approx(-scalar_vc.theta * ve.certainty_equivalent, rel=1e-14)
    assert np.allclose(ve.gradient, -scalar_vc.theta * ve.ce_gradient, rtol=1e-14)
    at_origin = value_function(scalar_vc, 0.4, np.zeros(1))
    quad, lin, level = scalar_vc.at(0.4)
    assert at_origin.log_criterion == pytest.approx(-scalar_vc.theta * level, rel=1e-14)


def test_gradient_matches_central_differences(scalar_vc):
    rng = np.random.default_rng(1)
    eps = 1e-5
    for _ in range(20):
        t = float(rng.uniform(0, 1))
        x = rng.standard_normal(1)
        ve = value_function(scalar_vc, t, x)
        up = value_function(scalar_vc, t, x + eps).log_criterion
        dn = value_function(scalar_vc, t, x - eps).log_criterion
        fd = (up - dn) / (2 * eps)
        assert fd == pytest.approx(ve.gradient[0], rel=1e-6)


def test_between_node_interpolation_is_linear(scalar_vc):
    grid = scalar_vc.grid
    t0, t1 = float(grid[10]), float(grid[11])
    mid = 0.5 * (t0 + t1)
    q_mid, l_mid, k_mid = scalar_vc.at(mid)
    assert np.allclose(q_mid, 0.5 * (scalar_vc.quad[10] + scalar_vc.quad[11]), rtol=1e-15)
    assert k_mid == pytest.approx(0.5 * (scalar_vc.level[10] + scalar_vc.level[11]), rel=1e-15)


def test_time_out_of_range(scalar_vc):
    with pytest.raises(TimeOutOfRange):
        value_function(scalar_vc, 1.5, np.zeros(1))
    with pytest.raises(TimeOutOfRange):
        riccati_residual(scalar_vc, None, 0.0)


def test_residual_zero_for_zero_solution():
    spec = ModelSpec.constant(
        n=1, m=1, d=1, horizon_years=1.0, theta=1.0, x0=[0.0],
        asset_drift=[0.04], asset_vol=[[0.2]], factor_mean_reversion=[[-0.5]],
        factor_vol=[[0.1]],
    )
    vm = validate_model(spec)
    vc = solve_value_coefficients(vm, steps_per_year=504)
    res = riccati_residual(vc, vm, 0.5)
    assert res.quad < 1e-14 and res.lin < 1e-14


def test_residual_small_at_fine_steps(scalar_model):
    vc = solve_value_coefficients(scalar_model, steps_per_year=10_000)
    res = riccati_residual(vc, scalar_model, 0.5)
    assert res.quad < 1e-6 and res.lin < 1e-6


def test_refinement_shrinks_error_fourth_order(scalar_model):
    ref = solve_value_coefficients(scalar_model, steps_per_year=4096).quad[0, 0, 0]
    err_n = abs(solve_value_coefficients(scalar_model, steps_per_year=64).quad[0, 0, 0] - ref)
    err_2n = abs(solve_value_coefficients(scalar_model, steps_per_year=128).quad[0, 0, 0] - ref)
    assert err_n / err_2n > 10.0  # ~16 for exact order 4


def test_blowup_detected():
    # strongly unstable factor dynamics push the quadratic coefficient past the cap
    spec = make_scalar_spec(theta=0.0, factor_mean_reversion=[[30.0]], asset_factor_loading=[[50.0]])
    vm = validate_model(spec)
    with pytest.raises(BlowUp):
        solve_value_coefficients(vm, steps_per_year=504)


def test_psd_loss_detected(monkeypatch, scalar_model):
    orig = valuefn._SegmentTerms.__init__

    def flipped(self, model, seg_start, theta):
        orig(self, model, seg_start, theta)
        self.quad_source = -self.quad_source

    monkeypatch.setattr(valuefn._SegmentTerms, "__init__", flipped)
    with pytest.raises(EigenvalueViolation):
        solve_value_coefficients(scalar_model, steps_per_year=252)


def test_dump_load_round_trip(tmp_path, scalar_vc):
    path = tmp_path / "vc.json"
    save_coefficients(scalar_vc, path)
    loaded = load_coefficients(path)
    assert np.array_equal(loaded.grid, scalar_vc.grid)
    assert np.array_equal(loaded.quad, scalar_vc.quad)
    assert np.array_equal(loaded.lin, scalar_vc.lin)
    assert np.array_equal(loaded.level, scalar_vc.level)
    assert loaded.theta == scalar_vc.theta
    # serialized text itself is reproducible
    text1 = path.read_text()
    save_coefficients(loaded, path)
    assert path.read_text() == text1


def test_piecewise_coefficients_solve():
    # regime switch at 0.5y: higher vol in the first half
    from benchkelly.model import CoefficientBlock, CoefficientSet

    b_late = CoefficientBlock.zeros(1, 1, 1).replace(
        asset_drift=[0.05], asset_factor_loading=[[1.0]], asset_vol=[[0.2]],
        factor_mean_reversion=[[-0.5]], factor_vol=[[0.1]],
    )
    b_early = b_late.replace(asset_vol=[[0.3]])
    spec = ModelSpec(
        n=1, m=1, d=1,
        coeffs=CoefficientSet(knots=np.array([0.0, 0.5]), blocks=(b_early, b_late)),
        horizon_years=1.0, theta=1.0, x0=np.zeros(1),
    )
    vm = validate_model(spec)
    vc = solve_value_coefficients(vm, steps_per_year=2016)  # knot lands on a node
    # residuals hold inside each segment
    for t in (0.2, 0.8):
        res = riccati_residual(vc, vm, t)
        assert res.quad < 1e-5 and res.lin < 1e-5
    # near the knot the stencil shifts inward rather than straddling it
    res = riccati_residual(vc, vm, 0.5)
    assert res.quad < 1e-3
    # the early (higher-vol) segment must price risk differently
    q_early = vc.at(0.25)[0][0, 0]
    q_late = vc.at(0.75)[0][0, 0]
    assert q_early != q_late


def test_solver_meta_records_residuals(scalar_vc):
    assert scalar_vc.solver_meta["steps_per_year"] == 2016
    assert scalar_vc.solver_meta["residual_quad"] < 1e-4
