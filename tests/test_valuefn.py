import dataclasses
import struct

import mpmath
import numpy as np
import pytest
from scipy.integrate import solve_ivp

from benchkelly import cli, valuefn
from benchkelly.errors import (BlowUp, ConfigError, EigenvalueViolation, ParseError,
                               TimeOutOfRange)
from benchkelly.model import ModelSpec, validate_model
from benchkelly.valuefn import (
    load_coefficients,
    riccati_residual,
    save_coefficients,
    solve_value_coefficients,
    value_function,
)

from conftest import (make_random_spec, make_scalar_spec, make_two_segment_spec,
                      make_twofactor_spec)
from rk4_reference import solve_rk4


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
    # the RK4 oracle's own order: the engine has no truncation to measure
    ref = solve_rk4(scalar_model, steps_per_year=2048).quad[0, 0, 0]
    errs = []
    for spy in (16, 32, 64):
        q0 = solve_rk4(scalar_model, steps_per_year=spy).quad[0, 0, 0]
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


def _read_reference(vc, t):
    """The scalar read that at_times replaced: the bracketing nodes and
    weight, and a node's own values at weight 0 or 1."""
    t = min(max(t, 0.0), vc.horizon)
    j = min(max(int(np.searchsorted(vc.grid, t, side="right")) - 1, 0), len(vc.grid) - 2)
    w = (t - vc.grid[j]) / (vc.grid[j + 1] - vc.grid[j])
    if w in (0.0, 1.0):
        k = j + int(w)
        return vc.quad[k], vc.lin[k], float(vc.level[k])
    return ((1.0 - w) * vc.quad[j] + w * vc.quad[j + 1],
            (1.0 - w) * vc.lin[j] + w * vc.lin[j + 1],
            float((1.0 - w) * vc.level[j] + w * vc.level[j + 1]))


def test_array_read_is_at_row_by_row():
    # at node times (w = 0), off the nodes and at the horizon, each row is
    # at(t) and the scalar reference, bit for bit
    rng = np.random.default_rng(29)
    vm = validate_model(make_random_spec(rng, theta=1.5, n=3, m=2, d=4))
    vc = solve_value_coefficients(vm, steps_per_year=252)
    grid = vc.grid
    nodes = [0, 1, 7, 126, len(grid) - 1]
    times = np.concatenate([grid[nodes], 0.5 * (grid[[3, 50]] + grid[[4, 51]]),
                            rng.uniform(0.0, vc.horizon, 5)])
    quad, lin, level = vc.at_times(times)
    for k, t in enumerate(times.tolist()):
        for q, v, c in (vc.at(t), _read_reference(vc, t)):
            assert quad[k].tobytes() == q.tobytes()
            assert lin[k].tobytes() == v.tobytes()
            assert level[k].tobytes() == np.float64(c).tobytes()
    # a zero coefficient keeps its sign at a node
    signed = dataclasses.replace(vc, lin=np.where(np.arange(len(grid))[:, None] % 2, -0.0, vc.lin))
    assert signed.at_times(grid[[1, 3]])[1].tobytes() == signed.lin[[1, 3]].tobytes()
    with pytest.raises(TimeOutOfRange):
        vc.at_times([0.5, vc.horizon + 0.1])


def _stencil_node(grid, knots, t):
    """The node of the scalar search that centered_rates replaced: the
    nearest interior node, moved until no knot lies inside its stencil."""
    starting = np.searchsorted(knots, grid, side="right") - 1
    ending = np.maximum(np.searchsorted(knots, grid, side="left") - 1, 0)
    j = min(max(int(np.argmin(np.abs(grid - t))), 1), len(grid) - 2)
    for _ in range(2):
        if starting[j - 1] != ending[j + 1]:
            j = min(max(j + 1 if starting[j] == ending[j + 1] else j - 1, 1), len(grid) - 2)
    return j


@pytest.mark.parametrize("steps_per_year", [7, 252])
def test_centered_rates_take_the_nodes_of_the_scalar_search(steps_per_year):
    # at 7 steps a year the knot at 0.5 falls between nodes and moves stencils
    rng = np.random.default_rng(13)
    vm = validate_model(make_two_segment_spec(rng, 1.5))
    vc = solve_value_coefficients(vm, steps_per_year=steps_per_year)
    grid = vc.grid
    times = np.concatenate([rng.uniform(0.0, 1.0, 200), grid, 0.5 * (grid[1:] + grid[:-1]),
                            [0.5 - 1e-15, 0.5, 0.5 + 1e-15]])
    times = times[(grid[0] < times) & (times < grid[-1])]
    nodes, d_quad, d_lin, d_level = valuefn.centered_rates(vm, vc, times)
    assert nodes.tolist() == [_stencil_node(grid, vm.spec.coeffs.knots, t)
                              for t in times.tolist()]
    for j, dq, dl, dc in zip(nodes.tolist(), d_quad, d_lin, d_level):
        dt = grid[j + 1] - grid[j - 1]
        assert dq.tobytes() == ((vc.quad[j + 1] - vc.quad[j - 1]) / dt).tobytes()
        assert dl.tobytes() == ((vc.lin[j + 1] - vc.lin[j - 1]) / dt).tobytes()
        assert dc == (vc.level[j + 1] - vc.level[j - 1]) / dt


def test_time_out_of_range(scalar_vc):
    with pytest.raises(TimeOutOfRange):
        value_function(scalar_vc, 1.5, np.zeros(1))
    with pytest.raises(TimeOutOfRange):
        riccati_residual(None, scalar_vc, 0.0)


def test_residual_zero_for_zero_solution():
    spec = ModelSpec.constant(
        n=1, m=1, d=1, horizon_years=1.0, theta=1.0, x0=[0.0],
        asset_drift=[0.04], asset_vol=[[0.2]], factor_mean_reversion=[[-0.5]],
        factor_vol=[[0.1]],
    )
    vm = validate_model(spec)
    vc = solve_value_coefficients(vm, steps_per_year=504)
    res = riccati_residual(vm, vc, 0.5)
    assert res.quad < 1e-14 and res.lin < 1e-14


def test_residual_small_at_fine_steps(scalar_model):
    vc = solve_value_coefficients(scalar_model, steps_per_year=10_000)
    res = riccati_residual(scalar_model, vc, 0.5)
    assert res.quad < 1e-6 and res.lin < 1e-6


def test_residual_keeps_a_nan(scalar_model, scalar_vc):
    # one NaN defect makes the worst defect NaN, wherever it falls among the times
    middle = len(scalar_vc.grid) // 2
    lin = scalar_vc.lin.copy()
    lin[middle] = np.nan
    vc = dataclasses.replace(scalar_vc, lin=lin)
    res = riccati_residual(scalar_model, vc, scalar_vc.grid[[10, middle + 1, middle + 20]])
    assert np.isnan(res.lin) and np.isnan(res.lin_rel)
    assert np.isfinite(res.quad)


def test_residual_reads_theta_from_the_model(scalar_vc):
    # a theta = 1 solve does not solve the theta = 2 model's equations
    other = validate_model(make_scalar_spec(theta=2.0))
    res = riccati_residual(other, scalar_vc, np.linspace(0.1, 0.9, 7))
    assert max(res.quad_rel, res.lin_rel) > cli._CONFIG["solver"]["residual_tol"][1]


def test_refinement_shrinks_error_fourth_order(scalar_model):
    ref = solve_rk4(scalar_model, steps_per_year=4096).quad[0, 0, 0]
    err_n = abs(solve_rk4(scalar_model, steps_per_year=64).quad[0, 0, 0] - ref)
    err_2n = abs(solve_rk4(scalar_model, steps_per_year=128).quad[0, 0, 0] - ref)
    assert err_n / err_2n > 10.0  # ~16 for exact order 4


@pytest.mark.parametrize("spec", [
    pytest.param(make_scalar_spec(), id="scalar"),
    pytest.param(make_twofactor_spec(), id="twofactor"),
    pytest.param(make_random_spec(np.random.default_rng(5), n=3), id="random-n3"),
    pytest.param(make_random_spec(np.random.default_rng(6), n=10, m=8, d=20), id="random-n10"),
])
def test_engine_matches_rk4_oracle(spec):
    vm = validate_model(spec)
    vc = solve_value_coefficients(vm, steps_per_year=504)
    ref = solve_rk4(vm, steps_per_year=8 * 504)
    for name in ("quad", "lin", "level"):
        ours, oracle = getattr(vc, name), getattr(ref, name)[::8]
        assert np.abs(ours - oracle).max() <= 1e-12 * np.abs(oracle).max(), name


def test_knot_between_nodes_is_exact():
    from benchkelly.model import CoefficientBlock, CoefficientSet

    b_late = CoefficientBlock.zeros(1, 1, 1).replace(
        asset_drift=[0.05], asset_factor_loading=[[1.0]], asset_vol=[[0.2]],
        factor_mean_reversion=[[-0.5]], factor_vol=[[0.1]], bench_vol=[0.02],
    )
    b_early = b_late.replace(asset_vol=[[0.3]], asset_drift=[0.08])
    vm = validate_model(ModelSpec(
        n=1, m=1, d=1,
        coeffs=CoefficientSet(knots=np.array([0.0, 0.3]), blocks=(b_early, b_late)),
        horizon_years=1.0, theta=1.0, x0=np.zeros(1),
    ))
    # 1000/yr puts the knot on a node, 252 and 1008/yr put it between nodes
    ref = solve_value_coefficients(vm, steps_per_year=1000)
    for spy in (252, 1008):
        vc = solve_value_coefficients(vm, steps_per_year=spy)
        assert abs(vc.quad[0, 0, 0] / ref.quad[0, 0, 0] - 1.0) <= 1e-12
        assert abs(vc.lin[0, 0] / ref.lin[0, 0] - 1.0) <= 1e-12
        assert abs(vc.level[0] / ref.level[0] - 1.0) <= 1e-11


def _piecewise(spec, knots, blocks):
    """spec with its coefficients replaced by blocks starting at knots."""
    from benchkelly.model import CoefficientSet

    return validate_model(ModelSpec(
        n=spec.n, m=spec.m, d=spec.d,
        coeffs=CoefficientSet(knots=np.array(knots), blocks=tuple(blocks)),
        horizon_years=spec.horizon_years, theta=spec.theta, x0=spec.x0,
    ))


def test_several_knots_inside_one_step_are_exact():
    spec = make_random_spec(np.random.default_rng(7), n=3)
    base = spec.coeffs.blocks[0]
    blocks = [base.replace(asset_drift=base.asset_drift * s, factor_vol=base.factor_vol * v)
              for s, v in ((1.0, 1.0), (1.4, 0.8), (0.7, 1.3), (1.2, 1.1))]
    # the three knots share one step at 252, 1008 and 4032 steps/yr
    vm = _piecewise(spec, [0.0, 0.3001, 0.3002, 0.3003], blocks)
    ref = solve_value_coefficients(vm, steps_per_year=4032)
    for spy in (252, 1008):
        vc = solve_value_coefficients(vm, steps_per_year=spy)
        scale = np.abs(ref.quad[0]).max()
        assert np.abs(vc.quad[0] - ref.quad[0]).max() <= 1e-12 * scale
        assert np.abs(vc.lin[0] - ref.lin[0]).max() <= 1e-12 * np.abs(ref.lin[0]).max()
        assert abs(vc.level[0] - ref.level[0]) <= 1e-11 * abs(ref.level[0])


def test_knots_at_and_beyond_the_horizon_change_nothing():
    spec = make_random_spec(np.random.default_rng(8), n=2)
    base = spec.coeffs.blocks[0]
    other = base.replace(asset_drift=2.0 * base.asset_drift)
    vm = _piecewise(spec, [0.0, spec.horizon_years, 1.5 * spec.horizon_years],
                    [base, other, other])
    single = validate_model(spec)
    for spy in (252, 1008):
        vc = solve_value_coefficients(vm, steps_per_year=spy)
        ref = solve_value_coefficients(single, steps_per_year=spy)
        for name in ("grid", "quad", "lin", "level"):
            assert np.array_equal(getattr(vc, name), getattr(ref, name)), name
        for name in ("quad", "lin", "quad_rel", "lin_rel"):
            key = f"residual_{name}"
            assert vc.solver_meta[key] == ref.solver_meta[key], key


def test_knot_between_identical_blocks_matches_constant_model():
    spec = make_random_spec(np.random.default_rng(9), n=3)
    block = spec.coeffs.blocks[0]
    vm = _piecewise(spec, [0.0, 0.3001], [block, block])
    vc = solve_value_coefficients(vm, steps_per_year=252)
    ref = solve_value_coefficients(validate_model(spec), steps_per_year=252)
    for name in ("quad", "lin", "level"):
        ours, theirs = getattr(vc, name), getattr(ref, name)
        assert np.abs(ours - theirs).max() <= 1e-13 * np.abs(theirs).max(), name


def _mobius_reference(model, steps_per_year):
    """(quad, lin) at the engine's grid nodes from the exact Moebius
    recursion P <- Y X^-1, [X; Y] = expm(-tau Ham) [I; P], one piece at a
    time on the grid refined at every knot, in 40-digit arithmetic with exact
    piece lengths; only the float Hamiltonians are shared with the engine."""
    T, n = model.horizon, model.n
    k = n + 1
    steps = max(1, round(steps_per_year * T))
    knots = model.spec.coeffs.knots
    with mpmath.workdps(40):
        grid = [mpmath.mpf(T) * j / steps for j in range(steps + 1)]
        times = sorted(set(grid) | {mpmath.mpf(float(s)) for s in knots if 0.0 < s < T})
        hams = [mpmath.matrix(valuefn._SegmentTerms(model, float(s)).hamiltonian().tolist())
                for s in knots]
        flows = {}
        P = mpmath.zeros(k, k)
        quad, lin = np.zeros((steps + 1, n, n)), np.zeros((steps + 1, n))
        for a, b in zip(times[-2::-1], times[:0:-1]):
            seg = int(np.searchsorted(knots, float(a), side="right")) - 1
            if (seg, b - a) not in flows:
                flows[seg, b - a] = mpmath.expm(-(b - a) * hams[seg])
            E = flows[seg, b - a]
            X = E[:k, :k] + E[:k, k:] * P
            Y = E[k:, :k] + E[k:, k:] * P
            P = Y * X ** -1
            if a in grid:
                j = grid.index(a)
                quad[j] = np.array(P[:n, :n].tolist(), dtype=float)
                lin[j] = np.array(P[:n, n].tolist(), dtype=float)[:, 0]
    return quad, lin


def _assert_near_reference(vc, quad, lin, rtol):
    assert np.abs(vc.quad - quad).max() <= rtol * np.abs(quad).max()
    assert np.abs(vc.lin - lin).max() <= rtol * np.abs(lin).max()


def test_blocks_match_the_exact_recursion():
    # 252 pieces make seven blocks of 32 and a partial one of 28
    vm = validate_model(make_twofactor_spec())
    vc = solve_value_coefficients(vm, steps_per_year=252)
    _assert_near_reference(vc, *_mobius_reference(vm, 252), 5e-15)


def test_knot_inside_a_block_matches_the_exact_recursion():
    # at 252 steps a year the blocks of a constant model would end at nodes
    # 252, 220, 188 and 156; the knot at 0.7 lies between nodes 176 and 177
    spec = make_twofactor_spec()
    late = spec.coeffs.blocks[0]
    early = late.replace(asset_vol=1.4 * late.asset_vol, factor_drift=[0.03])
    vm = _piecewise(spec, [0.0, 0.7], [early, late])
    vc = solve_value_coefficients(vm, steps_per_year=252)
    _assert_near_reference(vc, *_mobius_reference(vm, 252), 5e-15)


def test_norm_cap_shortens_blocks_and_matches_rk4():
    # a large factor drift gives |Ham|_1 ~ 61, so 252 steps a year make
    # blocks of 4 pieces
    vm = validate_model(make_scalar_spec(factor_drift=[60.0]))
    cap = valuefn._block_cap(valuefn._SegmentTerms(vm, 0.0).hamiltonian(), 1.0 / 252)
    assert 1 < cap < valuefn.BLOCK_PIECES
    vc = solve_value_coefficients(vm, steps_per_year=252)
    ref = solve_rk4(vm, steps_per_year=8 * 252)
    for name in ("quad", "lin", "level"):
        ours, oracle = getattr(vc, name), getattr(ref, name)[::8]
        assert np.abs(ours - oracle).max() <= 1e-12 * np.abs(oracle).max(), name


def test_singular_flow_inside_a_block_raises_blowup_at_its_node(monkeypatch, scalar_model):
    # Delta = N with N^2 = 0 in dyadic arithmetic: Delta_i = i N exactly, and
    # I + dX = 1 - i/8 in its corner is singular at the eighth node only
    def nilpotent(ham, tau):
        delta = np.zeros_like(ham)
        delta[0, 0], delta[0, 2], delta[2, 0], delta[2, 2] = -0.125, 0.125, -0.125, 0.125
        return delta

    monkeypatch.setattr(valuefn, "_step_increment", nilpotent)
    with pytest.raises(BlowUp, match=f"t={1.0 - 8 / 252:g};"):
        solve_value_coefficients(scalar_model, steps_per_year=252)


def test_singular_step_raises_blowup(monkeypatch, scalar_model):
    # an increment of -I makes I + dX singular at the first step
    monkeypatch.setattr(valuefn, "_step_increment", lambda ham, tau: -np.eye(len(ham)))
    with pytest.raises(BlowUp):
        solve_value_coefficients(scalar_model, steps_per_year=252)


def test_min_eigenvalue_is_the_per_node_minimum():
    vm = validate_model(make_random_spec(np.random.default_rng(6), n=10, m=8, d=20))
    vc = solve_value_coefficients(vm, steps_per_year=252)
    per_node = min(float(np.linalg.eigvalsh(q)[0]) for q in vc.quad)
    assert vc.solver_meta["min_eigenvalue"] == per_node


def test_blowup_detected():
    # strongly unstable factor dynamics push the quadratic coefficient past the cap
    spec = make_scalar_spec(theta=0.0, factor_mean_reversion=[[30.0]], asset_factor_loading=[[50.0]])
    vm = validate_model(spec)
    with pytest.raises(BlowUp, match="t=0.654762;"):
        solve_value_coefficients(vm, steps_per_year=504)


def test_psd_loss_detected(monkeypatch, scalar_model):
    orig = valuefn._SegmentTerms.__init__

    def flipped(self, model, seg_start):
        orig(self, model, seg_start)
        self.quad_source = -self.quad_source

    monkeypatch.setattr(valuefn._SegmentTerms, "__init__", flipped)
    with pytest.raises(EigenvalueViolation):
        solve_value_coefficients(scalar_model, steps_per_year=252)


def test_dump_load_round_trip(tmp_path, scalar_vc):
    rng = np.random.default_rng(31)
    wide = solve_value_coefficients(
        validate_model(make_random_spec(rng, theta=1.5, n=4, m=3, d=5)), steps_per_year=252)
    for vc in (scalar_vc, wide):
        path = tmp_path / "vc.bin"
        save_coefficients(vc, path)
        loaded = load_coefficients(path)
        for name in ("grid", "quad", "lin", "level"):
            assert getattr(loaded, name).tobytes() == getattr(vc, name).tobytes()
        assert loaded.quad.shape == vc.quad.shape and loaded.lin.shape == vc.lin.shape
        assert loaded.theta == vc.theta
        assert loaded.solver_meta == vc.solver_meta
        # the file itself is reproducible
        data = path.read_bytes()
        save_coefficients(loaded, path)
        assert path.read_bytes() == data


def test_save_refuses_an_asymmetric_quad(tmp_path):
    rng = np.random.default_rng(32)
    vc = solve_value_coefficients(
        validate_model(make_random_spec(rng, theta=1.0, n=2, m=2, d=3)), steps_per_year=52)
    skewed = vc.quad.copy()
    skewed[3, 0, 1] += 1e-12
    with pytest.raises(ValueError, match="symmetric"):
        save_coefficients(dataclasses.replace(vc, quad=skewed), tmp_path / "vc.bin")


def _saved(tmp_path, vc):
    path = tmp_path / "vc.bin"
    save_coefficients(vc, path)
    return path, path.read_bytes()


def test_load_rejects_bad_magic(tmp_path, scalar_vc):
    path, data = _saved(tmp_path, scalar_vc)
    path.write_bytes(b"BKPATHS1" + data[8:])
    with pytest.raises(ConfigError, match="bad magic"):
        load_coefficients(path)
    path.write_text('{"grid": [0.0, 1.0]}\n')
    with pytest.raises(ConfigError, match="bad magic"):
        load_coefficients(path)


@pytest.mark.parametrize("cut", [12, 31, 40, -8, -1])
def test_load_rejects_a_truncated_file(tmp_path, scalar_vc, cut):
    # inside the 32-byte header, inside the JSON block and inside the arrays
    path, data = _saved(tmp_path, scalar_vc)
    path.write_bytes(data[:cut])
    with pytest.raises(ParseError, match="truncated|promises"):
        load_coefficients(path)


def test_load_rejects_a_degenerate_grid(tmp_path):
    # sizes that agree with the file but describe no value grid
    path = tmp_path / "vc.bin"
    for nodes, n in ((1, 1), (0, 0), (3, 0)):
        meta = b'{"solver_meta": {}, "theta": 1.0}'
        floats = nodes * (2 + n + n * (n + 1) // 2)
        path.write_bytes(struct.pack("<8sQQQ", b"BKVALUE1", nodes, n, len(meta)) + meta
                         + bytes(8 * floats))
        with pytest.raises(ParseError, match="grid nodes"):
            load_coefficients(path)


def test_load_rejects_a_non_finite_value(tmp_path, scalar_vc):
    path, data = _saved(tmp_path, scalar_vc)
    for bad in (np.nan, np.inf):
        # the last float64 is the level at the horizon
        path.write_bytes(data[:-8] + np.float64(bad).astype("<f8").tobytes())
        with pytest.raises(ParseError, match="non-finite"):
            load_coefficients(path)
    meta_len = int.from_bytes(data[24:32], "little")
    meta = data[32:32 + meta_len].replace(b'"theta": 1.0', b'"theta": NaN')
    path.write_bytes(data[:24] + len(meta).to_bytes(8, "little") + meta + data[32 + meta_len:])
    with pytest.raises(ParseError, match="non-finite"):
        load_coefficients(path)


@pytest.mark.parametrize("block", [b"{not json", b"\xff\xfe\xfa", b"[1, 2]", b'{"theta": 1.0}'])
def test_load_rejects_an_unreadable_json_block(tmp_path, scalar_vc, block):
    path, data = _saved(tmp_path, scalar_vc)
    meta_len = int.from_bytes(data[24:32], "little")
    path.write_bytes(data[:24] + len(block).to_bytes(8, "little") + block
                     + data[32 + meta_len:])
    with pytest.raises(ParseError, match="JSON block"):
        load_coefficients(path)


def _two_segment_model():
    """Regime switch at 0.5y: higher vol in the first half."""
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
    return vm, solve_value_coefficients(vm, steps_per_year=2016)  # knot lands on a node


def test_piecewise_coefficients_solve():
    vm, vc = _two_segment_model()
    # residuals hold inside each segment
    for t in (0.2, 0.8):
        res = riccati_residual(vm, vc, t)
        assert res.quad < 1e-5 and res.lin < 1e-5
    # near the knot the stencil shifts inward rather than straddling it
    res = riccati_residual(vm, vc, 0.5)
    assert res.quad < 1e-3
    # the early (higher-vol) segment must price risk differently
    q_early = vc.at(0.25)[0][0, 0]
    q_late = vc.at(0.75)[0][0, 0]
    assert q_early != q_late


def test_residual_over_times_is_worst_single_time_residual():
    vm, vc = _two_segment_model()
    # both segments, the knot (the stencil shifts) and a repeated time
    times = [0.2, 0.5, 0.8, 0.2, 0.999]
    worst = riccati_residual(vm, vc, times)
    singles = [riccati_residual(vm, vc, t) for t in times]
    for field in worst._fields:
        assert getattr(worst, field) == max(getattr(r, field) for r in singles)
    assert riccati_residual(vm, vc, np.array(times)) == worst
    assert riccati_residual(vm, vc, [0.5]) == singles[1]
    with pytest.raises(TimeOutOfRange):
        riccati_residual(vm, vc, [0.2, 1.0])


@pytest.mark.parametrize("n", [1, 3, 10])
def test_stacked_derivative_is_the_per_node_derivative(n):
    # riccati_residual evaluates a segment's nodes as one stack; each stack
    # entry is bit for bit the single-matrix call that tests/rk4_reference.py makes
    vm = validate_model(make_random_spec(np.random.default_rng(n), n=n, m=4, d=n + 4))
    vc = solve_value_coefficients(vm, steps_per_year=52)
    nodes = np.arange(3, len(vc.grid), 7)
    terms = valuefn._SegmentTerms(vm, 0.0)
    stacked = terms.derivative(vc.quad[nodes], vc.lin[nodes])
    for i, j in enumerate(nodes.tolist()):
        single = terms.derivative(vc.quad[j], vc.lin[j])
        for part, one in zip(stacked, single):
            assert part[i].tobytes() == np.asarray(one).tobytes()


def test_solver_meta_records_residuals(scalar_vc):
    assert scalar_vc.solver_meta["steps_per_year"] == 2016
    assert scalar_vc.solver_meta["residual_quad"] < 1e-4
