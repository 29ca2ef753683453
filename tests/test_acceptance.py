"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its key measurement.  Run with ``pytest -s`` to see the
lines for passing criteria too.
"""

import json
import time

import numpy as np

from benchkelly import model as model_mod
from benchkelly import valuefn
from benchkelly.analytics import risk_ratios
from benchkelly.cli import main as cli_main
from benchkelly.estimate import bootstrap_gram_se, estimate_model, gram_blocks_of_cov, \
    realized_covariance, synthesize_panel
from benchkelly.game import hamiltonians, saddle_check
from benchkelly.model import validate_model
from benchkelly.policy import fractional_kelly, optimal_h
from benchkelly.simulate import SimConfig, kl_estimate, martingale_check, mc_criterion, \
    simulate_paths
from benchkelly.valuefn import solve_value_coefficients, value_function

from conftest import kelly_allocation, make_random_spec, make_scalar_spec


def report(num, name, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_projection_identity():
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for theta in (0.0, 0.1, 1.0, 10.0):
        for k in range(25):
            rng = np.random.default_rng(1000 + 100 * int(theta * 10) + k)
            m = int(rng.integers(1, 6))
            d = int(rng.integers(m, 13))
            spec = make_random_spec(rng, theta=theta, m=m, d=d)
            vm = validate_model(spec)
            proj = vm.projection_matrices(0.0)
            gap = float(np.abs(proj.pminus @ proj.pplus - np.eye(d)).max())
            worst = max(worst, gap)
            count += 1
    elapsed = time.perf_counter() - start
    report(1, "projection identity",
           worst < 1e-12 and elapsed < 1.0 and count == 100,
           f"max |P-P+ - I| = {worst:.2e} over {count} models in {elapsed:.2f}s")


def test_criterion_02_riccati_correctness(scalar_model):
    start = time.perf_counter()
    base = solve_value_coefficients(scalar_model, steps_per_year=1008)
    halved = solve_value_coefficients(scalar_model, steps_per_year=2016)
    rels = [
        abs(base.quad[0, 0, 0] - halved.quad[0, 0, 0]) / abs(halved.quad[0, 0, 0]),
        abs(base.lin[0, 0] - halved.lin[0, 0]) / abs(halved.lin[0, 0]),
        abs(base.level[0] - halved.level[0]) / abs(halved.level[0]),
    ]
    # quad against the closed-form scalar Riccati solution at every node,
    # S sinh(k s) / (k cosh(k s) - L sinh(k s)) with k^2 = L^2 + theta M S
    terms = valuefn._SegmentTerms(scalar_model, 0.0)
    L, M, S = terms.lin_map[0, 0], terms.curvature_mix[0, 0], terms.quad_source[0, 0]
    kappa = np.sqrt(L * L + scalar_model.theta * M * S)
    closed_form = 0.0
    for spy in (16, 32, 64):
        vc = solve_value_coefficients(scalar_model, steps_per_year=spy)
        s = scalar_model.horizon - vc.grid[:-1]
        exact = S * np.sinh(kappa * s) / (kappa * np.cosh(kappa * s) - L * np.sinh(kappa * s))
        closed_form = max(closed_form, float(np.abs(vc.quad[:-1, 0, 0] / exact - 1.0).max()))
    elapsed = time.perf_counter() - start
    report(2, "backward solve correctness",
           max(rels) < 1e-8 and closed_form <= 1e-12 and elapsed < 5.0,
           f"step-halving rel err = {max(rels):.2e}, closed-form rel err = {closed_form:.2e}, "
           f"{elapsed:.2f}s")


def test_criterion_03_route_equivalence(tmp_path):
    start = time.perf_counter()
    worst_h = 0.0
    for seed in range(300, 310):
        rng = np.random.default_rng(seed)
        vm = validate_model(make_random_spec(rng))
        vc = solve_value_coefficients(vm, steps_per_year=252)
        for _ in range(100):
            t = float(rng.uniform(0, vm.horizon))
            x = rng.standard_normal(vm.n)
            h1 = optimal_h(vm, vc, t, x, "direct")
            h2 = optimal_h(vm, vc, t, x, "twostep")
            worst_h = max(worst_h, float(np.abs(h1 - h2).max() / (1 + np.abs(h1).max())))

    # the experiment command's two optimal-route metric columns must coincide
    model_mod.save_model(make_scalar_spec(), tmp_path / "model.json")
    (tmp_path / "config.json").write_text(json.dumps({
        "model": "model.json",
        "solver": {"steps_per_year": 504},
        "simulation": {"n_paths": 400, "steps": 126, "dt": 1 / 252, "seed": 11,
                       "strategy": "optimal"},
        "output_dir": "out",
    }))
    code = cli_main(["experiment", "--config", str(tmp_path / "config.json"),
                     "--out", str(tmp_path / "out")])
    rows = (tmp_path / "out" / "experiment_report.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    i2, i1 = header.index("portfolio-twostep"), header.index("portfolio-direct")
    columns_equal = all(r.split(",")[i2] == r.split(",")[i1] for r in rows[1:])
    elapsed = time.perf_counter() - start
    report(3, "route equivalence",
           worst_h < 1e-12 and code == 0 and columns_equal and elapsed < 30.0,
           f"policy gap = {worst_h:.2e}, "
           f"metric columns identical = {columns_equal}, {elapsed:.1f}s")


def test_criterion_04_decomposition_identities():
    start = time.perf_counter()
    worst_decomp, worst_reg = 0.0, 0.0
    for seed in (400, 401, 402):
        rng = np.random.default_rng(seed)
        vm = validate_model(make_random_spec(rng))
        vc = solve_value_coefficients(vm, steps_per_year=252)
        for _ in range(50):
            t = float(rng.uniform(0, vm.horizon))
            x = rng.standard_normal(vm.n)
            action = fractional_kelly(vm, vc, t, x)  # raises beyond 1e-12 internally
            h = optimal_h(vm, vc, t, x)
            scale = 1.0 + float(np.abs(h).max())
            kf = action.kelly_fraction
            recomposed = kf * action.kelly + (1 - kf) * action.bench_track - (1 - kf) * action.hedge
            worst_decomp = max(worst_decomp, float(np.abs(recomposed - h).max() / scale))
            gram = vm.gram_blocks(t)
            sigma = vm.coefficients(t).asset_vol
            reg = action.kelly + gram.ss_solve(sigma @ action.tilt)
            worst_reg = max(worst_reg, float(np.abs(reg - h).max() / scale))
    elapsed = time.perf_counter() - start
    report(4, "decomposition identities",
           worst_decomp < 1e-12 and worst_reg < 1e-12 and elapsed < 1.0,
           f"fractional-Kelly = {worst_decomp:.2e}, regularized-Kelly = {worst_reg:.2e}, "
           f"{elapsed:.2f}s")


def test_criterion_05_saddle_and_isaacs(scalar_model, scalar_vc):
    start = time.perf_counter()
    rep = saddle_check(scalar_model, scalar_vc, 0.5, np.array([0.1]),
                       probes=10_000, radius=0.5, seed=55)
    tol = 1e-9 * (1.0 + abs(rep.center_value))
    saddle_ok = rep.max_violation_h < tol and rep.max_violation_gamma < tol
    rng = np.random.default_rng(56)
    worst_gap = 0.0
    for _ in range(100):
        t = float(rng.uniform(0, 1))
        x = rng.standard_normal(1)
        hp, hm = hamiltonians(scalar_model, scalar_vc, t, x)
        worst_gap = max(worst_gap, abs(hp - hm) / (1.0 + abs(hp)))
    elapsed = time.perf_counter() - start
    report(5, "saddle and order-interchange suite",
           saddle_ok and worst_gap < 1e-9 and elapsed < 10.0,
           f"violations h = {rep.max_violation_h:.2e} tilt = {rep.max_violation_gamma:.2e}, "
           f"order gap = {worst_gap:.2e}, {elapsed:.1f}s")


def test_criterion_06_value_function_mc_oracle(twofactor_model, twofactor_vc):
    start = time.perf_counter()
    vm, vc = twofactor_model, twofactor_vc
    u0 = value_function(vc, 0.0, vm.x0).log_criterion
    base = dict(n_paths=100_000, steps=252, dt=1 / 252, seed=7, antithetic=True,
                keep=())
    opt = simulate_paths(vm, vc, SimConfig(strategy="optimal", **base))
    mc_opt = mc_criterion(opt, vm.theta)
    se_log = mc_opt.std_error / mc_opt.estimate
    z = abs(np.log(mc_opt.estimate) - u0) / se_log

    sub = simulate_paths(
        vm, vc,
        SimConfig(strategy=lambda t, X: 2.0 * kelly_allocation(vm, t, X), **base),
    )
    mc_sub = mc_criterion(sub, vm.theta)
    joint = float(np.hypot(mc_opt.std_error, mc_sub.std_error))
    ordering = mc_sub.estimate >= mc_opt.estimate - 3.0 * joint
    elapsed = time.perf_counter() - start
    report(6, "value-function MC oracle",
           z <= 3.0 and ordering and elapsed < 60.0,
           f"|ln estimate - value| = {z:.2f} std errs, suboptimal gap = "
           f"{mc_sub.estimate - mc_opt.estimate:+.4f} (3 s.e. = {3 * joint:.4f}), {elapsed:.1f}s")


def test_criterion_07_measure_theory_suite(twofactor_model, twofactor_vc):
    start = time.perf_counter()
    vm, vc = twofactor_model, twofactor_vc
    base = dict(steps=252, dt=1 / 252, keep=("densities",))
    phys = simulate_paths(vm, vc, SimConfig(n_paths=10_000, seed=72, strategy="optimal", **base))
    fact_gap = float(np.abs(
        phys.log_density_tilt - (phys.log_density_alloc + phys.log_density_link)
    ).max())
    mart_tilt = martingale_check(phys, "tilt")
    mart_alloc = martingale_check(phys, "alloc")
    tilted = simulate_paths(vm, vc, SimConfig(n_paths=20_000, seed=172,
                                              measure="tilted_gamma",
                                              strategy="optimal", **base))
    kl = kl_estimate(tilted)
    elapsed = time.perf_counter() - start
    report(7, "measure-theory suite",
           fact_gap < 1e-10 and mart_tilt.ok and mart_alloc.ok
           and kl.consistent and elapsed < 60.0,
           f"factorization = {fact_gap:.2e}, "
           f"E[density] = {mart_tilt.mean:.4f}/{mart_alloc.mean:.4f}, "
           f"KL {kl.from_log_density:.4f} vs {kl.from_tilt_norm:.4f}, {elapsed:.1f}s")


def test_criterion_08_kelly_limit():
    spec_small = make_scalar_spec(theta=1e-8, bench_vol=[0.0])
    vm = validate_model(spec_small)
    vc = solve_value_coefficients(vm, steps_per_year=504)
    rng = np.random.default_rng(80)
    worst = 0.0
    for _ in range(200):
        t = float(rng.uniform(0, 1))
        x = rng.uniform(-1.0, 1.0, size=1)  # typical factor-state magnitudes
        h = optimal_h(vm, vc, t, x)
        block = vm.coefficients(t)
        kelly = vm.gram_blocks(t).ss_solve(block.asset_drift + block.asset_factor_loading @ x)
        worst = max(worst, float(np.abs(h - kelly).max()))

    spec_zero = make_scalar_spec(theta=0.0, bench_vol=[0.0])
    vm0 = validate_model(spec_zero)
    vc0 = solve_value_coefficients(vm0, steps_per_year=504)
    x = np.array([0.3])
    block = vm0.coefficients(0.2)
    explicit = vm0.gram_blocks(0.2).ss_solve(block.asset_drift + block.asset_factor_loading @ x)
    exact = np.array_equal(optimal_h(vm0, vc0, 0.2, x), explicit)
    report(8, "Kelly limit",
           worst < 1e-6 and exact,
           f"theta=1e-8 gap = {worst:.2e}, theta=0 exact = {exact}")


def test_criterion_09_reference_ratio_reproduction():
    columns = {
        "benchmark": ((0.0507, 1.1682, 1.6773, 2.8334), (0.0434, 0.0302, 0.0179)),
        "portfolio-twostep": ((0.2437, 4.3154, 7.0890, 8.9186), (0.0565, 0.0344, 0.0273)),
        "portfolio-direct": ((0.2437, 4.3154, 7.0890, 8.9186), (0.0565, 0.0344, 0.0273)),
        "kelly": ((0.3078, 7.8217, 12.8507, 16.1727), (0.0394, 0.0240, 0.0190)),
    }
    worst = 0.0
    for (inputs, expected) in columns.values():
        ratios = risk_ratios(*inputs)
        got = (ratios["sharpe"], ratios["mean_to_var"], ratios["mean_to_cvar"])
        worst = max(worst, max(abs(g - e) for g, e in zip(got, expected)))
    report(9, "published ratio reproduction", worst <= 1e-4,
           f"max ratio deviation = {worst:.2e} (tolerance 1e-4)")


def test_criterion_10_estimation_round_trip():
    start = time.perf_counter()
    generator = validate_model(model_mod.ModelSpec.constant(
        n=1, m=1, d=2, horizon_years=1.0, theta=1.0, x0=[0.0],
        asset_drift=[1.0], asset_factor_loading=[[0.5]], asset_vol=[[0.1, 0.0]],
        factor_drift=[0.05], factor_mean_reversion=[[-1.0]], factor_vol=[[0.0, 0.05]],
        bench_drift=1.0, bench_factor_loading=[0.5], bench_vol=[0.1, 0.0],
    ))
    weights = np.array([1.0])
    panel = synthesize_panel(generator, years=20.0, weights=weights, seed=0)
    rep = estimate_model(panel, theta=1.0, horizon_years=1.0, x0=np.zeros(1))
    fitted = validate_model(rep.model_spec)

    vc_gen = solve_value_coefficients(generator, steps_per_year=504)
    vc_fit = solve_value_coefficients(fitted, steps_per_year=504)
    h_gen = optimal_h(generator, vc_gen, 0.0, np.zeros(1))
    h_fit = optimal_h(fitted, vc_fit, 0.0, np.zeros(1))
    rel_err = float(np.abs(h_fit - h_gen).max() / np.abs(h_gen).max())

    est_blocks = gram_blocks_of_cov(realized_covariance(panel), panel.m, panel.n)
    se = bootstrap_gram_se(panel, block_len=21, n_resamples=500, seed=1)
    gram = generator.gram_blocks(0.0)
    truth = {"ss": gram.ss, "sl": gram.sl, "ll": gram.ll,
             "s_xi": gram.s_xi, "l_xi": gram.l_xi, "xi_xi": gram.xi_xi}
    gram_ok = all(
        np.all(np.abs(np.asarray(est_blocks[k]) - np.asarray(truth[k])) <= 3.0 * se[k] + 1e-12)
        for k in truth
    )
    elapsed = time.perf_counter() - start
    report(10, "estimation round trip",
           rel_err <= 0.10 and gram_ok and elapsed < 120.0,
           f"allocation rel err = {rel_err:.3f}, Gram blocks within 3 bootstrap s.e. = "
           f"{gram_ok}, {elapsed:.1f}s")
