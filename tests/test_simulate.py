import dataclasses
import inspect
import re
import sys
import threading
import time

import numpy as np
import pytest

import benchkelly.simulate as sim_mod
from benchkelly.errors import ConfigError, MeasureMismatch, NonfiniteState, ParseError
from benchkelly.game import running_payoff_g, running_payoff_g1
from benchkelly.model import ModelSpec, validate_model
from benchkelly.policy import gain_table
from benchkelly.simulate import (
    KlEstimate,
    MartingaleCheck,
    SimConfig,
    kl_estimate,
    load_paths_binary,
    martingale_check,
    mc_criterion,
    save_paths_binary,
    save_terminals_csv,
    simulate_lanes,
    simulate_paths,
)
from benchkelly.valuefn import solve_value_coefficients, value_function

from conftest import kelly_allocation, make_random_spec, make_scalar_spec, make_two_segment_spec
from euler_reference import simulate_reference


@pytest.fixture(scope="module")
def spanned_model():
    """Benchmark held as a fixed-weight portfolio of the two assets."""
    w = np.array([0.6, 0.4])
    a = np.array([0.05, 0.03])
    A = np.array([[0.2], [-0.1]])
    sigma = np.array([[0.15, 0.05, 0.0], [0.04, 0.12, 0.0]])
    spec = ModelSpec.constant(
        n=1, m=2, d=3, horizon_years=1.0, theta=1.0, x0=[0.2],
        asset_drift=a, asset_factor_loading=A, asset_vol=sigma,
        factor_mean_reversion=[[-0.3]], factor_vol=[[0.0, 0.05, 0.08]],
        bench_drift=float(w @ a), bench_factor_loading=w @ A, bench_vol=sigma.T @ w,
    )
    return validate_model(spec), w


@pytest.fixture(scope="module")
def scalar_bundle(scalar_model, scalar_vc):
    cfg = SimConfig(n_paths=4000, steps=252, dt=1 / 252, seed=11,
                    strategy="optimal", keep=("densities",))
    return simulate_paths(scalar_model, scalar_vc, cfg)


def test_benchmark_replication_zero_excess(spanned_model):
    vm, w = spanned_model
    cfg = SimConfig(n_paths=64, steps=120, dt=1 / 252, seed=3,
                    strategy="benchmark", bench_weights=w, keep=("log_excess",))
    bundle = simulate_paths(vm, None, cfg)
    assert np.abs(bundle.terminal_log_excess).max() < 1e-12
    assert np.abs(bundle.log_excess).max() < 1e-12


def test_log_excess_starts_at_zero(scalar_model, scalar_vc):
    cfg = SimConfig(n_paths=8, steps=10, dt=1 / 252, seed=1, strategy="optimal")
    bundle = simulate_paths(scalar_model, scalar_vc, cfg)
    assert np.all(bundle.log_excess[:, 0] == 0.0)


def test_zero_tilt_matches_physical_bitwise(scalar_model, scalar_vc):
    zero_tilt = lambda t, X, H: np.zeros((X.shape[0], scalar_model.d))
    base = SimConfig(n_paths=50, steps=40, dt=1 / 252, seed=9, strategy="optimal",
                     custom_tilt=zero_tilt)
    phys = simulate_paths(scalar_model, scalar_vc, base)
    tilted = simulate_paths(
        scalar_model, scalar_vc,
        SimConfig(n_paths=50, steps=40, dt=1 / 252, seed=9, strategy="optimal",
                  measure="tilted_gamma", custom_tilt=zero_tilt),
    )
    assert np.array_equal(phys.states, tilted.states)
    assert np.array_equal(phys.log_excess, tilted.log_excess)
    assert np.all(tilted.log_density_tilt == 0.0)


def _drift_tilt_spec(theta, **drifts):
    """A two-factor, two-asset model for the Girsanov drift-shift identity."""
    kwargs = dict(
        asset_drift=np.array([0.05, 0.03]),
        asset_factor_loading=np.array([[0.2, 0.1], [-0.1, 0.3]]),
        asset_vol=np.array([[0.15, 0.05, 0.0], [0.04, 0.12, 0.02]]),
        factor_drift=np.array([0.01, -0.02]),
        factor_mean_reversion=np.array([[-0.3, 0.05], [0.0, -0.6]]),
        factor_vol=np.array([[0.0, 0.05, 0.08], [0.06, 0.0, 0.03]]),
        bench_drift=0.01,
        bench_factor_loading=np.array([0.05, -0.02]),
        bench_vol=np.array([0.02, 0.01, 0.01]),
    )
    kwargs.update(drifts)
    return ModelSpec.constant(n=2, m=2, d=3, horizon_years=1.0, theta=theta,
                              x0=[0.1, -0.2], **kwargs)


@pytest.mark.parametrize("measure", ["tilted_gamma", "tilted_h"])
def test_tilted_run_is_physical_run_of_drift_shifted_model(measure):
    # Girsanov: sampling with Brownian drift c is sampling P of the model whose
    # drifts absorb the tilt: factor drift + Lambda c, asset drift + Sigma c,
    # benchmark drift + Xi . c
    theta = 1.5
    spec = _drift_tilt_spec(theta)
    block = spec.coeffs.blocks[0]
    h0 = np.array([0.8, -0.3])
    c = np.array([0.3, -0.2, 0.5])
    if measure == "tilted_h":
        c = -theta * (block.asset_vol.T @ h0 - block.bench_vol)
    shifted = _drift_tilt_spec(
        theta,
        factor_drift=block.factor_drift + block.factor_vol @ c,
        asset_drift=block.asset_drift + block.asset_vol @ c,
        bench_drift=float(block.bench_drift + block.bench_vol @ c),
    )
    base = dict(n_paths=200, steps=100, dt=1 / 252, seed=19, keep=("states", "log_excess"),
                strategy=lambda t, X: np.tile(h0, (X.shape[0], 1)))
    tilted = simulate_paths(
        validate_model(spec), None,
        SimConfig(measure=measure, custom_tilt=lambda t, X, H: np.tile(c, (X.shape[0], 1)),
                  **base))
    physical = simulate_paths(validate_model(shifted), None, SimConfig(**base))
    assert np.abs(tilted.states - physical.states).max() < 1e-12
    assert np.abs(tilted.log_excess - physical.log_excess).max() < 1e-12
    assert np.abs(tilted.log_excess).max() > 1e-3  # the identity is not vacuous


def test_reproducibility_same_config(scalar_model, scalar_vc):
    cfg = SimConfig(n_paths=100, steps=30, dt=1 / 252, seed=5, strategy="optimal")
    b1 = simulate_paths(scalar_model, scalar_vc, cfg)
    b2 = simulate_paths(scalar_model, scalar_vc, cfg)
    assert np.array_equal(b1.states, b2.states)
    assert np.array_equal(b1.log_density_tilt, b2.log_density_tilt)


def test_reproducibility_across_block_sizes(monkeypatch, scalar_model, scalar_vc):
    cfg = SimConfig(n_paths=100, steps=30, dt=1 / 252, seed=5, strategy="optimal")
    b1 = simulate_paths(scalar_model, scalar_vc, cfg)
    monkeypatch.setattr(sim_mod, "NOISE_BUFFER_BYTES", 1)
    monkeypatch.setattr(sim_mod, "MIN_BLOCK_PATHS", 17)
    assert len(sim_mod._partition(cfg.n_paths, cfg.steps, scalar_model.d)) > 1
    b2 = simulate_paths(scalar_model, scalar_vc, cfg)
    assert np.array_equal(b1.states, b2.states)
    assert np.array_equal(b1.terminal_log_excess, b2.terminal_log_excess)


@pytest.mark.parametrize("seed", [5, 2**63 + 11])
@pytest.mark.parametrize("first_path", [0, 6])
@pytest.mark.parametrize("antithetic", [False, True])
def test_block_noise_is_the_per_path_philox_stream(seed, first_path, antithetic):
    count, steps, d = 9, 17, 3
    expected = np.empty((count, steps, d))
    for i in range(count):
        p = first_path + i
        stream = p // 2 if antithetic else p
        gen = np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
        z = gen.standard_normal((steps, d))
        expected[i] = -z if antithetic and p % 2 == 1 else z
    noise = sim_mod._block_noise(seed, first_path, count, steps, d, antithetic)
    assert noise.tobytes() == expected.tobytes()


def test_paths_independent_of_path_count(scalar_model, scalar_vc):
    small = simulate_paths(scalar_model, scalar_vc,
                           SimConfig(n_paths=10, steps=20, dt=1 / 252, seed=4,
                                     strategy="optimal", keep=("densities",)))
    large = simulate_paths(scalar_model, scalar_vc,
                           SimConfig(n_paths=40, steps=20, dt=1 / 252, seed=4,
                                     strategy="optimal", keep=("densities",)))
    assert np.array_equal(small.terminal_log_excess, large.terminal_log_excess[:10])


def test_pathwise_density_factorization(scalar_bundle):
    gap = np.abs(
        scalar_bundle.log_density_tilt
        - (scalar_bundle.log_density_alloc + scalar_bundle.log_density_link)
    ).max()
    assert gap < 1e-10


def test_factorization_under_tilted_measures(scalar_model, scalar_vc):
    for measure in ("tilted_gamma", "tilted_h"):
        bundle = simulate_paths(
            scalar_model, scalar_vc,
            SimConfig(n_paths=500, steps=100, dt=1 / 252, seed=21, measure=measure,
                      strategy="optimal", keep=("densities",)),
        )
        gap = np.abs(bundle.log_density_tilt
                     - (bundle.log_density_alloc + bundle.log_density_link)).max()
        assert gap < 1e-10


def test_martingale_means(scalar_bundle):
    for which in ("tilt", "alloc"):
        chk = martingale_check(scalar_bundle, which)
        assert chk.ok, f"{which}: mean {chk.mean} se {chk.std_error}"


def test_martingale_exact_for_zero_tilt(scalar_model, scalar_vc):
    cfg = SimConfig(n_paths=50, steps=20, dt=1 / 252, seed=2, strategy="optimal",
                    custom_tilt=lambda t, X, H: np.zeros((X.shape[0], 1)),
                    keep=("densities",))
    bundle = simulate_paths(scalar_model, scalar_vc, cfg)
    chk = martingale_check(bundle, "tilt")
    assert chk.mean == 1.0


def test_mc_criterion_zero_returns(spanned_model):
    vm, w = spanned_model
    cfg = SimConfig(n_paths=200, steps=100, dt=1 / 252, seed=3,
                    strategy="benchmark", bench_weights=w, keep=())
    bundle = simulate_paths(vm, None, cfg)
    mc = mc_criterion(bundle, vm.theta)
    assert mc.estimate == pytest.approx(1.0, abs=1e-12)
    assert mc.certainty_equivalent == pytest.approx(0.0, abs=1e-12)


def test_mc_criterion_log_utility_limit(scalar_bundle):
    tiny = mc_criterion(scalar_bundle, 1e-8)
    exact = mc_criterion(scalar_bundle, 0.0)
    assert exact.estimate == 1.0
    assert abs(tiny.certainty_equivalent - exact.certainty_equivalent) < 1e-6


def test_mc_criterion_requires_physical(scalar_model, scalar_vc):
    bundle = simulate_paths(
        scalar_model, scalar_vc,
        SimConfig(n_paths=16, steps=10, dt=1 / 252, seed=1, measure="tilted_gamma",
                  strategy="optimal", keep=("densities",)),
    )
    with pytest.raises(MeasureMismatch):
        mc_criterion(bundle, 1.0)
    with pytest.raises(MeasureMismatch):
        martingale_check(bundle)


def test_infinite_standard_error_checks_nothing(scalar_model, scalar_vc):
    # one path has no standard error: a 3 * inf band would pass anything
    inf = float("inf")
    assert MartingaleCheck(1.0, 0.1).ok and not MartingaleCheck(1.0, inf).ok
    assert KlEstimate(0.2, 0.2, 0.1, 0.1).consistent
    assert not KlEstimate(0.2, 0.2, inf, 0.0).consistent
    assert not KlEstimate(0.2, 0.2, 0.0, inf).consistent
    base = dict(n_paths=1, steps=10, dt=1 / 252, seed=3, keep=("densities",))
    physical = simulate_paths(scalar_model, scalar_vc, SimConfig(**base))
    tilted = simulate_paths(scalar_model, scalar_vc, SimConfig(measure="tilted_gamma", **base))
    for which in ("tilt", "alloc"):
        chk = martingale_check(physical, which)
        assert chk.std_error == inf and not chk.ok
    assert not kl_estimate(tilted).consistent


def test_kl_requires_tilted(scalar_bundle):
    with pytest.raises(MeasureMismatch):
        kl_estimate(scalar_bundle)


def test_kl_dual_estimators(scalar_model, scalar_vc):
    bundle = simulate_paths(
        scalar_model, scalar_vc,
        SimConfig(n_paths=20_000, steps=126, dt=1 / 252, seed=13,
                  measure="tilted_gamma", strategy="optimal", keep=("densities",)),
    )
    kl = kl_estimate(bundle)
    assert kl.consistent
    assert kl.from_tilt_norm > 0.0


def test_kl_constant_deterministic_tilt(scalar_model, scalar_vc):
    g0 = np.array([0.8])
    steps, dt = 126, 1 / 252
    bundle = simulate_paths(
        scalar_model, scalar_vc,
        SimConfig(n_paths=5000, steps=steps, dt=dt, measure="tilted_gamma",
                  strategy="kelly", custom_tilt=lambda t, X, H: np.tile(g0, (X.shape[0], 1)),
                  seed=17, keep=("densities",)),
    )
    kl = kl_estimate(bundle)
    closed_form = 0.5 * float(g0 @ g0) * steps * dt
    assert kl.from_tilt_norm == pytest.approx(closed_form, rel=1e-12)
    assert abs(kl.from_log_density - closed_form) < 3.0 * kl.se_log_density


def test_suboptimal_strategy_orders_criterion(scalar_model, scalar_vc):
    base = dict(n_paths=20_000, steps=252, dt=1 / 252, seed=29, keep=("densities",))
    opt = simulate_paths(scalar_model, scalar_vc, SimConfig(strategy="optimal", **base))
    double_kelly = simulate_paths(
        scalar_model, scalar_vc,
        SimConfig(strategy=lambda t, X: 2.0 * kelly_allocation(scalar_model, t, X), **base),
    )
    mc_opt = mc_criterion(opt, scalar_model.theta)
    mc_sub = mc_criterion(double_kelly, scalar_model.theta)
    joint = np.hypot(mc_opt.std_error, mc_sub.std_error)
    assert mc_sub.estimate >= mc_opt.estimate - 3.0 * joint


def test_antithetic_halves_variance(scalar_model, scalar_vc):
    base = dict(n_paths=20_000, steps=126, dt=1 / 252, seed=1, strategy="optimal",
                keep=("densities",))
    plain = simulate_paths(scalar_model, scalar_vc, SimConfig(antithetic=False, **base))
    anti = simulate_paths(scalar_model, scalar_vc, SimConfig(antithetic=True, **base))
    se_plain = mc_criterion(plain, 1.0).std_error
    se_anti = mc_criterion(anti, 1.0).std_error
    assert (se_anti / se_plain) ** 2 <= 0.5 / 0.8


def test_certainty_equivalent_monotone_in_theta(scalar_bundle):
    values = [mc_criterion(scalar_bundle, th).certainty_equivalent
              for th in (0.25, 0.5, 1.0, 2.0)]
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


def test_nonfinite_state_detected(scalar_model, scalar_vc):
    cfg = SimConfig(n_paths=4, steps=10, dt=1 / 252, seed=1,
                    strategy=lambda t, X: np.full((X.shape[0], 1), 1e200), keep=())
    with pytest.raises(NonfiniteState) as err:
        simulate_paths(scalar_model, scalar_vc, cfg)
    assert "path" in str(err.value) and "step" in str(err.value)


@pytest.mark.parametrize("bad", [
    dict(n_paths=0),
    dict(steps=0),
    dict(dt=-0.1),
    dict(steps=10_000),                       # beyond the 1y horizon
    dict(measure="sideways"),
    dict(strategy="oracle"),
    dict(antithetic=True, n_paths=7),
    dict(strategy="custom"),                  # the removed name; a policy is a callable
    dict(route="bogus"),
    dict(strategy="benchmark", bench_weights=np.array([0.5, 0.5])),  # m == 1
    dict(strategy="benchmark", bench_weights=np.array([[1.0]])),
    dict(keep=("states", "paths")),
    dict(keep=("density",)),
])
def test_config_validation(scalar_model, scalar_vc, bad):
    base = dict(n_paths=10, steps=10, dt=1 / 252, seed=0, strategy="optimal")
    base.update(bad)
    with pytest.raises(ConfigError):
        simulate_paths(scalar_model, scalar_vc, SimConfig(**base))


def test_optimal_needs_coefficients(scalar_model):
    with pytest.raises(ConfigError):
        simulate_paths(scalar_model, None,
                       SimConfig(n_paths=4, steps=4, dt=1 / 252, strategy="optimal"))


@pytest.mark.parametrize("cfg", [
    dict(strategy="kelly", keep=("densities",)),
    dict(strategy="benchmark", keep=("log_excess", "densities")),
    dict(strategy="kelly", measure="tilted_gamma", keep=()),
], ids=["kelly-densities", "benchmark-densities", "tilted_gamma-without-custom-tilt"])
def test_every_tilt_needs_coefficients(scalar_model, cfg):
    # every adverse tilt is the table's value tilt unless custom_tilt replaces
    # it: densities and tilted_gamma's drift need the coefficients
    with pytest.raises(ConfigError, match="value coefficients"):
        simulate_paths(scalar_model, None, SimConfig(n_paths=4, steps=4, dt=1 / 252, **cfg))


@pytest.mark.parametrize("cfg", [
    dict(measure="tilted_h"),
    dict(measure="tilted_gamma", custom_tilt=lambda t, X, H: np.full((len(X), 1), 0.3)),
], ids=["tilted_h", "tilted_gamma-custom-tilt"])
def test_lanes_without_tilts_run_without_coefficients(scalar_model, scalar_vc, cfg):
    # tilted_h's drift -theta (Sigma' h - Xi) and a custom tilt read no
    # coefficients; the run is the one with coefficients, bit for bit
    config = SimConfig(n_paths=8, steps=10, dt=1 / 252, seed=2, strategy="kelly", keep=(), **cfg)
    without = simulate_paths(scalar_model, None, config)
    with_vc = simulate_paths(scalar_model, scalar_vc, config)
    assert without.terminal_state.tobytes() == with_vc.terminal_state.tobytes()
    assert without.terminal_log_excess.tobytes() == with_vc.terminal_log_excess.tobytes()
    assert np.all(np.isfinite(without.terminal_log_excess))


def test_binary_dump_round_trip(tmp_path, scalar_model, scalar_vc):
    cfg = SimConfig(n_paths=12, steps=8, dt=1 / 252, seed=2, strategy="optimal")
    bundle = simulate_paths(scalar_model, scalar_vc, cfg)
    path = tmp_path / "paths.bin"
    save_paths_binary(bundle, path)
    states, log_excess = load_paths_binary(path)
    assert np.array_equal(states, bundle.states)
    assert np.array_equal(log_excess, bundle.log_excess)


def test_binary_dump_rejects_trailing_bytes(tmp_path, scalar_model, scalar_vc):
    cfg = SimConfig(n_paths=4, steps=3, dt=1 / 252, seed=2, strategy="optimal")
    path = tmp_path / "paths.bin"
    save_paths_binary(simulate_paths(scalar_model, scalar_vc, cfg), path)
    with open(path, "ab") as fh:
        fh.write(np.zeros(1).tobytes())
    with pytest.raises(ParseError, match="longer than its header promises"):
        load_paths_binary(path)


def test_binary_dump_needs_paths(tmp_path, scalar_model, scalar_vc):
    bundle = simulate_paths(
        scalar_model, scalar_vc,
        SimConfig(n_paths=4, steps=4, dt=1 / 252, strategy="optimal", keep=("densities",)),
    )
    with pytest.raises(ConfigError):
        save_paths_binary(bundle, tmp_path / "x.bin")


def test_terminal_csv_round_trip(tmp_path, scalar_model, scalar_vc):
    cfg = SimConfig(n_paths=6, steps=5, dt=1 / 252, seed=3, strategy="optimal",
                    keep=("densities",))
    bundle = simulate_paths(scalar_model, scalar_vc, cfg)
    path = tmp_path / "terminals.csv"
    save_terminals_csv(bundle, path)
    rows = path.read_text().strip().splitlines()
    assert rows[0].startswith("path,terminal_log_excess")
    values = np.array([float(line.split(",")[1]) for line in rows[1:]])
    assert np.array_equal(values, bundle.terminal_log_excess)


@pytest.mark.parametrize("measure, read", [
    ("physical", lambda bundle, path: martingale_check(bundle)),
    ("tilted_gamma", lambda bundle, path: kl_estimate(bundle)),
    ("physical", save_terminals_csv),
], ids=["martingale_check", "kl_estimate", "save_terminals_csv"])
def test_density_readers_need_kept_densities(tmp_path, scalar_model, scalar_vc, measure, read):
    # a bundle that kept no densities has no columns a reader could take for data
    bundle = simulate_paths(
        scalar_model, scalar_vc,
        SimConfig(n_paths=8, steps=5, dt=1 / 252, seed=4, measure=measure, keep=("log_excess",)))
    assert bundle.log_density_tilt is None
    with pytest.raises(ConfigError, match="keep"):
        read(bundle, tmp_path / "terminals.csv")
    assert not (tmp_path / "terminals.csv").exists()


@pytest.mark.parametrize("measure", ["physical", "tilted_gamma", "tilted_h"])
def test_optimal_strategy_is_the_policy_module(twofactor_model, twofactor_vc, measure):
    # the optimal strategy and adverse tilt are the policy's gain table, bit for bit
    vm, vc = twofactor_model, twofactor_vc
    steps, dt = 40, 1 / 252
    table = gain_table(vm, vc, [j * dt for j in range(steps)])

    def policy(t, X):
        return table.controls(round(t / dt), X)[:, table.h]

    def tilt(t, X, H):
        block = vm.coefficients(t)
        value_tilt = table.controls(round(t / dt), X)[:, table.value_tilt]
        return value_tilt - vm.theta * (H @ block.asset_vol - block.bench_vol)

    base = dict(n_paths=64, steps=steps, dt=dt, seed=6, measure=measure)
    optimal = simulate_paths(vm, vc, SimConfig(strategy="optimal", **base))
    custom = simulate_paths(vm, vc, SimConfig(strategy=policy, custom_tilt=tilt, **base))
    for name in ("states", "log_excess", "log_density_tilt", "log_density_alloc",
                 "log_density_link", "tilt_sq_integral"):
        assert getattr(optimal, name).tobytes() == getattr(custom, name).tobytes(), name


def _applied_controls(model, vc, t, X):
    """The optimal allocation and adverse tilt the simulator applied at states X."""
    table = gain_table(model, vc, [t])
    controls = table.controls(0, X)
    block = model.coefficients(t)
    H = controls[:, table.h]
    return H, controls[:, table.value_tilt] - model.theta * (H @ block.asset_vol - block.bench_vol)


def test_game_value_matches_tilted_expectation(twofactor_model, twofactor_vc):
    # at the saddle, the expected accumulated payoff under the adverse tilt
    # equals the value surface at the start point
    vm, vc = twofactor_model, twofactor_vc
    theta = vm.theta
    steps, dt = 252, 1 / 252
    bundle = simulate_paths(
        vm, vc,
        SimConfig(n_paths=20_000, steps=steps, dt=dt, seed=37, measure="tilted_gamma",
                  strategy="optimal"),
    )
    total = np.zeros(bundle.config.n_paths)
    for j in range(steps):
        X = bundle.states[:, j]
        H, G = _applied_controls(vm, vc, j * dt, X)
        total += theta * dt * running_payoff_g(vm, j * dt, X, H, G)
    u0 = value_function(vc, 0.0, vm.x0).log_criterion
    se = total.std(ddof=1) / np.sqrt(len(total))
    assert abs(total.mean() - u0) < 3.0 * se + 5e-4  # MC band plus Euler bias allowance


def test_transformed_measure_criterion_matches_value(twofactor_model, twofactor_vc):
    # under the allocation-induced measure, ln E[exp(theta * accumulated
    # transformed payoff)] at the candidate allocation equals the value
    vm, vc = twofactor_model, twofactor_vc
    theta = vm.theta
    steps, dt = 252, 1 / 252
    bundle = simulate_paths(
        vm, vc,
        SimConfig(n_paths=20_000, steps=steps, dt=dt, seed=41, measure="tilted_h",
                  strategy="optimal"),
    )
    total = np.zeros(bundle.config.n_paths)
    for j in range(steps):
        X = bundle.states[:, j]
        H, _ = _applied_controls(vm, vc, j * dt, X)
        total += theta * dt * running_payoff_g1(vm, j * dt, X, H)
    vals = np.exp(total)
    mean = vals.mean()
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    u0 = value_function(vc, 0.0, vm.x0).log_criterion
    assert abs(np.log(mean) - u0) < 3.0 * (se / mean) + 5e-4


def test_theta_zero_densities_trivial():
    spec = make_scalar_spec(theta=0.0)
    vm = validate_model(spec)
    vc = solve_value_coefficients(vm, steps_per_year=252)
    bundle = simulate_paths(vm, vc, SimConfig(n_paths=32, steps=20, dt=1 / 252,
                                              seed=5, strategy="optimal",
                                              keep=("densities",)))
    assert np.all(bundle.log_density_alloc == 0.0)
    assert np.all(bundle.log_density_tilt == 0.0)


_BUNDLE_ARRAYS = ("terminal_state", "terminal_log_excess", "log_density_tilt",
                  "log_density_alloc", "log_density_link", "tilt_sq_integral",
                  "states", "log_excess")


@pytest.fixture(scope="module")
def solved_wide():
    rng = np.random.default_rng(53)
    vm = validate_model(make_random_spec(rng, theta=1.5, n=3, m=2, d=4))
    return vm, solve_value_coefficients(vm, steps_per_year=252)


@pytest.mark.parametrize("antithetic", [False, True])
def test_each_lane_is_its_solo_run(monkeypatch, solved_wide, antithetic):
    # every strategy under every measure on one noise draw, over several path
    # blocks: each lane's bundle is byte for byte its simulate_paths run
    vm, vc = solved_wide
    monkeypatch.setattr(sim_mod, "NOISE_BUFFER_BYTES", 1)
    monkeypatch.setattr(sim_mod, "MIN_BLOCK_PATHS", 4)
    widths = {}

    class WidthSpy(sim_mod._Lane):
        def __init__(self, model, vc, cfg, *args):
            super().__init__(model, vc, cfg, *args)
            widths[id(cfg)] = None if self.table is None else self.table.gain.shape[-1]

    monkeypatch.setattr(sim_mod, "_Lane", WidthSpy)
    strategies = [dict(strategy="optimal"), dict(strategy="optimal", route="twostep"),
                  dict(strategy="kelly"), dict(strategy="benchmark"),
                  dict(strategy="benchmark", bench_weights=np.array([0.7, 0.3])),
                  dict(strategy=lambda t, X: 0.5 * kelly_allocation(vm, t, X))]
    base = dict(n_paths=10, steps=12, dt=1 / 252, seed=8, antithetic=antithetic)
    assert len(sim_mod._partition(base["n_paths"], base["steps"], vm.d)) > 1
    cfgs = [SimConfig(measure=measure, **strategy, **base)
            for measure in sim_mod.MEASURES for strategy in strategies]
    kelly_paths = SimConfig(strategy="kelly", keep=("log_excess",), **base)
    optimal_paths = SimConfig(strategy="optimal", keep=("log_excess",), **base)
    tilted_paths = SimConfig(strategy="optimal", measure="tilted_gamma",
                             keep=("states", "log_excess"), **base)
    benchmark_paths = SimConfig(strategy="benchmark", keep=("log_excess",), **base)
    cfgs += [kelly_paths, optimal_paths, tilted_paths, benchmark_paths]
    lanes = simulate_lanes(vm, vc, cfgs)
    assert len(lanes) == len(cfgs)
    for cfg, lane in zip(cfgs, lanes):
        solo = simulate_paths(vm, vc, cfg)
        assert lane.config is cfg
        for name in _BUNDLE_ARRAYS:
            a, b = getattr(lane, name), getattr(solo, name)
            assert (a is None) == (b is None), name
            if a is not None:
                assert a.tobytes() == b.tobytes(), (cfg.strategy, cfg.measure, name)
    by_cfg = dict(zip(map(id, cfgs), lanes))
    for cfg in (kelly_paths, optimal_paths):
        bundle = by_cfg[id(cfg)]
        assert bundle.states is None and bundle.log_excess is not None
        assert bundle.log_density_tilt is None and bundle.tilt_sq_integral is None
    # a lane's gain table carries only the columns it reads: a density lane
    # m allocation and d tilt columns
    assert widths[id(optimal_paths)] == vm.m
    assert widths[id(benchmark_paths)] == vm.m
    assert widths[id(cfgs[0])] == vm.m + vm.d
    # without densities a tilted_gamma lane still samples under its drift gamma
    tilted_all = by_cfg[id(cfgs[len(strategies)])]
    assert tilted_all.config.measure == "tilted_gamma"
    assert by_cfg[id(tilted_paths)].states.tobytes() == tilted_all.states.tobytes()
    assert by_cfg[id(tilted_paths)].log_density_link is None


@pytest.mark.parametrize("field, value", [
    ("n_paths", 12), ("steps", 11), ("dt", 1 / 250), ("seed", 9), ("antithetic", True),
])
def test_lanes_must_share_paths_steps_and_seed(scalar_model, scalar_vc, field, value):
    base = dict(n_paths=10, steps=12, dt=1 / 252, seed=8)
    other = SimConfig(**{**base, field: value, "strategy": "kelly"})
    with pytest.raises(ConfigError, match=field):
        simulate_lanes(scalar_model, scalar_vc, [SimConfig(**base), other])


def test_lanes_need_a_config(scalar_model, scalar_vc):
    with pytest.raises(ConfigError):
        simulate_lanes(scalar_model, scalar_vc, [])


def test_simulation_rejects_coefficients_of_another_model(scalar_vc):
    # coefficients solved at theta = 1 must not drive a theta = 5 model
    vm = validate_model(make_scalar_spec(theta=5.0))
    with pytest.raises(ConfigError, match="theta"):
        simulate_paths(vm, scalar_vc, SimConfig(n_paths=4, steps=4, dt=1 / 252))


def test_partition_is_cache_sized_and_aligned():
    # the verify-wide sizes: four cache-sized blocks, the last one ragged
    assert sim_mod._partition(4000, 252, 20) == [(0, 1024), (1024, 1024), (2048, 1024),
                                                 (3072, 928)]
    # a small model's run is one block
    assert sim_mod._partition(1000, 1260, 3) == [(0, 1000)]
    for n_paths, steps, d in [(5000, 1260, 20), (777, 3000, 40), (10**5, 252, 1)]:
        blocks = sim_mod._partition(n_paths, steps, d)
        assert sum(count for _, count in blocks) == n_paths
        assert all(count % sim_mod.BLOCK_ALIGN == 0 for _, count in blocks[:-1])


def test_chunk_length_is_cache_sized(monkeypatch):
    # an experiment block (1000 paths, d = 3) runs ten steps a chunk, a wide
    # verify block (1024 or 928 paths, d = 20) one
    assert sim_mod._chunk_length(1000, 3) == 10
    assert sim_mod._chunk_length(1024, 20) == 1
    assert sim_mod._chunk_length(928, 20) == 1
    assert sim_mod._chunk_length(10**6, 40) == 1
    assert sim_mod._chunk_length(1, 1) == sim_mod.CHUNK_BYTES // 8
    # the length depends on the block's sizes alone
    assert list(inspect.signature(sim_mod._chunk_length).parameters) == ["paths", "d"]
    monkeypatch.setattr(sim_mod, "WORKERS", 7)
    assert sim_mod._chunk_length(1000, 3) == 10


@pytest.fixture(scope="module")
def solved_two_segment():
    rng = np.random.default_rng(29)
    vm = validate_model(make_two_segment_spec(rng, theta=1.5))
    return vm, solve_value_coefficients(vm, steps_per_year=252)


def _assert_bundles_equal(got, want):
    for a_bundle, b_bundle in zip(got, want, strict=True):
        for name in _BUNDLE_ARRAYS:
            a, b = getattr(a_bundle, name), getattr(b_bundle, name)
            assert (a is None) == (b is None), name
            if a is not None:
                assert a.tobytes() == b.tobytes(), (a_bundle.config.strategy,
                                                    a_bundle.config.measure, name)


@pytest.mark.parametrize("antithetic", [False, True])
@pytest.mark.parametrize("steps_per_chunk", [1, 5, 7, 10**6])
@pytest.mark.parametrize("segments", [1, 2])
def test_chunked_kernel_is_the_per_step_loop(monkeypatch, solved_wide, solved_two_segment,
                                             segments, steps_per_chunk, antithetic):
    # every strategy, a callable one too, under every measure, custom tilts
    # and partial keeps, over two blocks (8 and 6 paths), in chunks of one
    # step, of 5 and 6 steps or 7 and 9 (none divides the 13 steps) and of
    # the whole run; the two-segment model's knot at step 8 falls inside a
    # chunk, and at 7 steps the first block runs chunks of 7, 1 and 5 steps,
    # a one-step chunk between two longer ones
    vm, vc = solved_wide if segments == 1 else solved_two_segment
    monkeypatch.setattr(sim_mod, "NOISE_BUFFER_BYTES", 1)
    monkeypatch.setattr(sim_mod, "MIN_BLOCK_PATHS", 8)
    monkeypatch.setattr(sim_mod, "CHUNK_BYTES", steps_per_chunk * 8 * vm.d * 8)
    base = dict(n_paths=14, steps=13, dt=1 / 16, seed=4, antithetic=antithetic)
    assert sim_mod._partition(14, 13, vm.d) == [(0, 8), (8, 6)]
    assert vm.segment_indices(np.arange(13) / 16).tolist() == (
        [0] * 13 if segments == 1 else [0] * 8 + [1] * 5)

    def tilt(t, X, H):
        return 0.2 * np.tanh(H @ np.ones((vm.m, vm.d)) + X[:, :1]) - t

    strategies = [dict(strategy="optimal"), dict(strategy="optimal", route="twostep"),
                  dict(strategy="kelly"), dict(strategy="benchmark"),
                  dict(strategy=lambda t, X: 0.5 * kelly_allocation(vm, t, X) + t)]
    cfgs = [SimConfig(measure=measure, **strategy, **base)
            for measure in sim_mod.MEASURES for strategy in strategies]
    cfgs += [SimConfig(strategy="kelly", custom_tilt=tilt, **base),
             SimConfig(strategy="optimal", measure="tilted_gamma", custom_tilt=tilt, **base),
             SimConfig(strategy="kelly", measure="tilted_gamma", custom_tilt=tilt,
                       keep=("states",), **base),
             SimConfig(strategy="benchmark", keep=("log_excess",), **base),
             SimConfig(strategy="optimal", measure="tilted_h", keep=(), **base)]
    _assert_bundles_equal(simulate_lanes(vm, vc, cfgs), simulate_reference(vm, vc, cfgs))
    # a physical lane alone, with no tilted owner beside it
    solo = [SimConfig(strategy="optimal", keep=("densities",), **base)]
    _assert_bundles_equal(simulate_lanes(vm, vc, solo), simulate_reference(vm, vc, solo))


@pytest.mark.parametrize("diverging", ["allocation", "factor_state"])
def test_divergence_inside_a_chunk_matches_the_per_step_loop(monkeypatch, scalar_model,
                                                            scalar_vc, diverging):
    # a run fails inside a chunk of the whole run: through a callable
    # allocation that turns infinite once the state leaves a band (the
    # tilted_h lane's state follows it to inf), or through an explosive
    # factor state no control moves; the error names the reference loop's
    # path and step at one and two workers, and no callable sees a
    # non-finite state
    monkeypatch.setattr(sim_mod, "NOISE_BUFFER_BYTES", 1)
    monkeypatch.setattr(sim_mod, "MIN_BLOCK_PATHS", 8)
    seen = []
    if diverging == "allocation":
        vm, vc = scalar_model, scalar_vc
        x0 = float(vm.x0[0])

        def strategy(t, X):
            seen.append(bool(np.isfinite(X).all()))
            return np.where(np.abs(X - x0) > 0.04, np.inf, 0.5)
    else:
        vm, vc = validate_model(make_scalar_spec(factor_mean_reversion=[[1e12]])), None

        def strategy(t, X):
            seen.append(bool(np.isfinite(X).all()))
            return np.full((X.shape[0], 1), 0.5)

    cfg = SimConfig(n_paths=64, steps=40, dt=1 / 252, seed=3, strategy=strategy, keep=())
    assert sim_mod._chunk_length(8, vm.d) > cfg.steps
    tilted = dataclasses.replace(cfg, measure="tilted_h")
    # the physical lane alone, and beside a tilted one in both lane orders:
    # the first failing lane of a step names the path
    for cfgs in ([cfg], [cfg, tilted], [tilted, cfg]):
        with pytest.raises(NonfiniteState) as err:
            simulate_reference(vm, vc, cfgs)
        expected = str(err.value)
        step = int(re.fullmatch(r"non-finite state at path \d+, step (\d+)", expected).group(1))
        assert 1 < step < cfg.steps
        for workers in (1, 2):
            monkeypatch.setattr(sim_mod, "WORKERS", workers)
            with pytest.raises(NonfiniteState) as err:
                simulate_lanes(vm, vc, cfgs)
            assert str(err.value) == expected
    assert seen and all(seen)


@pytest.fixture(scope="module")
def solved_multi():
    rng = np.random.default_rng(71)
    # at n = 9, d = 20 the BLAS products of a ragged block round differently
    vm = validate_model(make_random_spec(rng, theta=1.5, n=9, m=2, d=20))
    return vm, solve_value_coefficients(vm, steps_per_year=252)


@pytest.mark.parametrize("antithetic", [False, True])
def test_partition_and_workers_do_not_change_results(monkeypatch, solved_multi, antithetic):
    # on a model where BLAS rounds a ragged block of a product differently:
    # one block, and 8-aligned blocks on one, two and eight workers, give
    # bitwise equal bundles
    vm, vc = solved_multi
    base = dict(n_paths=60, steps=15, dt=1 / 252, seed=23, antithetic=antithetic)
    cfgs = [SimConfig(strategy="optimal", **base),
            SimConfig(strategy="optimal", route="twostep", measure="tilted_gamma", **base),
            SimConfig(strategy="benchmark", measure="tilted_h", **base),
            SimConfig(strategy="kelly", keep=("log_excess",), **base)]
    monkeypatch.setattr(sim_mod, "MIN_BLOCK_PATHS", 10**6)
    assert len(sim_mod._partition(60, 15, vm.d)) == 1
    reference = simulate_lanes(vm, vc, cfgs)

    monkeypatch.setattr(sim_mod, "NOISE_BUFFER_BYTES", 1)
    monkeypatch.setattr(sim_mod, "MIN_BLOCK_PATHS", 13)  # aligned up to 16
    noise = sim_mod._block_noise
    drawn = []

    def spy(seed, first_path, count, *args):
        drawn[-1].append((first_path, count))
        return noise(seed, first_path, count, *args)

    monkeypatch.setattr(sim_mod, "_block_noise", spy)
    interval = sys.getswitchinterval()
    # more threads than cores and a short switch interval interleave the
    # blocks' writes to the shared outputs as finely as the threads allow
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 8):
            monkeypatch.setattr(sim_mod, "WORKERS", workers)
            drawn.append([])
            bundles = simulate_lanes(vm, vc, cfgs)
            for ref, got in zip(reference, bundles):
                for name in _BUNDLE_ARRAYS:
                    a, b = getattr(ref, name), getattr(got, name)
                    assert (a is None) == (b is None), name
                    if a is not None:
                        assert a.tobytes() == b.tobytes(), (workers, got.config.measure, name)
    finally:
        sys.setswitchinterval(interval)
    # the partition is the same at every worker count
    expected = [(0, 16), (16, 16), (32, 16), (48, 12)]
    assert all(sorted(blocks) == expected for blocks in drawn)


def test_diverging_run_raises_the_same_error_at_any_worker_count(monkeypatch, scalar_model,
                                                                 scalar_vc):
    # a path's allocation blows up once its state leaves a band, at
    # different steps in different blocks; the lowest failing block reports,
    # as on one worker, and no worker thread turns the inf - inf of the
    # running payoff into a warning (Tier-1 makes warnings errors)
    monkeypatch.setattr(sim_mod, "NOISE_BUFFER_BYTES", 1)
    monkeypatch.setattr(sim_mod, "MIN_BLOCK_PATHS", 8)
    x0 = float(scalar_model.x0[0])

    def strategy(t, X):
        return np.where(np.abs(X - x0) > 0.004, np.inf, 0.5)

    noise = sim_mod._block_noise

    def first_block_late(seed, first_path, *args):
        # the first block starts last, so a later block fails first
        if first_path == 0:
            time.sleep(0.2)
        return noise(seed, first_path, *args)

    monkeypatch.setattr(sim_mod, "_block_noise", first_block_late)
    cfg = SimConfig(n_paths=64, steps=40, dt=1 / 252, seed=3, strategy=strategy, keep=())
    # a second lane under tilted_h owns a factor state of its own
    lanes = [[cfg], [cfg, dataclasses.replace(cfg, measure="tilted_h")]]
    for cfgs in lanes:
        messages = []
        for workers in (1, 2):
            monkeypatch.setattr(sim_mod, "WORKERS", workers)
            with pytest.raises(NonfiniteState) as err:
                simulate_lanes(scalar_model, scalar_vc, cfgs)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert re.fullmatch(r"non-finite state at path [0-7], step \d+", messages[0])


def test_no_public_function_runs_on_a_worker_thread(monkeypatch, solved_multi):
    # a span tracer keeps one stack and assumes spans nest: every public call
    # of a pooled run, the benchmark allocation included, stays on the
    # calling thread
    vm, vc = solved_multi
    monkeypatch.setattr(sim_mod, "NOISE_BUFFER_BYTES", 1)
    monkeypatch.setattr(sim_mod, "MIN_BLOCK_PATHS", 8)
    monkeypatch.setattr(sim_mod, "WORKERS", 2)
    calls = []

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, threading.get_ident()))
            return fn(*args, **kwargs)
        return wrapper

    modules = {name: module for name, module in list(sys.modules.items())
               if name.split(".")[0] == "benchkelly"}
    public = {id(value): (f"{name}.{attr}", value)
              for name, module in modules.items() for attr, value in vars(module).items()
              if inspect.isfunction(value) and value.__module__ == name
              and not attr.startswith("_")}
    # a wrapper at every site that holds a public function, as the bench
    # tracer binds its spans
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            name, fn = public.get(id(value), (None, None))
            if fn is value:
                monkeypatch.setattr(module, attr, wrap(name, value))
    noise = sim_mod._block_noise
    block_threads = set()

    def spy(*args):
        block_threads.add(threading.get_ident())
        return noise(*args)

    monkeypatch.setattr(sim_mod, "_block_noise", spy)
    base = dict(n_paths=40, steps=12, dt=1 / 252, seed=5)
    sim_mod.simulate_lanes(vm, vc, [SimConfig(strategy="benchmark", measure="tilted_gamma", **base),
                                    SimConfig(strategy="optimal", **base)])
    names = {name for name, _ in calls}
    assert {"benchkelly.simulate.simulate_lanes", "benchkelly.policy.gain_table",
            "benchkelly.policy.benchmark_tracking"} <= names
    assert {ident for _, ident in calls} == {threading.get_ident()}
    # the blocks ran on the pool
    assert threading.get_ident() not in block_threads
