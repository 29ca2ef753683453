import numpy as np
import pytest

import benchkelly.simulate as sim_mod
from benchkelly.errors import ConfigError, MeasureMismatch, NonfiniteState
from benchkelly.model import ModelSpec, validate_model
from benchkelly.policy import gain_table
from benchkelly.simulate import (
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

from conftest import kelly_allocation, make_random_spec, make_scalar_spec


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
                    strategy="benchmark", bench_weights=w)
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
    base = dict(n_paths=200, steps=100, dt=1 / 252, seed=19,
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


def test_link_density_two_forms_agree(scalar_bundle):
    gap = np.abs(scalar_bundle.log_density_link - scalar_bundle.log_density_link_alt).max()
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
                    strategy="benchmark", bench_weights=w, keep=("densities",))
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


def test_binary_dump_round_trip(tmp_path, scalar_model, scalar_vc):
    cfg = SimConfig(n_paths=12, steps=8, dt=1 / 252, seed=2, strategy="optimal")
    bundle = simulate_paths(scalar_model, scalar_vc, cfg)
    path = tmp_path / "paths.bin"
    save_paths_binary(bundle, path)
    states, log_excess = load_paths_binary(path)
    assert np.array_equal(states, bundle.states)
    assert np.array_equal(log_excess, bundle.log_excess)


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
                 "log_density_link", "log_density_link_alt", "tilt_sq_integral"):
        assert getattr(optimal, name).tobytes() == getattr(custom, name).tobytes(), name


def _applied_controls(model, vc, t, X):
    """The optimal allocation and adverse tilt the simulator applied at states X."""
    table = gain_table(model, vc, [t])
    controls = table.controls(0, X)
    block = model.coefficients(t)
    H = controls[:, table.h]
    return H, controls[:, table.value_tilt] - model.theta * (H @ block.asset_vol - block.bench_vol)


def _batch_running_payoff(model, t, X, H, G):
    """Vectorized game running payoff over a path batch."""
    block = model.coefficients(t)
    gram = model.gram_blocks(t)
    theta = model.theta
    return (
        0.5 * ((H @ gram.ss) * H).sum(axis=1)
        - H @ block.asset_drift
        - 0.5 * gram.xi_xi
        + block.bench_drift
        - ((H @ block.asset_vol - block.bench_vol) * G).sum(axis=1)
        - ((H @ block.asset_factor_loading - block.bench_factor_loading) * X).sum(axis=1)
        - 0.5 / theta * (G * G).sum(axis=1)
    )


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
        total += theta * dt * _batch_running_payoff(vm, j * dt, X, H, G)
    u0 = value_function(vc, 0.0, vm.x0).log_criterion
    se = total.std(ddof=1) / np.sqrt(len(total))
    assert abs(total.mean() - u0) < 3.0 * se + 5e-4  # MC band plus Euler bias allowance


def test_transformed_measure_criterion_matches_value(twofactor_model, twofactor_vc):
    # under the allocation-induced measure, ln E[exp(theta * accumulated
    # transformed payoff)] at the candidate allocation equals the value
    from benchkelly.game import running_payoff_g1

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
        t = j * dt
        block = vm.coefficients(t)
        gram = vm.gram_blocks(t)
        X = bundle.states[:, j]
        H, _ = _applied_controls(vm, vc, t, X)
        g1 = (
            0.5 * (theta + 1.0) * ((H @ gram.ss) * H).sum(axis=1)
            - (H * (block.asset_drift + X @ block.asset_factor_loading.T)).sum(axis=1)
            - theta * H @ gram.s_xi
            + block.bench_drift + X @ block.bench_factor_loading
            + 0.5 * (theta - 1.0) * gram.xi_xi
        )
        if j == 0:
            ref = running_payoff_g1(vm, theta, t, X[0], H[0])
            assert g1[0] == pytest.approx(ref, rel=1e-12)
        total += theta * dt * g1
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
                  "log_density_alloc", "log_density_link", "log_density_link_alt",
                  "tilt_sq_integral", "states", "log_excess")


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
        def __init__(self, model, vc, cfg, times):
            super().__init__(model, vc, cfg, times)
            widths[id(cfg)] = None if self.table is None else self.table.gain.shape[-1]

    monkeypatch.setattr(sim_mod, "_Lane", WidthSpy)
    strategies = [dict(strategy="optimal"), dict(strategy="optimal", route="twostep"),
                  dict(strategy="kelly"), dict(strategy="benchmark"),
                  dict(strategy=lambda t, X: 0.5 * kelly_allocation(vm, t, X))]
    base = dict(n_paths=10, steps=12, dt=1 / 252, seed=8, antithetic=antithetic)
    cfgs = [SimConfig(measure=measure, **strategy, **base)
            for measure in sim_mod.MEASURES for strategy in strategies]
    kelly_paths = SimConfig(strategy="kelly", keep=("log_excess",), **base)
    optimal_paths = SimConfig(strategy="optimal", keep=("log_excess",), **base)
    tilted_paths = SimConfig(strategy="optimal", measure="tilted_gamma",
                             keep=("states", "log_excess"), **base)
    cfgs += [kelly_paths, optimal_paths, tilted_paths]
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
    # a lane's gain table carries only the columns it reads
    assert widths[id(optimal_paths)] == vm.m
    assert widths[id(cfgs[0])] == vm.m + 2 * vm.d
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
