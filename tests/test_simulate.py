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
from benchkelly.policy import GainTable, gain_table
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
)
from benchkelly.valuefn import solve_value_coefficients, value_function

from conftest import make_random_spec, make_scalar_spec, make_two_segment_spec, scaled_kelly_table
import euler_reference
from euler_reference import simulate_reference
from numpy_allocations import numpy_allocations


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
    return simulate_lanes(scalar_model, scalar_vc, [cfg])[0]


def test_benchmark_replication_zero_excess(spanned_model):
    vm, w = spanned_model
    cfg = SimConfig(n_paths=64, steps=120, dt=1 / 252, seed=3,
                    strategy="benchmark", bench_weights=w, keep=("log_excess",))
    (bundle,) = simulate_lanes(vm, None, [cfg])
    assert np.abs(bundle.terminal_log_excess).max() < 1e-12
    assert np.abs(bundle.log_excess).max() < 1e-12


def test_log_excess_starts_at_zero(scalar_model, scalar_vc):
    cfg = SimConfig(n_paths=8, steps=10, dt=1 / 252, seed=1, strategy="optimal")
    (bundle,) = simulate_lanes(scalar_model, scalar_vc, [cfg])
    assert np.all(bundle.log_excess[:, 0] == 0.0)


@pytest.fixture(scope="module")
def kelly_mode():
    """The scalar model at theta = 0: its value tilt and gamma are zeros."""
    vm = validate_model(make_scalar_spec(theta=0.0))
    return vm, solve_value_coefficients(vm, steps_per_year=252)


def _table(gain_h, offset_h, gain_tilt=None, offset_tilt=None):
    """A gain table [h | value tilt] from its column groups, (steps, n, .)
    gains and (steps, .) offsets; without tilt gains it has no tilt columns."""
    m = offset_h.shape[-1]
    if gain_tilt is None:
        return GainTable(gain_h, offset_h, slice(0, m), None)
    return GainTable(np.concatenate([gain_h, gain_tilt], axis=-1),
                     np.concatenate([offset_h, offset_tilt], axis=-1),
                     slice(0, m), slice(m, m + offset_tilt.shape[-1]))


def test_zero_tilt_matches_physical_bitwise(kelly_mode):
    vm, vc = kelly_mode
    base = dict(n_paths=50, steps=40, dt=1 / 252, seed=9, strategy="optimal")
    (phys,) = simulate_lanes(vm, vc, [SimConfig(**base)])
    (tilted,) = simulate_lanes(vm, vc, [SimConfig(measure="tilted_gamma", **base)])
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
    # benchmark drift + Xi . c; the allocation is the constant h0 and gamma
    # the value tilt c + theta (Sigma' h0 - Xi) less theta (Sigma' h0 - Xi)
    theta = 1.5
    spec = _drift_tilt_spec(theta)
    block = spec.coeffs.blocks[0]
    h0 = np.array([0.8, -0.3])
    c = np.array([0.3, -0.2, 0.5])
    track = h0 @ block.asset_vol - block.bench_vol
    if measure == "tilted_h":
        c = -theta * track
    shifted = _drift_tilt_spec(
        theta,
        factor_drift=block.factor_drift + block.factor_vol @ c,
        asset_drift=block.asset_drift + block.asset_vol @ c,
        bench_drift=float(block.bench_drift + block.bench_vol @ c),
    )
    steps = 100
    table = _table(np.zeros((steps, 2, 2)), np.tile(h0, (steps, 1)),
                   np.zeros((steps, 2, 3)), np.tile(c + theta * track, (steps, 1)))
    base = dict(n_paths=200, steps=steps, dt=1 / 252, seed=19, keep=("states", "log_excess"),
                strategy=table)
    (tilted,) = simulate_lanes(validate_model(spec), None, [SimConfig(measure=measure, **base)])
    (physical,) = simulate_lanes(validate_model(shifted), None, [SimConfig(**base)])
    assert np.abs(tilted.states - physical.states).max() < 1e-12
    assert np.abs(tilted.log_excess - physical.log_excess).max() < 1e-12
    assert np.abs(tilted.log_excess).max() > 1e-3  # the identity is not vacuous


def test_reproducibility_same_config(scalar_model, scalar_vc):
    cfg = SimConfig(n_paths=100, steps=30, dt=1 / 252, seed=5, strategy="optimal")
    (b1,) = simulate_lanes(scalar_model, scalar_vc, [cfg])
    (b2,) = simulate_lanes(scalar_model, scalar_vc, [cfg])
    assert np.array_equal(b1.states, b2.states)
    assert np.array_equal(b1.log_density_tilt, b2.log_density_tilt)


def test_reproducibility_across_block_sizes(monkeypatch, scalar_model, scalar_vc):
    cfg = SimConfig(n_paths=100, steps=30, dt=1 / 252, seed=5, strategy="optimal")
    (b1,) = simulate_lanes(scalar_model, scalar_vc, [cfg])
    monkeypatch.setattr(sim_mod, "NOISE_BUFFER_BYTES", 1)
    monkeypatch.setattr(sim_mod, "MIN_BLOCK_PATHS", 17)
    assert len(sim_mod._partition(cfg.n_paths, cfg.steps, scalar_model.d)) > 1
    (b2,) = simulate_lanes(scalar_model, scalar_vc, [cfg])
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
    (small,) = simulate_lanes(scalar_model, scalar_vc,
                              [SimConfig(n_paths=10, steps=20, dt=1 / 252, seed=4,
                                         strategy="optimal", keep=("densities",))])
    (large,) = simulate_lanes(scalar_model, scalar_vc,
                              [SimConfig(n_paths=40, steps=20, dt=1 / 252, seed=4,
                                         strategy="optimal", keep=("densities",))])
    assert np.array_equal(small.terminal_log_excess, large.terminal_log_excess[:10])


def test_pathwise_density_factorization(scalar_bundle):
    gap = np.abs(
        scalar_bundle.log_density_tilt
        - (scalar_bundle.log_density_alloc + scalar_bundle.log_density_link)
    ).max()
    assert gap < 1e-10


def test_factorization_under_tilted_measures(scalar_model, scalar_vc):
    for measure in ("tilted_gamma", "tilted_h"):
        (bundle,) = simulate_lanes(
            scalar_model, scalar_vc,
            [SimConfig(n_paths=500, steps=100, dt=1 / 252, seed=21, measure=measure,
                       strategy="optimal", keep=("densities",))],
        )
        gap = np.abs(bundle.log_density_tilt
                     - (bundle.log_density_alloc + bundle.log_density_link)).max()
        assert gap < 1e-10


def test_martingale_means(scalar_bundle):
    for which in ("tilt", "alloc"):
        chk = martingale_check(scalar_bundle, which)
        assert chk.ok, f"{which}: mean {chk.mean} se {chk.std_error}"


def test_martingale_check_rejects_an_unknown_density(scalar_bundle):
    with pytest.raises(ConfigError, match="which"):
        martingale_check(scalar_bundle, "link")


def test_martingale_exact_for_zero_tilt(kelly_mode):
    vm, vc = kelly_mode
    cfg = SimConfig(n_paths=50, steps=20, dt=1 / 252, seed=2, strategy="optimal",
                    keep=("densities",))
    (bundle,) = simulate_lanes(vm, vc, [cfg])
    chk = martingale_check(bundle, "tilt")
    assert chk.mean == 1.0


def test_mc_criterion_zero_returns(spanned_model):
    vm, w = spanned_model
    cfg = SimConfig(n_paths=200, steps=100, dt=1 / 252, seed=3,
                    strategy="benchmark", bench_weights=w, keep=())
    (bundle,) = simulate_lanes(vm, None, [cfg])
    mc = mc_criterion(bundle, vm.theta)
    assert mc.estimate == pytest.approx(1.0, abs=1e-12)
    assert mc.certainty_equivalent == pytest.approx(0.0, abs=1e-12)


def test_mc_criterion_log_utility_limit(scalar_bundle):
    tiny = mc_criterion(scalar_bundle, 1e-8)
    exact = mc_criterion(scalar_bundle, 0.0)
    assert exact.estimate == 1.0
    assert abs(tiny.certainty_equivalent - exact.certainty_equivalent) < 1e-6


def test_mc_criterion_requires_physical(scalar_model, scalar_vc):
    (bundle,) = simulate_lanes(
        scalar_model, scalar_vc,
        [SimConfig(n_paths=16, steps=10, dt=1 / 252, seed=1, measure="tilted_gamma",
                   strategy="optimal", keep=("densities",))],
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
    (physical,) = simulate_lanes(scalar_model, scalar_vc, [SimConfig(**base)])
    (tilted,) = simulate_lanes(scalar_model, scalar_vc, [SimConfig(measure="tilted_gamma", **base)])
    for which in ("tilt", "alloc"):
        chk = martingale_check(physical, which)
        assert chk.std_error == inf and not chk.ok
    assert not kl_estimate(tilted).consistent


def test_kl_requires_tilted(scalar_bundle):
    with pytest.raises(MeasureMismatch):
        kl_estimate(scalar_bundle)


def test_kl_dual_estimators(scalar_model, scalar_vc):
    (bundle,) = simulate_lanes(
        scalar_model, scalar_vc,
        [SimConfig(n_paths=20_000, steps=126, dt=1 / 252, seed=13,
                   measure="tilted_gamma", strategy="optimal", keep=("densities",))],
    )
    kl = kl_estimate(bundle)
    assert kl.consistent
    assert kl.from_tilt_norm > 0.0


def test_kl_constant_deterministic_tilt(scalar_model):
    # Kelly rows whose value tilt theta (X K + k) Sigma + g0 - theta Xi makes
    # gamma = value tilt - theta ((X K + k) Sigma - Xi) the constant g0
    vm = scalar_model
    g0 = np.array([0.8])
    steps, dt = 126, 1 / 252
    kelly = scaled_kelly_table(vm, None, steps, dt, 1.0)
    block = vm.coefficients(0.0)
    sigma = block.asset_vol
    strategy = _table(kelly.gain, kelly.offset, vm.theta * kelly.gain @ sigma,
                      g0 + vm.theta * (kelly.offset @ sigma - block.bench_vol))
    (bundle,) = simulate_lanes(
        vm, None,
        [SimConfig(n_paths=5000, steps=steps, dt=dt, measure="tilted_gamma",
                   strategy=strategy, seed=17, keep=("densities",))],
    )
    kl = kl_estimate(bundle)
    closed_form = 0.5 * float(g0 @ g0) * steps * dt
    assert kl.from_tilt_norm == pytest.approx(closed_form, rel=1e-12)
    assert abs(kl.from_log_density - closed_form) < 3.0 * kl.se_log_density


def test_suboptimal_strategy_orders_criterion(scalar_model, scalar_vc):
    base = dict(n_paths=20_000, steps=252, dt=1 / 252, seed=29, keep=("densities",))
    (opt,) = simulate_lanes(scalar_model, scalar_vc, [SimConfig(strategy="optimal", **base)])
    (double_kelly,) = simulate_lanes(
        scalar_model, scalar_vc,
        [SimConfig(strategy=scaled_kelly_table(scalar_model, scalar_vc, base["steps"],
                                               base["dt"], 2.0), **base)],
    )
    mc_opt = mc_criterion(opt, scalar_model.theta)
    mc_sub = mc_criterion(double_kelly, scalar_model.theta)
    joint = np.hypot(mc_opt.std_error, mc_sub.std_error)
    assert mc_sub.estimate >= mc_opt.estimate - 3.0 * joint


def test_antithetic_halves_variance(scalar_model, scalar_vc):
    base = dict(n_paths=20_000, steps=126, dt=1 / 252, seed=1, strategy="optimal",
                keep=("densities",))
    (plain,) = simulate_lanes(scalar_model, scalar_vc, [SimConfig(antithetic=False, **base)])
    (anti,) = simulate_lanes(scalar_model, scalar_vc, [SimConfig(antithetic=True, **base)])
    se_plain = mc_criterion(plain, 1.0).std_error
    se_anti = mc_criterion(anti, 1.0).std_error
    assert (se_anti / se_plain) ** 2 <= 0.5 / 0.8


def test_certainty_equivalent_monotone_in_theta(scalar_bundle):
    values = [mc_criterion(scalar_bundle, th).certainty_equivalent
              for th in (0.25, 0.5, 1.0, 2.0)]
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


def test_nonfinite_state_detected(scalar_model, scalar_vc):
    cfg = SimConfig(n_paths=4, steps=10, dt=1 / 252, seed=1,
                    strategy=_table(np.zeros((10, 1, 1)), np.full((10, 1), 1e200)), keep=())
    with pytest.raises(NonfiniteState) as err:
        simulate_lanes(scalar_model, scalar_vc, [cfg])
    assert "path" in str(err.value) and "step" in str(err.value)


@pytest.mark.parametrize("bad", [
    dict(n_paths=0),
    dict(steps=0),
    dict(dt=-0.1),
    dict(steps=10_000),                       # beyond the 1y horizon
    dict(measure="sideways"),
    dict(strategy="oracle"),
    dict(antithetic=True, n_paths=7),
    dict(strategy="custom"),                  # the removed name; a policy is a gain table
    dict(route="bogus"),
    dict(strategy="benchmark", bench_weights=np.array([0.5, 0.5])),  # m == 1
    dict(strategy="benchmark", bench_weights=np.array([[1.0]])),
    dict(keep=("states", "paths")),
    dict(keep=("density",)),
    dict(seed=-1),                            # a Philox key word: -1 would run as 2^64 - 1
    dict(seed=2**64),                         # and 2^64 as 0
    dict(seed=0.5),
])
def test_config_validation(scalar_model, scalar_vc, bad):
    base = dict(n_paths=10, steps=10, dt=1 / 252, seed=0, strategy="optimal")
    base.update(bad)
    with pytest.raises(ConfigError):
        simulate_lanes(scalar_model, scalar_vc, [SimConfig(**base)])


def test_the_key_range_ends_run_on_streams_of_their_own(scalar_model, scalar_vc):
    # a seed is a Philox key word, an unsigned 64-bit integer
    runs = [simulate_lanes(scalar_model, scalar_vc, [SimConfig(
        n_paths=4, steps=4, dt=1 / 252, seed=seed, keep=("states",))])[0].states
        for seed in (0, 2**64 - 1)]
    assert np.isfinite(runs[1]).all() and not np.array_equal(*runs)


@pytest.mark.parametrize("make, cfg, match", [
    (lambda t: t, dict(steps=9), r"\(9, 1, k\)"),                       # a row a step
    (lambda t: dataclasses.replace(t, gain=t.gain[:9], offset=t.offset[:9]), {},
     r"\(10, 1, k\)"),
    (lambda t: dataclasses.replace(t, gain=np.repeat(t.gain, 2, axis=1)), {},
     r"\(10, 1, k\)"),
    (lambda t: dataclasses.replace(t, gain=t.gain[:, 0]), {}, r"\(10, 1, k\)"),
    (lambda t: dataclasses.replace(t, offset=t.offset[:1]), {}, r"offsets \(10, k\)"),
    (lambda t: dataclasses.replace(t, offset=t.offset[:, :1]), {}, r"offsets \(10, k\)"),
    (lambda t: dataclasses.replace(t, h=None), {}, "allocation columns"),
    (lambda t: dataclasses.replace(t, value_tilt=None), dict(keep=("densities",)),
     "value_tilt"),
    (lambda t: dataclasses.replace(t, value_tilt=None),
     dict(measure="tilted_gamma", keep=()), "value_tilt"),
], ids=["too-many-rows", "too-few-rows", "wrong-state-width", "no-column-axis",
        "short-offset", "offset-width", "no-h", "no-value-tilt-densities",
        "no-value-tilt-tilted_gamma"])
def test_table_strategy_must_fit_the_run(scalar_model, scalar_vc, make, cfg, match):
    table = make(scaled_kelly_table(scalar_model, scalar_vc, 10, 1 / 252, 0.5))
    config = SimConfig(**{"n_paths": 4, "steps": 10, "dt": 1 / 252, **cfg, "strategy": table})
    with pytest.raises(ConfigError, match=match):
        simulate_lanes(scalar_model, None, [config])


def test_table_strategy_without_tilt_columns_runs_where_no_tilt_is_read(scalar_model):
    # a table of allocation columns alone is a strategy for physical and
    # tilted_h lanes that keep no densities
    table = scaled_kelly_table(scalar_model, None, 10, 1 / 252, 0.5)
    assert table.value_tilt is None
    for measure in ("physical", "tilted_h"):
        (bundle,) = simulate_lanes(scalar_model, None, [SimConfig(
            n_paths=4, steps=10, dt=1 / 252, measure=measure, strategy=table,
            keep=("states", "log_excess"))])
        assert np.isfinite(bundle.terminal_log_excess).all()
        assert bundle.log_density_tilt is None


def test_optimal_needs_coefficients(scalar_model):
    with pytest.raises(ConfigError):
        simulate_lanes(scalar_model, None,
                       [SimConfig(n_paths=4, steps=4, dt=1 / 252, strategy="optimal")])


@pytest.mark.parametrize("cfg", [
    dict(strategy="kelly", keep=("densities",)),
    dict(strategy="benchmark", keep=("log_excess", "densities")),
    dict(strategy="kelly", measure="tilted_gamma", keep=()),
], ids=["kelly-densities", "benchmark-densities", "tilted_gamma"])
def test_every_tilt_needs_coefficients(scalar_model, cfg):
    # a named strategy's adverse tilt is its table's value tilt: densities
    # and tilted_gamma's drift need the coefficients
    with pytest.raises(ConfigError, match="value coefficients"):
        simulate_lanes(scalar_model, None, [SimConfig(n_paths=4, steps=4, dt=1 / 252, **cfg)])


@pytest.mark.parametrize("cfg", [
    dict(measure="tilted_h", strategy="kelly"),
    dict(measure="tilted_gamma", keep=("densities",)),
], ids=["tilted_h", "tilted_gamma-gain-table"])
def test_lanes_without_tilts_run_without_coefficients(scalar_model, scalar_vc, cfg):
    # tilted_h's drift -theta (Sigma' h - Xi) and a gain-table strategy,
    # whose value tilt is its own, read no coefficients; the run is the one
    # with coefficients, bit for bit
    cfg = {"strategy": scaled_kelly_table(scalar_model, scalar_vc, 10, 1 / 252, 0.5),
           "keep": (), **cfg}
    config = SimConfig(n_paths=8, steps=10, dt=1 / 252, seed=2, **cfg)
    (without,) = simulate_lanes(scalar_model, None, [config])
    (with_vc,) = simulate_lanes(scalar_model, scalar_vc, [config])
    assert without.terminal_state.tobytes() == with_vc.terminal_state.tobytes()
    assert without.terminal_log_excess.tobytes() == with_vc.terminal_log_excess.tobytes()
    assert np.all(np.isfinite(without.terminal_log_excess))


def test_binary_dump_round_trip(tmp_path, scalar_model, scalar_vc):
    cfg = SimConfig(n_paths=12, steps=8, dt=1 / 252, seed=2, strategy="optimal")
    (bundle,) = simulate_lanes(scalar_model, scalar_vc, [cfg])
    path = tmp_path / "paths.bin"
    save_paths_binary(bundle, path)
    states, log_excess = load_paths_binary(path)
    assert np.array_equal(states, bundle.states)
    assert np.array_equal(log_excess, bundle.log_excess)


def test_binary_dump_rejects_trailing_bytes(tmp_path, scalar_model, scalar_vc):
    cfg = SimConfig(n_paths=4, steps=3, dt=1 / 252, seed=2, strategy="optimal")
    path = tmp_path / "paths.bin"
    save_paths_binary(simulate_lanes(scalar_model, scalar_vc, [cfg])[0], path)
    with open(path, "ab") as fh:
        fh.write(np.zeros(1).tobytes())
    with pytest.raises(ParseError, match="longer than its header promises"):
        load_paths_binary(path)


def test_binary_dump_needs_paths(tmp_path, scalar_model, scalar_vc):
    (bundle,) = simulate_lanes(
        scalar_model, scalar_vc,
        [SimConfig(n_paths=4, steps=4, dt=1 / 252, strategy="optimal", keep=("densities",))],
    )
    with pytest.raises(ConfigError):
        save_paths_binary(bundle, tmp_path / "x.bin")


def test_terminal_csv_round_trip(tmp_path, scalar_model, scalar_vc):
    cfg = SimConfig(n_paths=6, steps=5, dt=1 / 252, seed=3, strategy="optimal",
                    keep=("densities",))
    (bundle,) = simulate_lanes(scalar_model, scalar_vc, [cfg])
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
    (bundle,) = simulate_lanes(
        scalar_model, scalar_vc,
        [SimConfig(n_paths=8, steps=5, dt=1 / 252, seed=4, measure=measure, keep=("log_excess",))])
    assert bundle.log_density_tilt is None
    with pytest.raises(ConfigError, match="keep"):
        read(bundle, tmp_path / "terminals.csv")
    assert not (tmp_path / "terminals.csv").exists()


@pytest.mark.parametrize("measure", ["physical", "tilted_gamma", "tilted_h"])
def test_optimal_strategy_is_the_policy_module(twofactor_model, twofactor_vc, measure):
    # the optimal strategy and adverse tilt are the policy's gain table, bit
    # for bit: the table as the strategy, run without coefficients, is the
    # strategy "optimal"
    vm, vc = twofactor_model, twofactor_vc
    steps, dt = 40, 1 / 252
    table = gain_table(vm, vc, [j * dt for j in range(steps)])
    base = dict(n_paths=64, steps=steps, dt=dt, seed=6, measure=measure)
    (optimal,) = simulate_lanes(vm, vc, [SimConfig(strategy="optimal", **base)])
    (custom,) = simulate_lanes(vm, None, [SimConfig(strategy=table, **base)])
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
    (bundle,) = simulate_lanes(
        vm, vc,
        [SimConfig(n_paths=20_000, steps=steps, dt=dt, seed=37, measure="tilted_gamma",
                   strategy="optimal")],
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
    (bundle,) = simulate_lanes(
        vm, vc,
        [SimConfig(n_paths=20_000, steps=steps, dt=dt, seed=41, measure="tilted_h",
                   strategy="optimal")],
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
    (bundle,) = simulate_lanes(vm, vc, [SimConfig(n_paths=32, steps=20, dt=1 / 252,
                                                  seed=5, strategy="optimal",
                                                  keep=("densities",))])
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
    # blocks: each lane's bundle is byte for byte its one-lane run
    vm, vc = solved_wide
    monkeypatch.setattr(sim_mod, "NOISE_BUFFER_BYTES", 1)
    monkeypatch.setattr(sim_mod, "MIN_BLOCK_PATHS", 4)
    widths = {}

    class WidthSpy(sim_mod._Lane):
        def __init__(self, model, vc, cfg, *args):
            super().__init__(model, vc, cfg, *args)
            widths[id(cfg)] = self.table.gain.shape[-1]

    monkeypatch.setattr(sim_mod, "_Lane", WidthSpy)
    base = dict(n_paths=10, steps=12, dt=1 / 252, seed=8, antithetic=antithetic)
    strategies = [dict(strategy="optimal"), dict(strategy="optimal", route="twostep"),
                  dict(strategy="kelly"), dict(strategy="benchmark"),
                  dict(strategy="benchmark", bench_weights=np.array([0.7, 0.3])),
                  dict(strategy=scaled_kelly_table(vm, vc, base["steps"], base["dt"], 0.5))]
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
        (solo,) = simulate_lanes(vm, vc, [cfg])
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
        simulate_lanes(vm, scalar_vc, [SimConfig(n_paths=4, steps=4, dt=1 / 252)])
    # not even given to lanes that read none of them
    for strategy in ("kelly", scaled_kelly_table(vm, None, 4, 1 / 252, 0.5)):
        with pytest.raises(ConfigError, match="theta"):
            simulate_lanes(vm, scalar_vc, [SimConfig(n_paths=4, steps=4, dt=1 / 252,
                                                     strategy=strategy, keep=())])


def test_lanes_read_coefficients_only_when_they_need_them(monkeypatch, solved_two_segment):
    # the experiment's four lanes: only the two optimal ones read the
    # coefficients, once per segment; the benchmark and Kelly allocations
    # read none
    vm, vc = solved_two_segment
    reads = []
    at_times = type(vc).at_times

    def spy(self, times):
        reads.append(len(times))
        return at_times(self, times)

    monkeypatch.setattr(type(vc), "at_times", spy)
    base = dict(n_paths=4, steps=12, dt=1 / 16, keep=("log_excess",))
    simulate_lanes(vm, vc, [SimConfig(strategy="benchmark", **base),
                            SimConfig(strategy="optimal", route="twostep", **base),
                            SimConfig(strategy="optimal", **base),
                            SimConfig(strategy="kelly", **base)])
    assert reads == [8, 4, 8, 4]


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
    # an experiment block (1000 paths, d = 3) runs ten steps a chunk; a wide
    # verify block (1024 or 928 paths, d = 20), whose one step's increments
    # nearly fill CHUNK_BYTES, runs MIN_CHUNK_STEPS
    assert sim_mod.MIN_CHUNK_STEPS == 3
    assert sim_mod._chunk_length(1000, 3) == 10
    assert sim_mod._chunk_length(1024, 20) == 3
    assert sim_mod._chunk_length(928, 20) == 3
    assert sim_mod._chunk_length(10**6, 40) == 3
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
    # every strategy, a gain table too, under every measure, tables with
    # value tilts of their own and partial keeps, over two blocks (8 and 6
    # paths), in chunks of one
    # step, of 5 and 6 steps or 7 and 9 (none divides the 13 steps) and of
    # the whole run; the two-segment model's knot at step 8 falls inside a
    # chunk, and at 7 steps the first block runs chunks of 7, 1 and 5 steps,
    # a one-step chunk between two longer ones
    vm, vc = solved_wide if segments == 1 else solved_two_segment
    monkeypatch.setattr(sim_mod, "NOISE_BUFFER_BYTES", 1)
    monkeypatch.setattr(sim_mod, "MIN_BLOCK_PATHS", 8)
    monkeypatch.setattr(sim_mod, "CHUNK_BYTES", steps_per_chunk * 8 * vm.d * 8)
    monkeypatch.setattr(sim_mod, "MIN_CHUNK_STEPS", 1)
    base = dict(n_paths=14, steps=13, dt=1 / 16, seed=4, antithetic=antithetic)
    assert sim_mod._partition(14, 13, vm.d) == [(0, 8), (8, 6)]
    assert vm.segment_indices(np.arange(13) / 16).tolist() == (
        [0] * 13 if segments == 1 else [0] * 8 + [1] * 5)

    times = np.arange(13) * base["dt"]
    # half-Kelly rows with offsets shifted by the step's time
    shifted = scaled_kelly_table(vm, vc, 13, base["dt"], 0.5)
    shifted.offset[:, shifted.h] += times[:, None]
    rng = np.random.default_rng(5)

    def own_tilt(strategy):
        # the strategy's allocation rows beside value-tilt gains of their own
        table = gain_table(vm, vc, times, strategy)
        return _table(table.gain[..., table.h], table.offset[:, table.h],
                      0.2 * rng.standard_normal((13, vm.n, vm.d)),
                      0.1 * rng.standard_normal((13, vm.d)) - times[:, None])

    strategies = [dict(strategy="optimal"), dict(strategy="optimal", route="twostep"),
                  dict(strategy="kelly"), dict(strategy="benchmark"), dict(strategy=shifted)]
    cfgs = [SimConfig(measure=measure, **strategy, **base)
            for measure in sim_mod.MEASURES for strategy in strategies]
    cfgs += [SimConfig(strategy=own_tilt("kelly"), **base),
             SimConfig(strategy=own_tilt("optimal"), measure="tilted_gamma", **base),
             SimConfig(strategy=own_tilt("kelly"), measure="tilted_gamma",
                       keep=("states",), **base),
             SimConfig(strategy="benchmark", keep=("log_excess",), **base),
             SimConfig(strategy="optimal", measure="tilted_h", keep=(), **base)]
    _assert_bundles_equal(simulate_lanes(vm, vc, cfgs), simulate_reference(vm, vc, cfgs))
    # a physical lane alone, with no tilted owner beside it
    solo = [SimConfig(strategy="optimal", keep=("densities",), **base)]
    _assert_bundles_equal(simulate_lanes(vm, vc, solo), simulate_reference(vm, vc, solo))


@pytest.fixture(scope="module")
def solved_bench_wide():
    # the verify-wide bench's sizes: n = 10, m = 8, d = 20
    rng = np.random.default_rng(61)
    vm = validate_model(make_random_spec(rng, theta=1.0, n=10, m=8, d=20))
    return vm, solve_value_coefficients(vm, steps_per_year=252)


@pytest.mark.parametrize("workers", [1, 2])
def test_the_wide_bench_blocks_are_the_per_step_loop(monkeypatch, solved_bench_wide, workers):
    # the bench's wide blocks, a full one of 1024 paths and a ragged 8-aligned
    # one of 928, whose per-step arrays (80-230 KB) the blocks keep in their
    # workspaces, in chunks of 3, 3 and 1 steps: a physical and a
    # tilted_gamma lane, with densities and full paths, are the reference
    # loop byte for byte
    vm, vc = solved_bench_wide
    monkeypatch.setattr(sim_mod, "NOISE_BUFFER_BYTES", 1)
    monkeypatch.setattr(sim_mod, "WORKERS", workers)
    base = dict(n_paths=1952, steps=7, dt=1 / 252, seed=61)
    assert sim_mod._partition(1952, 7, vm.d) == [(0, 1024), (1024, 928)]
    assert sim_mod._chunk_length(928, vm.d) == 3
    cfgs = [SimConfig(**base), SimConfig(measure="tilted_gamma", **base)]
    _assert_bundles_equal(simulate_lanes(vm, vc, cfgs), simulate_reference(vm, vc, cfgs))


def test_a_block_makes_its_arrays_once(monkeypatch, solved_bench_wide):
    # every per-step array lives in the block's workspace: a wide block (1024
    # paths, d = 20, three-step chunks) of 2k steps makes fewer than k more
    # arrays of at least a step's states' size (8 n bytes a path) than one
    # of k steps, so fewer than one a step; a step loop with temporaries of
    # its own made about forty a step for these three lanes.  A chunk's
    # finiteness masks are bools, an eighth of that size a step, made once
    # a chunk.  NumPy's memory handler belongs to the calling thread, where
    # one worker runs the block.
    vm, vc = solved_bench_wide
    monkeypatch.setattr(sim_mod, "WORKERS", 1)
    n_paths, k = 1024, 16

    def state_sized(steps):
        base = dict(n_paths=n_paths, steps=steps, dt=1 / 252, seed=2)
        cfgs = [SimConfig(keep=("densities",), **base),
                SimConfig(measure="tilted_gamma", keep=("densities",), **base),
                SimConfig(strategy="kelly", measure="tilted_h", keep=("states", "log_excess"),
                          **base)]
        assert len(sim_mod._partition(n_paths, steps, vm.d)) == 1
        with numpy_allocations() as sizes:
            simulate_lanes(vm, vc, cfgs)
        return sum(size >= 8 * n_paths * vm.n for size in sizes)

    assert sim_mod._chunk_length(n_paths, vm.d) == 3
    assert state_sized(2 * k) - state_sized(k) < k


def _blowup_table(steps, center):
    """A scalar allocation 10^(150 + j / 5) (x - center) at step j: it grows
    tenfold every five steps and with the state's distance from center, so
    each path's reward overflows at a step of its own."""
    gain = 10.0 ** (150 + 0.2 * np.arange(steps))
    return _table(gain[:, None, None], (-center * gain)[:, None])


def _failure(message):
    """The (path, step) a NonfiniteState message names."""
    path, step = re.fullmatch(r"non-finite state at path (\d+), step (\d+)", message).groups()
    return int(path), int(step)


@pytest.mark.parametrize("diverging", ["allocation", "factor_state"])
def test_divergence_inside_a_chunk_matches_the_per_step_loop(monkeypatch, scalar_model,
                                                            scalar_vc, diverging):
    # a run fails inside a chunk of the whole run: through an allocation
    # that overflows on some paths before others (the tilted_h lane's state
    # follows it to inf, earlier), or through an explosive factor state no
    # control moves; each chunk runs to its end, and the error names the
    # reference loop's path and step at one and two workers
    monkeypatch.setattr(sim_mod, "NOISE_BUFFER_BYTES", 1)
    monkeypatch.setattr(sim_mod, "MIN_BLOCK_PATHS", 8)
    steps, dt = 40, 1 / 252
    if diverging == "allocation":
        vm, vc = scalar_model, scalar_vc
        strategy = _blowup_table(steps, float(vm.x0[0]))
    else:
        vm, vc = validate_model(make_scalar_spec(factor_mean_reversion=[[1e12]])), None
        strategy = _table(np.zeros((steps, 1, 1)), np.full((steps, 1), 0.5))

    cfg = SimConfig(n_paths=64, steps=steps, dt=dt, seed=3, strategy=strategy, keep=())
    assert sim_mod._chunk_length(8, vm.d) > cfg.steps
    tilted = dataclasses.replace(cfg, measure="tilted_h")
    # the physical lane alone, and beside a tilted one in both lane orders:
    # the first failing step decides, then the first failing lane names the
    # path
    lanes = [[cfg], [cfg, tilted], [tilted, cfg]]
    if diverging == "allocation":
        # a second physical lane, centred elsewhere, whose reward overflows
        # at the same step on another path
        other = dataclasses.replace(cfg, strategy=_blowup_table(steps, float(vm.x0[0]) + 0.01))
        lanes += [[cfg, other], [other, cfg]]
    failures = []
    for cfgs in lanes:
        with pytest.raises(NonfiniteState) as err:
            simulate_reference(vm, vc, cfgs)
        expected = str(err.value)
        failures.append(_failure(expected))
        assert 1 < failures[-1][1] < cfg.steps
        for workers in (1, 2):
            monkeypatch.setattr(sim_mod, "WORKERS", workers)
            with pytest.raises(NonfiniteState) as err:
                simulate_lanes(vm, vc, cfgs)
            assert str(err.value) == expected
    if diverging == "allocation":
        # the reference names a path other than the block's first, and
        # where both lanes fail at one step the lane order picks the path
        assert failures[0][0] != 0
        assert failures[3][1] == failures[4][1] and failures[3][0] != failures[4][0]


def test_a_state_that_fails_on_a_chunks_last_step_raises(monkeypatch):
    # an explosive factor state turns infinite on the run's last step, while
    # the log excess return, which reads the state before the step, is still
    # finite: the chunk's test of its states names the step
    monkeypatch.setattr(sim_mod, "NOISE_BUFFER_BYTES", 1)
    monkeypatch.setattr(sim_mod, "MIN_BLOCK_PATHS", 8)
    vm = validate_model(make_scalar_spec(factor_mean_reversion=[[1e12]]))

    def cfgs(steps):
        table = _table(np.zeros((steps, 1, 1)), np.full((steps, 1), 0.5))
        cfg = SimConfig(n_paths=16, steps=steps, dt=1 / 252, seed=3, strategy=table, keep=())
        return [cfg, dataclasses.replace(cfg, measure="tilted_h")]

    with pytest.raises(NonfiniteState) as err:
        simulate_reference(vm, None, cfgs(40))
    step = int(re.search(r"step (\d+)", str(err.value)).group(1))
    assert sim_mod._chunk_length(8, vm.d) > step
    for run in (simulate_reference, simulate_lanes):
        with pytest.raises(NonfiniteState, match=f"step {step}$"):
            run(vm, None, cfgs(step))


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
    # a path's allocation overflows at a step set by its distance from x0,
    # at different steps in different blocks; the lowest failing block
    # reports, as on one worker, and no worker thread turns the overflow or
    # the inf - inf of the running payoff into a warning (Tier-1 makes
    # warnings errors)
    monkeypatch.setattr(sim_mod, "NOISE_BUFFER_BYTES", 1)
    monkeypatch.setattr(sim_mod, "MIN_BLOCK_PATHS", 8)
    strategy = _blowup_table(40, float(scalar_model.x0[0]))
    cfg = SimConfig(n_paths=64, steps=40, dt=1 / 252, seed=3, strategy=strategy, keep=())
    # the reference loop over one block at a time: a later block fails at
    # an earlier step than the first block
    failing_steps = []
    for block in sim_mod._partition(cfg.n_paths, cfg.steps, scalar_model.d):
        with monkeypatch.context() as m, pytest.raises(NonfiniteState) as err:
            m.setattr(euler_reference, "_partition", lambda *sizes: [block])
            simulate_reference(scalar_model, scalar_vc, [cfg])
        failing_steps.append(_failure(str(err.value))[1])
    assert min(failing_steps[1:]) < failing_steps[0]

    noise = sim_mod._block_noise

    def first_block_late(seed, first_path, *args):
        # the first block starts last, so a later block fails first
        if first_path == 0:
            time.sleep(0.2)
        return noise(seed, first_path, *args)

    monkeypatch.setattr(sim_mod, "_block_noise", first_block_late)
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
