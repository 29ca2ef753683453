import tracemalloc

import numpy as np
import pytest
from scipy.stats import ortho_group

from benchkelly.errors import (
    ConfigError,
    InsufficientData,
    NonMonotoneDates,
    ParseError,
    RankDeficient,
    SchemaError,
    SingularCovariance,
    WeightSumError,
)
from benchkelly.estimate import (
    PanelSchema,
    ReturnPanel,
    bootstrap_gram_se,
    build_benchmark,
    estimate_drift,
    estimate_loadings,
    estimate_model,
    gram_blocks_of_cov,
    load_panel,
    realized_covariance,
    save_panel,
    synthesize_panel,
)
from benchkelly.model import CoefficientSet, ModelSpec, validate_model
from benchkelly.policy import optimal_h
from benchkelly.simulate import SimConfig, simulate_paths
from benchkelly.valuefn import solve_value_coefficients

from bootstrap_reference import bootstrap_gram_se_rows
from conftest import make_random_spec


def _write_csv(path, header, rows):
    path.write_text("\n".join([header] + rows) + "\n")
    return path


def roundtrip_generator():
    """Known model with identifiable drift: orthogonal asset/factor noise and
    high drift-to-vol so 20 years of daily data pin the allocation."""
    return validate_model(ModelSpec.constant(
        n=1, m=1, d=2, horizon_years=1.0, theta=1.0, x0=[0.0],
        asset_drift=[1.0], asset_factor_loading=[[0.5]], asset_vol=[[0.1, 0.0]],
        factor_drift=[0.05], factor_mean_reversion=[[-1.0]], factor_vol=[[0.0, 0.05]],
        bench_drift=1.0, bench_factor_loading=[0.5], bench_vol=[0.1, 0.0],
    ))


def test_load_panel_smoke(tmp_path):
    path = _write_csv(
        tmp_path / "p.csv",
        "date,asset:x,asset:y,factor:f",
        ["2020-01-01,0.01,0.02,0.001",
         "2020-01-02,-0.005,0.01,0.002",
         "2020-01-03,0.003,-0.001,-0.001"],
    )
    panel = load_panel(path, PanelSchema(bench_weights=np.array([0.5, 0.5])))
    assert panel.rows == 3 and panel.m == 2 and panel.n == 1
    assert panel.factor_levels[2, 0] == pytest.approx(0.002)
    assert panel.asset_names == ("asset:x", "asset:y")


def test_load_panel_missing_cell_names_line(tmp_path):
    path = _write_csv(
        tmp_path / "gap.csv",
        "date,asset:x,factor:f",
        ["2020-01-01,0.01,0.001", "2020-01-02,,0.002", "2020-01-03,0.0,0.0"],
    )
    with pytest.raises(ParseError) as err:
        load_panel(path, PanelSchema(bench_weights=np.array([1.0])))
    assert "line 3" in str(err.value)


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_load_panel_nonfinite_cell_names_line(tmp_path, cell):
    path = _write_csv(
        tmp_path / "nonfinite.csv",
        "date,asset:x,factor:f",
        ["2020-01-01,0.01,0.001", "2020-01-02,0.0,0.002", f"2020-01-03,0.0,{cell}"],
    )
    with pytest.raises(ParseError) as err:
        load_panel(path, PanelSchema(bench_weights=np.array([1.0])))
    assert "line 4" in str(err.value)


def test_load_panel_unknown_column(tmp_path):
    path = _write_csv(tmp_path / "u.csv", "date,asset:x,factor:f,mystery",
                      ["2020-01-01,0.01,0.001,9"])
    with pytest.raises(SchemaError):
        load_panel(path, PanelSchema(bench_weights=np.array([1.0])))


def test_load_panel_nonmonotone_dates(tmp_path):
    path = _write_csv(
        tmp_path / "d.csv", "date,asset:x,factor:f",
        ["2020-01-02,0.01,0.0", "2020-01-01,0.0,0.0"],
    )
    with pytest.raises(NonMonotoneDates):
        load_panel(path, PanelSchema(bench_weights=np.array([1.0])))


def test_load_panel_weight_sum(tmp_path):
    path = _write_csv(tmp_path / "w.csv", "date,asset:x,factor:f", ["2020-01-01,0.01,0.0"])
    with pytest.raises(WeightSumError):
        load_panel(path, PanelSchema(bench_weights=np.array([0.9])))


def test_load_panel_experiment_shape(tmp_path):
    # 1644 rows, 13 assets, 6 factors
    rng = np.random.default_rng(0)
    m, n, rows = 13, 6, 1644
    header = "date," + ",".join(f"asset:a{i}" for i in range(m)) + "," + \
        ",".join(f"factor:f{i}" for i in range(n))
    day = np.datetime64("2018-06-20")
    lines = []
    for t in range(rows):
        vals = 0.01 * rng.standard_normal(m + n)
        lines.append(str(day + t) + "," + ",".join(repr(float(v)) for v in vals))
    path = _write_csv(tmp_path / "big.csv", header, lines)
    w = np.full(m, 1.0 / m)
    panel = load_panel(path, PanelSchema(bench_weights=w))
    assert panel.rows == 1644 and panel.m == 13 and panel.n == 6


def test_save_load_panel_round_trip(tmp_path):
    vm = roundtrip_generator()
    panel = synthesize_panel(vm, years=1.0, weights=np.array([1.0]), seed=1)
    path = tmp_path / "synth.csv"
    save_panel(panel, path)
    loaded = load_panel(path, PanelSchema(bench_weights=np.array([1.0])))
    assert np.array_equal(loaded.asset_logret, panel.asset_logret)
    assert np.abs(loaded.factor_levels - panel.factor_levels).max() < 1e-15


def test_noiseless_drift_recovery():
    # factor increments exactly b*dt with B = 0; asset side noisy but unused
    rows, dt = 300, 1 / 252
    rng = np.random.default_rng(1)
    increments = np.full((rows, 1), 0.1 * dt)
    # break exact collinearity of (1, X) by a tiny deterministic wiggle
    increments[::2, 0] += 1e-6 * dt
    panel = ReturnPanel(
        dates=tuple(f"2020-{1 + t // 28:02d}-{1 + t % 28:02d}" for t in range(rows)),
        asset_logret=0.01 * rng.standard_normal((rows, 1)),
        factor_levels=np.cumsum(increments, axis=0),
        bench_weights=np.array([1.0]),
        dt=dt,
    )
    drift = estimate_drift(panel)
    assert drift.factor_drift[0] == pytest.approx(0.1, abs=2e-6)
    assert abs(drift.factor_mean_reversion[0, 0]) < 1e-3


def test_constant_factor_column_rank_deficient():
    rows = 200
    rng = np.random.default_rng(2)
    panel = ReturnPanel(
        dates=tuple(f"2020-01-{i:02d}" if i < 29 else f"2020-02-{i - 28:02d}"
                    for i in range(1, rows + 1)),
        asset_logret=0.01 * rng.standard_normal((rows, 1)),
        factor_levels=np.ones((rows, 1)),
        bench_weights=np.array([1.0]),
        dt=1 / 252,
    )
    with pytest.raises(RankDeficient):
        estimate_drift(panel)


def test_insufficient_rows():
    rng = np.random.default_rng(3)
    panel = ReturnPanel(
        dates=("2020-01-01", "2020-01-02"),
        asset_logret=0.01 * rng.standard_normal((2, 1)),
        factor_levels=rng.standard_normal((2, 1)),
        bench_weights=np.array([1.0]),
        dt=1 / 252,
    )
    with pytest.raises(InsufficientData):
        estimate_drift(panel)


def test_drift_round_trip_within_three_se():
    vm = roundtrip_generator()
    panel = synthesize_panel(vm, years=20.0, weights=np.array([1.0]), seed=7)
    drift = estimate_drift(panel)
    block = vm.coefficients(0.0)
    assert abs(drift.asset_drift[0] - block.asset_drift[0]) < 3 * drift.asset_se[0, 0]
    assert abs(drift.asset_factor_loading[0, 0] - block.asset_factor_loading[0, 0]) \
        < 3 * drift.asset_se[0, 1]
    assert abs(drift.factor_drift[0] - block.factor_drift[0]) < 3 * drift.factor_se[0, 0]
    assert abs(drift.factor_mean_reversion[0, 0] - block.factor_mean_reversion[0, 0]) \
        < 3 * drift.factor_se[0, 1]


def test_loadings_diagonal_truth():
    # orthogonal columns with exact sample moments -> diagonal factorization
    rows = 400
    s_asset, s_factor = 0.01, 0.002
    asset = np.tile([s_asset, -s_asset], rows // 2)[:, None]
    factor = np.tile([s_factor, s_factor, -s_factor, -s_factor], rows // 4)
    panel = ReturnPanel(
        dates=tuple(f"2020-{1 + t // 28:02d}-{1 + t % 28:02d}" for t in range(rows)),
        asset_logret=asset,
        factor_levels=np.cumsum(factor)[:, None],
        bench_weights=np.array([1.0]),
        dt=1.0,  # unit time steps keep the scaling transparent
    )
    load = estimate_loadings(panel)
    assert load.asset_vol[0, 0] == pytest.approx(s_asset, rel=1e-12)
    assert abs(load.asset_vol[0, 1]) < 1e-15
    assert load.factor_vol[0, 1] == pytest.approx(s_factor, rel=1e-12)
    assert abs(load.factor_vol[0, 0]) < 1e-12


def test_loadings_bench_row_spanned():
    vm = roundtrip_generator()
    panel = synthesize_panel(vm, years=2.0, weights=np.array([1.0]), seed=5)
    load = estimate_loadings(panel)
    # single asset, w = e1: benchmark loading row equals Sigma' e1 exactly
    assert np.allclose(load.bench_vol, load.asset_vol.T @ np.array([1.0]), atol=1e-15)
    assert load.bench_vol[-1] == 0.0  # no unspanned benchmark noise


def test_loadings_gram_round_trip():
    vm = roundtrip_generator()
    panel = synthesize_panel(vm, years=20.0, weights=np.array([1.0]), seed=11)
    load = estimate_loadings(panel)
    est = gram_blocks_of_cov(load.joint_cov, panel.m, panel.n)
    se = bootstrap_gram_se(panel, n_resamples=200, seed=1)
    gram = vm.gram_blocks(0.0)
    truth = {
        "ss": gram.ss, "sl": gram.sl, "ll": gram.ll,
        "s_xi": gram.s_xi, "l_xi": gram.l_xi, "xi_xi": gram.xi_xi,
    }
    for key in truth:
        gap = np.abs(np.asarray(est[key]) - np.asarray(truth[key]))
        assert np.all(gap <= 3.0 * se[key] + 1e-12), key
    # the factorization reproduces the covariance it was built from
    G = np.vstack([load.asset_vol, load.factor_vol, load.bench_vol[None, :]])
    assert np.abs(G @ G.T - load.joint_cov).max() < 1e-12


def test_loadings_singular_assets():
    rows = 300
    rng = np.random.default_rng(4)
    col = 0.01 * rng.standard_normal(rows)
    panel = ReturnPanel(
        dates=tuple(f"2020-{1 + t // 28:02d}-{1 + t % 28:02d}" for t in range(rows)),
        asset_logret=np.column_stack([col, col]),  # identical assets
        factor_levels=np.cumsum(0.001 * rng.standard_normal(rows))[:, None],
        bench_weights=np.array([0.5, 0.5]),
        dt=1 / 252,
    )
    with pytest.raises(SingularCovariance):
        estimate_loadings(panel)


def test_build_benchmark_single_asset():
    a = np.array([0.05, 0.02])
    A = np.array([[0.3], [0.1]])
    sigma = np.array([[0.2, 0.0], [0.05, 0.1]])
    c, C, xi = build_benchmark(np.array([1.0, 0.0]), a, A, sigma)
    assert c == 0.05
    assert np.array_equal(C, A[0])
    assert np.array_equal(xi, sigma[0])


def test_build_benchmark_blend():
    a = np.array([0.05, 0.02])
    A = np.array([[0.3], [0.1]])
    sigma = np.array([[0.2, 0.0], [0.05, 0.1]])
    w = np.array([0.9, 0.1])
    c, C, xi = build_benchmark(w, a, A, sigma)
    assert c == pytest.approx(0.9 * 0.05 + 0.1 * 0.02, abs=1e-15)
    assert np.allclose(C, 0.9 * A[0] + 0.1 * A[1])
    assert np.allclose(xi, sigma.T @ w)


def test_build_benchmark_identical_assets():
    a = np.array([0.05, 0.05])
    A = np.array([[0.3], [0.3]])
    sigma = np.array([[0.2, 0.1], [0.2, 0.1]])
    c, C, xi = build_benchmark(np.array([0.5, 0.5]), a, A, sigma)
    assert c == pytest.approx(0.05, abs=1e-15)
    assert np.allclose(xi, sigma[0])


def test_build_benchmark_weight_guard():
    with pytest.raises(WeightSumError):
        build_benchmark(np.array([0.6, 0.6]), np.zeros(2), np.zeros((2, 1)), np.zeros((2, 3)))


def test_estimated_model_benchmark_exact_replication():
    vm = roundtrip_generator()
    panel = synthesize_panel(vm, years=5.0, weights=np.array([1.0]), seed=9)
    rep = estimate_model(panel, theta=1.0, horizon_years=1.0)
    est_model = validate_model(rep.model_spec)
    bundle = simulate_paths(
        est_model, None,
        SimConfig(n_paths=32, steps=60, dt=1 / 252, seed=1, strategy="benchmark",
                  bench_weights=np.array([1.0]), keep=()),
    )
    assert np.abs(bundle.terminal_log_excess).max() < 1e-12


def test_rotation_invariance_of_policy():
    # any orthogonal rotation of the noise coordinates leaves the policy unchanged
    vm = roundtrip_generator()
    spec = vm.spec
    block = spec.coeffs.blocks[0]
    O = ortho_group.rvs(2, random_state=3)
    rotated = ModelSpec(
        n=1, m=1, d=2,
        coeffs=CoefficientSet.constant(block.replace(
            asset_vol=block.asset_vol @ O,
            factor_vol=block.factor_vol @ O,
            bench_vol=block.bench_vol @ O,
        )),
        horizon_years=spec.horizon_years, theta=spec.theta, x0=spec.x0,
    )
    vr = validate_model(rotated)
    vc1 = solve_value_coefficients(vm, steps_per_year=504)
    vc2 = solve_value_coefficients(vr, steps_per_year=504)
    for x in (np.array([0.0]), np.array([0.4]), np.array([-1.0])):
        h1 = optimal_h(vm, vc1, 0.2, x)
        h2 = optimal_h(vr, vc2, 0.2, x)
        assert np.abs(h1 - h2).max() < 1e-10


def test_estimate_model_default_x0_is_last_level():
    vm = roundtrip_generator()
    panel = synthesize_panel(vm, years=2.0, weights=np.array([1.0]), seed=13)
    rep = estimate_model(panel, theta=1.0, horizon_years=1.0)
    assert np.array_equal(rep.model_spec.x0, panel.factor_levels[-1])


def test_realized_covariance_matches_numpy():
    vm = roundtrip_generator()
    panel = synthesize_panel(vm, years=1.0, weights=np.array([1.0]), seed=15)
    cov = realized_covariance(panel)
    z = np.column_stack([
        panel.asset_logret,
        panel.factor_increments(),
        panel.asset_logret @ panel.bench_weights,
    ])
    ref = np.cov(z, rowvar=False, bias=True) / panel.dt
    assert np.abs(cov - ref).max() < 1e-12


def _bootstrap_panel(years, seed):
    """Synthesized panel of the bench's shape: n=3 factors, m=8 assets, k=12 series."""
    spec = make_random_spec(np.random.default_rng(seed), theta=1.0, n=3, m=8, d=12)
    return synthesize_panel(validate_model(spec), years=years, weights=np.full(8, 1 / 8),
                            seed=seed)


@pytest.fixture(scope="module")
def long_panel():
    return _bootstrap_panel(years=4.0, seed=21)


@pytest.fixture(scope="module")
def short_panel():
    return _bootstrap_panel(years=50 / 252, seed=22)  # T = 50: most long segments wrap


@pytest.mark.parametrize("panel_name", ["long_panel", "short_panel"])
@pytest.mark.parametrize("block_len", [1, 3, 21, "10T"])
def test_bootstrap_matches_row_gather_reference(request, panel_name, block_len):
    panel = request.getfixturevalue(panel_name)
    if block_len == "10T":
        block_len = 10 * panel.rows  # mostly one segment; a few resamples restart once
    se = bootstrap_gram_se(panel, block_len=block_len, n_resamples=64, seed=5)
    ref = bootstrap_gram_se_rows(panel, block_len=block_len, n_resamples=64, seed=5)
    assert se.keys() == ref.keys()
    for key in ref:
        assert np.all(np.asarray(ref[key]) > 0.0), key
        np.testing.assert_allclose(se[key], ref[key], rtol=1e-12, atol=0.0, err_msg=key)


def test_bootstrap_same_seed_is_bitwise_equal(short_panel):
    first = bootstrap_gram_se(short_panel, block_len=5, n_resamples=20, seed=8)
    second = bootstrap_gram_se(short_panel, block_len=5, n_resamples=20, seed=8)
    assert first.keys() == second.keys()
    for key in first:
        assert np.asarray(first[key]).tobytes() == np.asarray(second[key]).tobytes(), key


@pytest.mark.parametrize("block_len", [0, -3, float("nan"), float("inf")])
def test_bootstrap_rejects_block_len(short_panel, block_len):
    with pytest.raises(ConfigError, match="block_len"):
        bootstrap_gram_se(short_panel, block_len=block_len, n_resamples=10)


@pytest.mark.parametrize("n_resamples", [1, 0, 2.5])
def test_bootstrap_rejects_n_resamples(short_panel, n_resamples):
    with pytest.raises(ConfigError, match="n_resamples"):
        bootstrap_gram_se(short_panel, n_resamples=n_resamples)


def _first_rows(panel, rows):
    return ReturnPanel(dates=panel.dates[:rows], asset_logret=panel.asset_logret[:rows],
                       factor_levels=panel.factor_levels[:rows],
                       bench_weights=panel.bench_weights, dt=panel.dt)


@pytest.mark.parametrize("rows", [1, 39])
def test_bootstrap_rejects_too_few_rows(short_panel, rows):
    # n = 3 factors: estimate_drift's bound is 10 (n + 1) = 40 rows; a 1-row
    # panel used to return all-zero SEs
    with pytest.raises(InsufficientData, match="need at least 40 rows for 3 factors"):
        bootstrap_gram_se(_first_rows(short_panel, rows), n_resamples=10)


def test_bootstrap_at_the_row_bound_returns_finite_ses(short_panel):
    se = bootstrap_gram_se(_first_rows(short_panel, 40), n_resamples=10)
    for key, value in se.items():
        assert np.all(np.isfinite(value)) and np.all(np.asarray(value) > 0.0), key


def test_bootstrap_peak_allocation_is_the_prefix_table():
    # the bench's panel shape: T = 5040 rows, k = 12 series, K = 12 + 78 table columns
    T, m, n = 5040, 8, 3
    rng = np.random.default_rng(0)
    panel = ReturnPanel(
        dates=tuple(str(t) for t in range(T)),
        asset_logret=0.01 * rng.standard_normal((T, m)),
        factor_levels=np.cumsum(0.005 * rng.standard_normal((T, n)), axis=0),
        bench_weights=np.full(m, 1 / m),
        dt=1 / 252,
    )
    table_bytes = (T + 1) * (12 + 78) * 8
    tracemalloc.start()
    try:
        bootstrap_gram_se(panel, block_len=21, n_resamples=20, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * table_bytes, f"peak {peak} B against a {table_bytes} B table"
