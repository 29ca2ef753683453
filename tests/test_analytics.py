import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchkelly.analytics import (
    metric_gap,
    performance_report,
    risk_ratios,
)
from benchkelly.errors import InsufficientData

# Published reference columns: (mean, std, var, cvar) in % per day with their
# expected ratios (sharpe, mean-to-var, mean-to-cvar).
REFERENCE_COLUMNS = {
    "benchmark": ((0.0507, 1.1682, 1.6773, 2.8334), (0.0434, 0.0302, 0.0179)),
    "portfolio": ((0.2437, 4.3154, 7.0890, 8.9186), (0.0565, 0.0344, 0.0273)),
    "kelly": ((0.3078, 7.8217, 12.8507, 16.1727), (0.0394, 0.0240, 0.0190)),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_COLUMNS))
def test_reference_ratios_reproduced(name):
    (mean, std, var, cvar), (sharpe, m2v, m2c) = REFERENCE_COLUMNS[name]
    ratios = risk_ratios(mean, std, var, cvar)
    assert ratios["sharpe"] == pytest.approx(sharpe, abs=1e-4)
    assert ratios["mean_to_var"] == pytest.approx(m2v, abs=1e-4)
    assert ratios["mean_to_cvar"] == pytest.approx(m2c, abs=1e-4)


@pytest.fixture(scope="module")
def sample_returns():
    rng = np.random.default_rng(0)
    return 0.01 * rng.standard_normal(50_000) + 0.0004


def test_report_identities(sample_returns):
    rep = performance_report(sample_returns)
    assert rep.sharpe == pytest.approx(rep.mean / rep.std, rel=1e-12)
    assert rep.mean_to_var == pytest.approx(rep.mean / rep.var, rel=1e-12)
    assert rep.mean_to_cvar == pytest.approx(rep.mean / rep.cvar, rel=1e-12)
    assert rep.sortino == pytest.approx(rep.mean / rep.semideviation, rel=1e-12)
    assert rep.cvar >= rep.var
    assert rep.sample_count == 50_000


def test_population_moment_conventions(sample_returns):
    rep = performance_report(sample_returns)
    r = sample_returns
    assert rep.mean == pytest.approx(100 * r.mean(), rel=1e-12)
    assert rep.std == pytest.approx(100 * r.std(ddof=0), rel=1e-12)
    centered = r - r.mean()
    skew = (centered**3).mean() / (centered**2).mean() ** 1.5
    kurt = (centered**4).mean() / (centered**2).mean() ** 2 - 3.0
    assert rep.skewness == pytest.approx(skew, rel=1e-12)
    assert rep.kurtosis == pytest.approx(kurt, rel=1e-12)


def test_symmetric_two_point_moments():
    # c +- a with c != 0: every odd central moment vanishes and m4 = m2^2
    c, a = 0.0004, 0.01
    rep = performance_report(np.tile([c + a, c - a], 100))
    assert rep.skewness == pytest.approx(0.0, abs=1e-12)
    assert rep.kurtosis == pytest.approx(-2.0, abs=1e-12)


def test_skewed_stream_hand_moments():
    # x = -1 (50 times), 0 (30), 3 (20): mean 0.1, central deviations
    # -1.1, -0.1, 2.9, so m2 = 2.29, m3 = 4.212, m4 = 14.8777; the affine map
    # to returns changes neither skewness nor kurtosis
    x = np.repeat([-1.0, 0.0, 3.0], [50, 30, 20])
    rep = performance_report(0.0004 + 0.01 * x)
    assert rep.skewness == pytest.approx(4.212 / 2.29**1.5, abs=1e-12)
    assert rep.kurtosis == pytest.approx(14.8777 / 2.29**2 - 3.0, abs=1e-12)


def test_quantile_coherence(sample_returns):
    rep = performance_report(sample_returns)
    r = np.sort(sample_returns)
    # lower-interpolated order statistic at the 5% point
    k = int(np.floor(0.05 * (len(r) - 1)))
    q = r[k]
    assert rep.var == pytest.approx(100 * (sample_returns.mean() - q), rel=1e-12)
    tail = r[r <= q]
    assert rep.cvar == pytest.approx(100 * (sample_returns.mean() - tail.mean()), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(scale=st.floats(0.1, 50.0, allow_nan=False))
def test_affine_equivariance(sample_returns, scale):
    base = performance_report(sample_returns)
    scaled = performance_report(scale * sample_returns)
    for name in ("mean", "std", "semideviation", "var", "cvar"):
        assert getattr(scaled, name) == pytest.approx(scale * getattr(base, name), rel=1e-9)
    for name in ("sharpe", "sortino", "mean_to_var", "mean_to_cvar"):
        assert getattr(scaled, name) == pytest.approx(getattr(base, name), rel=1e-9)
    assert scaled.skewness == pytest.approx(base.skewness, rel=1e-9)


def test_constant_stream_degenerate_ratios():
    rep = performance_report(np.full(200, 0.001))
    assert rep.std <= 1e-13 * abs(rep.mean)  # dispersion at rounding scale
    assert rep.sharpe is None
    assert rep.sortino is None
    assert rep.mean_to_var is None
    assert rep.mean_to_cvar is None


def test_insufficient_data():
    with pytest.raises(InsufficientData):
        performance_report(np.zeros(99))


def test_downside_denominator_switch(sample_returns):
    below = performance_report(sample_returns, downside_denominator="below")
    full = performance_report(sample_returns, downside_denominator="full")
    assert full.semideviation < below.semideviation
    with pytest.raises(ValueError):
        performance_report(sample_returns, downside_denominator="sideways")


def test_compare_report_with_itself(sample_returns):
    rep = performance_report(sample_returns)
    assert metric_gap(rep, rep) == 0.0
    assert metric_gap(rep, rep) <= 0.0


def test_compare_detects_differences(sample_returns):
    rep1 = performance_report(sample_returns)
    rep2 = performance_report(sample_returns * 1.5)
    assert not metric_gap(rep1, rep2) <= 1e-12
    assert metric_gap(rep1, rep2) >= abs(rep1.mean - rep2.mean) > 0


def test_compare_handles_degenerate(sample_returns):
    rep1 = performance_report(sample_returns)
    rep2 = performance_report(np.full(200, 0.001))
    assert metric_gap(rep1, rep2) == float("inf")
    assert np.isnan(metric_gap(rep1, dataclasses.replace(rep1, mean=float("nan"))))
