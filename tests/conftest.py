import dataclasses
import os

# one BLAS thread: the suite's matrices are tiny, and a threaded OpenBLAS
# spends more on thread hand-off than on arithmetic (an expm of the 44x44
# augmented Riccati matrix takes ~8 ms threaded, ~0.13 ms on one thread).
# Set before anything imports numpy, which reads them once at load time.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np
import pytest

from benchkelly import model as model_mod
from benchkelly import valuefn
from benchkelly.policy import gain_table


def make_scalar_spec(theta=1.0, horizon=1.0, **overrides):
    """The scalar constant-coefficient reference model used across the suite."""
    kwargs = dict(
        asset_drift=[0.05],
        asset_factor_loading=[[1.0]],
        asset_vol=[[0.2]],
        factor_drift=[0.0],
        factor_mean_reversion=[[-0.5]],
        factor_vol=[[0.1]],
        bench_drift=0.0,
        bench_factor_loading=[0.0],
        bench_vol=[0.02],
    )
    kwargs.update(overrides)
    return model_mod.ModelSpec.constant(
        n=1, m=1, d=1, horizon_years=horizon, theta=theta, x0=[0.1], **kwargs
    )


def make_twofactor_spec(theta=1.0):
    """One factor, two assets, spanned benchmark; used for the MC value oracle."""
    return model_mod.ModelSpec.constant(
        n=1, m=2, d=3, horizon_years=1.0, theta=theta, x0=[0.2],
        asset_drift=[0.05, 0.03],
        asset_factor_loading=[[0.2], [-0.1]],
        asset_vol=[[0.15, 0.05, 0.0], [0.04, 0.12, 0.0]],
        factor_drift=[0.0],
        factor_mean_reversion=[[-0.3]],
        factor_vol=[[0.0, 0.05, 0.08]],
        bench_drift=0.01,
        bench_factor_loading=[0.05],
        bench_vol=[0.02, 0.01, 0.0],
    )


def scaled_kelly_table(model, vc, steps, dt, scale):
    """A fractional- or levered-Kelly strategy: the Kelly gain table of
    steps rows, row j at time j dt, with its allocation columns scaled.
    Given vc it keeps its value-tilt columns."""
    table = gain_table(model, vc, [j * dt for j in range(steps)], "kelly")
    gain, offset = table.gain.copy(), table.offset.copy()
    gain[..., table.h] *= scale
    offset[..., table.h] *= scale
    return dataclasses.replace(table, gain=gain, offset=offset)


def make_random_spec(rng, theta=None, n=None, m=None, d=None, horizon=1.0):
    """Well-posed random model with moderate coefficients."""
    n = n or int(rng.integers(1, 4))
    m = m or int(rng.integers(1, 6))
    d = d or int(rng.integers(m, 13))
    if theta is None:
        theta = float(rng.choice([0.1, 0.5, 1.0, 2.0]))
    sigma = 0.15 * rng.standard_normal((m, d)) + np.hstack([np.eye(m) * 0.2, np.zeros((m, d - m))])
    lam = 0.08 * rng.standard_normal((n, d))
    return model_mod.ModelSpec.constant(
        n=n, m=m, d=d, horizon_years=horizon, theta=theta,
        x0=0.3 * rng.standard_normal(n),
        asset_drift=0.05 * rng.standard_normal(m),
        asset_factor_loading=0.3 * rng.standard_normal((m, n)),
        asset_vol=sigma,
        factor_drift=0.05 * rng.standard_normal(n),
        factor_mean_reversion=-0.5 * np.eye(n) + 0.1 * rng.standard_normal((n, n)),
        factor_vol=lam,
        bench_drift=0.02 * rng.standard_normal(),
        bench_factor_loading=0.1 * rng.standard_normal(n),
        bench_vol=0.05 * rng.standard_normal(d),
    )


def make_two_segment_spec(rng, theta):
    """A random model whose coefficients change at mid-horizon."""
    first = make_random_spec(rng, theta=theta, n=3, m=2, d=4)
    second = make_random_spec(rng, theta=theta, n=3, m=2, d=4)
    return dataclasses.replace(first, coeffs=model_mod.CoefficientSet(
        knots=np.array([0.0, 0.5]), blocks=(first.coeffs.blocks[0], second.coeffs.blocks[0])))


def random_points(rng, count, horizon, n):
    """count (t, x) draws, a point at a time: t uniform on [0, horizon) and
    x standard normal in n dimensions; the times (count,) and states
    (count, n) for one gain table over the times."""
    times, X = np.empty(count), np.empty((count, n))
    for i in range(count):
        times[i] = rng.uniform(0, horizon)
        X[i] = rng.standard_normal(n)
    return times, X


@pytest.fixture(scope="session")
def scalar_model():
    return model_mod.validate_model(make_scalar_spec())


@pytest.fixture(scope="session")
def scalar_vc(scalar_model):
    return valuefn.solve_value_coefficients(scalar_model, steps_per_year=2016)


@pytest.fixture(scope="session")
def twofactor_model():
    return model_mod.validate_model(make_twofactor_spec())


@pytest.fixture(scope="session")
def twofactor_vc(twofactor_model):
    return valuefn.solve_value_coefficients(twofactor_model, steps_per_year=504)
