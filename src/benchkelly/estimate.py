"""Model estimation from daily return panels.

Drift coefficients come from OLS on the discretized dynamics: factor
increments per unit time regressed on (1, state), and asset log-return
drifts (with the one-half-variance adjustment converting log growth to
price-relative drift) regressed the same way.  Diffusion loadings come from
the joint realized covariance per unit time of (asset log returns, factor
increments, benchmark log return), factorized by a lower Cholesky with
d = m + n + 1.

The benchmark series is the fixed-weight combination of the asset returns,
so the joint covariance is singular by construction in its last row; the
factorization clamps that pivot at zero and the benchmark coefficients are
then defined exactly as c = w'a, C = w'A, Xi = Sigma'w.  Only the Gram
contractions of (Sigma, Lambda, Xi) are identified -- any orthogonal
rotation of the factor yields the same model -- and a stationary block
bootstrap provides standard errors for those contractions.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import date, timedelta
from itertools import chain, islice
from numbers import Integral, Real
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    InsufficientData,
    NonMonotoneDates,
    ParseError,
    RankDeficient,
    SchemaError,
    SingularCovariance,
    WeightSumError,
)
from .model import CoefficientBlock, CoefficientSet, ModelSpec, ValidatedModel, cholesky_pd

DEFAULT_DT = 1.0 / 252.0
PARSE_ROWS = 1024  # panel rows converted per np.array call


@dataclass(frozen=True)
class PanelSchema:
    """Column-role mapping for panel CSVs.

    The date column holds ISO-8601 day stamps; asset and factor columns are
    identified by name prefix and hold per-period log returns (assets, net of
    the money-market rate) and per-period factor returns.  Benchmark weights
    are supplied here, not in the CSV.
    """

    bench_weights: np.ndarray
    date_column: str = "date"
    asset_prefix: str = "asset:"
    factor_prefix: str = "factor:"
    dt: float = DEFAULT_DT


@dataclass(frozen=True)
class ReturnPanel:
    dates: tuple[str, ...]
    asset_logret: np.ndarray    # (T, m) daily log returns net of money market
    factor_levels: np.ndarray   # (T, n) cumulated factor returns (state path)
    bench_weights: np.ndarray   # (m,) fixed weights summing to 1
    dt: float
    asset_names: tuple[str, ...] = ()
    factor_names: tuple[str, ...] = ()

    @property
    def rows(self) -> int:
        return self.asset_logret.shape[0]

    @property
    def m(self) -> int:
        return self.asset_logret.shape[1]

    @property
    def n(self) -> int:
        return self.factor_levels.shape[1]

    def factor_increments(self) -> np.ndarray:
        """Per-period factor returns (the first level counts from zero)."""
        out = np.empty_like(self.factor_levels)
        out[0] = self.factor_levels[0]
        out[1:] = np.diff(self.factor_levels, axis=0)
        return out


def _check_weights(weights: np.ndarray, m: int) -> np.ndarray:
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (m,):
        raise DimensionMismatch(f"benchmark weights must have shape ({m},), got {weights.shape}")
    if abs(weights.sum() - 1.0) > 1e-12:
        raise WeightSumError(f"benchmark weights sum to {weights.sum()!r}, expected 1")
    return weights


def load_panel(path: str | Path, schema: PanelSchema) -> ReturnPanel:
    """Parse and validate a return-panel CSV.

    Rows with any missing, non-numeric or non-finite cell are rejected with
    their line number; dates must be strictly ascending.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if schema.date_column not in header:
            raise SchemaError(f"{path}: no '{schema.date_column}' column")
        date_idx = header.index(schema.date_column)
        asset_idx = [i for i, h in enumerate(header) if h.startswith(schema.asset_prefix)]
        factor_idx = [i for i, h in enumerate(header) if h.startswith(schema.factor_prefix)]
        if not asset_idx:
            raise SchemaError(f"{path}: no columns with prefix '{schema.asset_prefix}'")
        if not factor_idx:
            raise SchemaError(f"{path}: no columns with prefix '{schema.factor_prefix}'")
        known = {date_idx, *asset_idx, *factor_idx}
        unknown = [header[i] for i in range(len(header)) if i not in known]
        if unknown:
            raise SchemaError(f"{path}: columns with no role: {unknown}")

        # one conversion of every numeric cell per chunk of rows, which bounds
        # the cell strings held at once; the row scan of a failing chunk
        # names its first bad line, row length first, as a row-by-row parse
        numeric = itemgetter(*asset_idx, *factor_idx)
        dates: list[str] = []
        parts: list[np.ndarray] = []
        for chunk in iter(lambda: list(islice(reader, PARSE_ROWS)), []):
            try:
                if any(len(row) != len(header) for row in chunk):
                    raise ValueError("ragged rows")
                parts.append(np.array(list(chain.from_iterable(map(numeric, chunk))),
                                      dtype=float))
            except ValueError:
                cells: list[float] = []
                for line_no, row in enumerate(chunk, start=len(dates) + 2):
                    if len(row) != len(header):
                        raise ParseError(f"{path}: row at line {line_no} has {len(row)} cells, "
                                         f"expected {len(header)}") from None
                    try:
                        cells += map(float, numeric(row))
                    except ValueError:
                        raise ParseError(f"{path}: missing or non-numeric value at "
                                         f"line {line_no}") from None
                parts.append(np.array(cells))
            dates += [row[date_idx].strip() for row in chunk]

    if not dates:
        raise ParseError(f"{path}: no data rows")
    for i, stamp in enumerate(dates):
        try:
            date.fromisoformat(stamp)
        except ValueError:
            raise ParseError(
                f"{path}: '{stamp}' at line {i + 2} is not an ISO-8601 day stamp"
            ) from None
    for i in range(1, len(dates)):
        if dates[i] <= dates[i - 1]:
            raise NonMonotoneDates(f"{path}: dates not strictly ascending at line {i + 2}")

    values = np.concatenate(parts).reshape(len(dates), -1)
    asset_logret = np.ascontiguousarray(values[:, :len(asset_idx)])
    increments = np.ascontiguousarray(values[:, len(asset_idx):])
    finite = np.isfinite(asset_logret).all(axis=1) & np.isfinite(increments).all(axis=1)
    if not finite.all():
        raise ParseError(f"{path}: non-finite value at line {int(np.argmin(finite)) + 2}")
    weights = _check_weights(schema.bench_weights, asset_logret.shape[1])
    return ReturnPanel(
        dates=tuple(dates),
        asset_logret=asset_logret,
        factor_levels=np.cumsum(increments, axis=0),
        bench_weights=weights,
        dt=schema.dt,
        asset_names=tuple(header[i] for i in asset_idx),
        factor_names=tuple(header[i] for i in factor_idx),
    )


def save_panel(panel: ReturnPanel, path: str | Path) -> None:
    asset_names = panel.asset_names or tuple(f"asset:a{i}" for i in range(panel.m))
    factor_names = panel.factor_names or tuple(f"factor:f{i}" for i in range(panel.n))
    increments = panel.factor_increments()
    lines = ["date," + ",".join(asset_names) + "," + ",".join(factor_names)]
    for t in range(panel.rows):
        cells = [panel.dates[t]]
        cells += [repr(float(v)) for v in panel.asset_logret[t]]
        cells += [repr(float(v)) for v in increments[t]]
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


def _joint_increments(panel: ReturnPanel) -> np.ndarray:
    """(T, m+n+1) stack of asset log returns, factor increments, benchmark log return."""
    bench = panel.asset_logret @ panel.bench_weights
    return np.column_stack([panel.asset_logret, panel.factor_increments(), bench])


def realized_covariance(panel: ReturnPanel) -> np.ndarray:
    """Demeaned joint covariance per unit time of the (m+n+1) increment stack."""
    z = _joint_increments(panel)
    z = z - z.mean(axis=0)
    return (z.T @ z) / (panel.rows * panel.dt)


@dataclass(frozen=True)
class DriftEstimate:
    asset_drift: np.ndarray          # a, (m,)
    asset_factor_loading: np.ndarray  # A, (m, n)
    factor_drift: np.ndarray         # b, (n,)
    factor_mean_reversion: np.ndarray  # B, (n, n)
    asset_se: np.ndarray             # (m, n+1) per-equation [intercept, slopes] SEs
    factor_se: np.ndarray            # (n, n+1)


def _ols_rows(Z: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """OLS of each column of Y on the regressor matrix Z; returns coefficients
    (eqs, n+1) and classical standard errors of the same shape."""
    rows, k = Z.shape
    rank = np.linalg.matrix_rank(Z)
    if rank < k:
        raise RankDeficient(f"regressor matrix rank {rank} < {k}; a factor column is collinear")
    coef, _, _, _ = np.linalg.lstsq(Z, Y, rcond=None)
    resid = Y - Z @ coef
    dof = max(rows - k, 1)
    sigma2 = (resid**2).sum(axis=0) / dof
    ztz_inv = np.linalg.inv(Z.T @ Z)
    se = np.sqrt(np.outer(sigma2, np.diag(ztz_inv)))
    return coef.T, se  # (eqs, k)


def _require_rows(panel: ReturnPanel) -> None:
    need = 10 * (panel.n + 1)
    if panel.rows < need:
        raise InsufficientData(f"need at least {need} rows for {panel.n} factors, got {panel.rows}")


def estimate_drift(panel: ReturnPanel) -> DriftEstimate:
    """OLS drift estimation on the discretized dynamics.

    Factor equation i regresses (level increment)/dt on (1, state); asset
    equation i regresses (log return)/dt + half the estimated instantaneous
    variance on (1, state), which converts log growth back to the
    price-relative drift a + A x.
    """
    _require_rows(panel)
    T = panel.rows
    X_lag = panel.factor_levels[:-1]                     # state at the start of each interval
    Z = np.column_stack([np.ones(T - 1), X_lag])

    d_fac = np.diff(panel.factor_levels, axis=0) / panel.dt
    fac_coef, fac_se = _ols_rows(Z, d_fac)

    cov = realized_covariance(panel)
    ito_adjust = 0.5 * np.diag(cov)[: panel.m]
    y_asset = panel.asset_logret[1:] / panel.dt + ito_adjust
    asset_coef, asset_se = _ols_rows(Z, y_asset)

    return DriftEstimate(
        asset_drift=asset_coef[:, 0].copy(),
        asset_factor_loading=asset_coef[:, 1:].copy(),
        factor_drift=fac_coef[:, 0].copy(),
        factor_mean_reversion=fac_coef[:, 1:].copy(),
        asset_se=asset_se,
        factor_se=fac_se,
    )


@dataclass(frozen=True)
class LoadingsEstimate:
    asset_vol: np.ndarray    # Sigma, (m, d) with d = m+n+1
    factor_vol: np.ndarray   # Lambda, (n, d)
    bench_vol: np.ndarray    # Xi, (d,)
    joint_cov: np.ndarray    # (m+n+1, m+n+1) realized covariance per unit time
    cond_joint: float
    cond_assets: float


def estimate_loadings(panel: ReturnPanel) -> LoadingsEstimate:
    """Joint-covariance Cholesky factorization into (Sigma, Lambda, Xi).

    The leading (assets, factors) block must be positive definite; the
    benchmark row is a fixed-weight combination of the assets, so its
    residual pivot is zero up to rounding and is clamped there.
    """
    cov = realized_covariance(panel)
    m, n = panel.m, panel.n
    core = cov[: m + n, : m + n]
    L_core, fail = cholesky_pd(core)
    if fail is not None:
        j, pivot = fail
        raise SingularCovariance(
            f"joint (asset, factor) covariance is singular: pivot {pivot:.3e} at index {j}"
        )
    # rank-tolerant final row for the benchmark component
    rhs = cov[m + n, : m + n]
    x = np.linalg.solve(L_core, rhs)
    residual = cov[m + n, m + n] - x @ x
    scale = max(float(np.max(np.diag(cov))), 0.0)
    last = np.sqrt(residual) if residual > 1e-12 * scale else 0.0

    d = m + n + 1
    G = np.zeros((d, d))
    G[: m + n, : m + n] = L_core
    G[m + n, : m + n] = x
    G[m + n, m + n] = last

    return LoadingsEstimate(
        asset_vol=G[:m].copy(),
        factor_vol=G[m : m + n].copy(),
        bench_vol=G[m + n].copy(),
        joint_cov=cov,
        cond_joint=float(np.linalg.cond(core)),
        cond_assets=float(np.linalg.cond(cov[:m, :m])),
    )


def build_benchmark(
    weights: np.ndarray, asset_drift: np.ndarray,
    asset_factor_loading: np.ndarray, asset_vol: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Fixed-weight benchmark coefficients: c = w'a, C = w'A, Xi = Sigma'w.

    Defined in price-relative form, so a portfolio holding exactly the
    benchmark weights has identically zero log excess return.
    """
    weights = _check_weights(weights, asset_drift.shape[0])
    return (
        float(weights @ asset_drift),
        weights @ asset_factor_loading,
        asset_vol.T @ weights,
    )


@dataclass(frozen=True)
class EstimationReport:
    model_spec: ModelSpec
    drift: DriftEstimate
    loadings: LoadingsEstimate
    rows: int

    def to_dict(self) -> dict:
        from .model import model_to_dict

        return {
            "rows": self.rows,
            "model": model_to_dict(self.model_spec),
            "asset_drift_se": self.drift.asset_se.tolist(),
            "factor_drift_se": self.drift.factor_se.tolist(),
            "joint_covariance": self.loadings.joint_cov.tolist(),
            "cond_joint": self.loadings.cond_joint,
            "cond_assets": self.loadings.cond_assets,
        }


def estimate_model(
    panel: ReturnPanel,
    theta: float,
    horizon_years: float,
    x0: np.ndarray | None = None,
) -> EstimationReport:
    """Full estimation pipeline: drift OLS, loadings factorization, benchmark.

    x0 defaults to the final observed factor state.
    """
    drift = estimate_drift(panel)
    loadings = estimate_loadings(panel)
    c, C, xi = build_benchmark(
        panel.bench_weights, drift.asset_drift, drift.asset_factor_loading, loadings.asset_vol
    )
    block = CoefficientBlock(
        asset_drift=drift.asset_drift,
        asset_factor_loading=drift.asset_factor_loading,
        asset_vol=loadings.asset_vol,
        factor_drift=drift.factor_drift,
        factor_mean_reversion=drift.factor_mean_reversion,
        factor_vol=loadings.factor_vol,
        bench_drift=c,
        bench_factor_loading=C,
        bench_vol=xi,
    )
    if x0 is None:
        x0 = panel.factor_levels[-1]
    spec = ModelSpec(
        n=panel.n, m=panel.m, d=panel.m + panel.n + 1,
        coeffs=CoefficientSet.constant(block),
        horizon_years=float(horizon_years),
        theta=float(theta),
        x0=np.asarray(x0, dtype=float),
    )
    return EstimationReport(model_spec=spec, drift=drift, loadings=loadings, rows=panel.rows)


def gram_blocks_of_cov(cov: np.ndarray, m: int, n: int) -> dict[str, np.ndarray]:
    """The six Gram contractions read directly off the joint covariance."""
    return {
        "ss": cov[:m, :m],
        "sl": cov[:m, m : m + n],
        "ll": cov[m : m + n, m : m + n],
        "s_xi": cov[:m, m + n],
        "l_xi": cov[m : m + n, m + n],
        "xi_xi": cov[m + n, m + n],
    }


def bootstrap_gram_se(
    panel: ReturnPanel,
    block_len: float = 21,
    n_resamples: int = 500,
    seed: int = 0,
) -> dict[str, np.ndarray]:
    """Stationary block bootstrap standard errors for the Gram contractions.

    Blocks have geometric length with mean block_len and wrap circularly.
    Point estimates stay deterministic; each resample draws from its own
    (seed, index) stream, so resamples are order-independent and could run
    in parallel without changing the result.

    A resample is a list of circular segments, so its covariance comes from
    segment sums rather than its rows.  One (T+1, K) table, K = k + k(k+1)/2
    for the k joint series, holds the prefix sums of the centred series and
    of their centred upper-triangle products; a segment's sums are two table
    rows apart, plus a third if it wraps.  The work per resample is
    O(segments * K), about T * K / block_len, against O(T * k^2) for
    gathering every row.  Short segments cost more than the rows they
    replace.  Timed at k = 12, T = 5040 on one BLAS thread, gathering every
    row is the cheaper way below block_len 4: 2-3 times at block_len 1 and
    1.2-1.5 times at 3.  At 21, every caller's value, the segment sums are
    about 3 times cheaper.

    Raises ConfigError unless block_len is a finite number >= 1 and
    n_resamples an integer >= 2, and InsufficientData on fewer rows than
    estimate_drift needs, 10 (n + 1).
    """
    if not (isinstance(block_len, Real) and np.isfinite(block_len) and block_len >= 1):
        raise ConfigError(f"block_len must be a finite number >= 1, got {block_len!r}")
    if not isinstance(n_resamples, Integral) or n_resamples < 2:
        raise ConfigError(f"n_resamples must be an integer >= 2, got {n_resamples!r}")
    _require_rows(panel)
    z = _joint_increments(panel)
    T, k = z.shape
    upper = np.triu_indices(k)
    # The series, then their products, are centred on their full-sample means:
    # each column's prefix sums wander like sqrt(T) instead of growing like T,
    # and the spread of the resampled covariances does not see either shift.
    table = np.empty((T + 1, k + upper[0].size))
    table[0] = 0.0
    centred = table[1:, :k]
    np.subtract(z, z.mean(axis=0), out=centred)
    del z
    col = k
    for i in range(k):
        np.multiply(centred[:, i : i + 1], centred[:, i:], out=table[1:, col : col + k - i])
        col += k - i
    table[1:, k:] -= table[1:, k:].mean(axis=0)
    np.cumsum(table, axis=0, out=table)

    p = 1.0 / block_len
    sums = np.empty((n_resamples, table.shape[1]))
    for r in range(n_resamples):
        rng = np.random.default_rng([seed, r])
        restart = rng.random(T) < p
        restart[0] = True
        seg_start = np.flatnonzero(restart)            # row where each segment begins
        anchors = rng.integers(T, size=seg_start.size)  # uniform start per segment
        ends = anchors + np.diff(seg_start, append=T)
        wraps = ends[ends > T] - T
        seg_sums = table[np.minimum(ends, T)]
        seg_sums -= table[anchors]  # add up segment sums, not prefixes, to keep rounding small
        sums[r] = seg_sums.sum(axis=0) + table[wraps].sum(axis=0)
    mean = sums[:, :k] / T
    # each resample's covariance less the full-sample one
    excess = (sums[:, k:] - T * mean[:, upper[0]] * mean[:, upper[1]]) / (T * panel.dt)
    se = np.empty((k, k))
    se[upper] = np.std(excess, axis=0, ddof=1)
    se.T[upper] = se[upper]
    return gram_blocks_of_cov(se, panel.m, panel.n)


def synthesize_panel(
    model: ValidatedModel,
    years: float,
    weights: np.ndarray,
    seed: int = 0,
    dt: float = DEFAULT_DT,
    start: str = "2000-01-03",
) -> ReturnPanel:
    """Euler-simulated daily panel from a known model (round-trip testing and
    demo pipelines; real panels come from load_panel)."""
    rows = int(round(years / dt))
    block = model.coefficients(0.0)
    gram = model.gram_blocks(0.0)
    rng = np.random.default_rng(seed)
    half_var = 0.5 * np.diag(gram.ss)

    x = model.x0.copy()
    asset_logret = np.empty((rows, model.m))
    increments = np.empty((rows, model.n))
    for t in range(rows):
        dw = rng.standard_normal(model.d) * np.sqrt(dt)
        drift = block.asset_drift + block.asset_factor_loading @ x
        asset_logret[t] = (drift - half_var) * dt + block.asset_vol @ dw
        dx = (block.factor_drift + block.factor_mean_reversion @ x) * dt + block.factor_vol @ dw
        increments[t] = dx
        x = x + dx

    day0 = date.fromisoformat(start)
    dates = tuple((day0 + timedelta(days=t)).isoformat() for t in range(rows))
    return ReturnPanel(
        dates=dates,
        asset_logret=asset_logret,
        factor_levels=np.cumsum(increments, axis=0),
        bench_weights=_check_weights(np.asarray(weights, dtype=float), model.m),
        dt=dt,
    )
