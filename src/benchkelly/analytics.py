"""Performance metrics for daily log excess return streams.

Level statistics are reported in percent per day; ratios are dimensionless.
Tail-risk measures follow the losses-relative-to-the-mean convention:
value-at-risk is the mean minus the lower-interpolated 5th-percentile order
statistic, and the conditional version averages the returns at or below that
quantile.  Moments use population (N) denominators.  Degenerate ratios
(zero dispersion) are reported as None rather than infinities.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import InsufficientData

MIN_SAMPLES = 100


@dataclass(frozen=True)
class PerfReport:
    """Metric set for one return stream; level stats in percent per day."""

    mean: float
    std: float
    semideviation: float
    skewness: float
    kurtosis: float          # excess
    var: float               # loss at the tail quantile, relative to the mean
    cvar: float              # average loss beyond the quantile, relative to the mean
    sharpe: float | None
    sortino: float | None
    mean_to_var: float | None
    mean_to_cvar: float | None
    sample_count: int
    level: float = 0.95

    def metrics(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in ("sample_count", "level")}


def _safe_ratio(num: float, den: float) -> float | None:
    # undefined when the denominator sits at rounding-noise scale relative to
    # the numerator (constant stream) or both sit at absolute rounding scale
    # (exactly replicated benchmark): noise-over-noise is not a statistic
    if den == 0.0 or not np.isfinite(den) or abs(den) <= 1e-13 * abs(num):
        return None
    if abs(num) < 1e-12 and abs(den) < 1e-12:
        return None
    return num / den


def risk_ratios(mean: float, std: float, var: float, cvar: float) -> dict:
    """Risk-adjusted ratios from already-computed level statistics (any
    common unit; the ratios are scale-free)."""
    return {
        "sharpe": _safe_ratio(mean, std),
        "mean_to_var": _safe_ratio(mean, var),
        "mean_to_cvar": _safe_ratio(mean, cvar),
    }


def performance_report(
    returns: np.ndarray,
    level: float = 0.95,
    downside_denominator: str = "below",
    min_samples: int = MIN_SAMPLES,
) -> PerfReport:
    """Compute the full metric set for a stream of daily log excess returns.

    downside_denominator selects the semideviation convention: "below"
    divides by the count of below-mean observations (default), "full" by the
    whole sample size.  min_samples can be lowered for smoke runs whose
    caller accepts degenerate statistics.
    """
    r = np.asarray(returns, dtype=float).reshape(-1)
    count = r.size
    if count < min_samples:
        raise InsufficientData(f"need at least {min_samples} observations, got {count}")
    if count < 2:
        raise InsufficientData("need at least 2 observations for any statistic")
    if downside_denominator not in ("below", "full"):
        raise ValueError("downside_denominator must be 'below' or 'full'")

    mean = float(r.mean())
    centered = r - mean
    # products, not powers: ** 3 and ** 4 take np.power's general path, tens
    # of times slower than a multiplication
    sq = centered * centered
    m2 = float(sq.mean())
    std = float(np.sqrt(m2))
    below = centered[r < mean]
    if below.size == 0:
        semidev = 0.0
    elif downside_denominator == "below":
        semidev = float(np.sqrt((below**2).mean()))
    else:
        semidev = float(np.sqrt((below**2).sum() / count))
    if m2 > 0:
        skew = float((sq * centered).mean() / m2**1.5)
        kurt = float((sq * sq).mean() / m2**2 - 3.0)
    else:
        skew = 0.0
        kurt = 0.0

    q = float(np.percentile(r, 100.0 * (1.0 - level), method="lower"))
    var = mean - q
    tail = r[r <= q]
    cvar = mean - float(tail.mean())

    pct = 100.0
    ratios = risk_ratios(mean, std, var, cvar)
    return PerfReport(
        mean=pct * mean,
        std=pct * std,
        semideviation=pct * semidev,
        skewness=skew,
        kurtosis=kurt,
        var=pct * var,
        cvar=pct * cvar,
        sharpe=ratios["sharpe"],
        sortino=_safe_ratio(mean, semidev),
        mean_to_var=ratios["mean_to_var"],
        mean_to_cvar=ratios["mean_to_cvar"],
        sample_count=count,
        level=level,
    )


def metric_gap(a: PerfReport, b: PerfReport) -> float:
    """Largest absolute difference between two reports' metrics: 0 where
    both leave a metric undefined, inf where only one does, and NaN when any
    difference is NaN.

    Reports expected to be identical (the same policy evaluated by two routes
    on shared paths) can be asserted with metric_gap(a, b) <= tolerance.
    """
    other = b.metrics()
    gaps = []
    for name, va in a.metrics().items():
        vb = other[name]
        if va is None or vb is None:
            gaps.append(0.0 if va is None and vb is None else np.inf)
        else:
            gaps.append(abs(va - vb))
    return float(np.max(gaps))
