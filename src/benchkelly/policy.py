"""Optimal feedback policies and portfolio decompositions.

All policies are affine in the factor state: the certainty-equivalent
gradient quad(t) x + lin(t) is, so the optimal allocation, the Kelly
allocation and both tilts are X @ K(t) + k(t) for a state matrix X, with
gains that depend on t alone.  gain_table builds those gains at the times a
caller steps through, and it is the one source of every control:
simulate_paths evaluates it once per step, and optimal_h, optimal_gamma,
optimal_nu, fractional_kelly and game.saddle_check evaluate a one-row table.

The optimal allocation has two routes:

* "direct": from the gradient of the log exponential criterion,
  h = 1/(theta+1) (SS')^{-1} (a + A x + theta S Xi + S L' Du);
* "twostep": from the gradient of the certainty-equivalent surface,
  h = 1/(theta+1) (SS')^{-1} (a + A x + theta S Xi - theta S L' DCE).

With Du = -theta DCE the two share their arithmetic and differ only in where
-theta multiplies, so they agree to rounding.  The runtime cross-checks keep
references independent of the table: optimal_gamma's projected closed form
P- Lambda' Du - theta/(theta+1) Sigma' kelly + theta P- Xi, and
fractional_kelly's recomposition from the Kelly, benchmark-tracking and
hedging portfolios, its regularized-Kelly identity and the tilt relation
between the two routes.

At theta == 0 the general formula gives the Kelly allocation
(SS')^{-1}(a + A x) bit for bit: its value-gradient terms vanish.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, RepresentationMismatch
from .model import ValidatedModel
from .valuefn import ValueCoefficients, value_function

CROSS_CHECK_TOL = 1e-10
ROUTES = ("direct", "twostep")
# the strategies whose allocation a gain table carries
TABLE_STRATEGIES = ("optimal", "kelly")


@dataclass(frozen=True)
class PolicyAction:
    """All policy outputs at one (t, x) point.

    Invariants (enforced at construction by fractional_kelly):
      allocation = kf*kelly + (1-kf)*bench_track - (1-kf)*hedge
      allocation = kelly + (SS')^{-1} Sigma tilt
      tilt = tilt_twostep - theta (Sigma' allocation - Xi)
    """

    allocation: np.ndarray     # h*, (m,)
    tilt: np.ndarray           # adverse measure tilt, (d,)
    tilt_twostep: np.ndarray   # transformed-measure tilt, (d,)
    kelly: np.ndarray          # growth-optimal component, (m,)
    bench_track: np.ndarray    # benchmark-tracking component, (m,)
    hedge: np.ndarray          # intertemporal hedging component, (m,)
    kelly_fraction: float      # 1/(theta+1)


@dataclass(frozen=True)
class GainTable:
    """Affine feedback gains at a sequence of times.

    The controls at times[j] for the factor states in the rows of X are
    controls(j, X) = X @ gain[j] + offset[j].  Their columns hold the
    allocation h, the value tilt Lambda' Du and the transformed-measure tilt
    nu; the slices h, value_tilt and nu select them, and a column group the
    table was built without has slice None (see gain_table).
    """

    times: np.ndarray    # (k,)
    gain: np.ndarray     # (k, n, w)
    offset: np.ndarray   # (k, w)
    h: slice | None
    value_tilt: slice | None
    nu: slice | None

    def controls(self, j: int, X: np.ndarray) -> np.ndarray:
        return X @ self.gain[j] + self.offset[j]

    def allocation_only(self) -> GainTable:
        """This table without its tilt columns."""
        return GainTable(self.times, np.ascontiguousarray(self.gain[:, :, self.h]),
                         np.ascontiguousarray(self.offset[:, self.h]), self.h, None, None)


def gain_table(
    model: ValidatedModel,
    vc: ValueCoefficients | None,
    times,
    strategy: str = "optimal",
    route: str = "direct",
) -> GainTable:
    """Gains of the controls at each of the given times.

    The columns are [h | Lambda' Du | nu]: h is the strategy's allocation,
    present for the strategies of TABLE_STRATEGIES ("optimal" by the given
    route, or "kelly"), and the two tilts are present when vc is given.
    Each row takes (quad, lin) from vc.at(t); each coefficient segment's rows
    come from one stacked solve against Sigma Sigma'.
    """
    if route not in ROUTES:
        raise ConfigError(f"unknown route '{route}'; choose from {ROUTES}")
    if strategy == "optimal" and vc is None:
        raise ConfigError("the optimal allocation needs solved value coefficients")
    if vc is not None and (vc.theta != model.theta or vc.horizon != model.horizon):
        raise ConfigError(
            f"value coefficients solved for theta={vc.theta:g}, horizon={vc.horizon:g} "
            f"do not belong to the model (theta={model.theta:g}, horizon={model.horizon:g})")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    n, m, d = model.n, model.m, model.d
    theta = model.theta
    h = slice(0, m) if strategy in TABLE_STRATEGIES else None
    width = 0 if h is None else m
    value_tilt = nu = None
    if vc is not None:
        value_tilt, nu = slice(width, width + d), slice(width + d, width + 2 * d)
        width += 2 * d
    gain = np.empty((len(times), n, width))
    offset = np.empty((len(times), width))

    segs = np.array([model.segment_index(t) for t in times.tolist()], dtype=int)
    for seg in np.unique(segs).tolist():
        rows = np.flatnonzero(segs == seg)
        t0 = float(times[rows[0]])
        block = model.coefficients(t0)
        gram = model.gram_blocks(t0)
        if vc is not None:
            at = [vc.at(t) for t in times[rows].tolist()]
            # the gradient X quad' + lin as gains: quad' and lin
            quad_t = np.swapaxes(np.stack([q for q, _, _ in at]), 1, 2)
            lin = np.stack([v for _, v, _ in at])
        if h is not None:
            # the allocation's right-hand side before the solve, as gains
            # (r, n, m) and offsets (r, m)
            rhs = np.empty((len(rows), n + 1, m))
            rhs[:, :n] = block.asset_factor_loading.T
            rhs[:, n] = block.asset_drift
            optimal = strategy == "optimal"
            if optimal:
                sl_t = np.ascontiguousarray(gram.sl.T)
                if route == "direct":
                    rhs[:, :n] += (-theta * quad_t) @ sl_t
                    rhs[:, n] += theta * gram.s_xi
                    rhs[:, n] += (-theta * lin) @ sl_t
                else:
                    rhs[:, :n] += -theta * (quad_t @ sl_t)
                    rhs[:, n] += theta * gram.s_xi
                    rhs[:, n] += -theta * (lin @ sl_t)
            # rows are right-hand sides of (SS') y = rhs': one solve for all
            solved = gram.ss_solve(rhs.reshape(-1, m).T).T.reshape(len(rows), n + 1, m)
            if optimal:
                solved /= theta + 1.0
            gain[rows, :, h] = solved[:, :n]
            offset[rows, h] = solved[:, n]
        if vc is not None:
            lam = block.factor_vol
            gain[rows, :, value_tilt] = (-theta * quad_t) @ lam
            offset[rows, value_tilt] = (-theta * lin) @ lam
            gain[rows, :, nu] = -theta * (quad_t @ lam)
            offset[rows, nu] = -theta * (lin @ lam)
    return GainTable(times=times, gain=gain, offset=offset, h=h, value_tilt=value_tilt, nu=nu)


def _point_controls(model: ValidatedModel, vc: ValueCoefficients | None, t: float, x,
                    strategy: str = "optimal", route: str = "direct"):
    """A one-row gain table at time t and its controls at state x."""
    table = gain_table(model, vc, [t], strategy, route)
    return table, table.controls(0, np.asarray(x, dtype=float)[None, :])[0]


def benchmark_tracking(model: ValidatedModel, t: float) -> np.ndarray:
    """Benchmark-tracking portfolio (SS')^{-1} Sigma Xi at time t."""
    gram = model.gram_blocks(t)
    return gram.ss_solve(gram.s_xi)


def optimal_h(
    model: ValidatedModel,
    vc: ValueCoefficients,
    t: float,
    x: np.ndarray,
    route: str = "direct",
) -> np.ndarray:
    """Optimal allocation at (t, x) by the requested route."""
    table, row = _point_controls(model, vc, t, x, route=route)
    return row[table.h]


def optimal_gamma(
    model: ValidatedModel,
    vc: ValueCoefficients,
    t: float,
    x: np.ndarray,
) -> np.ndarray:
    """Adverse measure tilt at (t, x).

    Computed from its defining form (value tilt minus scaled tracking error)
    and from the projected closed form; the two must agree to
    CROSS_CHECK_TOL or the upstream solve is inconsistent.
    """
    block = model.coefficients(t)
    theta = model.theta
    table, row = _point_controls(model, vc, t, x)
    value_tilt = row[table.value_tilt]
    form1 = value_tilt - theta * (row[table.h] @ block.asset_vol - block.bench_vol)

    kelly_table, kelly_row = _point_controls(model, None, t, x, "kelly")
    proj = model.projection_matrices(t, theta)
    form2 = (
        proj.pminus @ value_tilt
        - (theta / (theta + 1.0)) * (block.asset_vol.T @ kelly_row[kelly_table.h])
        + theta * (proj.pminus @ block.bench_vol)
    )
    gap = float(np.abs(form1 - form2).max())
    if gap > CROSS_CHECK_TOL * (1.0 + float(np.abs(form1).max())):
        raise RepresentationMismatch(
            f"tilt representations disagree by {gap:.3e} at t={t:g}"
        )
    return form1


def optimal_nu(
    model: ValidatedModel,
    vc: ValueCoefficients,
    t: float,
    x: np.ndarray,
) -> np.ndarray:
    """Transformed-measure tilt: -theta * Lambda' DCE(t, x)."""
    table, row = _point_controls(model, vc, t, x)
    return row[table.nu]


def fractional_kelly(
    model: ValidatedModel,
    vc: ValueCoefficients,
    t: float,
    x: np.ndarray,
) -> PolicyAction:
    """Full policy decomposition at (t, x) with all identity checks enforced."""
    x = np.asarray(x, dtype=float)
    block = model.coefficients(t)
    gram = model.gram_blocks(t)
    theta = model.theta
    sigma = block.asset_vol
    kf = 1.0 / (theta + 1.0)

    table, row = _point_controls(model, vc, t, x)
    allocation = row[table.h]
    kelly_table, kelly_row = _point_controls(model, None, t, x, "kelly")
    kelly = kelly_row[kelly_table.h]
    bench_track = benchmark_tracking(model, t)
    hedge = gram.ss_solve(gram.sl @ value_function(vc, t, x).ce_gradient)

    recomposed = kf * kelly + (1.0 - kf) * bench_track - (1.0 - kf) * hedge
    scale = 1.0 + float(np.abs(allocation).max())
    if float(np.abs(recomposed - allocation).max()) > 1e-12 * scale:
        raise RepresentationMismatch(
            f"fractional-Kelly recomposition deviates from the optimal allocation at t={t:g}"
        )

    if theta == 0.0:
        tilt = np.zeros(model.d)
        nu = np.zeros(model.d)
    else:
        tilt = optimal_gamma(model, vc, t, x)
        nu = row[table.nu]

    regularized = kelly + gram.ss_solve(sigma @ tilt)
    if float(np.abs(allocation - regularized).max()) > 1e-12 * scale:
        raise RepresentationMismatch(
            f"regularized-Kelly identity violated at t={t:g}"
        )
    tilt_residual = tilt - nu + theta * (sigma.T @ allocation - block.bench_vol)
    if float(np.abs(tilt_residual).max()) > 1e-12 * (1.0 + float(np.abs(tilt).max())):
        raise RepresentationMismatch(
            f"tilt relation between the two routes violated at t={t:g}"
        )

    return PolicyAction(
        allocation=allocation,
        tilt=tilt,
        tilt_twostep=nu,
        kelly=kelly,
        bench_track=bench_track,
        hedge=hedge,
        kelly_fraction=kf,
    )
