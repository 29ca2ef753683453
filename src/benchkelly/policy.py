"""Optimal feedback policies and portfolio decompositions.

All policies are affine in the factor state.  The optimal allocation is
computed by two provably equivalent routes:

* "direct": from the gradient of the log exponential criterion,
  h = 1/(theta+1) (SS')^{-1} (a + A x + theta S Xi + S L' Du);
* "twostep": from the gradient of the certainty-equivalent surface,
  h = 1/(theta+1) (SS')^{-1} (a + A x + theta S Xi - theta S L' DCE).

The allocation, the Kelly term, the adverse tilt gamma and the
transformed-measure tilt nu have one source, the batch evaluators batch_*
that simulate_paths calls once per step; optimal_h, optimal_gamma,
optimal_nu and fractional_kelly are one-row calls of them.  Their runtime
cross-checks therefore guard the simulator's arithmetic, against references
that stay independent of it: optimal_gamma's projected closed form
P- Lambda' Du - theta/(theta+1) Sigma' kelly + theta P- Xi, and
fractional_kelly's recomposition from the Kelly, benchmark-tracking and
hedging portfolios, its regularized-Kelly identity and the tilt relation
between the two routes.

theta == 0 is the exact Kelly branch: the allocation is (SS')^{-1}(a + A x)
with no value-gradient correction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RepresentationMismatch
from .model import ValidatedModel
from .valuefn import ValueCoefficients, batch_ce_gradient

CROSS_CHECK_TOL = 1e-10
ROUTES = ("direct", "twostep")


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


def _row(x) -> np.ndarray:
    """One factor state as a one-row batch."""
    return np.asarray(x, dtype=float)[None, :]


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
    X = _row(x)
    return batch_allocation(model, t, X, batch_ce_gradient(vc, t, X), route)[0]


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
    X = _row(x)
    block = model.coefficients(t)
    theta = model.theta
    ce_grad = batch_ce_gradient(vc, t, X)
    value_tilt = batch_value_tilt(model, t, ce_grad)
    H = batch_allocation(model, t, X, ce_grad)
    form1 = batch_gamma(model, value_tilt, batch_tracking(model, t, H))[0]

    proj = model.projection_matrices(t, theta)
    form2 = (
        proj.pminus @ value_tilt[0]
        - (theta / (theta + 1.0)) * (block.asset_vol.T @ batch_kelly(model, t, X)[0])
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
    return batch_nu(model, t, batch_ce_gradient(vc, t, _row(x)))[0]


def fractional_kelly(
    model: ValidatedModel,
    vc: ValueCoefficients,
    t: float,
    x: np.ndarray,
) -> PolicyAction:
    """Full policy decomposition at (t, x) with all identity checks enforced."""
    X = _row(x)
    block = model.coefficients(t)
    gram = model.gram_blocks(t)
    theta = model.theta
    sigma = block.asset_vol
    kf = 1.0 / (theta + 1.0)

    ce_grad = batch_ce_gradient(vc, t, X)[0]
    kelly = batch_kelly(model, t, X)[0]
    bench_track = benchmark_tracking(model, t)
    hedge = gram.ss_solve(gram.sl @ ce_grad)
    allocation = kf * kelly + (1.0 - kf) * bench_track - (1.0 - kf) * hedge

    h_ref = optimal_h(model, vc, t, x)
    scale = 1.0 + float(np.abs(h_ref).max())
    if float(np.abs(allocation - h_ref).max()) > 1e-12 * scale:
        raise RepresentationMismatch(
            f"fractional-Kelly recomposition deviates from the optimal allocation at t={t:g}"
        )

    if theta == 0.0:
        tilt = np.zeros(model.d)
        nu = np.zeros(model.d)
    else:
        tilt = optimal_gamma(model, vc, t, x)
        nu = optimal_nu(model, vc, t, x)

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


# ---------------------------------------------------------------------------
# Batch evaluators over a state matrix X of shape (paths, n); simulate_paths
# and the point evaluators above take every allocation and tilt from here.
# The value gradient enters as ce_grad (valuefn.batch_ce_gradient),
# evaluated once per step by the caller.
# Transposed factors are contiguous copies: matmul against a transposed view
# of these small matrices takes a slower BLAS path.
# ---------------------------------------------------------------------------

def batch_kelly(model: ValidatedModel, t: float, X: np.ndarray) -> np.ndarray:
    block = model.coefficients(t)
    gram = model.gram_blocks(t)
    rhs = block.asset_drift + X @ np.ascontiguousarray(block.asset_factor_loading.T)
    return gram.ss_solve(rhs.T).T


def batch_allocation(
    model: ValidatedModel,
    t: float,
    X: np.ndarray,
    ce_grad: np.ndarray,
    route: str = "direct",
) -> np.ndarray:
    block = model.coefficients(t)
    gram = model.gram_blocks(t)
    theta = model.theta
    if theta == 0.0:
        return batch_kelly(model, t, X)
    sl_t = np.ascontiguousarray(gram.sl.T)
    if route == "direct":
        correction = (-theta * ce_grad) @ sl_t
    elif route == "twostep":
        correction = -theta * (ce_grad @ sl_t)
    else:
        raise ValueError(f"unknown route '{route}'")
    afl_t = np.ascontiguousarray(block.asset_factor_loading.T)
    rhs = block.asset_drift + X @ afl_t + theta * gram.s_xi + correction
    return gram.ss_solve(rhs.T).T / (theta + 1.0)


def batch_tracking(model: ValidatedModel, t: float, H: np.ndarray) -> np.ndarray:
    """Tracking error Sigma' h - Xi of each allocation row of H."""
    block = model.coefficients(t)
    return H @ block.asset_vol - block.bench_vol


def batch_value_tilt(model: ValidatedModel, t: float, ce_grad: np.ndarray) -> np.ndarray:
    """Lambda' Du along a batch: the value-gradient part of the adverse tilt,
    which is also the tilt of the link density between the two measures."""
    return (-model.theta * ce_grad) @ model.coefficients(t).factor_vol


def batch_gamma(model: ValidatedModel, value_tilt: np.ndarray, track: np.ndarray) -> np.ndarray:
    """Adverse tilt along a batch from its two parts, batch_value_tilt and
    batch_tracking, which a caller has at hand once per step."""
    return value_tilt - model.theta * track


def batch_nu(model: ValidatedModel, t: float, ce_grad: np.ndarray) -> np.ndarray:
    """Transformed-measure tilt along a batch: -theta Lambda' DCE."""
    return -model.theta * (ce_grad @ model.coefficients(t).factor_vol)
