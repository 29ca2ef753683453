"""Running payoffs, Hamiltonians, and numerical saddle-point verification.

The exponential criterion is equivalent to a two-player zero-sum game: the
investor picks the allocation h, an adversary picks a measure tilt gamma and
pays an entropy penalty |gamma|^2 / (2 theta).  The payoffs read the drift
ell and noise loading track of ln(V/L) from model._log_excess_terms, as the
simulator does: g = -ell - track . gamma - |gamma|^2 / (2 theta), and g1 =
-ell + theta/2 |track|^2, g at its maximizing tilt gamma = -theta track.
This module evaluates them, the inner Hamiltonian in both optimization
orders (their equality is the Isaacs condition), and probes the saddle
structure of the Bellman-Isaacs integrand around the candidate policies by
differences of the full bracket from its value at the candidates.

Every function reads theta from the model.  The payoffs, the twostep
Hamiltonian and the saddle check raise ConfigError on a Kelly-mode model
(theta == 0): it collapses the game to the plain growth-optimal problem,
and the order gap is identically zero.  saddle_check takes the candidate
pair and the value tilt from one policy.fractional_kelly evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SaddleViolation
from .model import ValidatedModel, _log_excess_terms, _rowdot
from .policy import fractional_kelly
from .valuefn import ValueCoefficients, value_function

SADDLE_RTOL = 1e-9


@dataclass(frozen=True)
class SaddleReport:
    center_value: float
    max_violation_h: float
    max_violation_gamma: float
    probe_count: int  # random probes per side; the Newton probe is not counted

    def passed(self) -> bool:
        tol = SADDLE_RTOL * (1.0 + abs(self.center_value))
        return self.max_violation_h <= tol and self.max_violation_gamma <= tol


def _require_positive_theta(model: ValidatedModel, who: str) -> None:
    if model.theta <= 0.0:
        raise ConfigError(
            f"{who} requires theta > 0 (Kelly mode has no game); got {model.theta}")


def _reward(model: ValidatedModel, s, x, h) -> tuple[np.ndarray, np.ndarray]:
    """ell and track of the benchmarked reward at time s."""
    return _log_excess_terms(model.coefficients(s), model.gram_blocks(s),
                             np.asarray(x, dtype=float), np.asarray(h, dtype=float))


def running_payoff_g(model: ValidatedModel, s, x, h, gamma) -> float | np.ndarray:
    """Game running payoff, quadratic in h, concave in gamma with entropy
    penalty; h and gamma may be stacks of rows, one row each gives a scalar."""
    _require_positive_theta(model, "running_payoff_g")
    ell, track = _reward(model, s, x, h)
    gamma = np.asarray(gamma, dtype=float)
    return -ell - _rowdot(track, gamma) - 0.5 / model.theta * _rowdot(gamma, gamma)


def running_payoff_g1(model: ValidatedModel, s, x, h) -> float | np.ndarray:
    """Transformed-measure running payoff, the game payoff at its maximizing
    tilt; h may be a stack of rows, one row gives a scalar."""
    _require_positive_theta(model, "running_payoff_g1")
    ell, track = _reward(model, s, x, h)
    return -ell + 0.5 * model.theta * _rowdot(track, track)


def twostep_hamiltonian(model: ValidatedModel, s, x, h, nu, p, M) -> float:
    """Inner expression of the transformed-measure Hamiltonian (sup over h,
    inf over nu).  Plugging nu = -theta Lambda' p turns the nu-part into the
    quadratic gradient term -theta/2 |Lambda' p|^2."""
    _require_positive_theta(model, "twostep_hamiltonian")
    theta = model.theta
    block = model.coefficients(s)
    gram = model.gram_blocks(s)
    x = np.asarray(x, dtype=float)
    nu = np.asarray(nu, dtype=float)
    p = np.asarray(p, dtype=float)
    _, track = _reward(model, s, x, h)
    drift = (
        block.factor_drift
        + block.factor_mean_reversion @ x
        - block.factor_vol @ (theta * track - nu)
    )
    return float(
        drift @ p
        + 0.5 * np.trace(gram.ll @ M)
        - running_payoff_g1(model, s, x, h)
        + 0.5 / theta * nu @ nu
    )


def bellman_isaacs_integrand(
    model: ValidatedModel,
    vc: ValueCoefficients,
    t: float,
    x: np.ndarray,
    h: np.ndarray,
    gamma: np.ndarray,
) -> float | np.ndarray:
    """Drift + diffusion + payoff bracket whose saddle point the candidate
    policies must realize.  h and gamma may be stacks of rows, evaluated at
    the one state x; one row each gives a scalar."""
    block = model.coefficients(t)
    gram = model.gram_blocks(t)
    theta = model.theta
    x = np.asarray(x, dtype=float)
    quad, _, _ = vc.at(t)
    grad = value_function(vc, t, x).gradient
    hess = -theta * quad
    drift = (block.factor_drift + block.factor_mean_reversion @ x
             + np.asarray(gamma, dtype=float) @ block.factor_vol.T)
    return (
        drift @ grad
        + 0.5 * np.trace(gram.ll @ hess)
        + theta * running_payoff_g(model, t, x, h, gamma)
    )


def _ball_samples(rng, count: int, dim: int, radius: float) -> np.ndarray:
    z = rng.standard_normal((count, dim))
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    radii = radius * rng.random(count) ** (1.0 / dim)
    return z / norms * radii[:, None]


def _within(step: np.ndarray, radius: float) -> np.ndarray:
    """The step, scaled down to the given length if it is longer."""
    norm = float(np.linalg.norm(step))
    return step * (radius / norm) if norm > radius else step


def saddle_check(
    model: ValidatedModel,
    vc: ValueCoefficients,
    t: float,
    x: np.ndarray,
    probes: int = 10_000,
    radius: float | None = None,
    seed: int = 0,
    h_center: np.ndarray | None = None,
) -> SaddleReport:
    """Probe the saddle inequalities around the candidate pair at (t, x).

    Perturbing the allocation away from the candidate must not decrease the
    bracket; perturbing the tilt must not increase it.  Perturbations are
    uniform in balls of the given radius (default 0.5*(1+|h|)), plus one
    exact probe per side, the Newton step of that side's quadratic (not in
    the report's probe_count, which counts the random ones).  Raises
    SaddleViolation when the worst violation exceeds
    SADDLE_RTOL*(1+|center|).  h_center overrides the allocation center (a
    non-candidate center must fail; used as a negative control).
    """
    _require_positive_theta(model, "saddle_check")
    x = np.asarray(x, dtype=float)
    block = model.coefficients(t)
    gram = model.gram_blocks(t)

    action = fractional_kelly(model, vc, t, x)
    h_hat = action.allocation if h_center is None else np.asarray(h_center, dtype=float)
    g_hat = action.tilt
    if radius is None:
        radius = 0.5 * (1.0 + float(np.linalg.norm(h_hat)))

    # Each side's last probe is the Newton step of its own quadratic from the
    # centre, -(theta SS')^-1 grad for h and grad for gamma (Hessian -I),
    # shortened to the radius: it finds a centre off the extremum where
    # random probes in many dimensions miss the descent side.
    rng = np.random.default_rng(seed)
    _, track = _reward(model, t, x, h_hat)
    a_vec = block.asset_drift + block.asset_factor_loading @ x
    newton_h = gram.ss_solve(a_vec + block.asset_vol @ g_hat) - h_hat
    newton_g = action.tilt_twostep - model.theta * track - g_hat
    dh = np.vstack([_ball_samples(rng, probes, model.m, radius), _within(newton_h, radius)])
    dg = np.vstack([_ball_samples(rng, probes, model.d, radius), _within(newton_g, radius)])

    # The bracket at [centre; probes] on each side, the other control at its
    # candidate: an h probe must not decrease it, a gamma probe not increase it.
    bi_h = bellman_isaacs_integrand(model, vc, t, x, np.vstack([h_hat, h_hat + dh]), g_hat)
    bi_g = bellman_isaacs_integrand(model, vc, t, x, h_hat, np.vstack([g_hat, g_hat + dg]))
    center = float(bi_h[0])
    viol_h = float(np.max(bi_h[0] - bi_h[1:], initial=0.0))
    viol_g = float(np.max(bi_g[1:] - bi_g[0], initial=0.0))

    report = SaddleReport(
        center_value=center,
        max_violation_h=viol_h,
        max_violation_gamma=viol_g,
        probe_count=probes,
    )
    if not report.passed():
        raise SaddleViolation(
            f"saddle violated at t={t:g}: h-side {viol_h:.3e}, tilt-side {viol_g:.3e} "
            f"against tolerance {SADDLE_RTOL * (1.0 + abs(center)):.3e}"
        )
    return report


def hamiltonians(
    model: ValidatedModel,
    vc: ValueCoefficients,
    t: float,
    x: np.ndarray,
) -> tuple[float, float]:
    """Closed-form inner Hamiltonian in both optimization orders.

    Order one resolves the tilt first and the allocation second; order two
    the reverse.  Their equality is the Isaacs condition.  At theta == 0 both
    reduce to the growth-optimal Hamiltonian and coincide exactly.
    """
    x = np.asarray(x, dtype=float)
    block = model.coefficients(t)
    gram = model.gram_blocks(t)
    theta = model.theta
    quad, _, _ = vc.at(t)
    ve = value_function(vc, t, x)
    drift = block.factor_drift + block.factor_mean_reversion @ x
    a_vec = block.asset_drift + block.asset_factor_loading @ x
    kelly = gram.ss_solve(a_vec)

    if theta == 0.0:
        kelly_value = float(
            drift @ ve.ce_gradient
            + 0.5 * np.trace(gram.ll @ quad)
            + 0.5 * a_vec @ kelly
            + 0.5 * gram.xi_xi
            - block.bench_drift
            - block.bench_factor_loading @ x
        )
        return kelly_value, kelly_value

    p = ve.gradient
    hess = -theta * quad
    proj = model.projection_matrices(t)
    lam_p = block.factor_vol.T @ p
    common = float(
        drift @ p
        + 0.5 * np.trace(gram.ll @ hess)
        + theta * (block.bench_drift + block.bench_factor_loading @ x)
        - 0.5 * theta * gram.xi_xi
    )

    abar = a_vec + theta * gram.s_xi
    ss_inv_abar = gram.ss_solve(abar)
    f_first = (
        -0.5 / (theta + 1.0) * float(abar @ ss_inv_abar)
        - 1.0 / (theta + 1.0) * float(ss_inv_abar @ (gram.sl @ p))
        + 0.5 * theta * gram.xi_xi
        + float(block.bench_vol @ lam_p)
        + 0.5 / theta * float(lam_p @ proj.pminus @ lam_p)
    )

    v = -theta * (block.asset_vol.T @ kelly) + theta * block.bench_vol + lam_p
    f_second = (
        0.5 / theta * float(v @ proj.pminus @ v)
        - 0.5 * float(a_vec @ kelly)
    )
    return common + theta * f_first, common + theta * f_second
