"""Running payoffs, Hamiltonians, and numerical saddle-point verification.

The exponential criterion is equivalent to a two-player zero-sum game: the
investor picks the allocation h, an adversary picks a measure tilt gamma and
pays an entropy penalty |gamma|^2 / (2 theta).  This module evaluates the
game's running payoff, the inner Hamiltonian in both optimization orders
(their equality is the Isaacs condition), and probes the saddle structure of
the Bellman-Isaacs integrand around the candidate policies with random
perturbations.

All checks require theta > 0; theta == 0 collapses the game to the plain
growth-optimal problem and the order gap is identically zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SaddleViolation
from .model import ValidatedModel
from .policy import gain_table, optimal_gamma
from .valuefn import ValueCoefficients, value_function

SADDLE_RTOL = 1e-9


@dataclass(frozen=True)
class SaddleReport:
    center_value: float
    max_violation_h: float
    max_violation_gamma: float
    probe_count: int

    def passed(self, rtol: float = SADDLE_RTOL) -> bool:
        tol = rtol * (1.0 + abs(self.center_value))
        return self.max_violation_h <= tol and self.max_violation_gamma <= tol


def _require_positive_theta(theta: float, who: str) -> None:
    if theta <= 0.0:
        raise ValueError(f"{who} requires theta > 0 (Kelly mode has no game); got {theta}")


def running_payoff_g(model: ValidatedModel, theta, s, x, h, gamma) -> float:
    """Game running payoff: quadratic in h, concave in gamma with entropy penalty."""
    _require_positive_theta(theta, "running_payoff_g")
    block = model.coefficients(s)
    gram = model.gram_blocks(s)
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    return float(
        0.5 * h @ gram.ss @ h
        - h @ block.asset_drift
        - 0.5 * gram.xi_xi
        + block.bench_drift
        - (h @ block.asset_vol - block.bench_vol) @ gamma
        - (h @ block.asset_factor_loading - block.bench_factor_loading) @ x
        - 0.5 / theta * gamma @ gamma
    )


def running_payoff_g1(model: ValidatedModel, theta, s, x, h) -> float:
    """Transformed-measure running payoff (tilt already optimized out of the
    exponential martingale term)."""
    _require_positive_theta(theta, "running_payoff_g1")
    block = model.coefficients(s)
    gram = model.gram_blocks(s)
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    return float(
        0.5 * (theta + 1.0) * h @ gram.ss @ h
        - h @ (block.asset_drift + block.asset_factor_loading @ x)
        - theta * h @ gram.s_xi
        + block.bench_drift
        + block.bench_factor_loading @ x
        + 0.5 * (theta - 1.0) * gram.xi_xi
    )


def hamiltonian_F(model: ValidatedModel, theta, s, x, h, gamma, p) -> float:
    """Control-dependent part of the Bellman-Isaacs Hamiltonian (scaled by theta)."""
    _require_positive_theta(theta, "hamiltonian_F")
    block = model.coefficients(s)
    gram = model.gram_blocks(s)
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    p = np.asarray(p, dtype=float)
    return float(
        0.5 * h @ gram.ss @ h
        - h @ (block.asset_drift + block.asset_factor_loading @ x)
        - 0.5 / theta * gamma @ gamma
        - gamma @ (block.asset_vol.T @ h - block.bench_vol)
        + (1.0 / theta) * gamma @ (block.factor_vol.T @ p)
    )


def twostep_hamiltonian(model: ValidatedModel, theta, s, x, h, nu, p, M) -> float:
    """Inner expression of the transformed-measure Hamiltonian (sup over h,
    inf over nu).  Plugging nu = -theta Lambda' p turns the nu-part into the
    quadratic gradient term -theta/2 |Lambda' p|^2."""
    _require_positive_theta(theta, "twostep_hamiltonian")
    block = model.coefficients(s)
    gram = model.gram_blocks(s)
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    nu = np.asarray(nu, dtype=float)
    p = np.asarray(p, dtype=float)
    drift = (
        block.factor_drift
        + block.factor_mean_reversion @ x
        - block.factor_vol @ (theta * (block.asset_vol.T @ h - block.bench_vol) - nu)
    )
    return float(
        drift @ p
        + 0.5 * np.trace(gram.ll @ M)
        - running_payoff_g1(model, theta, s, x, h)
        + 0.5 / theta * nu @ nu
    )


def bellman_isaacs_integrand(
    model: ValidatedModel,
    vc: ValueCoefficients,
    t: float,
    x: np.ndarray,
    h: np.ndarray,
    gamma: np.ndarray,
) -> float:
    """Drift + diffusion + payoff bracket whose saddle point the candidate
    policies must realize."""
    block = model.coefficients(t)
    gram = model.gram_blocks(t)
    theta = model.theta
    x = np.asarray(x, dtype=float)
    quad, _, _ = vc.at(t)
    grad = value_function(vc, t, x).gradient
    hess = -theta * quad
    drift = block.factor_drift + block.factor_mean_reversion @ x + block.factor_vol @ np.asarray(gamma, dtype=float)
    return float(
        drift @ grad
        + 0.5 * np.trace(gram.ll @ hess)
        + theta * running_payoff_g(model, theta, t, x, h, gamma)
    )


def _ball_samples(rng, count: int, dim: int, radius: float) -> np.ndarray:
    z = rng.standard_normal((count, dim))
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    radii = radius * rng.random(count) ** (1.0 / dim)
    return z / norms * radii[:, None]


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
    uniform in balls of the given radius (default 0.5*(1+|h|)).  Raises
    SaddleViolation when the worst violation exceeds
    SADDLE_RTOL*(1+|center|).  h_center overrides the allocation center (a
    non-candidate center must fail; used as a negative control).
    """
    _require_positive_theta(model.theta, "saddle_check")
    x = np.asarray(x, dtype=float)
    block = model.coefficients(t)
    gram = model.gram_blocks(t)
    theta = model.theta

    table = gain_table(model, vc, [t])
    controls = table.controls(0, x[None, :])[0]
    h_hat = np.asarray(h_center, dtype=float) if h_center is not None \
        else controls[table.h]
    g_hat = optimal_gamma(model, vc, t, x)
    center = bellman_isaacs_integrand(model, vc, t, x, h_hat, g_hat)
    if radius is None:
        radius = 0.5 * (1.0 + float(np.linalg.norm(h_hat)))

    rng = np.random.default_rng(seed)
    dh = _ball_samples(rng, probes, model.m, radius)
    dg = _ball_samples(rng, probes, model.d, radius)

    # Vectorized bracket differences; only control-dependent payoff terms move.
    a_vec = block.asset_drift + block.asset_factor_loading @ x

    # h perturbation at fixed candidate tilt: delta_BI must be >= 0.
    H = h_hat + dh
    quad_term = 0.5 * np.einsum("ij,jk,ik->i", H, gram.ss, H)
    bi_h = theta * (quad_term - H @ a_vec - (H @ block.asset_vol) @ g_hat)
    center_h = theta * (
        0.5 * h_hat @ gram.ss @ h_hat - h_hat @ a_vec - (h_hat @ block.asset_vol) @ g_hat
    )
    viol_h = float(np.max(center_h - bi_h, initial=0.0))

    # gamma perturbation at fixed candidate allocation: delta_BI must be <= 0.
    G = g_hat + dg
    lam_grad = controls[table.value_tilt]
    track = h_hat @ block.asset_vol - block.bench_vol
    bi_g = G @ lam_grad - theta * (G @ track) - 0.5 * np.einsum("ij,ij->i", G, G)
    center_g = float(
        g_hat @ lam_grad - theta * (g_hat @ track) - 0.5 * g_hat @ g_hat
    )
    viol_g = float(np.max(bi_g - center_g, initial=0.0))

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
    proj = model.projection_matrices(t, theta)
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
