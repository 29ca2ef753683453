"""Running payoffs, Hamiltonians, and the exact saddle-point certificate.

The exponential criterion is equivalent to a two-player zero-sum game: the
investor picks the allocation h, an adversary picks a measure tilt gamma and
pays an entropy penalty |gamma|^2 / (2 theta).  The payoffs read the drift
ell and noise loading track of ln(V/L) from model._log_excess_terms, as the
simulator does: g = -ell - track . gamma - |gamma|^2 / (2 theta), and g1 =
-ell + theta/2 |track|^2, g at its maximizing tilt gamma = -theta track.
This module evaluates them, the inner Hamiltonian in both optimization
orders (their equality is the Isaacs condition), and certifies the saddle
structure of the Bellman-Isaacs integrand at the candidate policies from
the gradient and Hessian of the full bracket in each control.

Every function reads theta from the model, and those that take value
coefficients raise ConfigError on ones solved at another theta or
horizon (valuefn.check_solved_for).  The payoffs, the twostep
Hamiltonian and the saddle certificate raise ConfigError on a Kelly-mode
model (theta == 0): it collapses the game to the plain growth-optimal
problem, and the order gap is identically zero.  saddle_certificate
examines the policy.PolicyAction its caller passes and returns a
SaddleReport, whose passed() is the one verdict.  Each function that takes
value coefficients reads quad and lin from one vc.at and theta from the
model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import ValidatedModel, _log_excess_terms, _rowdot
from .valuefn import ValueCoefficients, check_solved_for

SADDLE_GRAD_TOL = 1e-10


@dataclass(frozen=True)
class SaddleReport:
    center_value: float
    grad_h: float  # radius * |gradient| / (1 + |center|), per control
    grad_gamma: float
    curvature_h: float  # least eigenvalue of the allocation's Hessian
    curvature_gamma: float  # largest eigenvalue of the tilt's Hessian

    def passed(self) -> bool:
        # a NaN gradient or curvature compares False and fails
        return (math.isfinite(self.center_value)
                and self.grad_h <= SADDLE_GRAD_TOL and self.grad_gamma <= SADDLE_GRAD_TOL
                and self.curvature_h > 0.0 and self.curvature_gamma < 0.0)


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
    check_solved_for(model, vc)
    block = model.coefficients(t)
    gram = model.gram_blocks(t)
    theta = model.theta
    x = np.asarray(x, dtype=float)
    quad, lin, _ = vc.at(t)
    grad = -theta * (quad @ x + lin)
    hess = -theta * quad
    drift = (block.factor_drift + block.factor_mean_reversion @ x
             + np.asarray(gamma, dtype=float) @ block.factor_vol.T)
    return (
        drift @ grad
        + 0.5 * np.trace(gram.ll @ hess)
        + theta * running_payoff_g(model, t, x, h, gamma)
    )


def _polarize(bracket, center: np.ndarray, radius: float):
    """Value, gradient and Hessian at center of a bracket quadratic in its
    one stacked argument, read from one call on the rows center,
    center +- radius e_i and center + radius (e_i + e_j), i < j: exact up
    to rounding, as the bracket has no terms above second order."""
    dim = center.size
    eye = np.eye(dim)
    i, j = np.triu_indices(dim, 1)
    values = bracket(center + radius * np.vstack([np.zeros(dim), eye, -eye, eye[i] + eye[j]]))
    value, plus, minus, pairs = np.split(values, [1, 1 + dim, 1 + 2 * dim])
    hess = np.diag(plus + minus - 2.0 * value)
    hess[i, j] = hess[j, i] = pairs - plus[i] - plus[j] + value
    return float(value[0]), (plus - minus) / (2.0 * radius), hess / radius**2


def _curvature(hess: np.ndarray, which: int) -> float:
    """An extreme eigenvalue of hess (0 the least, -1 the largest), NaN for
    a non-finite hess, on which eigvalsh can return numbers or raise."""
    return float(np.linalg.eigvalsh(hess)[which]) if np.isfinite(hess).all() else float("nan")


def saddle_certificate(
    model: ValidatedModel,
    vc: ValueCoefficients,
    t: float,
    x: np.ndarray,
    action,
) -> SaddleReport:
    """Certify the candidate pair at (t, x) as the saddle point of the
    Bellman-Isaacs bracket: the allocation and tilt of action, a
    policy.PolicyAction (the caller's fractional_kelly evaluation, or a
    moved one as a negative control).

    The bracket is quadratic in each control, so the pair is its saddle
    point exactly when both gradients vanish there, the allocation's
    Hessian is positive definite and the tilt's negative definite.  Each
    side's gradient and Hessian are polarized from one bracket call at the
    radius 0.5*(1+|h|), the other control at its candidate.
    """
    _require_positive_theta(model, "saddle_certificate")
    h_hat, g_hat = action.allocation, action.tilt
    radius = 0.5 * (1.0 + float(np.linalg.norm(h_hat)))
    center, grad_h, hess_h = _polarize(
        lambda h: bellman_isaacs_integrand(model, vc, t, x, h, g_hat), h_hat, radius)
    _, grad_g, hess_g = _polarize(
        lambda g: bellman_isaacs_integrand(model, vc, t, x, h_hat, g), g_hat, radius)
    scale = radius / (1.0 + abs(center))
    return SaddleReport(
        center_value=center,
        grad_h=scale * float(np.linalg.norm(grad_h)),
        grad_gamma=scale * float(np.linalg.norm(grad_g)),
        curvature_h=_curvature(hess_h, 0),
        curvature_gamma=_curvature(hess_g, -1),
    )


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
    check_solved_for(model, vc)
    x = np.asarray(x, dtype=float)
    block = model.coefficients(t)
    gram = model.gram_blocks(t)
    theta = model.theta
    quad, lin, _ = vc.at(t)
    ce_grad = quad @ x + lin
    drift = block.factor_drift + block.factor_mean_reversion @ x
    a_vec = block.asset_drift + block.asset_factor_loading @ x
    kelly = gram.ss_solve(a_vec)

    if theta == 0.0:
        kelly_value = float(
            drift @ ce_grad
            + 0.5 * np.trace(gram.ll @ quad)
            + 0.5 * a_vec @ kelly
            + 0.5 * gram.xi_xi
            - block.bench_drift
            - block.bench_factor_loading @ x
        )
        return kelly_value, kelly_value

    p = -theta * ce_grad
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
