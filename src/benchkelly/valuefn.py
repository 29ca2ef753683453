"""Backward ODE system for the quadratic value surface.

The optimal risk-sensitive certainty equivalent is quadratic in the factor
state,

    CE(t, x) = 1/2 x' quad_t x + lin_t' x + level_t,

and the log of the optimal exponential criterion is
u(t, x) = -theta * CE(t, x).  quad solves a matrix Riccati equation, lin a
linear ODE with quad in its coefficients, and level a scalar integral; all
three have zero terminal condition at the horizon and are integrated jointly
backward by classical fixed-step RK4 (quad symmetrized after every step so
asymmetry cannot drift).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BlowUp, EigenvalueViolation, TimeOutOfRange
from .model import ValidatedModel

BLOWUP_NORM = 1e12
PSD_SOLVE_TOL = -1e-8


@dataclass(frozen=True)
class ValueCoefficients:
    """Quadratic/linear/level coefficients on a uniform forward-ordered grid."""

    grid: np.ndarray    # (N+1,) ascending, grid[0] = 0, grid[-1] = horizon
    quad: np.ndarray    # (N+1, n, n) symmetric PSD
    lin: np.ndarray     # (N+1, n)
    level: np.ndarray   # (N+1,)
    theta: float
    solver_meta: dict

    @property
    def horizon(self) -> float:
        return float(self.grid[-1])

    def _locate(self, t: float) -> tuple[int, int, float]:
        """Bracketing node indices and interpolation weight for time t."""
        T = self.horizon
        if not (-1e-12 <= t <= T + max(1e-12 * T, 1e-15)):
            raise TimeOutOfRange(f"time {t:g} outside value grid [0, {T:g}]")
        t = min(max(t, 0.0), T)
        j = int(np.searchsorted(self.grid, t, side="right")) - 1
        j = min(max(j, 0), len(self.grid) - 2)
        dt = self.grid[j + 1] - self.grid[j]
        w = (t - self.grid[j]) / dt
        return j, j + 1, float(w)

    def at(self, t: float) -> tuple[np.ndarray, np.ndarray, float]:
        """(quad, lin, level) at time t, componentwise-linear between nodes."""
        j0, j1, w = self._locate(t)
        if w == 0.0:
            return self.quad[j0], self.lin[j0], float(self.level[j0])
        if w == 1.0:
            return self.quad[j1], self.lin[j1], float(self.level[j1])
        return (
            (1.0 - w) * self.quad[j0] + w * self.quad[j1],
            (1.0 - w) * self.lin[j0] + w * self.lin[j1],
            float((1.0 - w) * self.level[j0] + w * self.level[j1]),
        )


@dataclass(frozen=True)
class ValueEval:
    """Value surface at one (t, x) point.

    log_criterion = ln of the optimal exponential criterion (u);
    certainty_equivalent = the optimal risk-adjusted growth value (CE), with
    log_criterion = -theta * certainty_equivalent; gradient is the state
    gradient of log_criterion and ce_gradient that of certainty_equivalent.
    """

    log_criterion: float
    certainty_equivalent: float
    gradient: np.ndarray
    ce_gradient: np.ndarray


class _SegmentTerms:
    """Per-coefficient-segment matrices entering the backward derivatives."""

    def __init__(self, model: ValidatedModel, seg_start: float, theta: float):
        block = model.coefficients(seg_start)
        gram = model.gram_blocks(seg_start)
        proj = model.projection_matrices(seg_start, theta)
        f = 1.0 / (theta + 1.0)
        A = block.asset_factor_loading
        lam = block.factor_vol

        abar = block.asset_drift + theta * gram.s_xi
        ss_inv_A = gram.ss_solve(A)          # (m, n)
        ss_inv_abar = gram.ss_solve(abar)    # (m,)
        ss_inv_sl = gram.ss_solve(gram.sl)   # (m, n)

        self.curvature_mix = lam @ proj.pminus @ lam.T        # Lambda Pminus Lambda'
        self.lin_map = block.factor_mean_reversion.T - theta * f * (A.T @ ss_inv_sl)
        self.quad_source = f * (A.T @ ss_inv_A)
        self.lin_drift = (
            block.factor_drift
            - theta * f * (gram.sl.T @ ss_inv_abar)
            + theta * gram.l_xi
        )
        self.lin_source = -block.bench_factor_loading + f * (A.T @ ss_inv_abar)
        self.level_quad_trace = gram.ll
        self.level_const = (
            -0.5 * f * float(abar @ ss_inv_abar)
            + block.bench_drift
            + 0.5 * (theta - 1.0) * gram.xi_xi
        )
        self.theta = theta

    def derivative(self, quad, lin):
        """Backward-time derivatives (d/ds) of (quad, lin, level)."""
        th = self.theta
        mixed = quad @ self.curvature_mix
        d_quad = th * (mixed @ quad) - self.lin_map @ quad - quad @ self.lin_map.T - self.quad_source
        d_lin = -self.lin_map @ lin + th * (mixed @ lin) - quad @ self.lin_drift - self.lin_source
        d_level = (
            0.5 * th * float(lin @ self.curvature_mix @ lin)
            - float(self.lin_drift @ lin)
            - 0.5 * float(np.trace(self.level_quad_trace @ quad))
            + self.level_const
        )
        return d_quad, d_lin, d_level


def solve_value_coefficients(
    model: ValidatedModel,
    steps_per_year: int = 1008,
) -> ValueCoefficients:
    """Integrate the backward system from the zero terminal condition.

    Fixed-step classical RK4 on a uniform grid; the quadratic coefficient is
    symmetrized after every step.  Raises BlowUp when any node norm passes
    BLOWUP_NORM (parameters outside the well-posed regime) and
    EigenvalueViolation when positive semidefiniteness degrades below
    PSD_SOLVE_TOL, naming the first offending grid time.
    """
    T = model.horizon
    theta = model.theta
    n = model.n
    n_steps = max(1, round(steps_per_year * T))
    grid = np.linspace(0.0, T, n_steps + 1)
    step = T / n_steps

    quad = np.zeros((n_steps + 1, n, n))
    lin = np.zeros((n_steps + 1, n))
    level = np.zeros(n_steps + 1)

    terms_cache: dict[int, _SegmentTerms] = {}

    def terms_at(s: float) -> _SegmentTerms:
        s = min(max(s, 0.0), T)
        seg = model.segment_index(s)
        if seg not in terms_cache:
            terms_cache[seg] = _SegmentTerms(model, float(model.spec.coeffs.knots[seg]), theta)
        return terms_cache[seg]

    Q = np.zeros((n, n))
    q = np.zeros(n)
    k = 0.0
    h = -step  # backward in time
    for j in range(n_steps, 0, -1):
        s = grid[j]
        f1 = terms_at(s).derivative(Q, q)
        f2 = terms_at(s + 0.5 * h).derivative(Q + 0.5 * h * f1[0], q + 0.5 * h * f1[1])
        f3 = terms_at(s + 0.5 * h).derivative(Q + 0.5 * h * f2[0], q + 0.5 * h * f2[1])
        f4 = terms_at(s + h).derivative(Q + h * f3[0], q + h * f3[1])
        Q = Q + (h / 6.0) * (f1[0] + 2.0 * f2[0] + 2.0 * f3[0] + f4[0])
        q = q + (h / 6.0) * (f1[1] + 2.0 * f2[1] + 2.0 * f3[1] + f4[1])
        k = k + (h / 6.0) * (f1[2] + 2.0 * f2[2] + 2.0 * f3[2] + f4[2])
        Q = 0.5 * (Q + Q.T)
        node_norm = max(np.abs(Q).max(), np.abs(q).max() if n else 0.0, abs(k))
        if not np.isfinite(node_norm) or node_norm > BLOWUP_NORM:
            raise BlowUp(
                f"value coefficients exceeded {BLOWUP_NORM:g} at t={grid[j - 1]:g}; "
                "parameters appear outside the well-posed regime"
            )
        quad[j - 1] = Q
        lin[j - 1] = q
        level[j - 1] = k

    for j in range(n_steps + 1):
        min_eig = float(np.linalg.eigvalsh(quad[j])[0])
        if min_eig < PSD_SOLVE_TOL:
            raise EigenvalueViolation(
                f"quadratic coefficient lost positive semidefiniteness at t={grid[j]:g} "
                f"(min eigenvalue {min_eig:.3e})"
            )

    vc = ValueCoefficients(
        grid=grid, quad=quad, lin=lin, level=level, theta=theta,
        solver_meta={"steps_per_year": int(steps_per_year), "step": step},
    )
    # Post-solve diagnostic: worst centered-difference residuals on a node sample.
    sample = np.linspace(1, n_steps - 1, min(n_steps - 1, 257)).astype(int) if n_steps > 1 else []
    worst = (0.0, 0.0)
    worst_rel = (0.0, 0.0)
    for j in sample:
        r_quad, r_lin = riccati_residual(vc, model, float(grid[j]))
        worst = (max(worst[0], r_quad), max(worst[1], r_lin))
        r_quad, r_lin = riccati_residual(vc, model, float(grid[j]), relative=True)
        worst_rel = (max(worst_rel[0], r_quad), max(worst_rel[1], r_lin))
    vc.solver_meta["residual_quad"] = worst[0]
    vc.solver_meta["residual_lin"] = worst[1]
    vc.solver_meta["residual_quad_rel"] = worst_rel[0]
    vc.solver_meta["residual_lin_rel"] = worst_rel[1]
    return vc


def value_function(vc: ValueCoefficients, t: float, x: np.ndarray) -> ValueEval:
    """Evaluate the value surface and its gradient at (t, x)."""
    x = np.asarray(x, dtype=float)
    quad, lin, level = vc.at(t)
    ce = 0.5 * float(x @ quad @ x) + float(lin @ x) + level
    ce_grad = quad @ x + lin
    theta = vc.theta
    return ValueEval(
        log_criterion=-theta * ce,
        certainty_equivalent=ce,
        gradient=-theta * ce_grad,
        ce_gradient=ce_grad,
    )


def batch_ce_gradient(vc: ValueCoefficients, t: float, X: np.ndarray) -> np.ndarray:
    """Certainty-equivalent gradient at time t for each row of X (paths, n)."""
    quad, lin, _ = vc.at(t)
    # a contiguous copy: matmul against the transposed view is slower
    return X @ np.ascontiguousarray(quad.T) + lin


def riccati_residual(
    vc: ValueCoefficients, model: ValidatedModel, t: float,
    relative: bool = False,
) -> tuple[float, float]:
    """Max-norm defect of the quadratic and linear backward equations at the
    interior grid node nearest t, with the time derivative approximated by a
    centered difference of neighboring nodes.  Diagnostic only.

    The defect carries the O(step^2) truncation of the centered difference,
    which scales with the solution's derivatives; relative=True divides each
    defect by (1 + the derivative's own max-norm) so one tolerance works
    across models of very different magnitude.
    """
    grid = vc.grid
    if not (grid[0] < t < grid[-1]):
        raise TimeOutOfRange(f"residual needs an interior time, got {t:g}")
    j = int(np.argmin(np.abs(grid - t)))
    j = min(max(j, 1), len(grid) - 2)
    # keep the centered-difference stencil inside one coefficient segment
    seg = model.spec.coeffs.segment_index
    for _ in range(2):
        if seg(float(grid[j - 1])) != seg(float(grid[j + 1])):
            j = j + 1 if seg(float(grid[j])) == seg(float(grid[j + 1])) else j - 1
            j = min(max(j, 1), len(grid) - 2)
    dt = grid[j + 1] - grid[j - 1]
    dq_dt = (vc.quad[j + 1] - vc.quad[j - 1]) / dt
    dl_dt = (vc.lin[j + 1] - vc.lin[j - 1]) / dt
    terms = _SegmentTerms(model, float(grid[j]), vc.theta)
    expected = terms.derivative(vc.quad[j], vc.lin[j])
    res_quad = float(np.abs(dq_dt - expected[0]).max())
    res_lin = float(np.abs(dl_dt - expected[1]).max())
    if relative:
        res_quad /= 1.0 + float(np.abs(dq_dt).max())
        res_lin /= 1.0 + float(np.abs(dl_dt).max())
    return res_quad, res_lin


# ---------------------------------------------------------------------------
# Dump/load: JSON with the grid, per-node row-major flattened quad, lin and
# level arrays.  Python's shortest-repr float serialization makes the round
# trip lossless at full double precision.
# ---------------------------------------------------------------------------

def coefficients_to_dict(vc: ValueCoefficients) -> dict:
    n = vc.quad.shape[1]
    return {
        "grid": vc.grid.tolist(),
        "n": n,
        "theta": vc.theta,
        "quad": [node.reshape(-1).tolist() for node in vc.quad],
        "lin": vc.lin.tolist(),
        "level": vc.level.tolist(),
        "solver_meta": vc.solver_meta,
    }


def coefficients_from_dict(data: dict) -> ValueCoefficients:
    n = int(data["n"])
    grid = np.asarray(data["grid"], dtype=float)
    quad = np.asarray(data["quad"], dtype=float).reshape(len(grid), n, n)
    return ValueCoefficients(
        grid=grid,
        quad=quad,
        lin=np.asarray(data["lin"], dtype=float).reshape(len(grid), n),
        level=np.asarray(data["level"], dtype=float),
        theta=float(data["theta"]),
        solver_meta=dict(data.get("solver_meta", {})),
    )


def save_coefficients(vc: ValueCoefficients, path: str | Path) -> None:
    Path(path).write_text(json.dumps(coefficients_to_dict(vc), sort_keys=True) + "\n")


def load_coefficients(path: str | Path) -> ValueCoefficients:
    return coefficients_from_dict(json.loads(Path(path).read_text()))
