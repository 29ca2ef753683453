"""Backward ODE system for the quadratic value surface.

The optimal risk-sensitive certainty equivalent is quadratic in the factor
state,

    CE(t, x) = 1/2 x' quad_t x + lin_t' x + level_t,

and the log of the optimal exponential criterion is
u(t, x) = -theta * CE(t, x).  quad solves a matrix Riccati equation, lin a
linear ODE with quad in its coefficients, and level a scalar integral; all
three have zero terminal condition at the horizon.

quad and lin are the blocks of one (n+1)-dimensional Riccati matrix
P = [[quad, lin], [lin', r]].  On a constant-coefficient segment P = Y X^-1
exactly, where [X; Y] follows a linear Hamiltonian flow (Radon's lemma), so
the solver advances P node to node with the flow's matrix exponential,
restarting from X = I at every step (the modified Davison-Maki recurrence;
Davison & Maki, IEEE TAC 18(1), 1973; Kenney & Leipnik, IEEE TAC 30(10),
1985).  The grid is refined at every knot, so each step lies in one
segment and one exponential serves every step of a given length in it; quad
and lin are exact on any grid up to rounding.  The level is r/2, minus the
constant source times the time to go, plus half the integral of tr(ll quad);
that integral is taken by the corrected-trapezoid (Hermite) rule, whose error
is O(step^4).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.linalg import expm
from scipy.linalg.lapack import dgesv

from .errors import BlowUp, EigenvalueViolation, TimeOutOfRange
from .model import ValidatedModel

BLOWUP_NORM = 1e12
PSD_SOLVE_TOL = -1e-8
TRACE_CHUNK = 512


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

    def quad_rate(self, quad):
        """Time derivative of quad, for one matrix or a stack (k, n, n)."""
        mixed = quad @ self.curvature_mix
        return (self.theta * (mixed @ quad) - self.lin_map @ quad - quad @ self.lin_map.T
                - self.quad_source)

    def derivative(self, quad, lin):
        """Backward-time derivatives (d/ds) of (quad, lin, level)."""
        th = self.theta
        d_quad = self.quad_rate(quad)
        d_lin = (-self.lin_map @ lin + th * (quad @ self.curvature_mix @ lin)
                 - quad @ self.lin_drift - self.lin_source)
        d_level = (
            0.5 * th * float(lin @ self.curvature_mix @ lin)
            - float(self.lin_drift @ lin)
            - 0.5 * float(np.trace(self.level_quad_trace @ quad))
            + self.level_const
        )
        return d_quad, d_lin, d_level

    def level_trace(self, quad):
        """tr(ll quad) and its time derivative, for each matrix of a stack (k, n, n)."""
        ll = self.level_quad_trace
        return (np.einsum("ij,kji->k", ll, quad),
                np.einsum("ij,kji->k", ll, self.quad_rate(quad)))

    def hamiltonian(self) -> np.ndarray:
        """Generator Ham of the linear flow d[X; Y]/dt = Ham [X; Y] whose
        Radon quotient Y X^-1 solves the augmented Riccati equation of
        P = [[quad, lin], [lin', r]]; r/2 is the part of the level that is
        quadratic in lin, and r feeds back into neither quad nor lin."""
        n = self.lin_map.shape[0]
        lin_map = np.zeros((n + 1, n + 1))
        lin_map[:n, :n] = self.lin_map
        lin_map[n, :n] = self.lin_drift
        mix = np.zeros((n + 1, n + 1))
        mix[:n, :n] = self.curvature_mix
        source = np.zeros((n + 1, n + 1))
        source[:n, :n] = self.quad_source
        source[:n, n] = source[n, :n] = self.lin_source
        return np.block([[lin_map.T, -self.theta * mix], [-source, -lin_map]])


def _step_increment(ham: np.ndarray, tau: float) -> np.ndarray:
    """expm(-tau Ham) - I, taken as A phi_1(A) with A = -tau Ham from the
    phi_1 block of one exponential, so no digits cancel against I."""
    k = ham.shape[0]
    aug = np.zeros((2 * k, 2 * k))
    aug[:k, :k] = -tau * ham
    aug[:k, k:] = np.eye(k)
    return aug[:k, :k] @ expm(aug)[:k, k:]


def _hermite(h, g, dg):
    """Corrected-trapezoid integrals over consecutive node pairs of values g
    and time derivatives dg, for step lengths h; exact for cubics."""
    return 0.5 * h * (g[:-1] + g[1:]) + (h * h / 12.0) * (dg[:-1] - dg[1:])


def _blowup(t: float) -> BlowUp:
    return BlowUp(
        f"value coefficients exceeded {BLOWUP_NORM:g} at t={t:g}; "
        "parameters appear outside the well-posed regime"
    )


def solve_value_coefficients(
    model: ValidatedModel,
    steps_per_year: int = 1008,
) -> ValueCoefficients:
    """Propagate the backward system from the zero terminal condition.

    Exact segment flows node to node on a uniform grid refined at every knot
    (see the module docstring); the augmented Riccati matrix is symmetrized
    after every step.
    Raises BlowUp when any node norm passes BLOWUP_NORM or a step's flow
    becomes singular (parameters outside the well-posed regime) and
    EigenvalueViolation when positive semidefiniteness degrades below
    PSD_SOLVE_TOL, naming the first offending grid time.
    """
    T = model.horizon
    theta = model.theta
    n = model.n
    n_steps = max(1, round(steps_per_year * T))
    grid = np.linspace(0.0, T, n_steps + 1)
    step = T / n_steps

    # the grid refined at every knot: piece p spans [times[p], times[p + 1]]
    # inside segment segs[p], and each segment's pieces are contiguous
    knots = model.spec.coeffs.knots
    times = np.union1d(grid, knots[knots < T])
    taus = np.diff(times)
    segs = np.searchsorted(knots, times[:-1], side="right") - 1
    terms = {seg: _SegmentTerms(model, float(knots[seg]), theta)
             for seg in np.unique(segs).tolist()}

    quad = np.zeros((len(times), n, n))
    lin = np.zeros((len(times), n))
    level = np.zeros(len(times))
    increments: dict[tuple[int, float], tuple[np.ndarray, np.ndarray]] = {}
    k = n + 1
    eye = np.eye(k)
    P = np.zeros((k, k))
    for p, seg, tau in zip(range(len(taus) - 1, -1, -1), segs[::-1].tolist(),
                           taus[::-1].tolist()):
        # P one piece earlier: P + (dY - P dX)(I + dX)^-1 with
        # [dX; dY] = (expm(-tau Ham) - I) [I; P]
        if (seg, tau) not in increments:
            delta = _step_increment(terms[seg].hamiltonian(), tau)
            increments[seg, tau] = (delta[:, :k].copy(), delta[:, k:].copy())
        on_eye, on_p = increments[seg, tau]
        moved = on_eye + on_p @ P
        dX, dY = moved[:k], moved[k:]
        # LAPACK's driver directly: np.linalg.solve's call overhead alone costs
        # more than this small solve
        _, _, step_t, info = dgesv((eye + dX).T, (dY - P @ dX).T)
        if info:
            raise _blowup(float(times[p]))
        P = P + step_t.T
        P = 0.5 * (P + P.T)
        if not np.abs(P).max() <= BLOWUP_NORM:  # also catches NaN
            raise _blowup(float(times[p]))
        quad[p] = P[:n, :n]
        lin[p] = P[:n, n]
        level[p] = 0.5 * P[n, n]

    # per piece, half the integral of tr(ll quad) minus that of the constant source
    parts = np.empty(len(taus))
    for seg, seg_terms in terms.items():
        lo, hi = np.searchsorted(segs, (seg, seg + 1)).tolist()
        # chunks bound the (chunk, n, n) temporaries of the quad rate
        for a in range(lo, hi, TRACE_CHUNK):
            b = min(a + TRACE_CHUNK, hi)
            g, dg = seg_terms.level_trace(quad[a:b + 1])
            parts[a:b] = (0.5 * _hermite(taus[a:b], g, dg)
                          - seg_terms.level_const * taus[a:b])
    level[:-1] += np.cumsum(parts[::-1])[::-1]
    if len(times) > len(grid):
        nodes = np.searchsorted(times, grid)
        quad, lin, level = quad[nodes], lin[nodes], level[nodes]
    beyond = np.flatnonzero(~(np.abs(level) <= BLOWUP_NORM))
    if beyond.size:
        raise _blowup(float(grid[beyond[-1]]))

    min_eigs = np.linalg.eigvalsh(quad)[:, 0]
    lost = np.flatnonzero(min_eigs < PSD_SOLVE_TOL)
    if lost.size:
        j = lost[0]
        raise EigenvalueViolation(
            f"quadratic coefficient lost positive semidefiniteness at t={grid[j]:g} "
            f"(min eigenvalue {min_eigs[j]:.3e})"
        )

    vc = ValueCoefficients(
        grid=grid, quad=quad, lin=lin, level=level, theta=theta,
        solver_meta={"steps_per_year": int(steps_per_year), "step": step,
                     "min_eigenvalue": float(min_eigs.min())},
    )
    # Post-solve diagnostic: worst centered-difference residuals on a node sample.
    sample = np.linspace(1, n_steps - 1, min(n_steps - 1, 257)).astype(int) if n_steps > 1 else []
    worst = riccati_residual(vc, model, grid[sample])
    for name, value in worst._asdict().items():
        vc.solver_meta[f"residual_{name}"] = value
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


class Residual(NamedTuple):
    """Max-norm defects of the quadratic and linear backward equations, raw
    and divided by (1 + the max-norm of the time derivative)."""

    quad: float
    lin: float
    quad_rel: float
    lin_rel: float


def riccati_residual(vc: ValueCoefficients, model: ValidatedModel, times) -> Residual:
    """Worst defects of the quadratic and linear backward equations over one
    time or a sequence of times (each field maximized; 0 for none), each at
    the interior grid node nearest it, with the time derivative approximated
    by a centered difference of neighboring nodes.  Diagnostic only.

    The defect carries the O(step^2) truncation of the centered difference,
    which scales with the solution's derivatives; the relative defects are
    scaled by the derivative so one tolerance works across models of very
    different magnitude.
    """
    grid = vc.grid
    times = np.atleast_1d(np.asarray(times, dtype=float)).tolist()
    for t in times:
        if not (grid[0] < t < grid[-1]):
            raise TimeOutOfRange(f"residual needs an interior time, got {t:g}")
    # per node, the segment of the interval starting there and of the one
    # ending there; they differ only at a knot, so a knot at or after the
    # horizon changes nothing
    knots = model.spec.coeffs.knots
    starting = np.searchsorted(knots, grid, side="right") - 1
    ending = np.maximum(np.searchsorted(knots, grid, side="left") - 1, 0)
    terms: dict[int, _SegmentTerms] = {}
    worst = Residual(0.0, 0.0, 0.0, 0.0)
    for t in times:
        j = int(np.argmin(np.abs(grid - t)))
        j = min(max(j, 1), len(grid) - 2)
        # keep the centered-difference stencil inside one coefficient segment:
        # no knot strictly between its end nodes
        for _ in range(2):
            if starting[j - 1] != ending[j + 1]:
                j = j + 1 if starting[j] == ending[j + 1] else j - 1
                j = min(max(j, 1), len(grid) - 2)
        dt = grid[j + 1] - grid[j - 1]
        dq_dt = (vc.quad[j + 1] - vc.quad[j - 1]) / dt
        dl_dt = (vc.lin[j + 1] - vc.lin[j - 1]) / dt
        seg = int(starting[j])
        if seg not in terms:
            terms[seg] = _SegmentTerms(model, float(grid[j]), vc.theta)
        expected = terms[seg].derivative(vc.quad[j], vc.lin[j])
        res_quad = float(np.abs(dq_dt - expected[0]).max())
        res_lin = float(np.abs(dl_dt - expected[1]).max())
        worst = Residual(*map(max, worst, (
            res_quad, res_lin, res_quad / (1.0 + float(np.abs(dq_dt).max())),
            res_lin / (1.0 + float(np.abs(dl_dt).max())))))
    return worst


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
