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
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.linalg import expm
from scipy.linalg.lapack import dgesv

from .errors import (BlowUp, ConfigError, EigenvalueViolation, ParseError,
                     TimeOutOfRange)
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

    def at_times(self, times) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(quad, lin, level) at each time, shapes (k, n, n), (k, n), (k,):
        componentwise-linear between nodes, bit for bit a node's own at one."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        T = self.horizon
        outside = ~((-1e-12 <= times) & (times <= T + max(1e-12 * T, 1e-15)))
        if outside.any():
            raise TimeOutOfRange(f"time {times[outside][0]:g} outside value grid [0, {T:g}]")
        t = np.clip(times, 0.0, T)
        j = np.clip(np.searchsorted(self.grid, t, side="right") - 1, 0, len(self.grid) - 2)
        w = (t - self.grid[j]) / (self.grid[j + 1] - self.grid[j])
        # a node brackets itself alone, so no 0 * x flips the sign of a zero
        j0, j1 = j + (w == 1.0), j + (w > 0.0)
        return (
            (1.0 - w)[:, None, None] * self.quad[j0] + w[:, None, None] * self.quad[j1],
            (1.0 - w)[:, None] * self.lin[j0] + w[:, None] * self.lin[j1],
            (1.0 - w) * self.level[j0] + w * self.level[j1],
        )

    def at(self, t: float) -> tuple[np.ndarray, np.ndarray, float]:
        """(quad, lin, level) at time t: the one-row case of at_times."""
        quad, lin, level = self.at_times(t)
        return quad[0], lin[0], float(level[0])


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

    def __init__(self, model: ValidatedModel, seg_start: float):
        theta = model.theta
        block = model.coefficients(seg_start)
        gram = model.gram_blocks(seg_start)
        proj = model.projection_matrices(seg_start)
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
        """Time derivatives d/dt of (quad, lin, level), forward in t (the
        centered differences of riccati_residual take them so)."""
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
    terms = {seg: _SegmentTerms(model, float(knots[seg]))
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
    worst = riccati_residual(model, vc, grid[sample])
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


class Residual(NamedTuple):
    """Max-norm defects of the quadratic and linear backward equations, raw
    and divided by (1 + the max-norm of the time derivative)."""

    quad: float
    lin: float
    quad_rel: float
    lin_rel: float


def centered_rates(model: ValidatedModel, vc: ValueCoefficients, times):
    """Centered differences of the time derivatives of (quad, lin, level) at
    the interior node nearest each of one time or a sequence of times, moved
    so its stencil lies in one coefficient segment; returns the nodes and
    the three derivatives, shapes (k,), (k, n, n), (k, n), (k,)."""
    grid = vc.grid
    times = np.atleast_1d(np.asarray(times, dtype=float))
    outside = times[~((grid[0] < times) & (times < grid[-1]))]
    if outside.size:
        raise TimeOutOfRange(f"residual needs an interior time, got {outside[0]:g}")
    # per node, the segment of the interval starting there and of the one
    # ending there; they differ only at a knot, so a knot at or after the
    # horizon changes nothing
    knots = model.spec.coeffs.knots
    starting = np.searchsorted(knots, grid, side="right") - 1
    ending = np.maximum(np.searchsorted(knots, grid, side="left") - 1, 0)
    # the nearest node, the earlier of two equally near
    after = np.searchsorted(grid, times)
    j = np.clip(after - (times - grid[after - 1] <= grid[after] - times), 1, len(grid) - 2)
    # no knot strictly between the stencil's end nodes
    for _ in range(2):
        moved = j + np.where(starting[j] == ending[j + 1], 1, -1)
        j = np.clip(np.where(starting[j - 1] != ending[j + 1], moved, j), 1, len(grid) - 2)
    dt = grid[j + 1] - grid[j - 1]
    return (j,
            (vc.quad[j + 1] - vc.quad[j - 1]) / dt[:, None, None],
            (vc.lin[j + 1] - vc.lin[j - 1]) / dt[:, None],
            (vc.level[j + 1] - vc.level[j - 1]) / dt)


def riccati_residual(model: ValidatedModel, vc: ValueCoefficients, times) -> Residual:
    """Worst defects of the model's quadratic and linear backward equations,
    at the model's theta whatever theta vc was solved for, over one
    time or a sequence of times (each field maximized; 0 for none), at the
    nodes and by the centered differences of centered_rates.  Diagnostic
    only.  The relative defects are divided by (1 + the derivative): the
    defect carries the centered difference's O(step^2) truncation, which
    scales with it, so one tolerance serves models of any magnitude."""
    nodes, d_quad, d_lin, _ = centered_rates(model, vc, times)
    segs = np.searchsorted(model.spec.coeffs.knots, vc.grid[nodes], side="right") - 1
    terms: dict[int, _SegmentTerms] = {}
    worst = Residual(0.0, 0.0, 0.0, 0.0)
    for j, seg, dq_dt, dl_dt in zip(nodes.tolist(), segs.tolist(), d_quad, d_lin):
        if seg not in terms:
            terms[seg] = _SegmentTerms(model, float(vc.grid[j]))
        expected = terms[seg].derivative(vc.quad[j], vc.lin[j])
        res_quad = float(np.abs(dq_dt - expected[0]).max())
        res_lin = float(np.abs(dl_dt - expected[1]).max())
        worst = Residual(*map(max, worst, (
            res_quad, res_lin, res_quad / (1.0 + float(np.abs(dq_dt).max())),
            res_lin / (1.0 + float(np.abs(dl_dt).max())))))
    return worst


# ---------------------------------------------------------------------------
# Dump/load: a little-endian binary file.  The magic "BKVALUE1"; three u64
# fields: the node count, n and the byte length of a JSON block; the JSON
# block {"solver_meta", "theta"} with sorted keys; then float64 arrays: the
# grid, the upper triangle of quad row-major per node, lin and level.  The
# solver symmetrizes quad exactly, so the triangle loses nothing and the
# loader mirrors it.
# ---------------------------------------------------------------------------

_VALUE_MAGIC = b"BKVALUE1"
_VALUE_HEADER = struct.Struct("<8sQQQ")


def save_coefficients(vc: ValueCoefficients, path: str | Path) -> None:
    nodes, n, _ = vc.quad.shape
    if not np.array_equal(vc.quad, vc.quad.transpose(0, 2, 1)):
        raise ValueError("quad is not exactly symmetric; the file keeps only its upper triangle")
    meta = json.dumps({"solver_meta": vc.solver_meta, "theta": vc.theta},
                      sort_keys=True).encode()
    rows, cols = np.triu_indices(n)
    with open(path, "wb") as fh:
        fh.write(_VALUE_HEADER.pack(_VALUE_MAGIC, nodes, n, len(meta)))
        fh.write(meta)
        for values in (vc.grid, vc.quad[:, rows, cols], vc.lin, vc.level):
            fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())


def load_coefficients(path: str | Path) -> ValueCoefficients:
    """The coefficients save_coefficients wrote.  Raises ConfigError on a file
    of another kind (bad magic) and ParseError on one whose size differs
    from its header's, whose JSON block does not parse or that holds a
    non-finite value."""
    raw = Path(path).read_bytes()
    if raw[:8] != _VALUE_MAGIC:
        raise ConfigError(f"{path} is not a value-coefficient file (bad magic)")
    if len(raw) < _VALUE_HEADER.size:
        raise ParseError(f"{path} is truncated inside its {_VALUE_HEADER.size}-byte header")
    _, nodes, n, meta_len = _VALUE_HEADER.unpack_from(raw)
    counts = (nodes, nodes * (n * (n + 1) // 2), nodes * n, nodes)
    size = _VALUE_HEADER.size + meta_len + 8 * sum(counts)
    if len(raw) != size:
        raise ParseError(f"{path} holds {len(raw)} bytes, its header promises {size}")
    if nodes < 2 or n < 1:
        raise ParseError(f"{path} has {nodes} grid nodes and n = {n}; "
                         "a value grid needs two nodes and one factor")
    try:
        meta = json.loads(raw[_VALUE_HEADER.size:_VALUE_HEADER.size + meta_len])
        theta, solver_meta = float(meta["theta"]), dict(meta["solver_meta"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ParseError(f"{path}: unreadable JSON block ({exc})") from None
    values = np.frombuffer(raw, dtype="<f8", offset=_VALUE_HEADER.size + meta_len)
    if not (np.isfinite(values).all() and np.isfinite(theta)):
        raise ParseError(f"{path} holds a non-finite value")
    grid, upper, lin, level = np.split(values.astype(float), np.cumsum(counts)[:-1])
    upper = upper.reshape(nodes, -1)
    rows, cols = np.triu_indices(n)
    quad = np.empty((nodes, n, n))
    quad[:, rows, cols] = upper
    quad[:, cols, rows] = upper
    return ValueCoefficients(grid=grid, quad=quad, lin=lin.reshape(nodes, n), level=level,
                             theta=theta, solver_meta=solver_meta)
