"""Optimal feedback policies and portfolio decompositions.

All policies are affine in the factor state: the certainty-equivalent
gradient quad(t) x + lin(t) is, so the optimal allocation, the Kelly
allocation and the value tilt are X @ K(t) + k(t) for a state matrix X, with
gains that depend on t alone.  gain_table builds those gains at the times a
caller steps through, and it is the one source of every control, at any
time and state and by either route: simulate.simulate_lanes evaluates it at
every step's states, a chunk of steps at a time, verify.run once per route
over its lattice times, and fractional_kelly a one-row table.  A single
allocation is a one-row table's controls at one state: with
table = gain_table(model, vc, [t]), it is table.controls(0, x[None])[0, table.h].
fractional_kelly is the one point evaluation of the candidate pair: its
tilt is the adverse tilt gamma, its tilt_twostep the value tilt nu, and
game.saddle_certificate examines the action a caller passes it.
Every strategy of STRATEGIES, the benchmark's fixed or tracking weights too,
is an allocation row.  Any other affine policy is a GainTable of its own,
such as a scaled Kelly table, which simulate_lanes takes as its strategy,
row j at step j.

The optimal allocation has two routes:

* "direct": from the gradient of the log exponential criterion,
  h = 1/(theta+1) (SS')^{-1} (a + A x + theta S Xi + S L' Du);
* "twostep": from the gradient of the certainty-equivalent surface,
  h = 1/(theta+1) (SS')^{-1} (a + A x + theta S Xi - theta S L' DCE).

With Du = -theta DCE the two share their arithmetic and differ only in where
-theta multiplies, so they agree to rounding; the twostep route's tilt
nu = -theta Lambda' DCE is the value tilt Lambda' Du by definition, the
table's tilt column.  fractional_kelly's runtime cross-checks keep
references independent of the table, at every theta: the tilt's projected
closed form P- Lambda' Du - theta/(theta+1) Sigma' kelly + theta P- Xi, the
recomposition from the Kelly, benchmark-tracking and hedging portfolios and
the regularized-Kelly identity.

At theta == 0 the general formula gives the Kelly allocation
(SS')^{-1}(a + A x) bit for bit: its value-gradient terms vanish.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonfiniteState, RepresentationMismatch
from .model import ValidatedModel
from .valuefn import ValueCoefficients, check_solved_for, value_function

CROSS_CHECK_TOL = 1e-10
ROUTES = ("direct", "twostep")
# the named strategies; a gain table carries the allocation of each
STRATEGIES = ("optimal", "kelly", "benchmark")


@dataclass(frozen=True)
class PolicyAction:
    """All policy outputs at one (t, x) point.

    Invariants (enforced at construction by fractional_kelly):
      allocation = kf*kelly + (1-kf)*bench_track - (1-kf)*hedge
      allocation = kelly + (SS')^{-1} Sigma tilt
    By definition tilt = tilt_twostep - theta (Sigma' allocation - Xi).
    """

    allocation: np.ndarray     # h*, (m,)
    tilt: np.ndarray           # adverse measure tilt, (d,)
    tilt_twostep: np.ndarray   # transformed-measure tilt = value tilt, (d,)
    kelly: np.ndarray          # growth-optimal component, (m,)
    bench_track: np.ndarray    # benchmark-tracking component, (m,)
    hedge: np.ndarray          # intertemporal hedging component, (m,)
    kelly_fraction: float      # 1/(theta+1)


@dataclass(frozen=True)
class GainTable:
    """Affine feedback gains at a sequence of times.

    controls(j, X) = X @ gain[j] + offset[j] are the controls at the table's
    j-th time, at the factor states in the rows of X, or, for a slice j, at
    each of its times, at the states stacked (times, rows, n).  A stacked
    matmul calls BLAS once per time, so each time's controls are bitwise
    its own one-time call; given out, the controls are written into it,
    bitwise the same.  Their columns hold the allocation h and the
    value tilt Lambda' Du; the slices h and value_tilt select them, and a
    column group the table was built without has slice None (see
    gain_table).
    """

    gain: np.ndarray     # (k, n, w)
    offset: np.ndarray   # (k, w)
    h: slice | None
    value_tilt: slice | None

    def controls(self, j: int | slice, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        C = np.matmul(X, self.gain[j], out=out)
        return np.add(C, self.offset[j, None], out=C)

    def allocation_only(self) -> GainTable:
        """This table's allocation columns alone, as columns 0, ..., m - 1."""
        offset = np.ascontiguousarray(self.offset[:, self.h])
        return GainTable(np.ascontiguousarray(self.gain[:, :, self.h]), offset,
                         slice(0, offset.shape[1]), None)


def gain_table(
    model: ValidatedModel,
    vc: ValueCoefficients | None,
    times,
    strategy: str = "optimal",
    route: str = "direct",
    bench_weights=None,
) -> GainTable:
    """Gains of the controls at each of the given times.

    The columns are [h | Lambda' Du]: h is the allocation of a strategy of
    STRATEGIES ("optimal" by the given route, "kelly", or "benchmark": zero
    gains and the offset bench_weights, else the segment's
    benchmark_tracking), and the value tilt is present when vc is given.
    Each coefficient segment's rows take (quad, lin) from one vc.at_times
    read and come from one stacked solve against Sigma Sigma'.  Raises
    NonfiniteState, naming the first time read, on coefficients that are
    not finite there.
    """
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy '{strategy}'; choose from {STRATEGIES}")
    if route not in ROUTES:
        raise ConfigError(f"unknown route '{route}'; choose from {ROUTES}")
    if strategy == "optimal" and vc is None:
        raise ConfigError("the optimal allocation needs solved value coefficients")
    if vc is not None:
        check_solved_for(model, vc)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    n, m, d = model.n, model.m, model.d
    theta = model.theta
    h = slice(0, m)
    value_tilt = None if vc is None else slice(m, m + d)
    width = m if vc is None else m + d
    gain = np.empty((len(times), n, width))
    offset = np.empty((len(times), width))

    segs = model.segment_indices(times)
    for seg in np.unique(segs).tolist():
        rows = np.flatnonzero(segs == seg)
        t0 = float(times[rows[0]])
        block = model.coefficients(t0)
        gram = model.gram_blocks(t0)
        if vc is not None:
            quad, lin, _ = vc.at_times(times[rows])
            bad = ~(np.isfinite(quad).all(axis=(1, 2)) & np.isfinite(lin).all(axis=1))
            if bad.any():
                raise NonfiniteState(f"value coefficients are not finite at "
                                     f"t={times[rows][bad][0]:g}")
            # the gradient X quad' + lin as gains: quad' and lin
            quad_t = np.swapaxes(quad, 1, 2)
        if strategy == "benchmark":
            gain[rows, :, h] = 0.0
            offset[rows, h] = (benchmark_tracking(model, t0) if bench_weights is None
                               else bench_weights)
        else:
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
    return GainTable(gain=gain, offset=offset, h=h, value_tilt=value_tilt)


def benchmark_tracking(model: ValidatedModel, t: float) -> np.ndarray:
    """Benchmark-tracking portfolio (SS')^{-1} Sigma Xi at time t."""
    gram = model.gram_blocks(t)
    return gram.ss_solve(gram.s_xi)


def fractional_kelly(
    model: ValidatedModel,
    vc: ValueCoefficients,
    t: float,
    x: np.ndarray,
) -> PolicyAction:
    """Full policy decomposition at (t, x) with all identity checks enforced.

    The tilt is computed from its defining form (value tilt minus scaled
    tracking error) and from the projected closed form; the two must agree
    to CROSS_CHECK_TOL or the upstream solve is inconsistent.
    """
    x = np.asarray(x, dtype=float)
    block = model.coefficients(t)
    gram = model.gram_blocks(t)
    theta = model.theta
    sigma = block.asset_vol
    kf = 1.0 / (theta + 1.0)

    # one-row tables at t, their controls at x
    table = gain_table(model, vc, [t])
    row = table.controls(0, x[None, :])[0]
    allocation = row[table.h]
    value_tilt = row[table.value_tilt]
    kelly_table = gain_table(model, None, [t], "kelly")
    kelly = kelly_table.controls(0, x[None, :])[0, kelly_table.h]
    bench_track = benchmark_tracking(model, t)
    hedge = gram.ss_solve(gram.sl @ value_function(vc, t, x).ce_gradient)

    recomposed = kf * kelly + (1.0 - kf) * bench_track - (1.0 - kf) * hedge
    scale = 1.0 + float(np.abs(allocation).max())
    if float(np.abs(recomposed - allocation).max()) > 1e-12 * scale:
        raise RepresentationMismatch(
            f"fractional-Kelly recomposition deviates from the optimal allocation at t={t:g}"
        )

    tilt = value_tilt - theta * (allocation @ sigma - block.bench_vol)
    proj = model.projection_matrices(t)
    closed_form = (
        proj.pminus @ value_tilt
        - (theta / (theta + 1.0)) * (sigma.T @ kelly)
        + theta * (proj.pminus @ block.bench_vol)
    )
    gap = float(np.abs(tilt - closed_form).max())
    if gap > CROSS_CHECK_TOL * (1.0 + float(np.abs(tilt).max())):
        raise RepresentationMismatch(
            f"tilt representations disagree by {gap:.3e} at t={t:g}"
        )
    if theta == 0.0:
        # explicit zeros: the table's tilt at theta = 0 may carry -0.0
        tilt, value_tilt = np.zeros(model.d), np.zeros(model.d)

    regularized = kelly + gram.ss_solve(sigma @ tilt)
    if float(np.abs(allocation - regularized).max()) > 1e-12 * scale:
        raise RepresentationMismatch(
            f"regularized-Kelly identity violated at t={t:g}"
        )

    return PolicyAction(
        allocation=allocation,
        tilt=tilt,
        tilt_twostep=value_tilt,
        kelly=kelly,
        bench_track=bench_track,
        hedge=hedge,
        kelly_fraction=kf,
    )
