"""Euler-Maruyama simulation of the controlled market with density tracking.

One set of d-dimensional Gaussian increments drives the factor state, the
log excess return, and every density process on a path, so the pathwise
change-of-measure identities can be checked exactly.  Every sampling measure
is a Girsanov drift tilt of the physical measure P: under it the P-Brownian
motion has drift phi, so a sampled increment dw stands for the physical
increment dw + phi dt.  The supported measures differ only in phi:

* "physical": phi = 0;
* "tilted_gamma": phi = gamma (the adverse tilt);
* "tilted_h": phi = -theta (Sigma' h - Xi) (transformed-measure dynamics).

The kernel converts dw to the physical increment once per step; the state,
the log excess return and every density then follow the physical-measure
formulas.

Per-path randomness comes from a counter-based Philox stream keyed by
(seed, stream index), so results are bit-identical for a given config no
matter how the path loop is chunked or parallelized.  Antithetic pairing
maps stream i to paths (2i, 2i+1) with mirrored increments.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import policy
from .errors import ConfigError, MeasureMismatch, NonfiniteState, ParseError
from .model import ValidatedModel
from .valuefn import ValueCoefficients, batch_ce_gradient

MEASURES = ("physical", "tilted_gamma", "tilted_h")
STRATEGIES = ("optimal", "kelly", "benchmark", "custom")

# Paths are simulated in blocks to bound memory; the per-path RNG streams
# make results independent of the block size.  Blocks are sized so one noise
# buffer stays near NOISE_BUFFER_BYTES.
NOISE_BUFFER_BYTES = 256 * 2**20
MIN_BLOCK_PATHS = 1024


@dataclass(frozen=True)
class SimConfig:
    """Simulation request; defaults mirror a 5-year daily experiment."""

    n_paths: int = 5000
    steps: int = 1260
    dt: float = 1.0 / 252.0
    seed: int = 0
    measure: str = "physical"
    strategy: str = "optimal"
    route: str = "direct"                  # allocation route when strategy == "optimal"
    antithetic: bool = False
    bench_weights: np.ndarray | None = None
    custom_policy: Callable | None = None  # (t, X[batch,n]) -> H[batch,m]
    custom_tilt: Callable | None = None    # (t, X, H) -> gamma[batch,d]
    store_paths: bool = True
    # density accumulation can be switched off for pure criterion estimation
    # under the physical measure; tilted measures always track densities
    track_densities: bool = True


@dataclass
class PathBundle:
    """Simulated trajectories plus terminal density statistics.

    Terminal log densities: log_density_tilt is ln of the adverse-tilt
    density, log_density_alloc ln of the allocation-induced density, and
    log_density_link ln of the increment connecting the two measures
    (log_density_tilt == log_density_alloc + log_density_link pathwise for
    the candidate policies).  log_density_link_alt recomputes the link from
    the transformed-measure tilt; the two must agree pathwise.
    """

    config: SimConfig
    terminal_state: np.ndarray        # (paths, n)
    terminal_log_excess: np.ndarray   # (paths,)
    log_density_tilt: np.ndarray      # (paths,)
    log_density_alloc: np.ndarray     # (paths,)
    log_density_link: np.ndarray      # (paths,)
    log_density_link_alt: np.ndarray  # (paths,)
    tilt_sq_integral: np.ndarray      # (paths,) 0.5 * sum |gamma|^2 dt
    states: np.ndarray | None = None        # (paths, steps+1, n)
    log_excess: np.ndarray | None = None    # (paths, steps+1), starts at 0


def _validate_config(model: ValidatedModel, vc, cfg: SimConfig) -> None:
    if cfg.n_paths < 1:
        raise ConfigError("n_paths must be >= 1")
    if cfg.steps < 1:
        raise ConfigError("steps must be >= 1")
    if not (np.isfinite(cfg.dt) and cfg.dt > 0):
        raise ConfigError(f"dt must be a positive finite number, got {cfg.dt}")
    if cfg.steps * cfg.dt > model.horizon * (1 + 1e-9):
        raise ConfigError(
            f"simulation span {cfg.steps * cfg.dt:g} exceeds model horizon {model.horizon:g}"
        )
    if cfg.measure not in MEASURES:
        raise ConfigError(f"unknown measure '{cfg.measure}'; choose from {MEASURES}")
    if cfg.strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy '{cfg.strategy}'; choose from {STRATEGIES}")
    if cfg.route not in policy.ROUTES:
        raise ConfigError(f"unknown route '{cfg.route}'; choose from {policy.ROUTES}")
    if cfg.bench_weights is not None and np.shape(cfg.bench_weights) != (model.m,):
        raise ConfigError(
            f"bench_weights must have shape ({model.m},), got {np.shape(cfg.bench_weights)}"
        )
    if cfg.antithetic and cfg.n_paths % 2 != 0:
        raise ConfigError("antithetic pairing needs an even n_paths")
    if cfg.strategy == "optimal" and vc is None:
        raise ConfigError("strategy 'optimal' needs solved value coefficients")
    if cfg.strategy == "custom" and cfg.custom_policy is None:
        raise ConfigError("strategy 'custom' needs custom_policy")
    if cfg.measure != "physical" and vc is None and cfg.custom_tilt is None:
        raise ConfigError("tilted measures need value coefficients or a custom tilt")


def _block_noise(seed: int, first_path: int, count: int, steps: int, d: int,
                 antithetic: bool) -> np.ndarray:
    """Standard-normal draw block of shape (count, steps, d).

    Path p draws from Philox stream (seed, p) -- or (seed, p // 2) with a
    sign flip on odd p when antithetic.  One bit generator serves the whole
    block: Philox is counter-based, so re-keying it to (seed, stream) with a
    zero counter and an emptied buffer yields exactly the stream of a fresh
    Philox(key=[seed, stream]).
    """
    out = np.empty((count, steps, d))
    bits = np.random.Philox(key=np.array([seed & 0xFFFFFFFFFFFFFFFF, 0], dtype=np.uint64))
    gen = np.random.Generator(bits)
    # the fresh generator's state: zero counter, empty buffer
    state = bits.state
    key = state["state"]["key"]
    for i in range(count):
        p = first_path + i
        key[1] = p // 2 if antithetic else p
        bits.state = state
        gen.standard_normal((steps, d), out=out[i])
        if antithetic and p % 2 == 1:
            np.negative(out[i], out=out[i])
    return out


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (paths, k) arrays, without the (paths, k)
    temporary of (a * b).sum(axis=1)."""
    return np.einsum("ij,ij->i", a, b)


class _SegmentContext:
    """One coefficient segment's blocks, built once per segment.

    Lambda' and B' are kept as contiguous copies: the strided noise slice
    times a transposed view would leave BLAS.
    """

    __slots__ = ("block", "gram", "lam_t", "fmr_t", "h_bench")

    def __init__(self, model: ValidatedModel, cfg: SimConfig, t: float):
        self.block = model.coefficients(t)
        self.gram = model.gram_blocks(t)
        self.lam_t = np.ascontiguousarray(self.block.factor_vol.T)
        self.fmr_t = np.ascontiguousarray(self.block.factor_mean_reversion.T)
        self.h_bench = None
        if cfg.strategy == "benchmark":
            self.h_bench = (policy.benchmark_tracking(model, t) if cfg.bench_weights is None
                            else np.asarray(cfg.bench_weights, dtype=float))


# overflow inside a diverging path is expected right before NonfiniteState fires
@np.errstate(over="ignore", invalid="ignore")
def simulate_paths(model: ValidatedModel, vc: ValueCoefficients | None,
                   cfg: SimConfig) -> PathBundle:
    """Simulate the factor state, log excess return, and density processes.

    The log excess return starts at 0 (wealth normalized to the benchmark at
    the start).  Each step shifts the sampled increment by the measure's
    drift tilt to the physical increment, which drives the state and every
    density log-increment.  Every allocation and tilt comes from the batch
    evaluators in policy.py, fed one certainty-equivalent gradient per step.
    """
    _validate_config(model, vc, cfg)
    n, m, d = model.n, model.m, model.d
    theta = model.theta
    dt = cfg.dt
    sq_dt = np.sqrt(dt)
    n_paths, steps = cfg.n_paths, cfg.steps
    track_densities = cfg.track_densities or cfg.measure != "physical"
    need_grad = vc is not None and (cfg.strategy == "optimal" or track_densities)
    segments: dict[int, _SegmentContext] = {}

    terminal_state = np.empty((n_paths, n))
    terminal_r = np.empty(n_paths)
    log_tilt = np.zeros(n_paths)
    log_alloc = np.zeros(n_paths)
    log_link = np.zeros(n_paths)
    log_link_alt = np.zeros(n_paths)
    tilt_sq = np.zeros(n_paths)
    states = log_excess = None
    if cfg.store_paths:
        states = np.empty((n_paths, steps + 1, n))
        log_excess = np.empty((n_paths, steps + 1))

    block_paths = int(max(MIN_BLOCK_PATHS, NOISE_BUFFER_BYTES // (steps * d * 8)))
    if cfg.antithetic and block_paths % 2 != 0:
        block_paths += 1

    for first in range(0, n_paths, block_paths):
        count = min(block_paths, n_paths - first)
        sl = slice(first, first + count)
        dW = _block_noise(cfg.seed, first, count, steps, d, cfg.antithetic)
        dW *= sq_dt
        # the densities accumulate in place, in views of the block's outputs
        acc_tilt, acc_alloc, acc_link, acc_link_alt, acc_tilt_sq = (
            col[sl] for col in (log_tilt, log_alloc, log_link, log_link_alt, tilt_sq))

        X = np.broadcast_to(model.x0, (count, n)).copy()
        R = np.zeros(count)
        if cfg.store_paths:
            states[sl, 0] = X
            log_excess[sl, 0] = 0.0

        for j in range(steps):
            t = j * dt
            seg = model.segment_index(t)
            if seg not in segments:
                segments[seg] = _SegmentContext(model, cfg, t)
            ctx = segments[seg]
            block, gram, lam_t, fmr_t = ctx.block, ctx.gram, ctx.lam_t, ctx.fmr_t
            ce_grad = batch_ce_gradient(vc, t, X) if need_grad else None

            if cfg.strategy == "benchmark":
                H = np.broadcast_to(ctx.h_bench, (count, m))
            elif cfg.strategy == "custom":
                H = cfg.custom_policy(t, X)
            elif cfg.strategy == "kelly":
                H = policy.batch_kelly(model, t, X)
            else:  # optimal
                H = policy.batch_allocation(model, t, X, ce_grad, cfg.route)

            track = policy.batch_tracking(model, t, H)
            ell = (
                -0.5 * _rowdot(H @ gram.ss, H)
                + H @ block.asset_drift
                + 0.5 * gram.xi_xi
                - block.bench_drift
                + _rowdot(H @ block.asset_factor_loading - block.bench_factor_loading, X)
            )
            if track_densities:
                value_tilt = None if ce_grad is None else policy.batch_value_tilt(model, t, ce_grad)
                if cfg.custom_tilt is not None:
                    G = cfg.custom_tilt(t, X, H)
                elif value_tilt is not None and theta > 0.0:
                    G = policy.batch_gamma(model, value_tilt, track)
                else:
                    G = np.zeros((count, d))

            # the physical increment dw + phi dt, phi the sampling measure's
            # drift tilt; from here on every formula is the physical one
            if cfg.measure == "physical":
                dw = dW[:, j, :]
            else:
                phi = G if cfg.measure == "tilted_gamma" else -theta * track
                dw = dW[:, j, :] + phi * dt
            track_dw = _rowdot(track, dw)

            if track_densities:
                g_sq = _rowdot(G, G)
                acc_tilt += _rowdot(G, dw) - 0.5 * dt * g_sq
                acc_alloc += -theta * track_dw - 0.5 * theta**2 * dt * _rowdot(track, track)
                acc_tilt_sq += 0.5 * dt * g_sq
                if ce_grad is not None:
                    # the link density by both routes' tilts, in the increment
                    # of the allocation-induced measure
                    nu = policy.batch_nu(model, t, ce_grad)
                    dwh = dw + (theta * dt) * track
                    acc_link += _rowdot(value_tilt, dwh) - 0.5 * dt * _rowdot(value_tilt, value_tilt)
                    acc_link_alt += _rowdot(nu, dwh) - 0.5 * dt * _rowdot(nu, nu)

            X = X + (block.factor_drift + X @ fmr_t) * dt + dw @ lam_t
            R = R + ell * dt + track_dw

            if not (np.isfinite(X).all() and np.isfinite(R).all()):
                bad = np.argwhere(~np.isfinite(X).all(axis=1) | ~np.isfinite(R))
                raise NonfiniteState(
                    f"non-finite state at path {first + int(bad[0, 0])}, step {j + 1}"
                )
            if cfg.store_paths:
                states[sl, j + 1] = X
                log_excess[sl, j + 1] = R

        terminal_state[sl] = X
        terminal_r[sl] = R

    return PathBundle(
        config=cfg,
        terminal_state=terminal_state,
        terminal_log_excess=terminal_r,
        log_density_tilt=log_tilt,
        log_density_alloc=log_alloc,
        log_density_link=log_link,
        log_density_link_alt=log_link_alt,
        tilt_sq_integral=tilt_sq,
        states=states,
        log_excess=log_excess,
    )


def _mean_and_se(values: np.ndarray, antithetic: bool) -> tuple[float, float]:
    """Sample mean and its standard error; antithetic pairs are one unit."""
    if antithetic:
        values = 0.5 * (values[0::2] + values[1::2])
    k = len(values)
    mean = float(values.mean())
    if k < 2:
        return mean, float("inf")
    return mean, float(values.std(ddof=1) / np.sqrt(k))


@dataclass(frozen=True)
class McCriterion:
    estimate: float              # sample mean of exp(-theta R_T)
    std_error: float
    certainty_equivalent: float  # -(1/theta) ln estimate; mean R_T at theta == 0


def mc_criterion(bundle: PathBundle, theta: float) -> McCriterion:
    """Monte Carlo estimate of the exponential criterion from a physical run."""
    if bundle.config.measure != "physical":
        raise MeasureMismatch("criterion estimation needs a physical-measure bundle")
    r_term = bundle.terminal_log_excess
    if theta == 0.0:
        ce, _ = _mean_and_se(r_term, bundle.config.antithetic)
        return McCriterion(estimate=1.0, std_error=0.0, certainty_equivalent=ce)
    values = np.exp(-theta * r_term)
    mean, se = _mean_and_se(values, bundle.config.antithetic)
    return McCriterion(estimate=mean, std_error=se, certainty_equivalent=-np.log(mean) / theta)


@dataclass(frozen=True)
class KlEstimate:
    from_log_density: float
    from_tilt_norm: float
    se_log_density: float
    se_tilt_norm: float

    @property
    def consistent(self) -> bool:
        gap = abs(self.from_log_density - self.from_tilt_norm)
        return gap <= 3.0 * float(np.hypot(self.se_log_density, self.se_tilt_norm))


def kl_estimate(bundle: PathBundle) -> KlEstimate:
    """Dual estimates of the relative entropy of the tilted measure.

    Under the tilted measure the mean of the log density equals the mean of
    0.5 * integral |gamma|^2; both are returned with standard errors.
    """
    if bundle.config.measure != "tilted_gamma":
        raise MeasureMismatch("relative-entropy estimation needs a tilted_gamma bundle")
    anti = bundle.config.antithetic
    m1, se1 = _mean_and_se(bundle.log_density_tilt, anti)
    m2, se2 = _mean_and_se(bundle.tilt_sq_integral, anti)
    return KlEstimate(m1, m2, se1, se2)


@dataclass(frozen=True)
class MartingaleCheck:
    mean: float
    std_error: float

    @property
    def ok(self) -> bool:
        return abs(self.mean - 1.0) <= 3.0 * self.std_error


def martingale_check(bundle: PathBundle, which: str = "tilt") -> MartingaleCheck:
    """Sample mean of a candidate density under the physical measure.

    A true exponential martingale has unit expectation; the contract is
    |mean - 1| within three standard errors.
    """
    if bundle.config.measure != "physical":
        raise MeasureMismatch("martingale diagnostics need a physical-measure bundle")
    if which == "tilt":
        log_density = bundle.log_density_tilt
    elif which == "alloc":
        log_density = bundle.log_density_alloc
    else:
        raise ValueError("which must be 'tilt' or 'alloc'")
    mean, se = _mean_and_se(np.exp(log_density), bundle.config.antithetic)
    return MartingaleCheck(mean, se)


# ---------------------------------------------------------------------------
# Persistence: terminal columns as CSV; full paths as a little-endian binary
# dump with an explicit header (magic "BKPATHS1", then three u64 fields
# n_paths, steps, n, then the state array (n_paths, steps+1, n) and the log
# excess array (n_paths, steps+1), both float64 little-endian, C order).
# ---------------------------------------------------------------------------

_BIN_MAGIC = b"BKPATHS1"


def save_terminals_csv(bundle: PathBundle, path: str | Path) -> None:
    header = (
        "path,terminal_log_excess,log_density_tilt,log_density_alloc,"
        "log_density_link,tilt_sq_integral"
    )
    rows = [header]
    for i in range(len(bundle.terminal_log_excess)):
        cells = (
            bundle.terminal_log_excess[i], bundle.log_density_tilt[i],
            bundle.log_density_alloc[i], bundle.log_density_link[i],
            bundle.tilt_sq_integral[i],
        )
        rows.append(f"{i}," + ",".join(repr(float(v)) for v in cells))
    Path(path).write_text("\n".join(rows) + "\n")


def save_paths_binary(bundle: PathBundle, path: str | Path) -> None:
    if bundle.states is None or bundle.log_excess is None:
        raise ConfigError("bundle was simulated with store_paths=False; no full paths to dump")
    n_paths, n_nodes, n = bundle.states.shape
    with open(path, "wb") as fh:
        fh.write(_BIN_MAGIC)
        fh.write(struct.pack("<QQQ", n_paths, n_nodes - 1, n))
        fh.write(np.ascontiguousarray(bundle.states, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(bundle.log_excess, dtype="<f8").tobytes())


def load_paths_binary(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    raw = Path(path).read_bytes()
    if raw[:8] != _BIN_MAGIC:
        raise ConfigError(f"{path} is not a path dump (bad magic)")
    # a header cut short reads as zero sizes and fails the size check
    n_paths, steps, n = struct.unpack("<QQQ", raw[8:32]) if len(raw) >= 32 else (0, 0, 0)
    n_state = n_paths * (steps + 1) * n
    size = 32 + 8 * (n_state + n_paths * (steps + 1))
    if len(raw) < size:
        raise ParseError(f"{path} is truncated: {len(raw)} bytes, its header needs {size}")
    states = np.frombuffer(raw, dtype="<f8", count=n_state, offset=32)
    log_excess = np.frombuffer(raw, dtype="<f8", count=n_paths * (steps + 1),
                               offset=32 + 8 * n_state)
    if not (np.isfinite(states).all() and np.isfinite(log_excess).all()):
        raise ParseError(f"{path} holds a non-finite value")
    return (
        states.reshape(n_paths, steps + 1, n).copy(),
        log_excess.reshape(n_paths, steps + 1).copy(),
    )


def load_returns(path: str | Path) -> np.ndarray:
    """Return stream from a simulate artifact: per-step increments from a
    binary path dump, or terminal values from a terminals CSV."""
    path = Path(path)
    with open(path, "rb") as fh:
        head = fh.read(8)
    if head == _BIN_MAGIC:
        _, log_excess = load_paths_binary(path)
        return np.diff(log_excess, axis=1).reshape(-1)
    lines = path.read_text(errors="replace").strip().splitlines()
    if not lines or not lines[0].startswith("path,terminal_log_excess"):
        raise ConfigError(f"{path} is neither a path dump nor a terminals CSV")
    values = []
    for number, line in enumerate(lines[1:], start=2):
        try:
            value = float(line.split(",")[1])
        except (IndexError, ValueError):
            value = np.nan
        if not np.isfinite(value):
            raise ParseError(
                f"{path} line {number}: unreadable or non-finite terminal value in {line!r}")
        values.append(value)
    return np.array(values)
