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
formulas: the log excess return ln(V/L) moves by ell dt + track . dw, with
ell and track = Sigma' h - Xi from model._log_excess_terms, the one
definition of the benchmarked reward, which the game's payoffs read too.
Every allocation and tilt is read from the policy's affine gain
table (policy.gain_table), sliced into [h | Lambda' Du].  A callable
strategy (t, X) -> H replaces h, and custom_tilt(t, X, H) replaces
gamma = Lambda' Du - theta (Sigma' h - Xi); both are called once per step.

keep names the outputs a bundle returns ("states", "log_excess",
"densities"), the rest are None.  A run computes only what it keeps:
densities only when kept, gamma only then or under tilted_gamma (its
drift), and only the gain columns it reads.  Value coefficients are needed
for "optimal", for densities and for tilted_gamma without custom_tilt.

One private kernel runs one or more lanes: configs that share the paths,
the steps, the seed and antithetic pairing but may differ in strategy,
route, measure and the outputs they keep.  Per path block the noise is
drawn once for all lanes.  Each factor state has one owner: the lanes under
the physical measure share one, and each tilted lane owns its own; each
lane keeps its own log excess return and densities.
simulate_paths is the one-lane call and simulate_lanes the many-lane call;
each lane's bundle is bit for bit its one-lane run.

Per-path randomness comes from a counter-based Philox stream keyed by
(seed, stream index), so a path block is an independent unit of work.  A
run splits its paths into a fixed partition of blocks that depends only on
n_paths, steps and d, with every block but the last a multiple of
BLOCK_ALIGN paths, and runs the blocks on up to WORKERS threads.  Results
are bit-identical for a given config and model at any worker count, and
equal those of one block holding every path.  Antithetic pairing maps
stream i to paths (2i, 2i+1) with mirrored increments.

A block runs in chunks: consecutive steps of one coefficient segment whose
(steps, paths, d) increments fit CHUNK_BYTES.  Under P no control moves the
factor state, so per chunk the physical state alone steps through the
chunk, X + (f + X B') dt + Z[i] with Z = dW @ Lambda' from one stacked
product, and each physical-measure lane is then evaluated once over the
chunk's stacked states: X @ K[j0:j1] + k[j0:j1], the reward terms and the
density increments.  A tilted lane's drift tilt needs its controls, so it
is evaluated, and its own state advanced, a step at a time.  A stacked
matmul calls BLAS once per (paths, .) slice, the per-step shapes, and the
log excess return and the densities are summed step by step, so a run is
bit for bit the step-by-step loop.
"""

from __future__ import annotations

import functools
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import policy
from .errors import ConfigError, MeasureMismatch, NonfiniteState, ParseError
from .model import ValidatedModel, _log_excess_terms, _rowdot
from .valuefn import ValueCoefficients

MEASURES = ("physical", "tilted_gamma", "tilted_h")
# the outputs a bundle can keep: two full path arrays, four density columns
OUTPUTS = ("states", "log_excess", "densities")
# the fields every lane of one simulate_lanes call shares
SHARED_FIELDS = ("n_paths", "steps", "dt", "seed", "antithetic")

# Paths are simulated in blocks sized so one noise buffer stays near
# NOISE_BUFFER_BYTES and each step's (paths, d) arrays stay in a core's
# cache.  Every block but the last holds a multiple of BLOCK_ALIGN paths:
# BLAS takes another kernel for a product's remainder rows, so a ragged
# block would round differently from the same paths in a larger block.
NOISE_BUFFER_BYTES = 32 * 2**20
MIN_BLOCK_PATHS = 1024
BLOCK_ALIGN = 8
# A block runs in chunks: runs of consecutive steps of one coefficient
# segment whose (steps, paths, d) increments fit CHUNK_BYTES, so a chunk's
# stacked arrays stay in a core's cache.
CHUNK_BYTES = 256 * 2**10
# threads that run the blocks of one call, one per CPU the process may use;
# the partition, and so every result, does not depend on it
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@dataclass(frozen=True)
class SimConfig:
    """Simulation request; defaults mirror a 5-year daily experiment.

    A callable strategy or custom_tilt may be called concurrently, on
    different path blocks from different threads.
    """

    n_paths: int = 5000
    steps: int = 1260
    dt: float = 1.0 / 252.0
    seed: int = 0
    measure: str = "physical"
    # a name of policy.STRATEGIES or a policy (t, X[batch,n]) -> H[batch,m]
    strategy: str | Callable = "optimal"
    route: str = "direct"                 # allocation route when strategy == "optimal"
    antithetic: bool = False
    bench_weights: np.ndarray | None = None
    custom_tilt: Callable | None = None   # (t, X, H) -> gamma[batch,d]
    keep: tuple[str, ...] = OUTPUTS       # the outputs the bundle returns


@dataclass
class PathBundle:
    """Simulated trajectories plus terminal density statistics.

    Terminal log densities: log_density_tilt is ln of the adverse-tilt
    density, log_density_alloc ln of the allocation-induced density, and
    log_density_link ln of the increment connecting the two measures
    (log_density_tilt == log_density_alloc + log_density_link pathwise for
    the candidate policies).  The link's tilt is the value tilt Lambda' Du,
    which is the transformed-measure tilt nu of the twostep route by
    definition.  The four density columns are None unless config.keep names
    "densities".
    """

    config: SimConfig
    terminal_state: np.ndarray        # (paths, n)
    terminal_log_excess: np.ndarray   # (paths,)
    log_density_tilt: np.ndarray | None = None      # (paths,)
    log_density_alloc: np.ndarray | None = None     # (paths,)
    log_density_link: np.ndarray | None = None      # (paths,)
    tilt_sq_integral: np.ndarray | None = None      # (paths,) 0.5 * sum |gamma|^2 dt
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
    if not callable(cfg.strategy) and cfg.strategy not in policy.STRATEGIES:
        raise ConfigError(
            f"unknown strategy '{cfg.strategy}'; choose from {policy.STRATEGIES}")
    if cfg.route not in policy.ROUTES:
        raise ConfigError(f"unknown route '{cfg.route}'; choose from {policy.ROUTES}")
    if cfg.bench_weights is not None and np.shape(cfg.bench_weights) != (model.m,):
        raise ConfigError(
            f"bench_weights must have shape ({model.m},), got {np.shape(cfg.bench_weights)}"
        )
    unknown = sorted(set(cfg.keep) - set(OUTPUTS))
    if unknown:
        raise ConfigError(f"keep names unknown outputs {unknown}; choose from {OUTPUTS}")
    if cfg.antithetic and cfg.n_paths % 2 != 0:
        raise ConfigError("antithetic pairing needs an even n_paths")
    # every tilt comes from the coefficients unless custom_tilt replaces gamma
    if vc is None and (cfg.strategy == "optimal" or "densities" in cfg.keep or (
            cfg.measure == "tilted_gamma" and cfg.custom_tilt is None)):
        raise ConfigError("strategy 'optimal', kept densities and tilted_gamma without "
                          "a custom tilt need solved value coefficients")


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


class _SegmentContext:
    """One coefficient segment's blocks, built once per segment and shared by
    every lane.

    Lambda' and B' are kept as contiguous copies: the strided noise slice
    times a transposed view would leave BLAS.
    """

    __slots__ = ("block", "gram", "lam_t", "fmr_t")

    def __init__(self, model: ValidatedModel, t: float):
        self.block = model.coefficients(t)
        self.gram = model.gram_blocks(t)
        self.lam_t = np.ascontiguousarray(self.block.factor_vol.T)
        self.fmr_t = np.ascontiguousarray(self.block.factor_mean_reversion.T)

    def advance(self, X: np.ndarray, noise_term: np.ndarray, dt: float,
                out: np.ndarray) -> None:
        """Write to out the factor states X one Euler step on, given the
        step's noise term dw @ Lambda' of the physical increments dw."""
        np.add(X + (self.block.factor_drift + X @ self.fmr_t) * dt, noise_term, out=out)


class _Nodes:
    """A path block's working arrays, reused by every chunk.

    x[owner] holds the owner's factor states and r every lane's log excess
    return at a chunk's nodes, a row per node.  A chunk's start lies in row
    s.  A chunk of several steps moves it to row 0, so that its states stack,
    and puts the nodes after its steps in rows 1, ..., c; a one-step chunk
    puts its one node in whichever of rows 0 and 1 does not hold its start,
    so stepping one step a chunk copies no node.  terms takes each step's ell
    dt and track . dw, interleaved, and dens its four density
    log-increments; add sums them in step order into r and the running log
    densities acc, so each sum is bitwise the per-step R + ell dt + track .
    dw and acc + increment.  A row holds every lane, so one add serves them
    all; np.add.accumulate along the rows would run one inner loop per path,
    and took four times as long at (21, 1000).
    """

    __slots__ = ("x", "r", "terms", "acc", "dens", "s")

    def __init__(self, model: ValidatedModel, owners: set, lanes: int, count: int,
                 width: int, densities: bool):
        self.x = {owner: np.empty((width + 1, count, model.n)) for owner in owners}
        for X in self.x.values():
            X[0] = model.x0
        self.r = np.zeros((width + 1, lanes, count))
        self.terms = np.empty((2 * width, lanes, count))
        self.acc = np.zeros((lanes, 4, count)) if densities else None
        self.dens = np.empty((width, lanes, 4, count)) if densities else None
        self.s = 0

    def rows(self, c: int) -> tuple[slice, slice]:
        """The rows of a chunk of c steps: its nodes before and after each step."""
        s = self.s
        if c == 1:
            self.s = 0 if s == 1 else 1
            return slice(s, s + 1), slice(self.s, self.s + 1)
        if s:
            for X in self.x.values():
                X[0] = X[s]
            self.r[0] = self.r[s]
        self.s = c
        return slice(0, c), slice(1, c + 1)

    def terms_of(self, k: int, i0: int, i1: int) -> tuple[np.ndarray, np.ndarray | None]:
        """Where lane k's terms of the chunk's steps i0, ..., i1 - 1 go."""
        return (self.terms[2 * i0:2 * i1, k],
                None if self.dens is None else self.dens[i0:i1, k])

    def add(self, c: int, at: slice, after: slice) -> np.ndarray:
        """Add the chunk's c steps; returns R after each, (c, lanes, paths)."""
        r_at, r_after, terms = self.r[at], self.r[after], self.terms
        for i in range(c):
            np.add(r_at[i], terms[2 * i], out=r_after[i])
            np.add(r_after[i], terms[2 * i + 1], out=r_after[i])
        if self.dens is not None:
            for i in range(c):
                np.add(self.acc, self.dens[i], out=self.acc)
        return r_after


class _Lane:
    """One config's part of the kernel: its gain table and its outputs.  A
    lane holds no state of a path block; each block writes its own slice of
    the outputs."""

    def __init__(self, model: ValidatedModel, vc: ValueCoefficients | None,
                 cfg: SimConfig, times: np.ndarray):
        n_paths, n = cfg.n_paths, model.n
        self.cfg = cfg
        self.densities = "densities" in cfg.keep
        # gamma feeds the densities and is tilted_gamma's drift; the value
        # tilt feeds gamma (unless custom_tilt replaces it) and the link
        self.gamma = self.densities or cfg.measure == "tilted_gamma"
        tilts = self.densities or (self.gamma and cfg.custom_tilt is None)
        self.table = None
        if tilts or not callable(cfg.strategy):
            table = policy.gain_table(model, vc, times, cfg.strategy, cfg.route,
                                      cfg.bench_weights)
            self.table = table if tilts else table.allocation_only()
        self.terminal_state = np.empty((n_paths, n))
        self.terminal_r = np.empty(n_paths)
        # log densities: tilt, alloc, link, then the tilt-norm integral
        self.densities_out = tuple(np.zeros(n_paths) if self.densities else None for _ in range(4))
        self.states = (np.empty((n_paths, cfg.steps + 1, n))
                       if "states" in cfg.keep else None)
        self.log_excess = (np.empty((n_paths, cfg.steps + 1))
                           if "log_excess" in cfg.keep else None)

    def start_block(self, sl: slice, x_start: np.ndarray) -> None:
        """Store the first node of the block's paths."""
        if self.states is not None:
            self.states[sl, 0] = x_start
        if self.log_excess is not None:
            self.log_excess[sl, 0] = 0.0

    def increments(self, model: ValidatedModel, ctx: _SegmentContext, j: int | slice,
                   X: np.ndarray, dW: np.ndarray, dt: float, r_inc: np.ndarray,
                   d_inc: np.ndarray | None) -> np.ndarray:
        """Evaluate step j at its states X, (paths, n), under the sampled
        increments dW, (paths, d), or each step of a slice j at its states
        stacked (c, paths, n) and increments (c, paths, d): write their ell dt
        and track . dw, interleaved, to r_inc and their density
        log-increments to d_inc (see _Nodes); returns their physical
        increments.

        Every product keeps the per-step shapes: a stacked matmul calls BLAS
        once per (paths, .) slice, so the terms are bitwise the per-step ones.
        """
        cfg, table = self.cfg, self.table
        theta = model.theta
        C = None if table is None else table.controls(j, X)
        H = (_each_step(cfg.strategy, j, dt, X) if callable(cfg.strategy)
             else C[..., table.h])

        ell, track = _log_excess_terms(ctx.block, ctx.gram, X, H)
        if self.gamma:
            G = (_each_step(cfg.custom_tilt, j, dt, X, H) if cfg.custom_tilt is not None
                 else C[..., table.value_tilt] - theta * track)

        # the physical increment dw + phi dt, phi the sampling measure's
        # drift tilt; from here on every formula is the physical one
        if cfg.measure == "physical":
            dw = dW
        else:
            phi = G if cfg.measure == "tilted_gamma" else -theta * track
            dw = dW + phi * dt
        track_dw = _rowdot(track, dw)
        np.multiply(ell, dt, out=r_inc[0::2])
        r_inc[1::2] = track_dw

        if self.densities:
            g_sq = _rowdot(G, G)
            np.subtract(_rowdot(G, dw), 0.5 * dt * g_sq, out=d_inc[:, 0])
            np.subtract(-theta * track_dw, 0.5 * theta**2 * dt * _rowdot(track, track),
                        out=d_inc[:, 1])
            # the link density by the value tilt, in the increment of the
            # allocation-induced measure
            value_tilt = C[..., table.value_tilt]
            dwh = dw + (theta * dt) * track
            np.subtract(_rowdot(value_tilt, dwh), 0.5 * dt * _rowdot(value_tilt, value_tilt),
                        out=d_inc[:, 2])
            np.multiply(0.5 * dt, g_sq, out=d_inc[:, 3])
        return dw

    def store(self, sl: slice, j0: int, X: np.ndarray, R: np.ndarray) -> None:
        """Keep what the lane stores of the states X, (c, paths, n), and the
        log excess returns R, (c, paths), after steps j0, ..., j0 + c - 1."""
        nodes = slice(j0 + 1, j0 + 1 + len(R))
        if self.states is not None:
            self.states[sl, nodes] = X.swapaxes(0, 1)
        if self.log_excess is not None:
            self.log_excess[sl, nodes] = R.T

    def end_block(self, sl: slice, X: np.ndarray, R: np.ndarray,
                  densities: np.ndarray | None) -> None:
        self.terminal_state[sl] = X
        self.terminal_r[sl] = R
        if self.densities:
            for col, value in zip(self.densities_out, densities):
                col[sl] = value

    def bundle(self) -> PathBundle:
        log_tilt, log_alloc, log_link, tilt_sq = self.densities_out
        return PathBundle(
            config=self.cfg,
            terminal_state=self.terminal_state,
            terminal_log_excess=self.terminal_r,
            log_density_tilt=log_tilt,
            log_density_alloc=log_alloc,
            log_density_link=log_link,
            tilt_sq_integral=tilt_sq,
            states=self.states,
            log_excess=self.log_excess,
        )


def _each_step(fn: Callable, j: int | slice, dt: float, *args: np.ndarray) -> np.ndarray:
    """A callable policy fn(t, *args) at step j, or at each step of a slice
    j, on its rows of the stacked args, stacked."""
    if not isinstance(j, slice):
        return fn(j * dt, *args)
    return np.stack([fn(step * dt, *(a[i] for a in args))
                     for i, step in enumerate(range(j.start, j.stop))])


def _partition(n_paths: int, steps: int, d: int) -> list[tuple[int, int]]:
    """The path blocks (first path, count) of a run.  They depend only on the
    sizes, never on the worker count or the host; every block but the last
    holds a multiple of BLOCK_ALIGN paths."""
    size = max(MIN_BLOCK_PATHS, NOISE_BUFFER_BYTES // (steps * d * 8))
    size = -(-size // BLOCK_ALIGN) * BLOCK_ALIGN
    return [(first, min(size, n_paths - first)) for first in range(0, n_paths, size)]


def _chunk_length(paths: int, d: int) -> int:
    """Steps per chunk of a block of paths: as many as keep the chunk's
    (steps, paths, d) increments within CHUNK_BYTES, at least one.  Like the
    partition, it depends only on the sizes."""
    return max(1, CHUNK_BYTES // (paths * d * 8))


def _chunks(runs: list[tuple[int, int, _SegmentContext]], width: int):
    """The chunks (first step, end step, context) of a block: each run of one
    segment's steps cut into pieces of width steps, the last one shorter."""
    for s0, s1, ctx in runs:
        for j0 in range(s0, s1, width):
            yield j0, min(j0 + width, s1), ctx


def _raise_nonfinite(sl: slice, j0: int, xs: list[np.ndarray], R: np.ndarray) -> None:
    """Raise NonfiniteState at the chunk's first step after which a lane's
    state or log excess return is not finite: at that step's first such lane,
    in lane order, and its lowest such path.  xs[k] holds lane k's states
    after each step, R[:, k] its log excess returns."""
    for i in range(len(R)):
        for X, R_k in zip(xs, R[i]):
            bad = ~np.isfinite(X[i]).all(axis=1) | ~np.isfinite(R_k)
            if bad.any():
                raise NonfiniteState(
                    f"non-finite state at path {sl.start + int(np.argmax(bad))}, step {j0 + i + 1}")


def _run_block(model: ValidatedModel, shared: SimConfig, lanes: list[_Lane],
               runs: list[tuple[int, int, _SegmentContext]], block: tuple[int, int]) -> None:
    """Simulate one path block of every lane.

    It draws the block's noise once and steps through it in chunks of
    _chunk_length steps of one coefficient segment.  Each factor state has
    one owner: the physical-measure lanes share one, and each tilted lane
    owns its own.  No control moves the physical state, so per chunk it
    advances alone, step by step, from one stacked product dW @ Lambda'; a
    tilted lane's drift tilt needs its controls, so it is evaluated and its
    state advanced a step at a time.  Then each physical-measure lane is
    evaluated once over the chunk's stacked states.  A chunk ends early at
    the first non-finite state, so no callable ever sees one.  The block
    reads only shared state and writes only its own slice of the lanes'
    outputs, so blocks may run on any thread in any order.
    """
    first, count = block
    sl = slice(first, first + count)
    dt = shared.dt
    width = _chunk_length(count, model.d)
    owners = ["physical" if lane.cfg.measure == "physical" else k
              for k, lane in enumerate(lanes)]
    tilted = [k for k, owner in enumerate(owners) if owner == k]
    physical = [k for k, owner in enumerate(owners) if owner == "physical"]
    storing = [k for k, lane in enumerate(lanes)
               if lane.states is not None or lane.log_excess is not None]
    # pool threads do not inherit the caller's errstate; overflow inside a
    # diverging path is expected right before NonfiniteState fires
    with np.errstate(over="ignore", invalid="ignore"):
        noise = _block_noise(shared.seed, first, count, shared.steps, model.d, shared.antithetic)
        sq_dt = np.sqrt(dt)
        nodes = _Nodes(model, set(owners), len(lanes), count, width,
                       any(lane.densities for lane in lanes))
        for lane in lanes:
            lane.start_block(sl, model.x0)
        noise_term = np.empty((width, count, model.n))

        for j0, j1, ctx in _chunks(runs, width):
            c = j1 - j0
            at, after = nodes.rows(c)
            # the chunk's increments, scaled from the strided noise slab into
            # one contiguous (steps, paths, d) array that every lane reads; a
            # new one each chunk, as one array per block made a lone
            # tilted_gamma lane (1024 paths, d = 20, on the calling thread)
            # take 30k page faults in place of 0.6k and 1.4 times as long
            dW = np.multiply(noise[:, j0:j1].swapaxes(0, 1), sq_dt, order="C")
            finite = True
            if physical:
                P, P_next = nodes.x["physical"][at], nodes.x["physical"][after]
                np.matmul(dW, ctx.lam_t, out=noise_term[:c])
                for i in range(c):
                    ctx.advance(P[i], noise_term[i], dt, P_next[i])
                if not np.isfinite(P_next).all():
                    finite = False
                    c = int(np.argmin(np.isfinite(P_next).all(axis=(1, 2)))) + 1
            for k in tilted:
                X, X_next = nodes.x[k][at], nodes.x[k][after]
                for i in range(c):
                    dw = lanes[k].increments(model, ctx, j0 + i, X[i], dW[i], dt,
                                             *nodes.terms_of(k, i, i + 1))
                    ctx.advance(X[i], dw @ ctx.lam_t, dt, X_next[i])
                    if not np.isfinite(X_next[i]).all():
                        finite = False
                        c = i + 1
                        break
            if physical:
                # a one-step chunk takes the per-step shapes, which cost less
                chunk = (j0, P[0], dW[0]) if c == 1 else (slice(j0, j0 + c), P[:c], dW[:c])
                for k in physical:
                    lanes[k].increments(model, ctx, *chunk, dt, *nodes.terms_of(k, 0, c))

            R = nodes.add(c, at, after)[:c]
            if not (finite and np.isfinite(R).all()):
                _raise_nonfinite(sl, j0, [nodes.x[owner][after] for owner in owners], R)
            for k in storing:
                lanes[k].store(sl, j0, nodes.x[owners[k]][after], R[:, k])

        s = nodes.s
        for k, (lane, owner) in enumerate(zip(lanes, owners)):
            lane.end_block(sl, nodes.x[owner][s], nodes.r[s, k],
                           None if nodes.acc is None else nodes.acc[k])


def _simulate(model: ValidatedModel, vc: ValueCoefficients | None,
              cfgs: tuple[SimConfig, ...]) -> tuple[PathBundle, ...]:
    """The Euler kernel over validated lanes that share n_paths, steps, dt,
    seed and antithetic.

    It builds every coefficient segment's context and every lane's gain
    table before any block runs, then runs the path blocks of _partition:
    inline when there is one block or one worker, else on a pool of up to
    WORKERS threads that is joined before it returns.
    """
    shared = cfgs[0]
    dt, steps = shared.dt, shared.steps
    times = np.array([j * dt for j in range(steps)])
    # the runs of steps in one coefficient segment, each with its context
    segs = model.segment_indices(times)
    starts = [0, *(np.flatnonzero(np.diff(segs)) + 1).tolist(), steps]
    runs = [(s0, s1, _SegmentContext(model, times[s0])) for s0, s1 in zip(starts, starts[1:])]
    lanes = [_Lane(model, vc, cfg, times) for cfg in cfgs]

    run = functools.partial(_run_block, model, shared, lanes, runs)
    blocks = _partition(shared.n_paths, steps, model.d)
    workers = min(WORKERS, len(blocks))
    if workers == 1:
        for block in blocks:
            run(block)
    else:
        # map yields in block order, so the lowest failing block raises, as
        # on one thread, and the blocks not yet started are cancelled
        with ThreadPoolExecutor(workers) as pool:
            for _ in pool.map(run, blocks):
                pass
    return tuple(lane.bundle() for lane in lanes)


def simulate_paths(model: ValidatedModel, vc: ValueCoefficients | None,
                   cfg: SimConfig) -> PathBundle:
    """Simulate the factor state, log excess return, and density processes.

    The log excess return starts at 0 (wealth normalized to the benchmark at
    the start).  Each step shifts the sampled increment by the measure's
    drift tilt to the physical increment, which drives the state and every
    density log-increment.  Every allocation and tilt comes from the
    policy's gain table, evaluated at every step's states.  The one-lane
    call of the kernel that simulate_lanes runs.
    """
    _validate_config(model, vc, cfg)
    return _simulate(model, vc, (cfg,))[0]


def simulate_lanes(model: ValidatedModel, vc: ValueCoefficients | None,
                   cfgs) -> tuple[PathBundle, ...]:
    """Simulate several configs on one noise draw; one PathBundle per config.

    The configs must agree on n_paths, steps, dt, seed and antithetic, and
    may differ in anything else (strategy, route, measure, what they keep).
    Each bundle is bit for bit the one simulate_paths returns for its config.
    """
    cfgs = tuple(cfgs)
    if not cfgs:
        raise ConfigError("simulate_lanes needs at least one config")
    for cfg in cfgs:
        _validate_config(model, vc, cfg)
    for name in SHARED_FIELDS:
        values = {getattr(cfg, name) for cfg in cfgs}
        if len(values) > 1:
            raise ConfigError(f"lanes must share {name}, got {sorted(values)}")
    return _simulate(model, vc, cfgs)


def _require_densities(bundle: PathBundle, use: str) -> None:
    if bundle.log_density_tilt is None:
        raise ConfigError(f"{use} needs the density columns; simulate with "
                          "'densities' in keep")


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
        # an infinite standard error (one sample) checks nothing
        se = float(np.hypot(self.se_log_density, self.se_tilt_norm))
        gap = abs(self.from_log_density - self.from_tilt_norm)
        return bool(np.isfinite(se)) and gap <= 3.0 * se


def kl_estimate(bundle: PathBundle) -> KlEstimate:
    """Dual estimates of the relative entropy of the tilted measure.

    Under the tilted measure the mean of the log density equals the mean of
    0.5 * integral |gamma|^2; both are returned with standard errors.
    """
    if bundle.config.measure != "tilted_gamma":
        raise MeasureMismatch("relative-entropy estimation needs a tilted_gamma bundle")
    _require_densities(bundle, "relative-entropy estimation")
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
        # an infinite standard error (one sample) checks nothing
        return bool(np.isfinite(self.std_error)) and abs(self.mean - 1.0) <= 3.0 * self.std_error


def martingale_check(bundle: PathBundle, which: str = "tilt") -> MartingaleCheck:
    """Sample mean of a candidate density under the physical measure.

    A true exponential martingale has unit expectation; the contract is
    |mean - 1| within three standard errors.
    """
    if bundle.config.measure != "physical":
        raise MeasureMismatch("martingale diagnostics need a physical-measure bundle")
    _require_densities(bundle, "the martingale diagnostic")
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
    _require_densities(bundle, "the terminals CSV")
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
        raise ConfigError("bundle keeps no full paths to dump; simulate with "
                          "'states' and 'log_excess' in keep")
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
    if len(raw) != size:
        state = "truncated" if len(raw) < size else "longer than its header promises"
        raise ParseError(f"{path} is {state}: {len(raw)} bytes, its header needs {size}")
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
