"""Reference Euler kernel: the simulator's former step-by-step loop, kept as
a test oracle.

Per step it evaluates every lane's gain table at the (paths, n) states, adds
the step's terms to the log excess return and the density accumulators, and
advances each factor state once, by the physical increment of the first lane
that reads it; after each step it checks every lane's state and log excess
return.  It runs the blocks of ``simulate._partition`` in order on the
calling thread and shares with the engine only the noise, the partition,
the gain tables and the reward terms of ``model._log_excess_terms``, so a
bundle of the chunked kernel must equal its bundle byte for byte, and a
diverging run must raise the same NonfiniteState.
"""

import numpy as np

from benchkelly import policy
from benchkelly.errors import NonfiniteState
from benchkelly.model import _log_excess_terms, _rowdot
from benchkelly.simulate import PathBundle, _block_noise, _partition


class _Segment:
    def __init__(self, model, t):
        self.block = model.coefficients(t)
        self.gram = model.gram_blocks(t)
        self.lam_t = np.ascontiguousarray(self.block.factor_vol.T)
        self.fmr_t = np.ascontiguousarray(self.block.factor_mean_reversion.T)

    def advance(self, X, dw, dt):
        return X + (self.block.factor_drift + X @ self.fmr_t) * dt + dw @ self.lam_t


class _Lane:
    def __init__(self, model, vc, cfg, times):
        n_paths, n = cfg.n_paths, model.n
        self.cfg = cfg
        self.densities = "densities" in cfg.keep
        self.gamma = self.densities or cfg.measure == "tilted_gamma"
        tilts = self.densities or (self.gamma and cfg.custom_tilt is None)
        self.table = None
        if tilts or not callable(cfg.strategy):
            table = policy.gain_table(model, vc, times, cfg.strategy, cfg.route,
                                      cfg.bench_weights)
            self.table = table if tilts else table.allocation_only()
        self.terminal_state = np.empty((n_paths, n))
        self.terminal_r = np.empty(n_paths)
        self.densities_out = tuple(np.zeros(n_paths) if self.densities else None for _ in range(4))
        self.states = np.empty((n_paths, cfg.steps + 1, n)) if "states" in cfg.keep else None
        self.log_excess = np.empty((n_paths, cfg.steps + 1)) if "log_excess" in cfg.keep else None

    def start_block(self, sl, x_start):
        if self.states is not None:
            self.states[sl, 0] = x_start
        if self.log_excess is not None:
            self.log_excess[sl, 0] = 0.0
        return tuple(col[sl] for col in self.densities_out) if self.densities else None

    def step(self, model, ctx, j, t, X, dW_j, dt, R, acc):
        cfg, table = self.cfg, self.table
        theta = model.theta
        C = None if table is None else table.controls(j, X)
        H = cfg.strategy(t, X) if callable(cfg.strategy) else C[:, table.h]
        ell, track = _log_excess_terms(ctx.block, ctx.gram, X, H)
        if self.gamma:
            G = (cfg.custom_tilt(t, X, H) if cfg.custom_tilt is not None
                 else C[:, table.value_tilt] - theta * track)
        if cfg.measure == "physical":
            dw = dW_j
        else:
            phi = G if cfg.measure == "tilted_gamma" else -theta * track
            dw = dW_j + phi * dt
        track_dw = _rowdot(track, dw)
        if self.densities:
            acc_tilt, acc_alloc, acc_link, acc_tilt_sq = acc
            g_sq = _rowdot(G, G)
            acc_tilt += _rowdot(G, dw) - 0.5 * dt * g_sq
            acc_alloc += -theta * track_dw - 0.5 * theta**2 * dt * _rowdot(track, track)
            acc_tilt_sq += 0.5 * dt * g_sq
            value_tilt = C[:, table.value_tilt]
            dwh = dw + (theta * dt) * track
            acc_link += _rowdot(value_tilt, dwh) - 0.5 * dt * _rowdot(value_tilt, value_tilt)
        return dw, R + ell * dt + track_dw

    def store(self, sl, j, X, R, x_finite):
        if not (x_finite and np.isfinite(R).all()):
            bad = np.argwhere(~np.isfinite(X).all(axis=1) | ~np.isfinite(R))
            raise NonfiniteState(
                f"non-finite state at path {sl.start + int(bad[0, 0])}, step {j + 1}")
        if self.states is not None:
            self.states[sl, j + 1] = X
        if self.log_excess is not None:
            self.log_excess[sl, j + 1] = R

    def bundle(self):
        log_tilt, log_alloc, log_link, tilt_sq = self.densities_out
        return PathBundle(config=self.cfg, terminal_state=self.terminal_state,
                          terminal_log_excess=self.terminal_r, log_density_tilt=log_tilt,
                          log_density_alloc=log_alloc, log_density_link=log_link,
                          tilt_sq_integral=tilt_sq, states=self.states,
                          log_excess=self.log_excess)


def _run_block(model, shared, lanes, contexts, block):
    first, count = block
    sl = slice(first, first + count)
    dt = shared.dt
    owners = ["physical" if lane.cfg.measure == "physical" else k
              for k, lane in enumerate(lanes)]
    with np.errstate(over="ignore", invalid="ignore"):
        noise = _block_noise(shared.seed, first, count, len(contexts), model.d, shared.antithetic)
        sq_dt = np.sqrt(dt)
        x_start = np.broadcast_to(model.x0, (count, model.n))
        states = {owner: x_start.copy() for owner in set(owners)}
        R = [np.zeros(count) for _ in lanes]
        acc = [lane.start_block(sl, x_start) for lane in lanes]
        for j, ctx in enumerate(contexts):
            t = j * dt
            dW_j = noise[:, j, :] * sq_dt
            increments = {}
            for k, (lane, owner) in enumerate(zip(lanes, owners)):
                dw, R[k] = lane.step(model, ctx, j, t, states[owner], dW_j, dt, R[k], acc[k])
                increments.setdefault(owner, dw)
            finite = {}
            for owner, dw in increments.items():
                states[owner] = ctx.advance(states[owner], dw, dt)
                finite[owner] = bool(np.isfinite(states[owner]).all())
            for k, (lane, owner) in enumerate(zip(lanes, owners)):
                lane.store(sl, j, states[owner], R[k], finite[owner])
        for k, (lane, owner) in enumerate(zip(lanes, owners)):
            lane.terminal_state[sl] = states[owner]
            lane.terminal_r[sl] = R[k]


def simulate_reference(model, vc, cfgs):
    """One PathBundle per config, as simulate_lanes returns them for
    validated configs that share n_paths, steps, dt, seed and antithetic."""
    shared = cfgs[0]
    dt, steps = shared.dt, shared.steps
    times = np.array([j * dt for j in range(steps)])
    segments = {}
    contexts = []
    for j in range(steps):
        seg = model.segment_index(j * dt)
        if seg not in segments:
            segments[seg] = _Segment(model, j * dt)
        contexts.append(segments[seg])
    lanes = [_Lane(model, vc, cfg, times) for cfg in cfgs]
    for block in _partition(shared.n_paths, steps, model.d):
        _run_block(model, shared, lanes, contexts, block)
    return tuple(lane.bundle() for lane in lanes)
