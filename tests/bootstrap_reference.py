"""Independent reference for the stationary block bootstrap: every resample
gathers its T rows, centres them and multiplies them out.

It is the engine's former ``bootstrap_gram_se``, kept as a test oracle for
the segment-sum version.  It draws the same restarts and anchors from the
same ``default_rng([seed, r])`` streams, so the two agree up to the rounding
of their different summation orders.
"""

import numpy as np

from benchkelly.estimate import ReturnPanel, _joint_increments, gram_blocks_of_cov


def bootstrap_gram_se_rows(
    panel: ReturnPanel, block_len: float = 21, n_resamples: int = 500, seed: int = 0,
) -> dict[str, np.ndarray]:
    """Row-gather bootstrap standard errors, O(T k^2) per resample."""
    z = _joint_increments(panel)
    T = z.shape[0]
    m, n = panel.m, panel.n
    p = 1.0 / block_len
    offsets = np.arange(T)
    stats = {}
    for r in range(n_resamples):
        rng = np.random.default_rng([seed, r])
        restart = rng.random(T) < p
        restart[0] = True
        seg = np.cumsum(restart) - 1                   # segment id per row
        seg_start = np.flatnonzero(restart)            # row where each segment begins
        anchors = rng.integers(T, size=seg_start.size)  # uniform start per segment
        idx = (anchors[seg] + offsets - seg_start[seg]) % T
        zb = z[idx]
        zb = zb - zb.mean(axis=0)
        cov = (zb.T @ zb) / (T * panel.dt)
        for key, value in gram_blocks_of_cov(cov, m, n).items():
            stats.setdefault(key, []).append(np.asarray(value, dtype=float))
    return {key: np.std(np.stack(vals), axis=0, ddof=1) for key, vals in stats.items()}
