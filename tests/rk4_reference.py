"""Independent reference solver for the value coefficients: classical
fixed-step RK4 on the backward system of ``_SegmentTerms.derivative``,
symmetrizing quad after every step.

It is the engine's former integrator, kept as a test oracle.  It shares
only ``_SegmentTerms`` with the engine, not the Hamiltonian assembly or the
matrix exponential, and carries O(step^4) truncation inside a segment but
only first-order accuracy across a coefficient knot: its stages evaluate
whichever segment they land in, and a step that starts at a knot takes its
first stage from the later one.
"""

import numpy as np

from benchkelly.errors import BlowUp
from benchkelly.model import ValidatedModel
from benchkelly.valuefn import BLOWUP_NORM, ValueCoefficients, _SegmentTerms


def solve_rk4(model: ValidatedModel, steps_per_year: int = 1008) -> ValueCoefficients:
    """RK4 solution on the engine's uniform grid, without its post-checks."""
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
        seg = int(model.segment_indices(s))
        if seg not in terms_cache:
            terms_cache[seg] = _SegmentTerms(model, float(model.spec.coeffs.knots[seg]))
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

    return ValueCoefficients(
        grid=grid, quad=quad, lin=lin, level=level, theta=theta,
        solver_meta={"steps_per_year": int(steps_per_year), "step": step},
    )
