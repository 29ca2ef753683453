"""The invariant suite of a solved model.

``run`` checks the projection pair, the terminal condition and shape of the
quadratic coefficient and the backward equations; then, in one pass over a
(t, x) lattice, the solve against the game's Bellman-Isaacs equation and the
policy and game identities; and last the change-of-measure identities on a
small shared-seed simulation of two lanes.  Each check is one row
(invariant, status, detail) with status PASS, FAIL or SKIP.  The lattice
pass takes each time at the grid node of its centered difference and makes,
per point, one game.hamiltonians call (for hjb_residual and isaacs_gap) and
one policy.fractional_kelly call, whose action game.saddle_certificate
certifies (a point where it raises fails policy_decompositions and is not
certified; saddle_probes needs one certified point); and one gain table per
route.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from . import game
from . import policy as policy_mod
from . import simulate as sim_mod
from . import valuefn
from .errors import RepresentationMismatch
from .model import ValidatedModel

# rows that need an adverse player or a nontrivial change of measure, with
# the reason each is skipped in Kelly mode (theta = 0)
_KELLY_SKIPS = (
    ("saddle_probes", "Kelly mode (theta = 0): no adverse player"),
    ("isaacs_gap", "Kelly mode (theta = 0): no adverse player"),
    ("density_factorization", "Kelly mode (theta = 0): densities are trivial"),
    ("martingale_tilt", "Kelly mode (theta = 0)"),
    ("martingale_alloc", "Kelly mode (theta = 0)"),
    ("kl_dual_estimators", "Kelly mode (theta = 0)"),
)


def derive_seed(seed: int, role: str) -> int:
    """Deterministic per-role sub-seed from the single config seed."""
    digest = hashlib.sha256(f"{seed}:{role}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _worst(values) -> float:
    """The largest of the values, 0 for none; a NaN among them is the result."""
    return float(np.max(values, initial=0.0))


def run(model: ValidatedModel, vc: valuefn.ValueCoefficients, seed: int, *, sim_paths: int,
        lattice_times: int, lattice_states: int, residual_tol: float,
        inject_corruption: bool = False) -> list[dict]:
    """Run every checkable identity; returns one row per invariant.

    inject_corruption is the negative control: it corrupts the quadratic
    coefficient and moves the allocation the saddle certificate examines off
    the optimum, so the affected rows must fail.
    """
    theta = model.theta
    rows: list[dict] = []

    def add(name: str, ok: bool, detail: str) -> None:
        rows.append({"invariant": name, "status": "PASS" if ok else "FAIL", "detail": detail})

    if inject_corruption:
        vc = dataclasses.replace(vc, quad=1.5 * vc.quad + 0.1, solver_meta=dict(vc.solver_meta))

    # projection identities at segment starts
    eye = np.eye(model.d)
    projs = [model.projection_matrices(float(knot)) for knot in model.spec.coeffs.knots]
    worst_inv = _worst([np.abs(proj.pminus @ proj.pplus - eye).max() for proj in projs])
    add("projection_inverse", worst_inv < 1e-12, f"max |P-P+ - I| = {worst_inv:.2e}")
    if theta > 0:
        pis = [(eye - proj.pminus) * ((theta + 1.0) / theta) for proj in projs]
        worst_idem = _worst([np.abs(pi @ pi - pi).max() for pi in pis])
        add("projection_idempotent", worst_idem < 1e-10, f"max |Pi^2 - Pi| = {worst_idem:.2e}")

    # terminal conditions and symmetry/PSD
    term = _worst([np.abs(vc.quad[-1]).max(), np.abs(vc.lin[-1]).max(), abs(vc.level[-1])])
    add("terminal_condition", term == 0.0, f"max terminal coefficient = {term:.2e}")
    asym = float(np.abs(vc.quad - vc.quad.transpose(0, 2, 1)).max())
    add("quad_symmetry", asym < 1e-12, f"max |Q - Q'| = {asym:.2e}")
    # recomputed from vc, not read from solver_meta, so a corrupted vc fails here
    min_eig = float(np.linalg.eigvalsh(vc.quad)[:, 0].min())
    add("quad_psd", min_eig >= -1e-10, f"min eigenvalue = {min_eig:.2e}")

    # backward-equation residuals at sampled interior nodes, scaled by the
    # local derivative magnitude (the raw defect is truncation-dominated)
    T = model.horizon
    res = valuefn.riccati_residual(model, vc, np.linspace(0.1 * T, 0.9 * T, 7))
    add("backward_residuals", _worst([res.quad_rel, res.lin_rel]) < residual_tol,
        f"quad={res.quad_rel:.2e} lin={res.lin_rel:.2e} (derivative-scaled) tol={residual_tol:g}")

    # policy and game identities in one pass over the (t, x) lattice, each
    # time at the grid node of its centered difference; the Bellman-Isaacs
    # equation d/dt CE = H / theta (-H at theta = 0), H the closed form of
    # game.hamiltonians in the first order
    nodes, d_quad, d_lin, d_level = valuefn.centered_rates(
        model, vc, np.linspace(0.05 * T, 0.95 * T, lattice_times))
    times = vc.grid[nodes]
    rng = np.random.default_rng(derive_seed(seed, "verify-lattice"))
    states = model.x0 + rng.standard_normal((lattice_states, model.n))
    y = states[0] + 0.5
    # the route and affine rows read each route's gain table over the lattice
    # times, at the states, at y and at the midpoints (x + y) / 2 at once
    points = np.vstack([states, y, 0.5 * (states + y)])
    direct, twostep = (policy_mod.gain_table(model, vc, times, route=route)
                       for route in policy_mod.ROUTES)
    hjb, route_gaps, affine, reports, order_gaps = [], [], [], [], []
    policy_err = None
    for i, t in enumerate(times.tolist()):
        h, hy, hm = np.split(direct.controls(i, points)[:, direct.h],
                             [lattice_states, lattice_states + 1])
        h2 = twostep.controls(i, states)[:, twostep.h]
        route_gaps.append(np.abs(h - h2).max(axis=1) / (1.0 + np.abs(h).max(axis=1)))
        affine.append(np.abs(hm - 0.5 * (h + hy)).max())
        for x in states:
            d_ce = 0.5 * float(x @ d_quad[i] @ x) + float(d_lin[i] @ x) + d_level[i]
            hp, hn = game.hamiltonians(model, vc, t, x)
            rate = hp / theta if theta > 0 else -hp
            hjb.append(abs(d_ce - rate) / (1.0 + abs(d_ce)))
            try:
                action = policy_mod.fractional_kelly(model, vc, t, x)
            except RepresentationMismatch as exc:
                policy_err, action = str(exc), None
            if theta == 0.0:
                continue
            order_gaps.append(abs(hp - hn) / (1.0 + abs(hp)))
            if action is None:
                continue
            if inject_corruption:
                action = dataclasses.replace(action, allocation=action.allocation + 0.1)
            reports.append(game.saddle_certificate(model, vc, t, x, action))
    worst_hjb, worst_route, worst_affine = _worst(hjb), _worst(route_gaps), _worst(affine)
    add("hjb_residual", worst_hjb < residual_tol,
        f"max defect = {worst_hjb:.2e} (derivative-scaled) tol={residual_tol:g}")
    add("policy_decompositions", policy_err is None, policy_err or "all identity checks hold")
    add("policy_route_equality", worst_route < 1e-12, f"max relative gap = {worst_route:.2e}")
    add("policy_affine", worst_affine < 1e-12, f"max midpoint defect = {worst_affine:.2e}")

    if theta == 0.0:
        rows.extend({"invariant": name, "status": "SKIP", "detail": reason}
                    for name, reason in _KELLY_SKIPS)
        return rows
    # the least h and the largest tilt curvature; a NaN among them is the result
    curv_h = float(np.min([rep.curvature_h for rep in reports], initial=np.inf))
    curv_g = float(np.max([rep.curvature_gamma for rep in reports], initial=-np.inf))
    worst_gap = _worst(order_gaps)
    add("saddle_probes", bool(reports) and all(rep.passed() for rep in reports),
        f"worst gradients h={_worst([rep.grad_h for rep in reports]):.2e} "
        f"tilt={_worst([rep.grad_gamma for rep in reports]):.2e}, curvatures "
        f"h>={curv_h:.2e} tilt<={curv_g:.2e} at {len(reports)} certified points")
    add("isaacs_gap", worst_gap < 1e-9, f"max relative gap = {worst_gap:.2e}")

    # measure-theory suite on a small shared-seed simulation
    sim_steps = max(int(min(252, round(T / (1.0 / 252.0)))), 1)
    base = dict(strategy="optimal", n_paths=sim_paths, steps=sim_steps,
                dt=min(1.0 / 252.0, T / sim_steps), seed=derive_seed(seed, "verify-sim"),
                keep=("densities",))
    # the physical and the tilted run share the seed, so as two lanes they
    # draw each path block's noise once
    bundle, tilted = sim_mod.simulate_lanes(model, vc, [
        sim_mod.SimConfig(**base), sim_mod.SimConfig(measure="tilted_gamma", **base)])
    fact_gap = float(np.abs(bundle.log_density_tilt
                            - (bundle.log_density_alloc + bundle.log_density_link)).max())
    add("density_factorization", fact_gap < 1e-10, f"max pathwise gap = {fact_gap:.2e}")
    for which in ("tilt", "alloc"):
        chk = sim_mod.martingale_check(bundle, which)
        add(f"martingale_{which}", chk.ok, f"mean = {chk.mean:.6f} (se {chk.std_error:.2e})")
    kl = sim_mod.kl_estimate(tilted)
    add("kl_dual_estimators", kl.consistent,
        f"log-density {kl.from_log_density:.5f} vs tilt-norm {kl.from_tilt_norm:.5f}")
    return rows
