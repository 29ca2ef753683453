"""The invariant suite of a solved model.

``run`` checks the projection pair, the terminal condition and shape of the
quadratic coefficient and the backward equations; then, in one pass over a
(t, x) lattice, the solve against the game's Bellman-Isaacs equation and the
policy and game identities; and last the change-of-measure identities on a
small shared-seed simulation of two lanes.  Each check is one row
(invariant, status, detail) with status PASS, FAIL or SKIP.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from . import game
from . import policy as policy_mod
from . import simulate as sim_mod
from . import valuefn
from .errors import RepresentationMismatch, SaddleViolation
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


def run(model: ValidatedModel, vc: valuefn.ValueCoefficients, seed: int, *, probes: int,
        sim_paths: int, lattice_times: int, lattice_states: int, residual_tol: float,
        inject_corruption: bool = False) -> list[dict]:
    """Run every checkable identity; returns one row per invariant.

    inject_corruption is the negative control: it corrupts the quadratic
    coefficient and moves the saddle probes off the optimal allocation, so
    the affected rows must fail.
    """
    theta = model.theta
    rows: list[dict] = []

    def add(name: str, ok: bool, detail: str) -> None:
        rows.append({"invariant": name, "status": "PASS" if ok else "FAIL", "detail": detail})

    if inject_corruption:
        vc = dataclasses.replace(vc, quad=1.5 * vc.quad + 0.1, solver_meta=dict(vc.solver_meta))

    # projection identities at segment starts
    worst_inv, worst_idem = 0.0, 0.0
    eye = np.eye(model.d)
    for knot in model.spec.coeffs.knots:
        proj = model.projection_matrices(float(knot))
        worst_inv = max(worst_inv, float(np.abs(proj.pminus @ proj.pplus - eye).max()))
        if theta > 0:
            pi = (eye - proj.pminus) * ((theta + 1.0) / theta)
            worst_idem = max(worst_idem, float(np.abs(pi @ pi - pi).max()))
    add("projection_inverse", worst_inv < 1e-12, f"max |P-P+ - I| = {worst_inv:.2e}")
    if theta > 0:
        add("projection_idempotent", worst_idem < 1e-10, f"max |Pi^2 - Pi| = {worst_idem:.2e}")

    # terminal conditions and symmetry/PSD
    term = max(float(np.abs(vc.quad[-1]).max()), float(np.abs(vc.lin[-1]).max()),
               abs(float(vc.level[-1])))
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
    add("backward_residuals", max(res.quad_rel, res.lin_rel) < residual_tol,
        f"quad={res.quad_rel:.2e} lin={res.lin_rel:.2e} (derivative-scaled) tol={residual_tol:g}")

    # policy and game identities in one pass over the (t, x) lattice; the
    # Bellman-Isaacs equation d/dt CE = H / theta (-H at theta = 0) at each
    # time's grid node, H the closed form of game.hamiltonians
    times = np.linspace(0.05 * T, 0.95 * T, lattice_times)
    nodes, d_quad, d_lin, d_level = valuefn.centered_rates(model, vc, times)
    rng = np.random.default_rng(derive_seed(seed, "verify-lattice"))
    states = model.x0 + rng.standard_normal((lattice_states, model.n))
    y = states[0] + 0.5
    worst_hjb, worst_route, worst_affine, worst_h, worst_g, worst_gap = (0.0,) * 6
    policy_err, saddle_err = None, None
    for i, t in enumerate(times.tolist()):
        hy = policy_mod.optimal_h(model, vc, t, y)
        for k, x in enumerate(states):
            d_ce = 0.5 * float(x @ d_quad[i] @ x) + float(d_lin[i] @ x) + d_level[i]
            ham, _ = game.hamiltonians(model, vc, float(vc.grid[nodes[i]]), x)
            rate = ham / theta if theta > 0 else -ham
            worst_hjb = max(worst_hjb, abs(d_ce - rate) / (1.0 + abs(d_ce)))
            try:
                policy_mod.fractional_kelly(model, vc, t, x)
            except RepresentationMismatch as exc:
                policy_err = str(exc)
            h = policy_mod.optimal_h(model, vc, t, x, "direct")
            h2 = policy_mod.optimal_h(model, vc, t, x, "twostep")
            worst_route = max(worst_route, float(np.abs(h - h2).max() / (1.0 + np.abs(h).max())))
            hm = policy_mod.optimal_h(model, vc, t, 0.5 * (x + y))
            worst_affine = max(worst_affine, float(np.abs(hm - 0.5 * (h + hy)).max()))
            if theta == 0.0:
                continue
            try:
                rep = game.saddle_check(
                    model, vc, t, x, probes=probes, seed=derive_seed(seed, f"saddle-{i}-{k}"),
                    h_center=h + 0.1 if inject_corruption else None)
                scale = 1.0 + abs(rep.center_value)
                worst_h = max(worst_h, rep.max_violation_h / scale)
                worst_g = max(worst_g, rep.max_violation_gamma / scale)
            except SaddleViolation as exc:
                saddle_err = str(exc)
            hp, hn = game.hamiltonians(model, vc, t, x)
            worst_gap = max(worst_gap, abs(hp - hn) / (1.0 + abs(hp)))
    add("hjb_residual", worst_hjb < residual_tol,
        f"max defect = {worst_hjb:.2e} (derivative-scaled) tol={residual_tol:g}")
    add("policy_decompositions", policy_err is None, policy_err or "all identity checks hold")
    add("policy_route_equality", worst_route < 1e-12, f"max relative gap = {worst_route:.2e}")
    add("policy_affine", worst_affine < 1e-12, f"max midpoint defect = {worst_affine:.2e}")

    if theta == 0.0:
        rows.extend({"invariant": name, "status": "SKIP", "detail": reason}
                    for name, reason in _KELLY_SKIPS)
        return rows
    add("saddle_probes", saddle_err is None,
        saddle_err or f"worst relative violations h={worst_h:.2e} tilt={worst_g:.2e}")
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
