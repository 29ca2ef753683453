from benchkelly import verify

ROWS = (
    "projection_inverse", "projection_idempotent", "terminal_condition", "quad_symmetry",
    "quad_psd", "backward_residuals", "hjb_residual", "policy_decompositions",
    "policy_route_equality", "policy_affine", "saddle_probes", "isaacs_gap",
    "density_factorization", "martingale_tilt", "martingale_alloc", "kl_dual_estimators",
)


def test_run_checks_every_invariant_in_order(scalar_model, scalar_vc):
    rows = verify.run(scalar_model, scalar_vc, 7, probes=200, sim_paths=400,
                      lattice_times=2, lattice_states=2, residual_tol=1e-3)
    assert tuple(r["invariant"] for r in rows) == ROWS
    assert [r for r in rows if r["status"] != "PASS"] == []

