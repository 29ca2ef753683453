import re

import numpy as np

from benchkelly import game, verify
from benchkelly import policy as policy_mod
from benchkelly import simulate as sim_mod
from benchkelly.errors import RepresentationMismatch
from benchkelly.model import validate_model
from benchkelly.valuefn import solve_value_coefficients

from conftest import make_random_spec

ROWS = (
    "projection_inverse", "projection_idempotent", "terminal_condition", "quad_symmetry",
    "quad_psd", "backward_residuals", "hjb_residual", "policy_decompositions",
    "policy_route_equality", "policy_affine", "saddle_probes", "isaacs_gap",
    "density_factorization", "martingale_tilt", "martingale_alloc", "kl_dual_estimators",
)


def test_run_checks_every_invariant_in_order(scalar_model, scalar_vc):
    rows = verify.run(scalar_model, scalar_vc, 7, sim_paths=400,
                      lattice_times=2, lattice_states=2, residual_tol=1e-3)
    assert tuple(r["invariant"] for r in rows) == ROWS
    assert [r for r in rows if r["status"] != "PASS"] == []


def _counted(monkeypatch, module, name, counts, fail=None):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        if fail is not None:
            raise fail
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_verify_evaluates_each_lattice_point_once(monkeypatch, scalar_model, scalar_vc):
    # one fractional_kelly per lattice point, with its optimal and Kelly
    # rows, and one game.hamiltonians, which hjb_residual and isaacs_gap
    # share; one gain table per route over all the lattice times; one per lane
    counts = {}
    for name in ("fractional_kelly", "gain_table"):
        _counted(monkeypatch, policy_mod, name, counts)
    _counted(monkeypatch, game, "hamiltonians", counts)
    verify.run(scalar_model, scalar_vc, 7, sim_paths=50, lattice_times=3,
               lattice_states=2, residual_tol=1e-3)
    points, lanes = 3 * 2, 2
    assert counts == {"fractional_kelly": points, "gain_table": 2 + 2 * points + lanes,
                      "hamiltonians": points}


def test_failed_point_fails_decompositions_and_skips_its_probes(monkeypatch, scalar_model,
                                                                 scalar_vc):
    counts = {}
    _counted(monkeypatch, policy_mod, "fractional_kelly", counts,
             fail=RepresentationMismatch("tilt representations disagree"))
    _counted(monkeypatch, game, "saddle_certificate", counts)
    rows = {r["invariant"]: r for r in verify.run(
        scalar_model, scalar_vc, 7, sim_paths=50, lattice_times=1,
        lattice_states=2, residual_tol=1e-3)}
    assert rows["policy_decompositions"]["status"] == "FAIL"
    assert "tilt representations disagree" in rows["policy_decompositions"]["detail"]
    assert counts == {"fractional_kelly": 2}
    # a saddle row that certified nothing checked nothing
    assert rows["saddle_probes"]["status"] == "FAIL"
    assert rows["saddle_probes"]["detail"].endswith("at 0 certified points")



def _rows(model, vc, **kwargs):
    return {r["invariant"]: r for r in verify.run(
        model, vc, 7, sim_paths=200, lattice_times=2, lattice_states=2,
        residual_tol=1e-3, **kwargs)}


def test_saddle_negative_control_bites_with_many_assets():
    # in m = 8 dimensions almost no random perturbation lands on the descent
    # side of the shifted centre; the gradient of each side does not miss it
    vm = validate_model(make_random_spec(np.random.default_rng(3), theta=1.5, n=3, m=8, d=10))
    vc = solve_value_coefficients(vm, steps_per_year=252)
    assert _rows(vm, vc)["saddle_probes"]["status"] == "PASS"
    corrupted = _rows(vm, vc, inject_corruption=True)["saddle_probes"]
    assert corrupted["status"] == "FAIL"
    # the failing row still reports its worst gradients, its curvatures and
    # its points
    found = re.fullmatch(r"worst gradients h=(\S+) tilt=(\S+), curvatures h>=\S+ tilt<=\S+ "
                         r"at 4 certified points", corrupted["detail"])
    assert found and max(map(float, found.groups())) > game.SADDLE_GRAD_TOL


def test_verify_draws_its_noise_once(monkeypatch, scalar_model, scalar_vc):
    # several path blocks, so the count is per block and not per call
    monkeypatch.setattr(sim_mod, "NOISE_BUFFER_BYTES", 64 * 252 * 8)
    monkeypatch.setattr(sim_mod, "MIN_BLOCK_PATHS", 64)
    draws, lanes = [], []
    block_noise, simulate_lanes = sim_mod._block_noise, sim_mod.simulate_lanes

    def counted(*args):
        draws.append(args[1])
        return block_noise(*args)

    def recorded(model, vc, cfgs):
        bundles = simulate_lanes(model, vc, cfgs)
        lanes.append((cfgs, bundles))
        return bundles

    monkeypatch.setattr(sim_mod, "_block_noise", counted)
    monkeypatch.setattr(sim_mod, "simulate_lanes", recorded)
    rows = verify.run(scalar_model, scalar_vc, 7, sim_paths=400,
                      lattice_times=1, lattice_states=1, residual_tol=1e-3)
    assert all(r["status"] == "PASS" for r in rows)
    (cfgs, bundles), = lanes
    blocks = sim_mod._partition(400, cfgs[0].steps, scalar_model.d)
    assert len(blocks) > 1
    assert sorted(draws) == [first for first, _ in blocks]
    # each lane is bit for bit its own one-lane run
    assert [cfg.measure for cfg in cfgs] == ["physical", "tilted_gamma"]
    monkeypatch.setattr(sim_mod, "_block_noise", block_noise)
    for cfg, bundle in zip(cfgs, bundles):
        (solo,) = sim_mod.simulate_lanes(scalar_model, scalar_vc, [cfg])
        for name, value in vars(solo).items():
            if isinstance(value, np.ndarray):
                assert value.tobytes() == getattr(bundle, name).tobytes(), name
            else:
                assert value == getattr(bundle, name), name
