"""Seeded input generator for the benchmark workloads.

From one seed it writes every file the workload pipelines read into one
directory: the two-factor and wide model JSONs, the generating model of the
estimation panel, the panel CSV, one run config per CLI pipeline, and
``plan.json`` with the seed, the derived sub-seeds and the library-call
parameters.  The same seed gives byte-identical files.

    python3 bench/inputs.py --seed 7 --out inputs/
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path

import numpy as np

from benchkelly import model as model_mod
from benchkelly.estimate import save_panel, synthesize_panel

SOLVER_STEPS_PER_YEAR = 1008
HORIZON_YEARS = 5.0
THETA = 1.0
PANEL_YEARS = 20.0
BOOTSTRAP_RESAMPLES = 500
BOOTSTRAP_BLOCK_LEN = 21


def sub_seed(seed: int, role: str) -> int:
    """Deterministic 63-bit sub-seed for one role of the benchmark seed."""
    digest = hashlib.sha256(f"bench:{seed}:{role}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def twofactor_spec() -> model_mod.ModelSpec:
    """One factor, two assets, spanned benchmark (the suite's MC-oracle model)
    over a five-year horizon."""
    return model_mod.ModelSpec.constant(
        n=1, m=2, d=3, horizon_years=HORIZON_YEARS, theta=THETA, x0=[0.2],
        asset_drift=[0.05, 0.03],
        asset_factor_loading=[[0.2], [-0.1]],
        asset_vol=[[0.15, 0.05, 0.0], [0.04, 0.12, 0.0]],
        factor_drift=[0.0],
        factor_mean_reversion=[[-0.3]],
        factor_vol=[[0.0, 0.05, 0.08]],
        bench_drift=0.01,
        bench_factor_loading=[0.05],
        bench_vol=[0.02, 0.01, 0.0],
    )


def random_spec(rng: np.random.Generator, n: int, m: int, d: int) -> model_mod.ModelSpec:
    """Well-posed random constant-coefficient model with moderate coefficients
    (the recipe of the test suite's random models)."""
    sigma = 0.15 * rng.standard_normal((m, d)) + np.hstack([np.eye(m) * 0.2, np.zeros((m, d - m))])
    lam = 0.08 * rng.standard_normal((n, d))
    return model_mod.ModelSpec.constant(
        n=n, m=m, d=d, horizon_years=HORIZON_YEARS, theta=THETA,
        x0=0.3 * rng.standard_normal(n),
        asset_drift=0.05 * rng.standard_normal(m),
        asset_factor_loading=0.3 * rng.standard_normal((m, n)),
        asset_vol=sigma,
        factor_drift=0.05 * rng.standard_normal(n),
        factor_mean_reversion=-0.5 * np.eye(n) + 0.1 * rng.standard_normal((n, n)),
        factor_vol=lam,
        bench_drift=0.02 * rng.standard_normal(),
        bench_factor_loading=0.1 * rng.standard_normal(n),
        bench_vol=0.05 * rng.standard_normal(d),
    )


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def generate(seed: int, out: Path) -> dict:
    """Write all workload inputs for ``seed`` under ``out``; returns the plan."""
    out.mkdir(parents=True, exist_ok=True)
    solver = {"steps_per_year": SOLVER_STEPS_PER_YEAR}

    # experiment-2f: fixed two-factor model, seed drives the Monte Carlo
    model_mod.save_model(twofactor_spec(), out / "twofactor.json")
    _write_json(out / "experiment-2f.json", {
        "model": "twofactor.json",
        "solver": solver,
        "simulation": {"n_paths": 1000, "steps": 1260, "dt": 1.0 / 252.0,
                       "seed": sub_seed(seed, "experiment-2f-sim"),
                       "strategy": "optimal", "dump_paths": True},
        "metrics": {"level": 0.95},
    })

    # verify-wide: random n=10, m=8, d=20 model drawn from the seed
    wide_rng = np.random.default_rng(sub_seed(seed, "verify-wide-model"))
    model_mod.save_model(random_spec(wide_rng, n=10, m=8, d=20), out / "wide.json")
    _write_json(out / "verify-wide.json", {
        "model": "wide.json",
        "solver": solver,
        "simulation": {"seed": sub_seed(seed, "verify-wide-sim")},
        "verify": {"lattice_times": 3, "lattice_states": 3, "sim_paths": 4000},
    })

    # estimate-bootstrap: 20-year daily panel from a seeded n=3, m=8, d=12 model
    gen_rng = np.random.default_rng(sub_seed(seed, "estimate-model"))
    generator = random_spec(gen_rng, n=3, m=8, d=12)
    model_mod.save_model(generator, out / "generator.json")
    weights = [1.0 / 8.0] * 8
    panel = synthesize_panel(model_mod.validate_model(generator), years=PANEL_YEARS,
                             weights=np.asarray(weights), seed=sub_seed(seed, "estimate-panel"))
    save_panel(panel, out / "panel.csv")
    _write_json(out / "estimate-bootstrap.json", {
        "estimation": {"panel": "panel.csv", "bench_weights": weights},
        "theta": THETA,
        "horizon_years": HORIZON_YEARS,
        "solver": solver,
    })
    # solve and policy run on the model the estimate step writes
    _write_json(out / "estimated-model.json", {
        "model": "../jobs/estimate/model.json",
        "solver": solver,
    })

    plan = {
        "seed": seed,
        "bootstrap": {"n_resamples": BOOTSTRAP_RESAMPLES, "block_len": BOOTSTRAP_BLOCK_LEN,
                      "seed": sub_seed(seed, "estimate-bootstrap")},
        "bench_weights": weights,
    }
    _write_json(out / "plan.json", plan)
    return plan


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    generate(args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
