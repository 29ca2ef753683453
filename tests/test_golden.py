"""Golden artifacts: SHA-256 of the CLI outputs for one fixed tiny config.

A change that alters floating-point rounding anywhere on the solve, policy
or simulate path changes these digests.  Such a change must say so and record
the new values here; a change that claims bit-identity must leave them.
"""

import hashlib
import json

import pytest

from benchkelly import model as model_mod
from benchkelly.cli import main

from conftest import make_twofactor_spec

GOLDEN = {
    "value_coefficients.json": "5a550b9668f31666bffa6f1c4809e2be5d7ce9ee4efc37aafad83868a945b5e7",
    "terminals.csv": "b41309e89d184e7386e73e7a3d5011ddaa65399b09ad70057771b5aa43a27f10",
    "policy.json": "b54735aa61fcaec26bf3831f2012987d2ed0c96202871d788f4b7907e9263d6c",
}


@pytest.fixture(scope="module")
def golden_config(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    model_mod.save_model(make_twofactor_spec(), root / "model.json")
    (root / "config.json").write_text(json.dumps({
        "model": "model.json",
        "solver": {"steps_per_year": 252},
        "simulation": {"n_paths": 64, "steps": 126, "dt": 1 / 252, "seed": 7,
                       "strategy": "optimal"},
    }))
    return root


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("command, artifact", [
    ("solve", "value_coefficients.json"),
    ("simulate", "terminals.csv"),
    ("policy", "policy.json"),
])
def test_golden_digest(golden_config, command, artifact):
    out = golden_config / command
    assert main([command, "--config", str(golden_config / "config.json"),
                 "--out", str(out)]) == 0
    assert _digest(out / artifact) == GOLDEN[artifact]
