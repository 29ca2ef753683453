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
    "value_coefficients.json": "c0baa7593d3c7d4dfd4d6dec1710fce038856da158f7cb4f933240df717447a9",
    "terminals.csv": "b7d2b34c672bd01fb877df201dfb336a061bf238785768033024054e13f5d3b2",
    "policy.json": "c42952ff8018add66c9a68f40f7e912d4058aeccbfaf1f78255d17c9413ea485",
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
