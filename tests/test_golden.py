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
    "value_coefficients.bin": "4ad08cd8c4297be2548fb3d5fe2fb04f5f0de4423d8f7ee678572fc91afb1166",
    "terminals.csv": "56a0ad59f76bfa8b1313ec6a71444a82f905b2df8d2f32658bea1cb9b5649783",
    "policy.json": "a6403bd45c6f8c6a7d1333021d542432f81da915a9a97d110c39f7fb74e60c8b",
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
    ("solve", "value_coefficients.bin"),
    ("simulate", "terminals.csv"),
    ("policy", "policy.json"),
])
def test_golden_digest(golden_config, command, artifact):
    out = golden_config / command
    assert main([command, "--config", str(golden_config / "config.json"),
                 "--out", str(out)]) == 0
    digest = _digest(out / artifact)
    assert digest == GOLDEN[artifact], f"{artifact}: new digest {digest}"
