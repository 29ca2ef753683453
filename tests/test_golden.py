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
    "value_coefficients.bin": "739d497fb1f1800435424767435afaca3eb4e9d902630b1fd2ecb9e691abc952",
    "terminals.csv": "8037e175f146f329ce23392f5de4ac37aa7782437f57302349f2381ed0910b8c",
    "policy.json": "783da7a829cabafbd2935225276f8f702332c9bece504c85b4668e3ff13f2c7e",
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
    assert _digest(out / artifact) == GOLDEN[artifact]
