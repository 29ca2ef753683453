"""The README's reference tables name exactly what the code accepts and reports."""

import dataclasses
import re
from pathlib import Path

from benchkelly import cli, verify
from benchkelly.simulate import SimConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def _table(header: str) -> list[list[str]]:
    """The cells of each row of the README table under the given header line."""
    lines = README.read_text().splitlines()
    rows = []
    for line in lines[lines.index(header) + 2:]:  # past the header and its rule
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def _names(cell: str) -> list[str]:
    return re.findall(r"`([^`]+)`", cell)


def test_readme_simconfig_table_names_every_field():
    documented = [name for row in _table("| field | meaning | default |")
                  for name in _names(row[0])]
    assert sorted(documented) == sorted(field.name for field in dataclasses.fields(SimConfig))


def test_readme_config_table_names_every_block_and_key():
    documented, block = [], None
    for row in _table("| block | key | type | default |"):
        # a blank block cell continues the block above
        block = _names(row[0])[0] if row[0] else block
        documented += [(block, key) for key in _names(row[1])]
    assert sorted(documented) == sorted(
        (block, key) for block, keys in cli._CONFIG.items() for key in keys)


def test_readme_verify_table_names_every_row_in_order(scalar_model, scalar_vc):
    documented = [name for row in _table("| invariant | what it checks | tolerance |")
                  for name in _names(row[0])]
    rows = verify.run(scalar_model, scalar_vc, 7, probes=10, sim_paths=10, lattice_times=1,
                      lattice_states=1, residual_tol=1e-3)
    assert documented == [row["invariant"] for row in rows]
