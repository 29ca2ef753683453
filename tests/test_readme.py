"""The README's reference tables name exactly what the code accepts and reports."""

import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np

import benchkelly
from benchkelly import cli, policy, verify
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


def test_readme_names_every_top_level_key():
    # the paragraph on top-level keys names every key _check_config accepts
    # beside the blocks
    text = README.read_text()
    start = text.index("Exactly one of `model` / `estimation`")
    paragraph = text[start:text.index("\n\n", start)]
    assert set(cli._TOP_LEVEL) <= set(_names(paragraph))


def test_readme_verify_table_names_every_row_in_order(scalar_model, scalar_vc):
    documented = [name for row in _table("| invariant | what it checks | tolerance |")
                  for name in _names(row[0])]
    rows = verify.run(scalar_model, scalar_vc, 7, sim_paths=10, lattice_times=1,
                      lattice_states=1, residual_tol=1e-3)
    assert documented == [row["invariant"] for row in rows]


def _has(obj, name: str) -> bool:
    fields = {f.name for f in dataclasses.fields(obj)} if dataclasses.is_dataclass(obj) else ()
    return hasattr(obj, name) or name in fields


def test_readme_dotted_names_resolve():
    # a backticked head.name outside code blocks, whose head is a module, a
    # config block or an exported name, names an attribute of the module or
    # export, or a key of the block (verify.sim_paths is a key)
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    modules = {info.name for info in pkgutil.iter_modules(benchkelly.__path__)}
    unresolved = []
    for head, name in re.findall(r"`(\w+)\.(\w+)(?:\(\))?`", text):
        owners = [importlib.import_module(f"benchkelly.{head}")] if head in modules else []
        if head in benchkelly.__all__:
            owners.append(getattr(benchkelly, head))
        if not owners and head not in cli._CONFIG:
            continue
        if not (any(_has(owner, name) for owner in owners) or name in cli._CONFIG.get(head, {})):
            unresolved.append(f"{head}.{name}")
    assert unresolved == []


def test_package_exports_resolve():
    assert [name for name in benchkelly.__all__ if not hasattr(benchkelly, name)] == []


def test_readme_quick_start_runs_a_half_kelly_table():
    # the quick start runs as written; its half-Kelly lane is a scaled Kelly
    # gain table
    text = README.read_text()
    start = text.index("```python", text.index("## Library quick start"))
    namespace = {}
    exec(text[start + len("```python"):text.index("```", start + 3)], namespace)
    half_kelly, kelly = namespace["half_kelly"], namespace["kelly"]
    table, kelly_table = half_kelly.config.strategy, namespace["kelly_table"]
    assert isinstance(table, policy.GainTable)
    assert np.array_equal(table.gain, 0.5 * kelly_table.gain)
    assert np.array_equal(table.offset, 0.5 * kelly_table.offset)
    assert np.isfinite(half_kelly.terminal_log_excess).all()
    assert not np.array_equal(half_kelly.terminal_log_excess, kelly.terminal_log_excess)
