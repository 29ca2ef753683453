"""Public code that the program never calls is pinned, each with its plan."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# public functions that nothing in src/benchkelly or bench/ calls, each with
# the ROADMAP item that gives it a caller or deletes it
UNCALLED = {
    "game.twostep_hamiltonian": "item 2(a): the independent twostep allocation",
    "valuefn.load_coefficients": "item 10: a config that reuses value_coefficients.bin",
}


def _uncalled() -> list[str]:
    """Each public module-level function and public-class method in the
    package's modules (its __init__.py aside) and bench/ whose name no
    ast.Name or ast.Attribute there references.  A match is by name alone:
    any `.at` keeps every public method named at."""
    files = [path for path in sorted((ROOT / "src" / "benchkelly").glob("*.py"))
             if path.name != "__init__.py"]
    files += sorted((ROOT / "bench").glob("*.py"))
    defined, used = [], set()
    for path in files:
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                defined += [(f"{path.stem}.{node.name}.{item.name}", item.name)
                            for item in node.body if isinstance(item, ast.FunctionDef)]
            elif isinstance(node, ast.FunctionDef):
                defined.append((f"{path.stem}.{node.name}", node.name))
    return sorted(dotted for dotted, name in defined
                  if not name.startswith("_") and name not in used)


def test_every_uncalled_public_function_is_pinned_to_a_roadmap_item():
    assert _uncalled() == sorted(UNCALLED)
