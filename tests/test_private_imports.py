"""No module of the package imports another module's private names, except the listed ones."""

import ast
from pathlib import Path

import nvgslac

SRC = Path(nvgslac.__file__).parent

# (importing module, defining module, name) -> why the private name crosses a module boundary.
ALLOWED = {
    ("transitions", "hamiltonian", "_field_terms"): "the B-free terms of H, made once per FieldStages",
    ("transitions", "hamiltonian", "_hamiltonian"): "H from those terms, for the one solve of FieldStages",
}


def _imported_module(node: ast.ImportFrom):
    """The package module a ``from ... import`` reads from, or None for another package."""
    if node.level == 1:
        return node.module or "__init__"
    if node.level == 0 and node.module and node.module.partition(".")[0] == "nvgslac":
        return node.module.partition(".")[2] or "__init__"
    return None


def private_imports() -> set:
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom) or _imported_module(node) is None:
                continue
            for alias in node.names:
                name = alias.name
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    found.add((path.stem, _imported_module(node), name))
    return found


def test_private_cross_module_imports_are_exactly_the_allowed_ones():
    assert private_imports() == set(ALLOWED)
