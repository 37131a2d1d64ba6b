"""Every public function or class, and every dataclass field, of the package is used in the
package or kept on purpose."""

import ast
from pathlib import Path

import nvgslac

SRC = Path(nvgslac.__file__).parent

# Public names that nothing under src/ refers to, each with the reason it stays.
KEEP = {
    "analytic_eigenstates": "closed-form oracle of the axial model (acceptance tests)",
    "analytic_energies": "closed-form oracle of the axial model (acceptance tests)",
    "truncated_eigensystem": "6x6 truncated-Hamiltonian oracle (acceptance tests)",
    "level_sweep": "adiabatic relabeling of a field sweep (hamiltonian tests)",
    "intensity_matrix": "table from a given probability matrix (acceptance tests)",
    "track_transition": "follows one transition across a sweep (acceptance tests)",
    "lorentzian": "per-entry oracle of synthesize",
    "model_spectrum": "one fit-model evaluation (benchmark and fit tests)",
}

# Dataclass fields that nothing under src/ reads, each with the reason it stays.
KEEP_FIELDS = {
    "SpectrumModel.peaks": "(center, width, amplitude) of each line (benchmark tracer)",
    "TransitionRow.label_from": "label of a row's lower level (acceptance tests)",
    "TransitionRow.label_to": "label of a row's upper level (acceptance tests)",
}


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}


def test_unused_public_names_are_exactly_the_kept_ones():
    trees = _trees()
    defined = {
        node.name
        for stem, tree in trees.items()
        if stem not in ("__init__", "__main__")
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert defined - used == set(KEEP)


def _names_dataclass(decorator) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"


def test_dataclass_fields_are_read_or_kept():
    trees = _trees()
    fields = {
        (node.name, item.target.id)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and any(map(_names_dataclass, node.decorator_list))
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    }
    read = set()  # attribute loads, and strings that getattr may be given
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    assert {f"{cls}.{name}" for cls, name in fields if name not in read} == set(KEEP_FIELDS)
