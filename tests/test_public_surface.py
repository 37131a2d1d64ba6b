"""Every public function or class of the package is used in the package or kept on purpose."""

import ast
from pathlib import Path

import nvgslac

SRC = Path(nvgslac.__file__).parent

# Public names that nothing under src/ refers to, each with the reason it stays.
KEEP = {
    "analytic_eigenstates": "closed-form oracle of the axial model (acceptance tests)",
    "analytic_energies": "closed-form oracle of the axial model (acceptance tests)",
    "truncated_eigensystem": "6x6 truncated-Hamiltonian oracle (acceptance tests)",
    "level_sweep": "adiabatic relabeling of a solve_fields sweep (hamiltonian tests)",
    "intensity_matrix": "table from a given probability matrix (acceptance tests)",
    "track_transition": "follows one transition across a sweep (acceptance tests)",
    "lorentzian": "per-entry oracle of synthesize",
    "model_spectrum": "one fit-model evaluation (benchmark and fit tests)",
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
