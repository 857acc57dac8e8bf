"""Every public name of the package has a caller in the package itself.

A module's public names are its __all__, or, where it has none, its
top-level definitions whose names do not start with "_"; the public
methods and properties of its public classes count too.  A name has a
caller when code in src/khatom other than its own definition loads it,
as a plain name or as an attribute.  Code that only tests call goes, or
moves to tests/; ALLOWED lists the independent oracles and the readers
of run-directory files, which the package keeps for its users.
"""

import ast
from pathlib import Path

import khatom

SRC = Path(khatom.__file__).parent

ALLOWED = frozenset({
    "superposition_wigner_analytic",
    "density_relation_residual",
    "periodic_sinc_shift",
    "wigner_marginals",
    "trapped_width",
    "bound_states_fd",
    "kh_to_lab",
    "read_series",
    "read_wigner",
})


def _public_names(tree: ast.Module) -> list[str]:
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, ast.Assign):
            defined.update((t.id, node) for t in node.targets if isinstance(t, ast.Name))
    if "__all__" in defined:
        names = [elt.value for elt in defined["__all__"].value.elts]
    else:
        names = [name for name in defined if not name.startswith("_")]
    methods = [
        item.name
        for name in names if isinstance(defined.get(name), ast.ClassDef)
        for item in defined[name].body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
    ]
    return names + methods


def _loaded_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_public_names_have_a_caller():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    loaded = {name for tree in trees.values() for name in _loaded_names(tree)}
    uncalled = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name in _public_names(tree)
        if name not in loaded and name not in ALLOWED
    ]
    assert not uncalled, "public names that no code in src/khatom calls: " + ", ".join(uncalled)
