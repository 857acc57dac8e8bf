"""Every public name of the package has a caller in the package itself.

A module's public names are its __all__, or, where it has none, its
top-level definitions whose names do not start with "_"; the public
methods and properties of its public classes count too, and so do the
fields of its public dataclasses.  A name has a caller when code in
src/khatom other than its own definition loads it, as a plain name or as
an attribute; a field must be loaded as an attribute, since one that is
filled and never read is computed in vain.  Code that only tests call
goes, or moves to tests/; ALLOWED lists the independent oracles and the
readers of run-directory files, which the package keeps for its users.

Likewise every defaulted parameter of a public function, method or
constructor is set by some call in src/khatom, by name or by position;
an option that no caller sets becomes a constant of its module.
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
    classes = [defined[name] for name in names if isinstance(defined.get(name), ast.ClassDef)]
    methods = [
        item.name
        for cls in classes
        for item in cls.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
    ]
    fields = [
        f"{cls.name}.{item.target.id}"
        for cls in classes if _is_dataclass(cls)
        for item in cls.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    ]
    return names + methods + fields


def _is_dataclass(cls: ast.ClassDef) -> bool:
    """Decorated @dataclass or @dataclass(...)."""
    return any(
        getattr(dec.func if isinstance(dec, ast.Call) else dec, "id", None) == "dataclass"
        for dec in cls.decorator_list
    )


def _loaded_names(tree: ast.Module):
    """Each loaded plain name, and each loaded attribute as itself and as
    ".attr", which is how a dataclass field is read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
            yield "." + node.attr


def _read_as(name: str) -> str:
    """How code loads a public name: a dataclass field "Class.f" as ".f"."""
    _, dot, field = name.partition(".")
    return dot + field if dot else name


def test_public_names_have_a_caller():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    loaded = {name for tree in trees.values() for name in _loaded_names(tree)}
    uncalled = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name in _public_names(tree)
        if _read_as(name) not in loaded and name not in ALLOWED
    ]
    assert not uncalled, "public names that no code in src/khatom calls: " + ", ".join(uncalled)


# defaulted parameters that no call in src/khatom sets, kept on purpose:
# the command line's argv, the imaginary-time controls (the function goes
# with the single eigensolver), and the stand-in model of the averaged
# potential that the zero-range check uses
UNSET_ALLOWED = frozenset({
    "main(argv)",
    "imaginary_time_ground_state(dt_imag)",
    "imaginary_time_ground_state(tol)",
    "imaginary_time_ground_state(max_steps)",
    "kh_averaged_potential(model)",
})


def _defaulted(fn: ast.FunctionDef, method: bool):
    """(position, name) of each defaulted parameter; the position counts the
    caller's arguments (self excluded) and is None for a keyword-only one."""
    params = (fn.args.posonlyargs + fn.args.args)[1 if method else 0 :]
    first = len(params) - len(fn.args.defaults)
    out = [(i, p.arg) for i, p in enumerate(params) if i >= first]
    out += [(None, p.arg) for p, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
    return out


def _checked_functions(tree: ast.Module):
    """(name its callers use, definition, is method) of each public function,
    public method and constructor: an __init__ is called by its class name.
    The oracle functions on ALLOWED are left out, since only the checks call
    them; dataclass fields are not checked."""
    names = set(_public_names(tree)) - ALLOWED
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in names:
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef) and node.name in names:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    yield node.name, item, True
                elif isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name, item, True


def _calls(tree: ast.Module):
    """(callee name, positional count, keyword names, takes *args, takes **kwargs)
    of each call; partial(f, ...) counts as a call of f."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        if isinstance(func, ast.Name) and func.id == "partial" and args:
            func, args = args[0], args[1:]
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        yield (
            name,
            len(args),
            {kw.arg for kw in node.keywords if kw.arg is not None},
            any(isinstance(a, ast.Starred) for a in args),
            any(kw.arg is None for kw in node.keywords),
        )


def test_defaulted_parameters_are_set():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    calls = {}
    for tree in trees.values():
        for name, *call in _calls(tree):
            calls.setdefault(name, []).append(call)

    def is_set(callee, position, param):
        return any(
            param in keywords or double_star
            or (position is not None and (n_pos > position or star))
            for n_pos, keywords, star, double_star in calls.get(callee, ())
        )

    unset = [
        f"{module}: {name}({param})"
        for module, tree in trees.items()
        for name, fn, method in _checked_functions(tree)
        for position, param in _defaulted(fn, method)
        if not is_set(name, position, param) and f"{name}({param})" not in UNSET_ALLOWED
    ]
    assert not unset, "defaulted parameters that no call in src/khatom sets: " + ", ".join(unset)
