"""Every name a selreg module imports is used in that module, and every
private name a module defines is read somewhere in the package.

A removal that leaves its imports or its private helpers behind fails
here. ``__init__.py`` imports to re-export, so its imports are not checked.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "selreg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> list[str]:
    """The names bound by the module's imports, at any depth; an
    ``import a.b`` binds ``a``."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def private_definitions(tree: ast.Module) -> list[str]:
    """The private names of the module's top-level functions, classes and
    assignments; dunder names such as ``__version__`` are not private."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for target in targets for t in ast.walk(target)
                      if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)]
    return [n for n in names if n.startswith("_") and not n.endswith("__")]


def names_read(tree: ast.Module) -> set[str]:
    """Names loaded bare (``_f``) or as an attribute (``module._f``)."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)})


def test_every_module_is_checked():
    assert {p.name for p in MODULES} >= {"abstention.py", "cli.py",
                                         "estimators.py", "experiments.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name in imported_names(tree) if name not in used] == []


def test_every_private_name_is_read_in_the_package():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in SRC.glob("*.py")}
    read = set().union(*map(names_read, trees.values()))
    unread = [f"{name}: {n}" for name, tree in sorted(trees.items())
              for n in private_definitions(tree) if n not in read]
    assert unread == []


def test_an_unread_private_helper_is_found():
    tree = ast.parse("def _gone(x):\n    return x\n\n_KEPT = 1\n"
                     "def f():\n    return _KEPT\n")
    assert private_definitions(tree) == ["_gone", "_KEPT"]
    assert [n for n in private_definitions(tree)
            if n not in names_read(tree)] == ["_gone"]
