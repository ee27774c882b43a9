"""Every name a selreg module imports is used in that module.

A removal that leaves its imports behind fails here. ``__init__.py``
imports to re-export, so it is not checked.
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


def test_every_module_is_checked():
    assert {p.name for p in MODULES} >= {"abstention.py", "cli.py",
                                         "estimators.py", "experiments.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name in imported_names(tree) if name not in used] == []
