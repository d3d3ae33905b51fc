"""No module of the package imports a name it never uses, and rendering imports no more than it needs.

No linter is assumed: each module is parsed with ``ast``, and an imported
name counts as used when it appears as a name anywhere in the module.
Imports kept only for the traced benchmark run carry ``# noqa: F401``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hilbertrep"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The imported names never referenced, except on lines marked ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[(alias.asname or alias.name).split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {lineno}: {name}" for name, lineno in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_caught():
    source = "from __future__ import annotations\nfrom .ratmat import matrix, vector\nvector(())\n"
    assert unused_imports(source) == ["line 2: matrix"]
    assert unused_imports("import os.path\nos.sep\n") == []
    assert unused_imports("import os  # noqa: F401\n") == []


def package_imports(name: str) -> set[str]:
    """The package modules ``name`` imports, directly or through other package modules."""
    found, todo = set(), [name]
    while todo:
        tree = ast.parse((PACKAGE / f"{todo.pop()}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                modules = [node.module] if node.module else [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hilbertrep."):
                modules = [node.module.split(".")[1]]
            elif isinstance(node, ast.Import):
                modules = [alias.name.split(".")[1] for alias in node.names if alias.name.startswith("hilbertrep.")]
            else:
                continue
            todo.extend(sorted(set(modules) - found))
            found.update(modules)
    return found


def test_bitmap_imports_neither_linrep_nor_verify():
    """Rendering reads the sync machine only; linear representations and suites stay off its path."""
    imported = package_imports("bitmap")
    assert {"dfao", "oracle", "sync"} <= imported
    assert not imported & {"linrep", "verify"}
