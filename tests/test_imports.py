"""Tooling gates: no module of the package imports a name it never uses, and
no top-level function or class of the package goes unused.

The modules are read with `ast`, not imported. `__init__.py` is left out of
the import gate, as its imports are the package's re-exports. So are the
names that perfbench/trace.py wraps on a module: the tracer patches them
there, so the module keeps them even where it does not call them. A
top-level definition counts as used when some module of the package reads
its name (as a name or an attribute), when `__init__.py` exports it, or when
perfbench/trace.py wraps it; code that only tests need lives under tests/.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "richflow"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def traced_names() -> dict[str, set[str]]:
    """Module short name -> the names `WRAP_POINTS` patches on it."""
    tree = ast.parse((ROOT / "perfbench" / "trace.py").read_text())
    points = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WRAP_POINTS"]
    )
    out: dict[str, set[str]] = {}
    for point in points.elts:
        _, attr, modules, _ = point.elts
        for module in modules.elts:
            out.setdefault(module.value, set()).add(attr.value)
    return out


def unused_imports(tree: ast.Module) -> list[str]:
    """The names the module's imports bind that no expression reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    unused = unused_imports(ast.parse(path.read_text()))
    exempt = traced_names().get(path.stem, set())
    assert [u for u in unused if u.split()[0] not in exempt] == []


def unused_definitions() -> list[str]:
    """Top-level functions and classes of the package that no module reads,
    `__init__.py` does not export and perfbench/trace.py does not wrap."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    exported = {
        alias.asname or alias.name
        for node in trees["__init__"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    traced = set().union(*traced_names().values())
    return sorted(
        f"{stem}.{node.name}"
        for stem, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in read | exported | traced
    )


def test_every_definition_is_used():
    assert unused_definitions() == []
