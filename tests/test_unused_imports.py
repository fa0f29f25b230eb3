"""Every name a package module imports is used in that module, and every
private module-level name is read somewhere in the package.

No linter ships with the toolchain, so these are the checks: parse each module
under src/bosegas and refuse any imported name that no expression reads (the
package __init__ re-exports, so it is skipped there), and any private
function, class or constant that no module reads.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "bosegas"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    """Names read anywhere, string annotations ("SpacePoints") included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        note = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            names |= used_names(ast.parse(note.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom math import pi, tau\nx: 'Path' = tau\n")
    assert {name for name, _ in imported_names(tree)} - used_names(tree) == {"os", "pi"}


def private_definitions(tree):
    """Module-level functions, classes and constants named _x (not __x__)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                yield name, node.lineno


def read_names(tree):
    """Names loaded, attributes read and names imported."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_no_orphaned_private_names():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    read = set().union(*map(read_names, trees.values()))
    orphans = [f"{module}:{line} {name}" for module, tree in trees.items()
               for name, line in private_definitions(tree) if name not in read]
    assert not orphans, f"private names nothing in src/bosegas reads: {', '.join(orphans)}"


def test_the_check_sees_an_orphaned_private_name():
    tree = ast.parse("import m\nfrom k import _used\n_A = 1\n_B: int = 2\n__all__ = []\n"
                     "def _f(): return _used\ndef _g(): pass\nclass _C: pass\n"
                     "x = _f() + m._A\n")
    assert {name for name, _ in private_definitions(tree)} - read_names(tree) == {
        "_B", "_g", "_C"}
