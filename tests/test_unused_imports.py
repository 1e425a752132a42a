"""No module in src/, tests/ or tools/ imports a name it never uses.

A name counts as used when the module references it anywhere or lists it in
``__all__``.  Package ``__init__.py`` files re-export by importing, and
imports under ``if TYPE_CHECKING:`` serve annotations only, so both are left
out; so is ``from __future__ import ...``.
"""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _modules():
    for top in ("src", "tests", "tools"):
        for folder, _, files in os.walk(os.path.join(ROOT, top)):
            for name in sorted(files):
                if name.endswith(".py") and name != "__init__.py":
                    yield os.path.relpath(os.path.join(folder, name), ROOT)


def _is_type_checking(test):
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def unused_imports(source):
    """(line, name) of every imported name the module never references."""
    tree = ast.parse(source)
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            skipped.update(id(n) for stmt in node.body for n in ast.walk(stmt))
    imported = []
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, bound))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("relpath", list(_modules()))
def test_no_unused_imports(relpath):
    with open(os.path.join(ROOT, relpath)) as f:
        assert unused_imports(f.read()) == []


def test_detector_sees_unused_and_skips_the_exempt():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import TYPE_CHECKING\n"
        "from json import dumps as d\n"
        "if TYPE_CHECKING:\n"
        "    import decimal\n"
        "__all__ = ['sys']\n"
        "print(os.sep)\n"
    )
    assert unused_imports(source) == [(4, "d")]
