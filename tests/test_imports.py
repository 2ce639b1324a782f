"""Every imported name is used: an `ast` scan of the package and the tests.

A name counts as used when the module reads it anywhere outside its import
line (a mention inside a string does not count).  `from __future__ import
annotations` binds nothing and is exempt; `__init__.py` only re-exports.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(
    p
    for p in [*(ROOT / "src" / "choiceless").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if p.name != "__init__.py"
)


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_scan_sees_an_unused_import():
    source = "from __future__ import annotations\nimport os, sys\nfrom x import y as z\nsys.exit()\n"
    assert unused_imports(source) == [(2, "os"), (3, "z")]
