"""Two `ast` scans of the source.

Every imported name is used, in the package and the tests.  A name counts
as used when the module reads it anywhere outside its import line (a
mention inside a string does not count).  `from __future__ import
annotations` binds nothing and is exempt; `__init__.py` only re-exports.

The package holds no `assert` statement: `python -O` strips them, and
library code reports a failed self-check as a result or a named error,
never as an `AssertionError`.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "choiceless").glob("*.py"))
MODULES = sorted(p for p in [*PACKAGE, *(ROOT / "tests").glob("*.py")] if p.name != "__init__.py")


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


def assert_lines(source: str):
    return sorted(n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Assert))


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_has_no_assert(path):
    assert assert_lines(path.read_text()) == []


def test_scan_sees_an_assert():
    source = 'def f(x):\n    """assert x"""\n    if x:\n        assert x > 0, "positive"\n    return x\n'
    assert assert_lines(source) == [4]
