"""Package layout: each module imports the package's modules at its top, never inside a function.

A function-local import of a package module hides an import cycle; the standard library and
numpy may still be imported where they are needed.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cstarflow"
MODULES = sorted(PACKAGE.glob("*.py"))


def local_package_imports(source: str) -> list[tuple[str, int]]:
    """(function, line) of each import of a package module inside a function body."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] if node.level == 0 else ["cstarflow"]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                if any(name.split(".")[0] == "cstarflow" for name in names):
                    found.append((fn.name, node.lineno))
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_package_modules_are_imported_at_the_top(path):
    assert local_package_imports(path.read_text()) == []


def test_the_scan_tells_package_imports_from_others():
    assert local_package_imports("def f():\n    from .sampling import rng\n") == [("f", 2)]
    assert local_package_imports("def f():\n    import cstarflow.stone\n") == [("f", 2)]
    assert local_package_imports("def f():\n    from decimal import Decimal\n") == []
    assert local_package_imports("from .sampling import rng\n") == []
