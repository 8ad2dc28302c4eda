"""Package layout: each module imports the package's modules at its top, never inside a function,
and uses every name it imports.

A function-local import of a package module hides an import cycle; the standard library and
numpy may still be imported where they are needed.  A name imported and never used is left
behind by a change that removed its last use; ``__init__.py`` imports its names to export them.
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


def unused_imports(source: str) -> list[str]:
    """Names a module imports (``__future__`` features aside) and never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=[p.name for p in MODULES if p.name != "__init__.py"])
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_finds_unused_names():
    source = ("from __future__ import annotations\nimport numpy as np\nimport os.path\n"
              "from typing import Callable, Sequence\n\ndef f(g: Callable) -> None:\n    np.sum(os.sep)\n")
    assert unused_imports(source) == ["Sequence"]
