"""Package layout: each module imports the package's modules at its top, never inside a function,
uses every name it imports, and has a user for every public name it defines.

A function-local import of a package module hides an import cycle; the standard library and
numpy may still be imported where they are needed.  A name imported and never used is left
behind by a change that removed its last use; ``__init__.py`` imports its names to export them.
A public name that only tests read is test code in ``src/``: it belongs in ``tests/conftest.py``.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cstarflow"
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


CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*$")
# public names with no user in src/, demos/ or benchmarks/, and why each stays
UNUSED_ALLOWED = {
    "continuation.weak_continuation_check": "states the paper's weak-to-norm continuation, which a test checks",
    "hilbmod.affiliation_test": "states the paper's affiliation criterion, which a test checks",
    "stone.vector_smear": "the paper's smear on a module, and the closed form for a module smear quadrature",
    "serialize.element_to_payload": "writes the one payload format that configs read",
}


def public_definitions(tree: ast.Module):
    """(name, node) of each public top-level function, class, method and UPPER_CASE constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and CONSTANT.match(target.id):
                    yield target.id, node


def name_counts(tree: ast.AST) -> Counter:
    """How often each name and attribute is read in ``tree``."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def traced_names() -> set[str]:
    """The attribute names ``benchmarks/tracing.TARGETS`` spans by string."""
    tree = ast.parse((ROOT / "benchmarks" / "tracing.py").read_text())
    targets = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "TARGETS" for t in node.targets))
    return {part for _, attr in ast.literal_eval(targets).values() for part in attr.split(".")}


def unused_public_names(modules: dict[str, ast.Module], users: set[str]) -> list[str]:
    """``module.name`` of each public definition that no module reads outside it, and ``users`` lacks."""
    everywhere = sum((name_counts(tree) for tree in modules.values()), Counter())
    return [f"{module}.{name}" for module, tree in modules.items() for name, node in public_definitions(tree)
            if (leaf := name.rpartition(".")[2]) not in users and everywhere[leaf] == name_counts(node)[leaf]]


def test_every_public_name_has_a_user_outside_tests():
    modules = {p.stem: ast.parse(p.read_text()) for p in MODULES if p.name != "__init__.py"}
    users = traced_names()
    for path in [*(ROOT / "demos").glob("*.py"), *(ROOT / "benchmarks").glob("*.py")]:
        users |= set(name_counts(ast.parse(path.read_text())))
    assert sorted(set(unused_public_names(modules, users)) - set(UNUSED_ALLOWED)) == []


def test_the_scan_finds_names_only_their_own_definition_reads():
    source = ("LIMIT = 1\nKNOB = 2\n\nclass A:\n    def f(self):\n        return self.f() + KNOB\n\n"
              "    def g(self):\n        return A\n\ndef h():\n    return h()\n")
    assert unused_public_names({"m": ast.parse(source)}, set()) == ["m.LIMIT", "m.A", "m.A.f", "m.A.g", "m.h"]
    assert unused_public_names({"m": ast.parse(source)}, {"f", "h", "LIMIT"}) == ["m.A", "m.A.g"]
