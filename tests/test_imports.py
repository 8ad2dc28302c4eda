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


# receivers whose attributes are top-level names: the package, its modules, and the
# handle ``benchmarks/worker.py`` keeps the package under (``lib``, ``self.lib``)
MODULE_HANDLES = {"cstarflow", "lib", *(p.stem for p in MODULES)}


def reads(tree: ast.AST) -> Counter:
    """How often each name is read in ``tree``, keyed ``("top", name)`` or ``("member", name)``.

    A bare name, or an attribute of a module handle, reads a top-level function, class or
    constant; any other attribute reads a method or property.  So ``x.star()`` reads no
    function ``star``, ``np.zeros`` no function ``zeros``, and a variable ``times`` no method.
    """
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out["top", node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            receiver = getattr(node.value, "id", getattr(node.value, "attr", None))
            out["top" if receiver in MODULE_HANDLES else "member", node.attr] += 1
    return out


def traced_names() -> set[tuple[str, str]]:
    """The names ``benchmarks/tracing.TARGETS`` spans by string, keyed as ``reads`` keys them."""
    tree = ast.parse((ROOT / "benchmarks" / "tracing.py").read_text())
    targets = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "TARGETS" for t in node.targets))
    paths = [attr.split(".") for _, attr in ast.literal_eval(targets).values()]
    return {("top", top) for top, *_ in paths} | {("member", m) for _, *members in paths for m in members}


def unused_public_names(modules: dict[str, ast.Module], users: set[tuple[str, str]]) -> list[str]:
    """``module.name`` of each public definition that no module reads outside it, and ``users`` lacks."""
    everywhere = sum((reads(tree) for tree in modules.values()), Counter())
    found = []
    for module, tree in modules.items():
        for name, node in public_definitions(tree):
            owner, _, leaf = name.rpartition(".")
            key = ("member" if owner else "top", leaf)
            if key not in users and everywhere[key] == reads(node)[key]:
                found.append(f"{module}.{name}")
    return found


def test_every_public_name_has_a_user_outside_tests():
    """Exactly the allowlisted names lack a user: a listed name that gains one, or is gone, fails too."""
    modules = {p.stem: ast.parse(p.read_text()) for p in MODULES if p.name != "__init__.py"}
    users = traced_names()
    for path in [*(ROOT / "demos").glob("*.py"), *(ROOT / "benchmarks").glob("*.py")]:
        users |= set(reads(ast.parse(path.read_text())))
    assert sorted(unused_public_names(modules, users)) == sorted(UNUSED_ALLOWED)


def test_the_scan_finds_names_only_their_own_definition_reads():
    source = ("LIMIT = 1\nKNOB = 2\n\nclass A:\n    def f(self):\n        return self.f() + KNOB\n\n"
              "    def g(self):\n        return A\n\ndef h():\n    return h()\n")
    assert unused_public_names({"m": ast.parse(source)}, set()) == ["m.LIMIT", "m.A", "m.A.f", "m.A.g", "m.h"]
    users = {("member", "f"), ("top", "h"), ("top", "LIMIT")}
    assert unused_public_names({"m": ast.parse(source)}, users) == ["m.A", "m.A.g"]


def test_the_scan_tells_functions_from_methods_and_variables():
    # a method read as .star(), np.zeros and a local named times use none of the three;
    # a bare name, a module handle's attribute and any other attribute are reads
    source = ("import numpy as np\n\ndef star(x):\n    return x\n\ndef zeros(n):\n    return n\n\n"
              "class A:\n    def star(self):\n        return self\n\n    def times(self):\n        return 1\n\n"
              "def use(a: A):\n    times = np.zeros(3)\n    return a.star(), times\n")
    users = {("top", "use")}
    assert unused_public_names({"m": ast.parse(source)}, users) == ["m.star", "m.zeros", "m.A.times"]
    assert unused_public_names({"m": ast.parse(source)}, users | {("top", "star"), ("member", "times")}) == ["m.zeros"]
    calls = "def f(self, lib, p):\n    return self.lib.star(), lib.zeros(), cstarflow.algebra.A, p.times\n"
    assert {("top", "star"), ("top", "zeros"), ("top", "A"), ("member", "times")} <= set(reads(ast.parse(calls)))
    assert ("member", "star") not in reads(ast.parse(calls))
