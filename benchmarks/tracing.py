"""Spans around cstarflow's layers, recorded from outside the package.

``Tracer.install`` rebinds the traced functions and methods in every
``cstarflow`` module that holds them (``from .x import y`` makes a second
binding), so ``src/`` stays untouched; ``uninstall`` puts the originals
back.  Spans live in memory as (scenario, name, start, end, parent) and
are written out by ``write_spans`` when the process ends.

A span's self time is its duration minus the time covered by its child
spans.  Every traced scenario runs under one root span named ``cli.run``,
so the self times of one scenario sum to its wall time, and whatever no
other span covers (the rest of ``cli.run`` and the harness around it) is
charged to ``cli.run``.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT_SPAN = "cli.run"
SAMPLING = "sampling"

# Span name -> (module, attribute).  A dotted attribute is a method.
TARGETS = {
    "continuation.smear_quadrature": ("continuation", "smear_quadrature"),
    "continuation.smear_oracle": ("continuation", "smear_oracle"),
    "continuation.continue_exact": ("continuation", "continue_exact"),
    "continuation.three_lines_check": ("continuation", "three_lines_check"),
    "flows.conjugate": ("flows", "conjugate"),
    "flows.evaluate": ("flows", "evaluate"),
    "composition.double_smear": ("composition", "double_smear"),
    "composition.gamma_continuation_check": ("composition", "gamma_continuation_check"),
    "composition.tensor_continuation_check": ("composition", "tensor_continuation_check"),
    "stone.localize": ("stone", "localize"),
    "stone.induce": ("stone", "induce"),
    "stone.separating_check": ("stone", "separating_check"),
    "stone.hermitian_matrix_power": ("stone", "hermitian_matrix_power"),
    "stone.recovery_report": ("stone", "recovery_report"),
    "stone.stone": ("stone", "stone"),
    "hilbmod.operator_matrix": ("hilbmod", "operator_matrix"),
    "hilbmod.op_power": ("hilbmod", "op_power"),
    "hilbmod.SubalgebraBasis": ("hilbmod", "SubalgebraBasis.__init__"),
    "hilbmod.ModuleOperator.matmul": ("hilbmod", "ModuleOperator.__matmul__"),
    "algebra.spectral": ("algebra", "spectral"),
    "algebra.power": ("algebra", "power"),
    "implemented.implemented_continuation_check": ("implemented", "implemented_continuation_check"),
    "implemented.localized_middle_check": ("implemented", "localized_middle_check"),
    "cli.validate": ("cli", "validate"),
}

# Every span name that can carry self time: the targets, every public
# function of cstarflow.sampling (one span name), and the scenario root.
SPANS = (*TARGETS, SAMPLING, ROOT_SPAN)

# Work counts recorded at span boundaries, per traced scenario.
COUNTS = (
    "continuation.smear_quadrature.nodes",
    "composition.double_smear.node_pairs",
    "stone.localize.gns_dim",
    "stone.recover_generator.halvings",
    "hilbmod.SubalgebraBasis.dim",
    "hilbmod.SubalgebraBasis.candidates",
)

MODULES = ("algebra", "flows", "continuation", "composition", "hilbmod", "stone",
           "implemented", "sampling", "cli")


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


class Tracer:
    """In-memory span recorder over the cstarflow package."""

    def __init__(self, package):
        self._package = package
        self.spans: list[tuple] = []
        self.errors: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span index, start, child time]
        self._open: dict[str, int] = defaultdict(int)  # open spans per name
        self._scenario = None
        self._agg = self._new_agg()
        self.setup = self._agg
        self._patches: list[tuple] = []
        self._min_nodes = self._module("continuation").min_nodes
        for name, (module, attr) in TARGETS.items():
            self._wrap(name, module, attr)
        sampling = self._module("sampling")
        for attr, fn in vars(sampling).items():
            if inspect.isfunction(fn) and fn.__module__ == sampling.__name__ and not attr.startswith("_"):
                self._wrap(SAMPLING, "sampling", attr)
        self._wrap_counter("hilbmod", "operator_vec")

    @staticmethod
    def _new_agg() -> dict:
        return {"calls": defaultdict(int), "self_s": defaultdict(float), "total_s": defaultdict(float),
                "counts": defaultdict(float)}

    # ------------------------------------------------------------ patching

    def _module(self, name: str):
        # sys.modules, not getattr: the package re-exports a function named
        # ``stone`` that shadows the ``stone`` submodule.
        return sys.modules[f"{self._package.__name__}.{name}"]

    def _sites(self, module: str, attr: str):
        """(owner, attribute, original) for every binding of the target."""
        owner = self._module(module)
        if "." in attr:
            cls, meth = attr.split(".")
            klass = getattr(owner, cls)
            return [(klass, meth, vars(klass)[meth])]
        original = getattr(owner, attr)
        sites = []
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == self._package.__name__ or mod_name.startswith(self._package.__name__ + "."):
                for key, val in list(vars(mod).items()):
                    if val is original:
                        sites.append((mod, key, original))
        return sites

    def _wrap(self, name: str, module: str, attr: str) -> None:
        for owner, key, original in self._sites(module, attr):
            self._patches.append((owner, key, original, self._span_wrapper(name, module, original)))

    def _wrap_counter(self, module: str, attr: str) -> None:
        # operator_vec calls made directly inside the closure are its candidates
        def counter(original):
            def wrapper(*args, **kwargs):
                if self._stack and self.spans[self._stack[-1][0]][1] == "hilbmod.SubalgebraBasis":
                    self._agg["counts"]["hilbmod.SubalgebraBasis.candidates"] += 1
                return original(*args, **kwargs)
            return wrapper

        for owner, key, original in self._sites(module, attr):
            self._patches.append((owner, key, original, counter(original)))

    def install(self) -> None:
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)

    # --------------------------------------------------------------- spans

    def _enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self._open[name] += 1
        self.spans.append((self._scenario, name, 0.0, 0.0, parent))
        self._stack.append([len(self.spans) - 1, time.perf_counter(), 0.0])

    def _exit(self) -> float:
        end = time.perf_counter()
        idx, start, child = self._stack.pop()
        scenario, name, _, _, parent = self.spans[idx]
        self.spans[idx] = (scenario, name, start, end, parent)
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        self._agg["calls"][name] += 1
        self._agg["self_s"][name] += duration - child
        self._open[name] -= 1
        if not self._open[name]:  # outermost span of this name: inclusive time
            self._agg["total_s"][name] += duration
        return duration

    def _span_wrapper(self, name: str, module: str, original):
        hook = getattr(self, "_count_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            self._enter(name)
            try:
                result = original(*args, **kwargs)
            except Exception:
                self.errors[module] += 1
                raise
            finally:
                self._exit()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def scenario(self, index: int, body):
        """Run ``body()`` under the root span; returns (result, per-scenario trace)."""
        self._scenario, self._agg = index, self._new_agg()
        self.install()
        self._enter(ROOT_SPAN)
        try:
            result = body()
        finally:
            wall = self._exit()
            self.uninstall()
            agg, self._scenario, self._agg = self._agg, None, self.setup
        return result, {"wall_s": wall, **agg}

    def write_spans(self, path: Path) -> None:
        with path.open("w") as fh:
            for scenario, name, start, end, parent in self.spans:
                fh.write(json.dumps({"scenario": scenario, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")

    # -------------------------------------------------------- work counts

    def _count_continuation_smear_quadrature(self, args, kwargs, result):
        self._agg["counts"]["continuation.smear_quadrature.nodes"] += _arg(args, kwargs, 2, "plan").nodes

    def _count_composition_double_smear(self, args, kwargs, result):
        pair, n = _arg(args, kwargs, 0, "p"), _arg(args, kwargs, 2, "n")
        z = complex(_arg(args, kwargs, 3, "z", 0.0))
        nodes = _arg(args, kwargs, 4, "nodes") or (
            self._min_nodes(pair.alpha, n, z), self._min_nodes(pair.beta, n, z))
        self._agg["counts"]["composition.double_smear.node_pairs"] += nodes[0] * nodes[1]

    def _count_stone_localize(self, args, kwargs, result):
        counts = self._agg["counts"]
        counts["stone.localize.gns_dim"] = max(counts["stone.localize.gns_dim"], result.d)

    def _count_stone_recovery_report(self, args, kwargs, result):
        self._agg["counts"]["stone.recover_generator.halvings"] += result["halvings"]

    def _count_hilbmod_SubalgebraBasis(self, args, kwargs, result):
        self._agg["counts"]["hilbmod.SubalgebraBasis.dim"] += args[0].dim
