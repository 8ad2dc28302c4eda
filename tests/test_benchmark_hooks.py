"""The benchmark tracer's hooks still name live, distinct functions."""

import importlib
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def _load_targets() -> dict:
    # exec the source rather than import it, so nothing is written next to it
    namespace = {"__name__": "benchmark_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    return namespace["TARGETS"]


TARGETS = _load_targets()


def _resolve(module: str, attr: str):
    importlib.import_module(f"cstarflow.{module}")
    obj = sys.modules[f"cstarflow.{module}"]
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_target_resolves_to_a_callable(name):
    assert callable(_resolve(*TARGETS[name]))


def test_targets_are_distinct_objects():
    objs = [_resolve(*target) for target in TARGETS.values()]
    assert len({id(obj) for obj in objs}) == len(objs)
