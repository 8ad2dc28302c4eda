"""Smoke test of the benchmark: every workload at minimum length.

    python3 -m pytest -q benchmarks/test_smoke.py

Checks that each run passes its own correctness and determinism checks
and emits exactly the metrics named in BENCHMARK.json, each with its
unit, and that outside a checkout the benchmark fails without a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, script: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_emits_every_metric_with_its_unit(workload, trace):
    proc = run_bench(ROOT, HERE / "run.py", workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in named}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_fails_without_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, tmp_path / HERE.name / "run.py", "bundled", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
