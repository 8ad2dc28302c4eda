"""Scenario inputs of each workload, generated from the workload seed.

A scenario is what one closed-loop client does between two requests: a
list of configs passed through ``cstarflow.cli.validate`` and run with
``cstarflow.cli.run``, plus (``smear`` only) one library call to
``composition.double_smear``.  Everything here is plain data derived
from the seed; the program only ever sees the generated configs.

See README.md for why each workload exists and which layer it stresses.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("smear", "gns", "closure", "bundled")

# Distinct scenarios per run.  The timed loop cycles through them, so each
# one runs several times per run and its CSV digest can be compared.
POOL_SIZE = 3

# double_smear inputs of the smear workload: a commuting pair on one
# 32x32 block with norm 2, smearing index 0.5 at z = 0.25i (85 x 85 nodes).
DOUBLE_SMEAR = {"shape": [32], "norm": 2.0, "index": 0.5, "z": 0.25j}


def _converge(seed: int) -> dict:
    # n = 64, random flow of norm 4 on each side (nu_max = 8), z = 0.5i:
    # 1057 + 289 + 97 Gauss-Hermite nodes.
    return {
        "experiment": "converge",
        "seed": seed,
        "shape": [64],
        "flow": {"kind": "random", "norm": 4.0},
        "grid": {"r": [0.25, 0.5, 1.0], "z_re": [0.0], "z_im": [0.5]},
    }


def _gns(seed: int) -> dict:
    # d = k * sum(n^2) = 2 * (100 + 36) = 272: dense GNS localization.
    return {"experiment": "stone", "seed": seed, "shape": [10, 6], "module_rank": 2}


def _closure(seed: int) -> dict:
    # k * n = 6, so the closure of the matrix units has dimension 36.
    return {"experiment": "implemented", "seed": seed, "shape": [3], "module_rank": 2}


def _bundled(seed: int, bundled_dir: Path) -> list[dict]:
    out = []
    for path in sorted(bundled_dir.glob("*.json")):
        raw = json.loads(path.read_text())
        raw["seed"] = seed
        out.append(raw)
    return out


def scenario_specs(workload: str, seed: int, bundled_dir: Path) -> list[dict]:
    """``POOL_SIZE`` scenario specs: ``{"configs": [...], "double_smear": seed | None}``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose one of {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    specs = []
    for _ in range(POOL_SIZE):
        s = rng.randrange(1, 2**31)
        if workload == "smear":
            specs.append({"configs": [_converge(s)], "double_smear": s + 1})
        elif workload == "gns":
            specs.append({"configs": [_gns(s)], "double_smear": None})
        elif workload == "closure":
            specs.append({"configs": [_closure(s)], "double_smear": None})
        else:
            configs = _bundled(s, bundled_dir)
            if not configs:
                raise FileNotFoundError(f"no bundled configs under {bundled_dir}")
            specs.append({"configs": configs, "double_smear": None})
    return specs
