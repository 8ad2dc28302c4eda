"""A fixed census of drawn configs: how many are refused, how the others exit, and which checks miss.

Run it from the root of the repository:

    PYTHONPATH=src python tests/census.py

It draws 400 configs with seed 1 from one fixed distribution:

- any experiment, with a random flow where it reads one;
- shapes of 1-2 blocks with n <= 3, and module_rank <= 3;
- flow norm from 1e-3 to 30 and each width r from 1e-2 to 1e3, both on a log scale;
- 1-2 points each of z_re in [-2, 2] and of z_im, whose |Im z| runs from 1e-3 to 80 on a log scale;
- 4-6 instances where the experiment reads them, as many as verify needs for its one grid point per
  instance.

Each config goes through ``cstarflow run`` in process, as the command line runs it.  The
output is plain text, and it is the same on every run with the same numpy build and BLAS
thread count.  Pytest does not collect this file.

Do not re-draw, resize or re-seed the census to move a count.  A change to its distribution
is a change of its own, reported with the old and the new counts side by side.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import tempfile
from collections import Counter
from pathlib import Path
from typing import Callable

from cstarflow.cli import COMMON, EXPERIMENTS, main

SEED = 1
COUNT = 400


def _log_uniform(draw: random.Random, low: float, high: float) -> float:
    return 10.0 ** draw.uniform(math.log10(low), math.log10(high))


def drawn_config(draw: random.Random) -> dict:
    """One config of the census distribution."""
    name = draw.choice(sorted(EXPERIMENTS))
    experiment = EXPERIMENTS[name]
    reads = {*COMMON, *experiment.reads, *experiment.by_kind.get("random", ())}
    shape = [draw.randint(1, 3) for _ in range(draw.randint(1, 2))]
    raw = {"experiment": name, "seed": draw.randrange(2**31), "shape": shape,
           "grid": {"z_re": [draw.uniform(-2.0, 2.0) for _ in range(draw.randint(1, 2))],
                    "z_im": [draw.choice((-1.0, 1.0)) * _log_uniform(draw, 1e-3, 80.0)
                             for _ in range(draw.randint(1, 2))]}}
    if "flow.norm" in reads:
        raw["flow"] = {"norm": _log_uniform(draw, 1e-3, 30.0)}
    if "grid.r" in reads:
        raw["grid"]["r"] = [_log_uniform(draw, 1e-2, 1e3) for _ in range(draw.randint(1, 3))]
    if "instances" in reads:
        raw["instances"] = draw.randint(4, 6)
    if "module_rank" in reads:
        raw["module_rank"] = draw.randint(1, 3)
    return raw


def outcome(raw: dict, tmp: Path) -> tuple[str, list[str]]:
    """The exit of one config (``exit N``, or the type of what it raised) and the checks it missed."""
    config, out = tmp / "config.json", tmp / raw["experiment"]
    config.write_text(json.dumps(raw))
    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(["run", str(config), "--out", str(out), "--quiet"])
        except Exception as exc:  # the census counts a traceback, and goes on
            return f"raised {type(exc).__name__}", []
    if code != 1:
        return f"exit {code}", []
    checks = json.loads((out / "report.json").read_text())["checks"]
    return "exit 1", [f"{raw['experiment']}.{c['name']}" for c in checks if not c["passed"]]


def census(seed: int = SEED, count: int = COUNT, drawn: Callable[[random.Random], dict] = drawn_config) -> str:
    """The printout of ``count`` configs that ``drawn`` draws, one after another, from ``random.Random(seed)``."""
    draw = random.Random(seed)
    exits, misses, patterns = Counter(), Counter(), Counter()
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(count):
            exit_, missed = outcome(drawn(draw), Path(tmp))
            exits[exit_] += 1
            misses.update(missed)
            if missed:
                patterns[" + ".join(missed)] += 1
    admitted = count - exits["exit 2"]
    lines = [f"census of {count} configs, seed {seed}",
             f"refused (exit 2): {exits['exit 2']}",
             f"admitted: {admitted}"]
    lines += [f"  {exit_}: {n}" for exit_, n in sorted(exits.items()) if exit_ != "exit 2"]
    lines.append("misses per check:")
    lines += [f"  {check}: {n}" for check, n in sorted(misses.items())]
    lines.append("configs per set of missed checks:")
    lines += [f"  {pattern}: {n}" for pattern, n in sorted(patterns.items())]
    return "\n".join(lines)


if __name__ == "__main__":
    print(census())
