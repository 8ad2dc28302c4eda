"""A fixed census of drawn configs at the sizes of the scaled targets, in the format of ``census.py``.

Run it from the root of the repository:

    PYTHONPATH=src python tests/census_scaled.py

It draws 130 configs with seed 2 from one fixed distribution:

- any experiment, with a random flow where it reads one;
- shapes of 1-2 blocks with n from 8 to 96, and module_rank <= 4;
- flow norm from 1e-2 to 10 and each width r from 0.1 to 10, both on a log scale;
- 1-2 points each of z_re in [-2, 2] and of z_im, whose |Im z| runs from 1e-3 to 10 on a log scale;
- 4-6 instances where the experiment reads them, as many as verify needs for its one grid point per
  instance.

``census.py`` draws n <= 3, where no stack reaches the split norm's work floor and no member the
size rules of the norm kernel; this census reaches both, and the eigenbasis route of ``converge``
at the sizes where it saves the most.  Configs over a budget are refused (exit 2) as the command
line refuses them; about 100 are admitted, and they run in about 15 s on one BLAS thread.  The
output is the same on every run with the same numpy build and BLAS thread count.  Pytest does not
collect this file.

Do not re-draw, resize or re-seed the census to move a count.  A change to its distribution
is a change of its own, reported with the old and the new counts side by side.
"""

from __future__ import annotations

import random

from cstarflow.cli import COMMON, EXPERIMENTS

from census import _log_uniform, census

SEED = 2
COUNT = 130


def drawn_config(draw: random.Random) -> dict:
    """One config of the scaled census distribution."""
    name = draw.choice(sorted(EXPERIMENTS))
    experiment = EXPERIMENTS[name]
    reads = {*COMMON, *experiment.reads, *experiment.by_kind.get("random", ())}
    shape = [draw.randint(8, 96) for _ in range(draw.randint(1, 2))]
    raw = {"experiment": name, "seed": draw.randrange(2**31), "shape": shape,
           "grid": {"z_re": [draw.uniform(-2.0, 2.0) for _ in range(draw.randint(1, 2))],
                    "z_im": [draw.choice((-1.0, 1.0)) * _log_uniform(draw, 1e-3, 10.0)
                             for _ in range(draw.randint(1, 2))]}}
    if "flow.norm" in reads:
        raw["flow"] = {"norm": _log_uniform(draw, 1e-2, 10.0)}
    if "grid.r" in reads:
        raw["grid"]["r"] = [_log_uniform(draw, 0.1, 10.0) for _ in range(draw.randint(1, 3))]
    if "instances" in reads:
        raw["instances"] = draw.randint(4, 6)
    if "module_rank" in reads:
        raw["module_rank"] = draw.randint(1, 4)
    return raw


if __name__ == "__main__":
    print(census(SEED, COUNT, drawn_config))
