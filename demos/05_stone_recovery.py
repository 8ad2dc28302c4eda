"""Recovering the positive generator of a unitary one-parameter group.

Given only a sampled group t -> u_t of unitary module operators, there
is a unique strictly positive T with u_t = T^(it). Recovery takes the
principal logarithm of u(t0); when the spectrum of log T reaches past
pi the phases wrap and the halving check shrinks t0 until the branch is
unambiguous.
"""

import json

import numpy as np

from cstarflow import (
    AlgebraElement,
    BlockShape,
    ModuleOperator,
    SampledUnitaryGroup,
    op_exp,
    op_power,
    recovery_report,
    stone,
)
from cstarflow.sampling import random_positive_operator, rng

r = rng(5)
shape = BlockShape([2])
t_true = random_positive_operator(r, shape, k=2, cond=1e3)
u = SampledUnitaryGroup.from_positive(t_true)

t_rec = stone(u)
print("round-trip error:", (t_rec - t_true).norm() / t_true.norm())

# Continuation to complex parameters: u_z = T^(iz); at z = -i this is T.
print("u at z = -i recovers T:", (op_power(t_rec, 1j * (-1j)) - t_true).norm())

# A generator with log-spectrum reaching 6 wraps at t0 = 1.  At k = 1 the
# flat element is the single grid entry, so the operator is built from it.
k_wide = ModuleOperator(AlgebraElement.from_blocks([np.diag([6.0, 0.0])]), 1)
report = recovery_report(SampledUnitaryGroup.from_positive(op_exp(k_wide)), t0=1.0)
print("\nwide-spectrum recovery report:")
print(json.dumps(report, indent=2, sort_keys=True)[:400], "...")
print("halvings spent:", report["halvings"], "| accepted t0:", report["t0_used"])
