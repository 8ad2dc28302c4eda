"""One-parameter flows and their analytic continuation.

A flow alpha_t(x) = exp(itH_l) x exp(-itH_r) is stored through its
generator pair. Real times act isometrically; complex times are reached
by analytic continuation, which at finite dimension is entire. The
continuation obeys the same group laws and is bounded on every strip by
the maximum of the boundary norms.
"""

import numpy as np

from cstarflow import (
    BlockShape,
    continue_exact,
    evaluate,
    left_companion,
    three_lines_check,
)
from cstarflow.sampling import random_element, random_elements, random_flow, rng

r = rng(7)
shape = BlockShape([2, 3])
g = random_flow(r, shape, norm=2.0)
x = random_element(r, shape)

# One batch of five elements: evaluate acts on each member.
sample = random_elements(r, shape, 5)
print("group law residual over a sample:",
      np.max((evaluate(g, 0.8, evaluate(g, -1.9, sample)) - evaluate(g, 0.8 - 1.9, sample)).norm()))

print("isometry drift at t = 13.7:", abs(evaluate(g, 13.7, x).norm() - x.norm()))

# Semi-multiplicativity ties the flow to its left companion group.
a, b = random_element(r, shape), random_element(r, shape)
lhs = evaluate(left_companion(g), 0.6, b) @ evaluate(g, 0.6, a)
rhs = evaluate(g, 0.6, b @ a)
print("semi-multiplicativity residual:", (lhs - rhs).norm())

# Continuation: inverse and same-side composition.
z, y = 0.4 + 0.5j, -0.2 + 0.3j
print("\ncontinuation at z =", z)
print("  norm growth       :", continue_exact(g, z, x).norm() / x.norm())
print("  inverse residual  :",
      (continue_exact(g, -z, continue_exact(g, z, x)) - x).norm())
comp = continue_exact(g, y, continue_exact(g, z, x))
print("  composition resid :", (comp - continue_exact(g, y + z, x)).norm())

# The strip bound: no interior point beats the boundary norms.
print("  strip-bound excess:", three_lines_check(g, x, z))
