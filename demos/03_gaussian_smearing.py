"""Gaussian smearing: quadrature against the closed form.

The smear x(r, z) averages the flow orbit of x against a Gaussian
centered at z. Two routes compute it: the trapezoidal rule with an
analytically shifted contour, and a closed form in the joint eigenbasis
of the generators. As r grows the smear converges to x at rate 1/r^2,
and rescaled smears approximate x without ever exceeding its norm.
"""

import math

import numpy as np

from cstarflow import (
    BlockShape,
    SmearingPlan,
    continue_exact,
    core_rescale,
    smear_oracle,
    smear_quadrature,
)
from cstarflow.sampling import random_element, random_flow, rng

r = rng(3)
shape = BlockShape([3, 2])
g = random_flow(r, shape, norm=3.0)
x = random_element(r, shape)
z = 0.2 + 0.6j

print("r      nodes  quad_vs_oracle/envelope  dist_to_x      envelope")
for rr in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0):
    plan = SmearingPlan.for_flow(g, rr, z)
    quad = smear_quadrature(g, x, plan)
    oracle = smear_oracle(g, x, rr, z)
    dist = (smear_oracle(g, x, rr, 0.0) - x).norm()
    envelope = x.norm() * math.exp(rr * rr * z.imag * z.imag)
    print(f"{rr:<6} {plan.nodes:<6} {(quad - oracle).norm() / envelope:<24.3e} "
          f"{dist:<14.3e} {envelope:.3e}")

# The smear is analytic: continuing it just moves the Gaussian center.
y = 0.3 - 0.2j
lhs = continue_exact(g, y, smear_oracle(g, x, 2.0, z))
rhs = smear_oracle(g, x, 2.0, z + y)
print("\ncontinuation shifts the center, residual:", (lhs - rhs).norm())

# Rescaled smears approximate x while honoring both norm caps.
# The 12 smears at r = 1, 2, 4, ... are one batch; core_rescale takes the norms
# of their continuations at z in the eigenbasis, without forming them, and
# returns the cap norm(alpha_z(x)) with the rescaled batch.
ys = smear_oracle(g, x, 2.0 ** np.arange(12), 0.0)
rescaled, cap = core_rescale(g, z, x, ys)
print("final rescaled approximant distance:", (rescaled[-1] - x).norm())
worst_cap = max(np.max(rescaled.norm() - x.norm()), np.max(continue_exact(g, z, rescaled).norm() - cap))
print("worst cap excess:", worst_cap)
