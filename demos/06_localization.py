"""Localizing a Hilbert module at a positive functional.

A positive functional omega on the algebra (a block density element)
turns the module E = A^k into a concrete Hilbert space: the map
Lambda_omega satisfies <Lambda v, Lambda w> = omega(<v, w>), and module
operators induce operators acting there, held as their Kronecker
factors F_b (x) I. The induction is a *-homomorphism, compatible with
complex powers (taken factor by factor), and a faithful family of
states separates operators.
"""

import numpy as np

from cstarflow import (
    BlockShape,
    identity_operator,
    induce,
    induced_power_check,
    inner,
    localize,
    op_power,
    separating_check,
)
from cstarflow.sampling import (
    random_operator,
    random_positive_operator,
    random_state,
    random_vector,
    rng,
)

r = rng(6)
shape, k = BlockShape([2, 2]), 2
omega = random_state(r, shape)
loc = localize(omega, k)
print(f"localized dimension d = {loc.d} (module has complex dimension {k * shape.dim})")

v, w = random_vector(r, shape, k), random_vector(r, shape, k)
gram_lhs = complex(np.vdot(loc.apply(w), loc.apply(v)))
gram_rhs = omega.value(inner(v, w))
print("Gram identity defect:", abs(gram_lhs - gram_rhs))

s = random_operator(r, shape, k)
s_om = induce(loc, s)
y = loc.apply(v)
print("intertwining defect:", np.linalg.norm(s_om.apply(y) - loc.apply(s @ v)))
print("homomorphism defect:",
      np.linalg.norm(induce(loc, s @ s).apply(y) - (s_om @ s_om).apply(y)))

t = random_positive_operator(r, shape, k, cond=100.0)
t_om = induce(loc, t)
zs = (0.5, 1j)
# the power of each k n_b x k n_b factor, never of a d x d matrix; the grid
# is one batch on both sides, and one check estimates every member
defects = np.linalg.norm(t_om.power(zs).apply(y) - loc.apply(op_power(t, zs) @ v), axis=-1)
for z, defect, estimate in zip(zs, defects, induced_power_check(loc, t, zs)):
    print(f"power compatibility at z = {z}: {defect:.3e}"
          f" (whole module, randomized upper estimate from 10 probes with alpha = 4,"
          f" below the norm with probability < 1e-10: {estimate:.3e})")

# A faithful state pins operators down; small perturbations are seen.
bumped = s + 1e-3 * identity_operator(shape, k)
print("separation sees a 1e-3 perturbation:",
      not separating_check(s, bumped, [omega]))
