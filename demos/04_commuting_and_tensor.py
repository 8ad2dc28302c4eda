"""Commuting flows, their product, and tensor products of flows.

When two flows commute sidewise, the pointwise product gamma_t =
alpha_t beta_t is again a flow whose generators are the sums, and the
continuations factor: gamma_z = alpha_z beta_z in either order. Tensor
products behave the same way on the Kronecker algebra.
"""

from cstarflow import (
    BlockShape,
    CommutingPair,
    continue_exact,
    double_smear,
    gamma_continuation_check,
    smear_oracle,
    tensor_continuation_check,
    tensor_element,
    tensor_flow,
)
from cstarflow.sampling import random_commuting_flows, random_element, random_flow, rng

r = rng(12)
shape = BlockShape([2, 2])
alpha, beta = random_commuting_flows(r, shape, norm=1.5)
pair = CommutingPair(alpha, beta)
x = random_element(r, shape)

z = 0.3 + 0.4j
print("product-flow continuation residual at z:", gamma_continuation_check(pair, [z], x)[0])

gamma = pair.product
print("gamma generator norm:", gamma.generator_norm())

# Two-variable smears agree with iterated one-variable smears (Fubini).
two_var = double_smear(pair, x, 2.0, z)
iterated = smear_oracle(alpha, smear_oracle(beta, x, 2.0, z), 2.0, z)
print("double smear vs iterated smears:", (two_var - iterated).norm())

# Applying gamma_z to the centered double smear shifts both centers.
lhs = continue_exact(gamma, z, double_smear(pair, x, 2.0, 0.0))
print("gamma_z of centered smear vs shifted smear:",
      (lhs - double_smear(pair, x, 2.0, z)).norm())

# Tensor products: the continuation acts factorwise.
shape_b = BlockShape([2])
tf = tensor_flow(random_flow(r, shape_b, 1.0), random_flow(r, shape_b, 1.0))
u = random_element(r, shape_b)
v = random_element(r, shape_b)
print("\ntensor continuation residual:", tensor_continuation_check(tf, [z], u, v)[0])
w = tensor_element(u, v)
print("Kronecker norm multiplicativity:", abs(w.norm() - u.norm() * v.norm()))
