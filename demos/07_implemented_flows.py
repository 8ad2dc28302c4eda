"""Flows implemented by strictly positive module operators.

With S, T strictly positive and a carrier subalgebra B preserved by
conjugation, alpha_t(x) = S^(it) x T^(-it) is a semi-multiplicative
flow on B. Its analytic continuation is the middle product
S^(iz) x T^(-iz), and localizations see the same middle products.
"""

from cstarflow import (
    BlockShape,
    ImplementedFlow,
    SubalgebraBasis,
    implemented_continuation_check,
    implemented_evaluate,
    localize,
    localized_middle_check,
    matrix_unit_operators,
    middle_multiplier,
    op_power,
)
from cstarflow.sampling import (
    random_operator,
    random_positive_operator,
    random_state,
    rng,
)

r = rng(9)
shape, k = BlockShape([2]), 2
basis = SubalgebraBasis(matrix_unit_operators(shape, k))
s = random_positive_operator(r, shape, k, cond=100.0)
t = random_positive_operator(r, shape, k, cond=100.0)
flow = ImplementedFlow(s, t, basis)

x = random_operator(r, shape, k, norm=1.0)
y = implemented_evaluate(flow, 0.7, x)
print("flow keeps the carrier span, residual:", basis.residual(y))

# Left companion is implemented by S alone (semi-multiplicativity).
ad_s = op_power(s, 0.7j) @ x @ op_power(s, -0.7j)
lhs = ad_s @ implemented_evaluate(flow, 0.7, x)
rhs = implemented_evaluate(flow, 0.7, x @ x)
print("semi-multiplicativity residual:", (lhs - rhs).norm())

# Two ways to continue the flow agree.
zs = (0.5j, 1.0 + 1.0j)
for z, resid in zip(zs, implemented_continuation_check(flow, zs, x)):
    print(f"continuation routes at z = {z}:", resid)

# Localizations turn middle products into middle products.
omega = random_state(r, shape)
loc = localize(omega, shape, k)
print("localized middle product residual:",
      localized_middle_check(loc, s, x, t))
print("middle product norm:", middle_multiplier(s, x, t).norm())
