"""Flows implemented by strictly positive module operators.

With S, T strictly positive and a carrier subalgebra B preserved by
conjugation, alpha_t(x) = S^(it) x T^(-it) is a semi-multiplicative
flow on B. Its analytic continuation is the middle product
S^(iz) x T^(-iz), and localizations see the same middle products.

A carrier whose block structure is known is a BlockCarrier: a unitary U
and a partition of each flat block, B = U (M_m1 + M_m2 + ...) U*. Its
membership test and invariance probe run in closed form, and
BlockCarrier.full is all of M_k(A), as `cstarflow run` uses. A span
known only by generators is a SubalgebraBasis, closed one product at a
time; affiliation_test takes that one.
"""

import numpy as np

from cstarflow import (
    AlgebraElement,
    BlockCarrier,
    BlockShape,
    ImplementedFlow,
    InvarianceViolationError,
    ModuleOperator,
    SubalgebraBasis,
    affiliation_test,
    identity_operator,
    implemented_continuation_check,
    implemented_evaluate,
    localize,
    localized_middle_check,
    op_power,
)
from cstarflow.sampling import (
    random_operator,
    random_positive_operator,
    random_state,
    random_unitary,
    rng,
)

r = rng(9)
shape, k = BlockShape([2]), 2
carrier = BlockCarrier.full(shape, k)
s = random_positive_operator(r, shape, k, cond=100.0)
t = random_positive_operator(r, shape, k, cond=100.0)
flow = ImplementedFlow(s, t, carrier)

x = random_operator(r, shape, k, norm=1.0)
y = implemented_evaluate(flow, 0.7, x)
print("flow keeps the carrier, residual:", carrier.residual(y))

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
loc = localize(omega, k)
print("localized middle product residual:",
      localized_middle_check(loc, s, x, t))
print("middle product norm:", (s @ x @ t).norm())

# A proper carrier: B = U (M_1 + M_3) U* inside M_4. A pair inside B
# implements a flow on it; a generic pair leaks out of it.
u = random_unitary(r, 4)
proper = BlockCarrier(shape, k, [u], [(1, 3)])


def inside(h1: float, h3: np.ndarray) -> ModuleOperator:
    """U (h1 + h3) U*, an element of the proper carrier."""
    block = np.zeros((4, 4), dtype=complex)
    block[0, 0], block[1:, 1:] = h1, h3
    return ModuleOperator(AlgebraElement.from_blocks([u @ block @ u.conj().T]), k)


g = r.standard_normal((3, 3)) + 1j * r.standard_normal((3, 3))
s_in = inside(2.0, g @ g.conj().T + np.eye(3))
flow_in = ImplementedFlow(s_in, identity_operator(shape, k), proper)
x_in = inside(0.3, np.diag([1.0, -0.5, 0.2]))
print("proper carrier keeps its element, residual:",
      proper.residual(implemented_evaluate(flow_in, 0.7, x_in)))
try:
    ImplementedFlow(s, t, proper)
except InvarianceViolationError as err:
    print("generic pair refused on the proper carrier:", err)

# The same span given only by generators: the closure finds it.
closure = SubalgebraBasis([inside(1.0, np.zeros((3, 3))), inside(0.0, g)])
print("closure dimension", closure.dim, "against", proper.dim, "for the block carrier")
print("S inside the span has affiliated unitaries:", affiliation_test(s_in, closure, [0.5, 1.0]))
