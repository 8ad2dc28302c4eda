"""Tour of the block algebra: norms, adjoints, functional calculus, powers.

The ambient algebra is a direct sum of full matrix blocks; every element
is a list of dense complex matrices. The operator norm is the largest
singular value across blocks, which satisfies the C*-identity
norm(x* x) = norm(x)^2. One element can also hold a batch of elements,
each block with leading batch axes; every operation acts per member.
"""

import numpy as np

from cstarflow import AlgebraElement, BlockShape, identity, power, spectral
from cstarflow.sampling import random_element, random_hermitian, rng

shape = BlockShape([2, 3])
r = rng(42)

x = random_element(r, shape)
print("a random element of M_2 + M_3:")
print("  norm(x)       =", x.norm())
print("  norm(x* x)    =", (x.star() @ x).norm())
print("  norm(x)^2     =", x.norm() ** 2)
print("  C*-defect     =", abs((x.star() @ x).norm() - x.norm() ** 2))

# Hermitian functional calculus: apply any scalar function on the spectrum.
h = random_hermitian(r, shape, norm=2.0)
u = spectral(h).apply(lambda lam: np.exp(1j * lam))
one = identity(shape)
print("\nexp(iH) for a random Hermitian H:")
print("  unitarity defect =", (u.star() @ u - one).norm())

# Complex powers of strictly positive elements obey the group law.
# power at one exponent gives one element; a grid of exponents gives the
# batch of powers, and x[i] takes member i out of a batch.
t = spectral(h).apply(np.exp)
powers = power(t, [0.3 + 0.4j, 0.7 - 0.4j, 0.0, 1.0])
t_y, t_z, t_0, t_1 = (powers[i] for i in range(4))
print("\ncomplex powers of T = exp(H):")
print("  norms of the batch =", powers.norm())
print("  T^0 defect        =", (t_0 - one).norm())
print("  group-law defect  =", (t_y @ t_z - t_1).norm())

# The square root of a diagonal element is the entrywise square root.
d = AlgebraElement.from_blocks([np.diag([4.0, 9.0]), np.diag([1.0, 16.0, 25.0])])
print("\nsqrt(diag(4, 9) + diag(1, 16, 25)) blocks:")
for block in power(d, 0.5).blocks:
    print(" ", np.real(np.diagonal(block)))
