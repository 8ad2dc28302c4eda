"""Commuting pairs of flows, their product flow, and tensor products.

For commuting flows ``alpha`` and ``beta`` the product flow
``gamma_t = alpha_t beta_t`` has generators ``(H^a_l + H^b_l, H^a_r + H^b_r)``
and its continuation factors as ``gamma_z = alpha_z beta_z = beta_z alpha_z``.
The two-variable smear

    x(n, z) = (n^2/pi) * iint exp(-n^2((s-z)^2 + (t-z)^2)) alpha_s(beta_t(x)) ds dt

is, by Fubini, the composition of the one-variable smears, so it is
evaluated as iterated one-axis trapezoidal rules: ``beta``'s node sum
inside ``alpha``'s, each a node sum of phases in the joint eigenbasis.

Tensor products are realized on the Kronecker algebra: the minimal
C*-tensor norm is the unique one on matrix algebras, so
``norm(x (x) y) = norm(x) norm(y)`` and blockwise Kronecker products
model the whole construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import numpy as np

from .algebra import AlgebraElement, BlockShape, HermitianElement, stack
from .continuation import SmearingPlan, _require_positive, min_nodes, smear_quadrature
from .errors import NotCommutingError, ShapeMismatchError
from .flows import FlowGenerator, conjugate

COMM_TOL = 1e-10


def _commutator_excess(a: HermitianElement, b: HermitianElement) -> float:
    """The largest ``norm([a, b]) - COMM_TOL norm(a) norm(b)`` over the members, 0 for a zero member."""
    na, nb = a.norm(), b.norm()
    comm = a.value @ b.value - b.value @ a.value
    return float(np.max(np.where((na == 0.0) | (nb == 0.0), 0.0, comm.norm() - COMM_TOL * na * nb)))


@dataclass(frozen=True, eq=False)
class CommutingPair:
    """Two flows over one shape whose generator pairs commute sidewise.

    Commutation of ``H^a_l`` with ``H^b_l`` and of ``H^a_r`` with
    ``H^b_r`` is the structural condition that makes
    ``alpha_s beta_t = beta_t alpha_s`` exact; construction raises
    ``NotCommutingError`` when it fails at tolerance ``COMM_TOL``
    (absolute on normalized generators), for any member of batched flows.
    """

    alpha: FlowGenerator
    beta: FlowGenerator

    def __post_init__(self):
        if self.alpha.shape != self.beta.shape:
            raise ShapeMismatchError("commuting pair must share one block shape")
        if _commutator_excess(self.alpha.h_left, self.beta.h_left) > 0:
            raise NotCommutingError("left generators do not commute")
        if _commutator_excess(self.alpha.h_right, self.beta.h_right) > 0:
            raise NotCommutingError("right generators do not commute")

    @property
    def shape(self) -> BlockShape:
        return self.alpha.shape

    @cached_property
    def product(self) -> FlowGenerator:
        """Generator of ``gamma_t = alpha_t beta_t``, built on first use."""
        return FlowGenerator(
            HermitianElement(self.alpha.h_left.value + self.beta.h_left.value),
            HermitianElement(self.alpha.h_right.value + self.beta.h_right.value),
        )


def gamma_continuation_check(p: CommutingPair, z, x: AlgebraElement) -> np.ndarray:
    """Residual of ``gamma_z = alpha_z beta_z = beta_z alpha_z`` on ``x``, per z of an array.

    Each continuation is formed over the whole array of z as one batch, so
    ``x`` is rotated into each of the three eigenbases once, and the two
    residuals at every z are normed as one batch, with one batched
    singular-value call per block (``EigFailureError`` if it fails).  As in
    ``conjugate``, the shape of the array joins the batch ahead of a batched
    pair's: a column of z against a batch of pairs gives every z for every pair.
    """
    zs = np.asarray(z, dtype=complex)
    gz = conjugate(p.product, zs, x)
    ab = conjugate(p.alpha, zs, conjugate(p.beta, zs, x))
    ba = conjugate(p.beta, zs, conjugate(p.alpha, zs, x))
    return np.max(stack([gz - ab, gz - ba]).norm(), axis=0)


def double_smear(
    p: CommutingPair,
    x: AlgebraElement,
    n: float,
    z: complex = 0.0,
    nodes: tuple[int, int] | None = None,
) -> AlgebraElement:
    """Two-variable Gaussian smear of ``x`` along the commuting pair.

    Iterates the one-axis rules, ``beta``'s with ``nodes[1]`` nodes inside
    ``alpha``'s with ``nodes[0]``, so the work grows with the sum of the
    node counts, not their product.  Node counts default to the one-axis
    admissibility rule per flow and may only be raised: ``smear_quadrature``
    raises ``NodesTooFewError`` otherwise.
    """
    _require_positive(n, "smearing index n")
    z = complex(z)
    s_nodes, t_nodes = nodes or (min_nodes(p.alpha, n, z), min_nodes(p.beta, n, z))
    inner = smear_quadrature(p.beta, x, SmearingPlan(n, z, t_nodes))
    return smear_quadrature(p.alpha, inner, SmearingPlan(n, z, s_nodes))


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product over the last two axes, broadcast over any leading axes.

    The entries are the products ``a_ij b_kl`` that ``np.kron`` forms, bit
    for bit, without its per-call overhead; stacks give the stack of
    Kronecker products.
    """
    (n, m), (p, q) = a.shape[-2:], b.shape[-2:]
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(*prod.shape[:-4], n * p, m * q)


def tensor_element(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Kronecker product ``x (x) y`` on the tensor-product algebra, per member of batches."""
    blocks = [_kron(xb, yb) for xb in x.blocks for yb in y.blocks]
    dims = [na * nb for na in x.shape for nb in y.shape]
    return AlgebraElement._adopt(BlockShape(dims), blocks)


@dataclass(frozen=True, eq=False)
class TensorFlow:
    """Tensor product of two flows with its Kronecker-algebra generator."""

    alpha: FlowGenerator
    beta: FlowGenerator
    product: FlowGenerator


def tensor_flow(alpha: FlowGenerator, beta: FlowGenerator) -> TensorFlow:
    """Flow ``(alpha (x) beta)_t`` with generators ``H (x) 1 + 1 (x) H'``, per member of batched flows."""

    def combine(ha: AlgebraElement, hb: AlgebraElement) -> HermitianElement:
        blocks = [
            _kron(a, np.eye(b.shape[-1])) + _kron(np.eye(a.shape[-1]), b)
            for a in ha.blocks
            for b in hb.blocks
        ]
        dims = [a * b for a in ha.shape for b in hb.shape]
        return HermitianElement(AlgebraElement._adopt(BlockShape(dims), blocks))

    product = FlowGenerator(
        combine(alpha.h_left.value, beta.h_left.value),
        combine(alpha.h_right.value, beta.h_right.value),
    )
    return TensorFlow(alpha, beta, product)


def tensor_continuation_check(tf: TensorFlow, z, x: AlgebraElement, y: AlgebraElement) -> np.ndarray:
    """Residual of ``(alpha (x) beta)_z (x (x) y) = alpha_z(x) (x) beta_z(y)``, per z of an array.

    ``x (x) y`` is formed once, each side is formed over the whole array of
    z as one batch (the right side as the Kronecker product of batches),
    and the residual norms take one batched singular-value call per block
    (``EigFailureError`` if it fails).
    """
    zs = np.asarray(z, dtype=complex)
    lhs = conjugate(tf.product, zs, tensor_element(x, y))
    return (lhs - tensor_element(conjugate(tf.alpha, zs, x), conjugate(tf.beta, zs, y))).norm()
