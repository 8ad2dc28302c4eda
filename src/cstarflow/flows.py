"""One-parameter flows ``alpha_t(x) = exp(itH_l) x exp(-itH_r)``.

A flow is represented by its generator pair ``(H_l, H_r)`` of Hermitian
elements, never by sampled maps; evaluation goes through the
eigendecompositions of the generators, which makes every flow entire in
the parameter for free.  ``algebra.spectral`` keeps each decomposition on
its generator, so companion flows and automorphisms share one.  Two-sided
unitary conjugation is isometric, so the contractivity axiom is automatic
and the constructor does not admit non-isometric flows.  Generators may
be batches of elements (see :mod:`cstarflow.algebra`): the flow is then a
batch of flows, one per member, and evaluation acts per member.

``in_eigenbasis`` gives the unitarily equivalent flow of the diagonal
generators ``diag(lam)`` and ``diag(mu)``, whose sandwiches are entrywise
factors with no products, together with the element in that basis.

With ``H_l = H_r`` the flow is an automorphism group.  The companion
flows ``(H_l, H_l)`` and ``(H_r, H_r)`` make every flow in this family
semi-multiplicative:

    alpha^l_t(b) alpha_t(a) = alpha_t(b a)
    alpha_t(a) alpha^r_t(b) = alpha_t(a b)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraElement,
    BlockShape,
    HermitianElement,
    SpectralDecomposition,
    _eigenbasis,
    _into,
    _per_member,
    sandwich,
    spectral,
)
from .errors import ShapeMismatchError


@dataclass(frozen=True, eq=False)
class FlowGenerator:
    """Generator pair of a one-parameter flow on the block algebra."""

    h_left: HermitianElement
    h_right: HermitianElement

    def __post_init__(self):
        if self.h_left.shape != self.h_right.shape:
            raise ShapeMismatchError("generator pair must share one block shape")

    @property
    def shape(self) -> BlockShape:
        return self.h_left.shape

    @property
    def spectral_left(self) -> SpectralDecomposition:
        return spectral(self.h_left)

    @property
    def spectral_right(self) -> SpectralDecomposition:
        return spectral(self.h_right)

    def generator_norm(self) -> float | np.ndarray:
        """``norm(H_l) + norm(H_r)``, the frequency budget of the flow, per member of a batch of flows."""
        return self.h_left.norm() + self.h_right.norm()


def _phases(z):
    """Entrywise factor ``exp(iz(lam_j - mu_k))``; the shape of an array ``z`` joins the batch."""
    z = _per_member(np.asarray(z, dtype=complex))
    return lambda lam, mu: np.exp(1j * z * (lam[..., :, None] - mu[..., None, :]))


def conjugate(g: FlowGenerator, z, x: AlgebraElement) -> AlgebraElement:
    """``exp(izH_l) x exp(-izH_r)`` for any complex ``z``, or each z of an array.

    This single code path serves both real-time evaluation and analytic
    continuation; at finite dimension the map is entire in ``z``.  The
    shape of an array of z joins the batch, broadcast against the batches
    of ``x`` and of the generators, so one call forms a whole grid.
    """
    return sandwich(g.spectral_left, g.spectral_right, x, _phases(z))


def conjugate_norm(g: FlowGenerator, z, x: AlgebraElement) -> float | np.ndarray:
    """``norm(conjugate(g, z, x))``, taken in the joint eigenbasis of the generators.

    ``conjugate`` forms ``U (F_z o (U* x V)) V*`` with the unitaries of
    the eigendata and ``F_z = exp(iz(lam_j - mu_k))``; ``U`` and ``V``
    leave the norm unchanged, so this is the norm of ``F_z o (U* x V)``,
    without the two products per block that rotate back.  The value is
    the same up to rounding, not an estimate.  Shapes broadcast as in
    ``conjugate``, and the norm is one batched singular-value call per
    block (``EigFailureError`` when it fails or returns NaN).
    """
    return AlgebraElement._adopt(x.shape, _eigenbasis(g.spectral_left, g.spectral_right, x, _phases(z))).norm()


def in_eigenbasis(g: FlowGenerator, x: AlgebraElement) -> tuple[FlowGenerator, AlgebraElement]:
    """The flow ``g`` and the element ``x`` in the joint eigenbasis of the generators: ``(g', U* x V)``.

    ``g'`` is generated by ``diag(lam)`` and ``diag(mu)``, unitarily
    equivalent to ``g`` (``alpha'_z(U* y V) = U* alpha_z(y) V``), and its
    eigendata mark the eigenvectors as the identity, so each of its
    sandwiches is one entrywise factor, with no products.  A norm is
    unitarily invariant, so ``g'``'s generators carry ``g``'s generator
    norms and ``U* x V`` carries ``x``'s norm, each taken on the original:
    node counts and envelopes read from them are the same bits.  Every
    other norm of ``g'`` reads the value of ``g``'s route up to rounding.
    """
    left, right = g.spectral_left, g.spectral_right
    g_diagonal = FlowGenerator(left._diagonal(g.h_left.value), right._diagonal(g.h_right.value))
    return g_diagonal, AlgebraElement._adopt(x.shape, _into(left, right, x))._with_norm_of(x)


def evaluate(g: FlowGenerator, t, x: AlgebraElement) -> AlgebraElement:
    """Flow at real time ``t`` (or each t of an array); isometric, with ``alpha_0 = id``.

    What it adds over ``conjugate`` is the guard on real time: a complex t,
    a number or an array of complex dtype, raises ``ValueError``, since the
    continuation to complex time is ``continuation.continue_exact``.
    """
    if np.iscomplexobj(t):
        raise ValueError("evaluate takes real times; continue_exact continues the flow to complex z")
    return conjugate(g, np.asarray(t, dtype=float), x)


def left_companion(g: FlowGenerator) -> FlowGenerator:
    """The automorphism group generated by ``H_l`` on both sides."""
    return FlowGenerator(g.h_left, g.h_left)


def right_companion(g: FlowGenerator) -> FlowGenerator:
    """The automorphism group generated by ``H_r`` on both sides."""
    return FlowGenerator(g.h_right, g.h_right)
