"""Flows on operator subalgebras implemented by strictly positive pairs.

An implemented flow conjugates a carrier subalgebra ``B`` of the module
operators by the unitary groups of two strictly positive operators:

    alpha_t(x) = S**(it) x T**(-it)

Such a flow is automatically semi-multiplicative, with left companion
implemented by ``S`` alone and right companion by ``T`` alone.  Its
analytic continuation at complex ``z`` is the middle product
``S**(iz) x T**(-iz)``; at finite dimension every operator is a middle
multiplier, and the only trace of the domain bookkeeping of the
unbounded theory is a conditioning guard: operations refuse
implementing pairs with condition number above ``COND_LIMIT``.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .algebra import power, sandwich, spectral
from .errors import (
    IllConditionedError,
    InvarianceViolationError,
    NotInAlgebraError,
    NotStrictlyPositiveError,
)
from .flows import _phases
from .hilbmod import (
    SPAN_TOL,
    BlockCarrier,
    ModuleOperator,
    SubalgebraBasis,
    _same_module,
    condition_number,
    op_power,
    strictly_positive,
)
from .stone import Localization, induce, intertwining_residual

COND_LIMIT = 1e6
INVARIANCE_TOL = 1e-8
PROBE_TIMES = (0.5, 1.0)


def _require_implementing_pair(s: ModuleOperator, t: ModuleOperator) -> None:
    for name, op in (("left", s), ("right", t)):
        if not strictly_positive(op):
            raise NotStrictlyPositiveError(f"{name} implementing operator not strictly positive")
        cond = condition_number(op)
        if cond > COND_LIMIT:
            raise IllConditionedError(
                f"{name} implementing operator has condition {cond:.3e} > {COND_LIMIT:.0e}"
            )


@dataclass(frozen=True, eq=False)
class ImplementedFlow:
    """Carrier subalgebra plus the strictly positive implementing pair.

    The carrier is a ``BlockCarrier`` or a ``SubalgebraBasis``; only its
    ``residual`` and ``leaks`` are read.  Construction verifies that
    conjugation preserves the carrier at the probe times, on the whole
    basis in one ``leaks`` call (``InvarianceViolationError`` naming the
    first probe time that fails).
    """

    s: ModuleOperator
    t: ModuleOperator
    carrier: BlockCarrier | SubalgebraBasis

    def __post_init__(self):
        _require_implementing_pair(self.s, self.t)
        times = np.array(PROBE_TIMES)
        leaks = self.carrier.leaks(power(self.s.flat, 1j * times), power(self.t.flat, -1j * times))
        # the bound is INVARIANCE_TOL * max(1, norm(b)) for each basis element b,
        # and either basis is Hilbert-Schmidt orthonormal, so norm(b) <= 1
        for tp, leak in zip(PROBE_TIMES, leaks):
            if (leak > INVARIANCE_TOL).any():
                raise InvarianceViolationError(f"conjugation at t={tp} leaves the carrier span")


def implemented_evaluate(f: ImplementedFlow, t: float, x: ModuleOperator) -> ModuleOperator:
    """``S**(it) x T**(-it)`` for carrier elements ``x``."""
    if f.carrier.residual(x) > SPAN_TOL * max(1.0, x.norm()):
        raise NotInAlgebraError("element lies outside the carrier span")
    y = op_power(f.s, 1j * float(t)) @ x @ op_power(f.t, -1j * float(t))
    if f.carrier.residual(y) > INVARIANCE_TOL * max(1.0, y.norm()):
        raise InvarianceViolationError("flow left the carrier span")
    return y


def implemented_continuation_check(f: ImplementedFlow, z, x: ModuleOperator) -> np.ndarray:
    """Residual between the two continuation routes, per z of an array.

    Route one runs through the joint eigenbases of the implementing
    pair, with the phase factor of ``flows.conjugate`` at the logarithms
    of their eigenvalues; route two is the closed middle product
    ``S**(iz) x T**(-iz)`` assembled from complex powers.  The two
    agree up to rounding for well-conditioned pairs.

    The carrier test runs once, ``x`` is rotated into the joint
    eigenbasis once, S and T are raised to every ``+-iz`` as one batch
    each, and the residual norms take one batched singular-value call per
    block (``EigFailureError`` if it fails).
    """
    if f.carrier.residual(x) > SPAN_TOL * max(1.0, x.norm()):
        raise NotInAlgebraError("element lies outside the carrier span")
    _same_module(x, f.s)
    zs = np.asarray(z, dtype=complex)
    phases = _phases(zs)
    lhs = sandwich(spectral(f.s.flat), spectral(f.t.flat), x.flat,
                   lambda lam, mu: phases(np.log(lam.astype(complex)), np.log(mu.astype(complex))))
    return (lhs - power(f.s.flat, 1j * zs) @ x.flat @ power(f.t.flat, -1j * zs)).norm()


def localized_middle_check(
    loc: Localization, s: ModuleOperator, x: ModuleOperator, t: ModuleOperator
) -> float:
    """Residual of ``S_w x_w T_w L(v) = L(S x T v)`` under a localization ``L``.

    The induced operators are composed factor by factor, associated as
    ``S_w (x_w T_w)`` while the right side forms ``(S x) T``, so the
    two sides share no product.  The relation is checked through the map
    itself by ``stone.intertwining_residual``: the result is a randomized
    upper estimate of the norm of the difference of the two sides over the
    whole module, from 10 seeded Gaussian probes per block scaled by
    alpha = 4, which falls below that norm with probability at most
    ``(pi/32)**10 < 1e-10``.
    """
    lhs = induce(loc, s) @ (induce(loc, x) @ induce(loc, t))
    return intertwining_residual(loc, lhs, s @ x @ t)
