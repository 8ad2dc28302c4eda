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

from .algebra import sandwich, spectral
from .errors import (
    IllConditionedError,
    InvarianceViolationError,
    NotInAlgebraError,
    NotStrictlyPositiveError,
)
from .hilbmod import (
    ModuleOperator,
    ModuleVector,
    SubalgebraBasis,
    condition_number,
    inner,
    op_power,
    strictly_positive,
)
from .stone import Localization, PositiveFunctional, induce, intertwining_residual

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

    Construction verifies that conjugation preserves the span of the
    carrier at probe times (``InvarianceViolationError`` otherwise).
    """

    s: ModuleOperator
    t: ModuleOperator
    basis: SubalgebraBasis

    def __post_init__(self):
        _require_implementing_pair(self.s, self.t)
        for tp in PROBE_TIMES:
            us = op_power(self.s, 1j * tp)
            ut_inv = op_power(self.t, -1j * tp)
            for b in self.basis.basis:
                y = us @ b @ ut_inv
                if self.basis.residual(y) > INVARIANCE_TOL * max(1.0, b.norm()):
                    raise InvarianceViolationError(
                        f"conjugation at t={tp} leaves the carrier span"
                    )


def implemented_evaluate(f: ImplementedFlow, t: float, x: ModuleOperator) -> ModuleOperator:
    """``S**(it) x T**(-it)`` for carrier elements ``x``."""
    if f.basis.residual(x) > f.basis.span_tol * max(1.0, x.norm()):
        raise NotInAlgebraError("element lies outside the carrier span")
    y = op_power(f.s, 1j * float(t)) @ x @ op_power(f.t, -1j * float(t))
    if f.basis.residual(y) > INVARIANCE_TOL * max(1.0, y.norm()):
        raise InvarianceViolationError("flow left the carrier span")
    return y


def middle_multiplier(s: ModuleOperator, x: ModuleOperator, t: ModuleOperator) -> ModuleOperator:
    """The middle product ``S x T``.

    At finite dimension every ``x`` is a middle multiplier of any pair,
    so the product needs no domain bookkeeping and simply composes.
    """
    return s @ x @ t


def _spectral_continuation(
    s: ModuleOperator, t: ModuleOperator, x: ModuleOperator, z: complex
) -> ModuleOperator:
    """Continuation through the joint spectral data of log S and log T."""

    def log_phase(lam: np.ndarray, mu: np.ndarray) -> np.ndarray:
        nu = np.log(lam.astype(complex))[:, None] - np.log(mu.astype(complex))[None, :]
        return np.exp(1j * z * nu)

    flat = sandwich(spectral(s.flat), spectral(t.flat), x.flat, log_phase)
    return ModuleOperator.from_flat(flat, x.k)


def implemented_continuation_check(f: ImplementedFlow, z: complex, x: ModuleOperator) -> float:
    """Residual between the two continuation routes at ``z``.

    Route one runs through the joint eigenbases of the implementing
    pair; route two is the closed middle product
    ``S**(iz) x T**(-iz)`` assembled from complex powers.  The two
    agree up to rounding for well-conditioned pairs.
    """
    if f.basis.residual(x) > f.basis.span_tol * max(1.0, x.norm()):
        raise NotInAlgebraError("element lies outside the carrier span")
    z = complex(z)
    lhs = _spectral_continuation(f.s, f.t, x, z)
    rhs = op_power(f.s, 1j * z) @ x @ op_power(f.t, -1j * z)
    return (lhs - rhs).norm()


def localized_middle_check(
    loc: Localization, s: ModuleOperator, x: ModuleOperator, t: ModuleOperator
) -> float:
    """Residual of ``S_w x_w T_w L(v) = L(S x T v)`` under a localization ``L``.

    The induced operators are composed factor by factor, associated as
    ``S_w (x_w T_w)`` while ``middle_multiplier`` forms ``(S x) T``, so the
    two sides share no product.  The relation is checked through the map
    itself, with v running over the standard basis of the module; the
    result is the spectral norm of the difference of the two sides as
    matrices over that basis.
    """
    lhs = induce(loc, s) @ (induce(loc, x) @ induce(loc, t))
    return intertwining_residual(loc, lhs, middle_multiplier(s, x, t))


def vector_functionals(
    states: list[PositiveFunctional],
    pairs: list[tuple[ModuleVector, ModuleVector]],
):
    """Functional family ``y -> omega(<y v, w>)`` on module operators.

    With states running over a faithful family and (v, w) over enough
    vector pairs, these functionals separate the operator algebra and
    are permuted by any implemented flow; they are the working family
    for the weak-to-norm continuation arguments.
    """
    out = []
    for omega in states:
        for v, w in pairs:
            out.append(lambda y, omega=omega, v=v, w=w: omega.value(inner(y @ v, w)))
    return out
