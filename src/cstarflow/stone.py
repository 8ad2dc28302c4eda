"""Generator recovery for unitary one-parameter groups on Hilbert modules.

Every norm-continuous unitary one-parameter group on a finite
Hilbert module is ``u_t = T**(it)`` for a unique strictly positive
module operator ``T``; this module recovers ``T`` from a sampled group.
Recovery takes the principal matrix logarithm of ``u(t0)`` and guards
the branch with a halving consistency check: the step is accepted only
once ``log u(t0) = 2 log u(t0/2)`` within tolerance, halving ``t0``
otherwise, and then checks the accepted branch once more at a time off
the dyadic lattice (finite differences are kept as an independent test
oracle only; the logarithm route has spectral accuracy).

The localization machinery turns a positive functional ``omega`` on the
algebra (a block density element ``rho`` with ``omega(a) = sum_b
tr(rho_b a_b)``) into a concrete Hilbert space.  The Gram form
``omega(<v, w>)`` on E is a direct sum of Kronecker products
``I (x) rho_b^T``, so only the densities are eigendecomposed: each block
keeps the eigenvalues of ``rho_b`` above ``GNS_TOL`` times the largest
eigenvalue over all blocks, in a factor ``C_b = U_b diag(sqrt(w_b))`` of
size ``n_b x r_b``.  The map ``L(v) = (v_b C_b)_b`` onto C^d, with
``v_b`` the stacked ``k n_b x n_b`` block of v and ``d = k sum_b n_b r_b``,
satisfies

    <L(v), L(w)> = omega(<v, w>).

A module operator with flattened blocks ``F_b`` induces the operator
``S_w = (+)_b F_b (x) I_{r_b}`` on C^d through ``S_w L(v) = L(S v)``.
It is held as its Kronecker factors (``InducedOperator``), never as a
d x d matrix: it acts on ``L(v)`` as ``F_b Y_b`` on each block, with
``Y_b`` the ``k n_b x r_b`` block of ``L(v)``; products and complex
powers act factor by factor, since ``(F (x) I)**z = F**z (x) I``; and its
norm is the largest ``norm(F_b)`` over the blocks a state sees, since
``norm(F (x) I) = norm(F)``.  A z-grid of induced operators is one
``InducedOperator`` whose seen factors carry the z axes as a batch.  The
induction is a *-homomorphism, compatible with complex powers of
strictly positive operators (``induced_power_check`` verifies this
through the map L), and a faithful family of states separates operators.

The checks through L (``induced_power_check`` here and
``implemented.localized_middle_check``) report a randomized upper
estimate of the norm of the difference of the two sides over the whole
module, from ``PROBES = 10`` seeded complex Gaussian probes per block
scaled by ``PROBE_ALPHA = 4``: it falls below that norm with probability
at most ``(pi/32)**10 < 1e-10`` (``intertwining_residual``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .algebra import (
    AlgebraElement,
    BlockShape,
    PositiveFunctional,
    _over_blocks,
    eigenvalues,
    herm_calculus,
    is_strictly_positive,
    largest_singular_value,
    power,
    spectral,
    stack,
)
from .errors import (
    BranchAmbiguityError,
    EigFailureError,
    FamilyNotFaithfulError,
    IllDefinedError,
    NotAGroupError,
    ZeroFunctionalError,
)
from .hilbmod import (
    ModuleOperator,
    ModuleVector,
    identity_operator,
    op_exp,
    op_power,
    strictly_positive,
)
from .sampling import gaussian, rng

GNS_TOL = 1e-10
POWER_POS_TOL = 1e-12
# recovery halves t0 at most MAX_HALVINGS times, until log u(t) = 2 log u(t/2)
# within RECOVERY_TOL relative to max(1, norm(log u(t)))
MAX_HALVINGS = 8
RECOVERY_TOL = 1e-8
# an accepted branch K is also checked at OFF_LATTICE * t, off the dyadic
# lattice of t that halving and RESIDUAL_TIMES sample
OFF_LATTICE = 0.3
SEPARATING_TOL = 1e-9
PROBE_MULTIPLES = (1, 2, 10)
RESIDUAL_TIMES = (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 5.0, -5.0, 10.0, -10.0)
# intertwining_residual: PROBES Gaussian probes per block, scaled by PROBE_ALPHA,
# miss the norm with probability at most (pi / 32)**10 < 1e-10
PROBES = 10
PROBE_ALPHA = 4.0
PROBE_SEED = 2011


@dataclass(frozen=True, eq=False)
class SampledUnitaryGroup:
    """A one-parameter unitary group given only through an evaluator.

    The evaluator must be safe to invoke concurrently; results are never
    cached across operations.
    """

    evaluator: Callable[[float], ModuleOperator]

    def __call__(self, t: float) -> ModuleOperator:
        return self.evaluator(float(t))

    def probe(self, t0: float) -> None:
        """Cheap group-invariant checks; raises ``NotAGroupError``.

        The differences are normed together as one batch, and then tested
        in order.
        """
        u0 = self(0.0)
        one = identity_operator(u0.shape, u0.k)
        checks = [(u0 - one, 1e-10, "u(0) differs from the identity")]
        ut = {}
        for m in PROBE_MULTIPLES:
            t = m * t0
            ut[m], umt = self(t), self(-t)
            checks.append((ut[m].star() @ ut[m] - one, 1e-9, f"u({t}) is not unitary"))
            checks.append((ut[m] @ umt - one, 1e-9, f"u({t}) u({-t}) differs from the identity"))
        checks.append((ut[2] - ut[1] @ ut[1], 1e-9, "u(2 t0) differs from u(t0)^2"))
        for norm, (_, bound, message) in zip(stack([d.flat for d, _, _ in checks]).norm(), checks):
            if norm > bound:
                raise NotAGroupError(message)

    @staticmethod
    def from_positive(t_op: ModuleOperator) -> "SampledUnitaryGroup":
        """The group ``t -> T**(it)`` of a strictly positive operator."""
        return SampledUnitaryGroup(lambda t: op_power(t_op, 1j * t))


def _principal_log_phases(u: ModuleOperator) -> ModuleOperator:
    """Hermitian phase matrix of a unitary: ``-i log u`` on (-pi, pi].

    The Cayley-transform logarithm of a normal matrix (Higham, *Functions
    of Matrices*, SIAM 2008, ch. 11), block by block.  The phases of a
    flat block f lie among the 2n points ``+-arccos(eigvalsh((f + f*)/2))``,
    so the widest gap between those points on the circle is a gap in the
    spectrum, at least ``pi/n`` wide.  Rotating by ``e^{-i phi}`` puts the
    gap's midpoint on -1; the rotated ``w`` then has the Hermitian Cayley
    transform ``H = i (I + w)^{-1} (I - w)``, whose eigenvalue ``lam`` on
    an eigenvector of w stands for the phase ``phi + 2 arctan(lam)``,
    wrapped into (-pi, pi] as ``np.angle`` wraps it.  Every eigenvalue of
    w is at least half the gap from -1, so ``norm((I + w)^{-1}) <= 1 / (2
    sin(gap/4))``: at most about 163 at n = 256.
    """
    flats = []
    for f in u.flat.blocks:
        half = np.arccos(np.clip(np.linalg.eigvalsh((f + f.conj().T) / 2.0), -1.0, 1.0))
        points = np.sort(np.concatenate([-half, half]))
        gaps = np.diff(points, append=points[0] + 2.0 * np.pi)
        widest = int(np.argmax(gaps))
        phi = points[widest] + gaps[widest] / 2.0 - np.pi
        w = np.exp(-1j * phi) * f
        eye = np.eye(f.shape[0])
        h = 1j * np.linalg.solve(eye + w, eye - w)
        lam, z = np.linalg.eigh((h + h.conj().T) / 2.0)
        phases = phi + 2.0 * np.arctan(lam)
        phases -= 2.0 * np.pi * np.ceil((phases - np.pi) / (2.0 * np.pi))
        k = (z * phases) @ z.conj().T
        flats.append((k + k.conj().T) / 2.0)
    return ModuleOperator(AlgebraElement._adopt(u.flat.shape, flats), u.k)


def recover_generator(u: SampledUnitaryGroup, t0: float) -> ModuleOperator:
    """Hermitian ``K`` with ``u_t = exp(itK)``, branch-checked by halving."""
    return _recover_with_trace(u, t0)[0]


def _recover_with_trace(u: SampledUnitaryGroup, t0: float) -> tuple[ModuleOperator, float, int]:
    """``K``, the time t it was accepted at, and the halvings spent.

    Halving cannot see an eigenvalue of ``K = log u(t) / t`` off by
    ``4 pi m / t``, and neither can u at any multiple of t/2, such as the
    ``RESIDUAL_TIMES`` from t0 = 1.  So u(c t) must also match
    ``exp(i c t K)`` within 1e-9 at ``c = OFF_LATTICE``, or
    ``BranchAmbiguityError`` is raised.  That moves the phase of the alias
    by ``4 pi m c``, so c = 0.3 still misses m a multiple of 5: an
    eigenvalue off by a multiple of ``20 pi / t``.
    """
    if t0 <= 0:
        raise ValueError("t0 must be positive")
    u.probe(t0)
    t = float(t0)
    u_t = u(t)
    log_t = _principal_log_phases(u_t)
    for halvings in range(MAX_HALVINGS + 1):
        u_half = u(t / 2.0)
        log_half = _principal_log_phases(u_half)
        scale = max(1.0, log_t.norm())
        if (log_t - 2.0 * log_half).norm() <= RECOVERY_TOL * scale:
            k_op = (1.0 / t) * log_t
            u_k = herm_calculus(k_op.flat, lambda lam: np.exp(1j * t * lam))
            resid = (u_t.flat - u_k).norm()
            if resid > 1e-9:
                raise NotAGroupError(
                    f"u(t0) differs from exp(i t0 K) by {resid:.3e}"
                )
            s = OFF_LATTICE * t
            gap = (u(s).flat - herm_calculus(k_op.flat, lambda lam: np.exp(1j * s * lam))).norm()
            if gap > 1e-9:
                raise BranchAmbiguityError(
                    f"the logarithm accepted at t={t} misses u({s}) by {gap:.3e}: an aliased branch"
                )
            return k_op, t, halvings
        t /= 2.0
        u_t, log_t = u_half, log_half
    raise BranchAmbiguityError(
        f"halving did not stabilize after {MAX_HALVINGS} steps from t0={t0}"
    )


def stone(u: SampledUnitaryGroup, t0: float = 1.0) -> ModuleOperator:
    """The unique strictly positive ``T`` with ``u_t = T**(it)``.

    Verifies the recovered operator against the evaluator on a probe
    grid ``|t| <= 10`` at tolerance 1e-8 and raises ``NotAGroupError``
    when the evaluator is inconsistent with any positive generator.
    """
    return _verified(u, t0)[0]


def recovery_report(u: SampledUnitaryGroup, t0: float = 1.0) -> dict:
    """Structured recovery record: t0 used, halvings, residuals, spectrum; raises like ``stone``."""
    return _verified(u, t0)[1]


def _verified(u: SampledUnitaryGroup, t0: float) -> tuple[ModuleOperator, dict]:
    t_op, report = _stone_and_report(u, t0)
    for t, err in report["residual_grid"]:
        if err > 1e-8:
            raise NotAGroupError(f"evaluator differs from T^(it) at t={t}: {err:.3e}")
    return t_op, report


def _stone_and_report(u: SampledUnitaryGroup, t0: float) -> tuple[ModuleOperator, dict]:
    """The recovered ``T`` and its record, from one recovery; the caller judges the residual grid."""
    k_op, t_used, halvings = _recover_with_trace(u, t0)
    t_op = op_exp(k_op)
    if not strictly_positive(t_op):
        raise NotAGroupError("recovered operator is not strictly positive")
    return t_op, {
        "t0_used": t_used,
        "halvings": halvings,
        "residual_grid": [[t, err] for t, err in _residual_grid(u, t_op)],
        "T_spectrum": [float(v) for v in np.sort(eigenvalues(t_op.flat))],
    }


def _residual_grid(u: SampledUnitaryGroup, t_op: ModuleOperator) -> list[tuple[float, float]]:
    """``norm(u(t) - T**(it))`` on the probe grid: the samples and the powers as two batches."""
    samples = stack([u(t).flat for t in RESIDUAL_TIMES])
    errs = (samples - power(t_op.flat, 1j * np.array(RESIDUAL_TIMES))).norm()
    return list(zip(RESIDUAL_TIMES, errs.tolist()))


@dataclass(frozen=True, eq=False)
class Localization:
    """GNS data of a positive functional on the module ``E = A^k``.

    ``factors[b]`` is ``C_b = U_b diag(sqrt(w_b))``, of size ``n_b x r_b``,
    over the eigenvalues ``w_b`` of ``rho_b`` above ``cutoff``, so
    ``C_b C_b* = rho_b`` up to the dropped eigenvalues.  ``apply`` maps
    E onto C^d with ``<L v, L w> = omega(<v, w>)``.

    Construction raises ``IllDefinedError`` unless every ``C_b C_b*``
    reproduces ``rho_b``: they may differ only by the eigenvalues the
    cutoff dropped, plus rounding of ``1e-9 max(1, norm(rho_b))``.
    """

    omega: PositiveFunctional
    k: int
    factors: tuple[np.ndarray, ...] = field(repr=False)
    cutoff: float

    def __post_init__(self):
        for b, (c, rb) in enumerate(zip(self.factors, self.omega.rho.blocks)):
            defect = largest_singular_value(c @ c.conj().T - rb)
            bound = self.cutoff + 1e-9 * max(1.0, largest_singular_value(rb))
            if defect > bound:
                raise IllDefinedError(
                    f"localization factor of block {b} misses its density by {defect:.3e}"
                    f" (bound {bound:.3e})"
                )

    @property
    def shape(self) -> BlockShape:
        return self.omega.shape

    @property
    def ranks(self) -> tuple[int, ...]:
        """Kept rank ``r_b`` of each block."""
        return tuple(c.shape[1] for c in self.factors)

    @property
    def d(self) -> int:
        return self.k * sum(n * r for n, r in zip(self.shape, self.ranks))

    def apply_block(self, b: int, vb: np.ndarray) -> np.ndarray:
        """Block b of ``L(v)`` from the stacked block ``v_b``: ``ravel(v_b C_b)``.

        ``vb`` may carry leading axes, one vector per index.
        """
        return (vb @ self.factors[b]).reshape(*vb.shape[:-2], -1)

    def apply(self, v: ModuleVector) -> np.ndarray:
        """The map ``Lambda_omega`` on a module vector (each member of a batch), block by block."""
        return np.concatenate([self.apply_block(b, sb) for b, sb in enumerate(v.stacked)], axis=-1)


def localize(omega: PositiveFunctional, k: int) -> Localization:
    """Build the localization of ``E = A^k``, over the shape of ``omega``, at that functional.

    The Gram form of ``omega`` on E is ``(+)_b I (x) rho_b^T``, so each
    block is localized through its own density: ``rho_b`` is
    eigendecomposed once, eigenvalues at or below ``GNS_TOL`` times the
    largest over all blocks are treated as genuine kernel, and the rest
    give the factor ``C_b`` of rank ``r_b``.  The localized dimension is
    ``d = k sum_b n_b r_b`` (``ZeroFunctionalError`` if nothing remains).
    """
    sd = spectral(omega.rho)
    top = max(float(np.max(w)) for w in sd.eigenvalues)
    if top <= 0.0:
        raise ZeroFunctionalError("positive functional vanishes on the module")
    cutoff = GNS_TOL * top
    factors = []
    for w, u in zip(sd.eigenvalues, sd.eigenvectors):
        keep = w > cutoff
        factors.append(u[:, keep] * np.sqrt(w[keep]))
    if not any(c.shape[1] for c in factors):
        raise ZeroFunctionalError("no Gram eigenvalue above the rank cutoff")
    return Localization(omega, int(k), tuple(factors), cutoff)


@dataclass(frozen=True, eq=False)
class InducedOperator:
    """``S_w = (+)_b F_b (x) I_{r_b}`` on C^d, held as its Kronecker factors.

    ``factors[b]`` is the flattened block ``F_b`` of S, of size ``k n_b``,
    and ``ranks[b]`` the kept rank ``r_b`` of the localization; a block
    with ``r_b = 0`` acts on nothing.  A localized vector is the
    concatenation over b of ``ravel(Y_b)`` with ``Y_b`` of size
    ``k n_b x r_b``, on which ``F_b (x) I`` acts as ``F_b Y_b``.  Seen
    factors with leading batch axes (from ``power``) act and norm per member.
    """

    factors: tuple[np.ndarray, ...] = field(repr=False)
    ranks: tuple[int, ...]

    def __matmul__(self, other: "InducedOperator") -> "InducedOperator":
        if other.ranks != self.ranks:
            raise ValueError("induced operators of different localizations")
        return replace(self, factors=tuple(a @ b for a, b in zip(self.factors, other.factors)))

    def apply_block(self, b: int, y: np.ndarray) -> np.ndarray:
        """``F_b (x) I`` on the ``k n_b r_b`` entries of block b, along the last axis of y."""
        f = self.factors[b]
        out = f @ y.reshape(*y.shape[:-1], f.shape[-1], -1)
        return out.reshape(*out.shape[:-2], -1)

    def apply(self, y: np.ndarray) -> np.ndarray:
        """``S_w y`` for a localized vector y, along its last axis; blocks no state sees hold no entries."""
        sizes = [f.shape[-1] * r for f, r in zip(self.factors, self.ranks)]
        parts = np.split(y, np.cumsum(sizes)[:-1], axis=-1)
        return np.concatenate([self.apply_block(b, p) for b, p in enumerate(parts) if sizes[b]], axis=-1)

    def power(self, z) -> "InducedOperator":
        """``S_w**z``, the shape of z joining the batch: one ``hermitian_matrix_power`` call per seen ``F_b``."""
        return replace(self, factors=tuple(
            hermitian_matrix_power(f, z) if r else f for f, r in zip(self.factors, self.ranks)))

    def norm(self) -> float | np.ndarray:
        """Operator norm: the largest ``norm(F_b)`` over the blocks with ``r_b > 0``, per member."""
        return _over_blocks(largest_singular_value(f) for f, r in zip(self.factors, self.ranks) if r)


def induce(loc: Localization, s: ModuleOperator) -> InducedOperator:
    """The induced operator ``S_omega`` with ``S_omega L(v) = L(S v)``.

    ``S_omega = (+)_b F_b (x) I_{r_b}`` for the flattened blocks ``F_b`` of
    S, returned as its factors and the kept ranks (no d x d matrix is
    built), so the defining relation holds by construction and the map
    is a *-homomorphism.
    """
    if s.shape != loc.shape or s.k != loc.k:
        raise ValueError("operator and localization live over different modules")
    return InducedOperator(s.flat.blocks, loc.ranks)


def intertwining_residual(loc: Localization, a_om: InducedOperator, a: ModuleOperator) -> float | np.ndarray:
    """Randomized upper estimate of the norm of ``v -> a_om L(v) - L(a v)`` on the module, per member.

    Both sides go through the map L.  A vector of block b has its images
    in the entries of block b, so the difference R is block diagonal and
    its norm is the largest over the blocks a state sees.  Each such block
    is applied to ``PROBES`` complex Gaussian probes of shape
    ``(k n_b, n_b)``, drawn from a ``sampling.rng(PROBE_SEED)`` stream of
    their own, and the estimate is ``PROBE_ALPHA sqrt(2/pi) max_i
    norm(R w_i)`` over the probes and blocks.

    The estimate bounds ``norm(R)`` from above except with probability at
    most ``(pi / (2 PROBE_ALPHA**2))**PROBES = (pi/32)**10``, about 8.3e-11
    (Halko, Martinsson & Tropp, *Finding structure with randomness*, SIAM
    Review 53 (2011), Lemma 4.1, and Dixon, SIAM J. Numer. Anal. 20 (1983),
    for real probes).  The constant for complex probes: let v be a top
    right singular vector of the worst block, so ``norm(R w) >= norm(R)
    |v* w|``.  The entries of w are standard complex Gaussians with
    ``E|w_j|**2 = 1``, so ``v* w`` is one too and ``|v* w|**2`` is Exp(1).
    One probe gives an estimate below ``norm(R)`` only if ``|v* w|**2 <
    t = pi / (2 PROBE_ALPHA**2)``, with probability ``1 - exp(-t) <= t``,
    and independent probes all do so with probability at most
    ``t**PROBES``.  The probes are fixed, so the same inputs always give
    the same value; the probability is over the choice of stream.  A
    non-finite probe norm raises ``EigFailureError``.  A batched ``a_om`` or
    ``a`` gives one estimate per member, with the probe axis ahead of the batch.
    """
    stream = rng(PROBE_SEED)
    worst = []
    for b, (f, n, r) in enumerate(zip(a.flat.blocks, loc.shape, loc.ranks)):
        if r:
            w = gaussian(stream, (PROBES, *[1] * (max(f.ndim, a_om.factors[b].ndim) - 2), f.shape[-1], n))
            diff = a_om.apply_block(b, loc.apply_block(b, w)) - loc.apply_block(b, f @ w)
            norms = np.linalg.norm(diff, axis=-1)
            if not np.isfinite(norms).all():
                raise EigFailureError(f"norms of the {PROBES} probe residuals of block {b} are not finite")
            worst.append(np.max(norms, axis=0))
    return PROBE_ALPHA * math.sqrt(2.0 / math.pi) * _over_blocks(worst)


def induced_power_check(loc: Localization, t: ModuleOperator, z) -> float | np.ndarray:
    """Randomized upper estimate of the residual of ``(T_omega)**z L(v) = L(T**z v)``, per z.

    The right side goes through the module: ``op_power`` and then L.  The
    left side raises each Kronecker factor of ``T_omega`` with
    ``hermitian_matrix_power``, a dense oracle at size ``k n_b`` rather
    than d, and applies it to ``L(v)``.  T must be strictly positive.  The
    norm over the module is estimated by ``intertwining_residual``, a float
    for a number z and one per z of an array, from one ``op_power`` call.
    """
    return intertwining_residual(loc, induce(loc, t).power(z), op_power(t, z))


def separating_check(r: ModuleOperator, s: ModuleOperator, states: Sequence[PositiveFunctional]) -> bool:
    """Do all induced operators of a faithful family agree?

    The family must contain a faithful combination (the summed density
    positive definite), else ``FamilyNotFaithfulError``.  ``R_omega`` and
    ``S_omega`` are compared through the norm of the induced operator of
    ``R - S``, which by linearity is their difference; each norm is taken
    on the Kronecker factors of the blocks a state sees.  When every
    ``R_omega = S_omega`` within tolerance the operators agree globally
    within 1e-8, which is verified as a consistency guard.
    """
    if r.shape != s.shape or r.k != s.k:
        raise ValueError("operators live over different modules")
    if not states:
        raise FamilyNotFaithfulError("empty state family")
    total = sum((st.rho for st in states[1:]), states[0].rho)
    if not is_strictly_positive(total):
        raise FamilyNotFaithfulError("summed density is not positive definite")
    diff = r - s
    for st in states:
        loc = localize(st, r.k)
        scale = max(1.0, induce(loc, r).norm(), induce(loc, s).norm())
        if induce(loc, diff).norm() > SEPARATING_TOL * scale:
            return False
    gap = diff.norm()
    if gap > 1e-8 * max(1.0, r.norm(), s.norm()):
        raise FamilyNotFaithfulError(
            f"induced operators agree but the originals differ by {gap:.3e}"
        )
    return True


def hermitian_matrix_power(m: np.ndarray, z) -> np.ndarray:
    """Complex powers of a positive-definite dense matrix (the factors of induced operators).

    An array of z gives the ``(*z.shape, n, n)`` stack of powers, in order,
    from one decomposition.  An oracle, so it does not go through the
    ``eigh`` behind ``algebra.spectral``: it takes the SVD ``U S V*`` of the
    symmetrized m and returns ``U S**z U*``.  That is m's own power only
    if ``m = |m|``, that is if m is positive: so each Rayleigh quotient
    ``u_i* m u_i`` must be above ``POWER_POS_TOL`` times the largest
    singular value, and equal to its ``s_i`` within that much too.  An
    indefinite m fails one or the other, degenerate pairs ``+-lam``
    included, and raises ``ValueError``.
    """
    h = (m + m.conj().T) / 2.0
    u, s, _ = np.linalg.svd(h)
    rayleigh = np.sum(u.conj() * (h @ u), axis=0).real
    floor = POWER_POS_TOL * max(float(s[0]), 1e-300)
    if np.min(rayleigh) <= floor or np.max(np.abs(rayleigh - s)) > floor:
        raise ValueError("matrix power needs a positive definite input")
    return (u * np.exp(np.multiply.outer(z, np.log(s.astype(complex))))[..., None, :]) @ u.conj().T


def vector_smear(t_op: ModuleOperator, v: ModuleVector, r: float, z: complex = 0.0) -> ModuleVector:
    """Gaussian smear of a module vector along ``t -> T**(it) v``.

    Closed form in the eigenbasis of the flattened operator: the
    coordinate at log-eigenvalue ``kappa`` picks up
    ``exp(i kappa z - kappa^2 / (4 r^2))``.  ``T`` must pass the
    positivity rule of ``op_power`` (``ValueError`` otherwise).
    """
    if r <= 0:
        raise ValueError("smearing width r must be positive")
    if not strictly_positive(t_op):
        raise ValueError("vector smear needs a strictly positive operator")
    sd = spectral(t_op.flat)
    z = complex(z)

    def factor(lam):
        kappa = np.log(lam)
        return np.exp(1j * kappa * z - kappa * kappa / (4.0 * r * r))

    return ModuleOperator(sd.apply(factor), t_op.k) @ v
