"""Analytic continuation and Gaussian smearing of one-parameter flows.

The continuation ``alpha_z`` of a generator-pair flow is entire at finite
dimension, with domain the whole algebra, computed as
``exp(izH_l) x exp(-izH_r)``.

The Gaussian smear of ``x`` at width parameter ``r > 0`` and complex
center ``z`` is

    x(r, z) = (r / sqrt(pi)) * integral exp(-r^2 (t - z)^2) alpha_t(x) dt

evaluated two independent ways, each as an entrywise factor on ``x`` in
the joint eigenbasis of the generators (``algebra.sandwich``), with
``nu = lam_j - mu_k``: a Gauss-Hermite node sum of phases
``sum_j c_j exp(i t_j nu)`` over ``t_j = Re z + s_j / r`` (the complex
shift is handled analytically by the weight factor
``exp(2ir(Im z)s_j + r^2(Im z)^2)``, valid because the integrand is
entire), and the closed-form Gaussian Fourier factor
``exp(i nu z - nu^2 / (4 r^2))``.  The two share only the
eigendecomposition, so the closed form doubles as the brute-force oracle
for the quadrature.

The smear obeys ``norm(x(r, z)) <= norm(x) exp(r^2 (Im z)^2)`` and
``alpha_y(x(r, z)) = x(r, z + y)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import AlgebraElement, sandwich, stacked_norms
from .errors import NodesTooFewError, NotSeparatingError
from .flows import FlowGenerator, conjugate

QUAD_TARGET = 1e-8
NODE_FACTOR = 4
DEGENERATE_R = 1e6
# Phase tables are nodes x n per block: at n = 64 the cap keeps each at
# 16 MiB, far above the largest plan in the tests and benchmarks (1057).
MAX_NODES = 2**14


@dataclass(frozen=True)
class Strip:
    """Closed horizontal strip between the real axis and ``Im z``."""

    im_z: float

    def contains(self, y: complex) -> bool:
        lo, hi = sorted((0.0, self.im_z))
        return lo <= y.imag <= hi


@dataclass(frozen=True)
class SmearingPlan:
    """Quadrature configuration for evaluating a smear ``x(r, z)``."""

    r: float
    z: complex
    nodes: int

    def __post_init__(self):
        if self.r <= 0:
            raise ValueError("smearing width r must be positive")
        if self.nodes < 1:
            raise ValueError("node count must be positive")
        if self.nodes > MAX_NODES:
            raise ValueError(f"node count {self.nodes} above the cap of {MAX_NODES}")

    @staticmethod
    def for_flow(g: FlowGenerator, r: float, z: complex = 0.0) -> "SmearingPlan":
        """Plan with the minimal admissible node count for this flow."""
        return SmearingPlan(r, complex(z), min_nodes(g, r, z))


def min_nodes(g: FlowGenerator, r: float, z: complex) -> int:
    """Admissible Gauss-Hermite node count for the flow ``g``."""
    return admissible_nodes(g.generator_norm(), r, z)


def admissible_nodes(nu_max: float, r: float, z: complex) -> int:
    """Admissible Gauss-Hermite node count for frequencies up to ``nu_max``.

    ``16 + ceil(4 (nu_max/(2r) + r |Im z|)^2)``, where a flow's
    ``nu_max = norm(H_l) + norm(H_r)``: the node count has to dominate
    the squared oscillation/growth budget of the shifted integrand.
    """
    budget = nu_max / (2.0 * r) + r * abs(complex(z).imag)
    return 16 + math.ceil(NODE_FACTOR * budget * budget)


@lru_cache(maxsize=64)
def _hermgauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    # scipy's node tables stay finite well past n = 1000, where numpy's
    # recurrence-based weights overflow; imported here, so that only the
    # smears load it
    import scipy.special

    s, w = scipy.special.roots_hermite(n)
    s.flags.writeable = False
    w.flags.writeable = False
    return s, w


def continue_exact(g: FlowGenerator, z: complex, x: AlgebraElement) -> AlgebraElement:
    """Analytic continuation of the flow; agrees with evaluation at real ``z``."""
    return conjugate(g, complex(z), x)


def smear_quadrature(g: FlowGenerator, x: AlgebraElement, plan: SmearingPlan) -> AlgebraElement:
    """Gauss-Hermite approximation of the smear ``x(r, z)``.

    The node sum is one (n x nodes) @ (nodes x n) product of phase tables
    per block.  Raises ``NodesTooFewError`` when the plan fails the
    admissibility rule; for admissible plans the quadrature error is below
    ``QUAD_TARGET`` relative to ``norm(x) exp(r^2 (Im z)^2)``.
    """
    r, z = plan.r, complex(plan.z)
    nu_max = g.generator_norm()
    if r > DEGENERATE_R and nu_max / (2.0 * r) < 1e-12:
        # The Gaussian is a delta at this scale; quadrature would be noise.
        return x if z == 0 else continue_exact(g, z, x)
    needed = min_nodes(g, r, z)
    if plan.nodes < needed:
        raise NodesTooFewError(f"plan has {plan.nodes} nodes, needs >= {needed}")
    s, w = _hermgauss(plan.nodes)
    growth = math.exp(r * r * z.imag * z.imag)
    coeff = w * np.exp(2j * r * z.imag * s) * (growth / math.sqrt(math.pi))
    t = z.real + s / r

    def node_sum(lam: np.ndarray, mu: np.ndarray) -> np.ndarray:
        return np.exp(1j * np.outer(lam, t)) @ (coeff[:, None] * np.exp(-1j * np.outer(t, mu)))

    return sandwich(g.spectral_left, g.spectral_right, x, node_sum)


def smear_oracle(g: FlowGenerator, x: AlgebraElement, r: float, z: complex) -> AlgebraElement:
    """Closed-form smear in the joint eigenbasis of the generators."""
    if r <= 0:
        raise ValueError("smearing width r must be positive")
    z = complex(z)

    def gaussian_fourier(lam: np.ndarray, mu: np.ndarray) -> np.ndarray:
        nu = lam[:, None] - mu[None, :]
        return np.exp(1j * nu * z - nu * nu / (4.0 * r * r))

    return sandwich(g.spectral_left, g.spectral_right, x, gaussian_fourier)


def three_lines_check(g: FlowGenerator, x: AlgebraElement, z: complex, samples: int) -> float:
    """Worst excess of ``norm(alpha_y(x))`` over ``max(norm(x), norm(alpha_z(x)))``.

    Samples ``y`` on a uniform grid over the strip of ``z`` with real
    part in [-2, 2], boundary lines included (that is where the bound is
    tight).  A nonpositive return value, up to rounding, is the maximum
    principle for the continuation.

    The strip norms are taken in the joint eigenbasis of the generators:
    ``alpha_y(x) = U (F_y o X) V*`` with ``X = U* x V`` and
    ``F_y = exp(iy(lam_j - mu_k))``, and the unitaries ``U, V`` leave the
    norm unchanged, so each block rotates ``x`` once and takes the norms
    at all grid points, and at ``z`` itself for the bound, with one
    batched singular-value call (``algebra.stacked_norms``).  Raises
    ``EigFailureError`` when that call fails or returns NaN.
    """
    if samples < 1:
        raise ValueError("need at least one strip sample")
    z = complex(z)
    grid = np.linspace(0.0, 1.0, max(2, math.ceil(math.sqrt(samples))))
    y = np.append(((-2.0 + 4.0 * grid)[:, None] + 1j * (grid * z.imag)[None, :]).ravel(), z)
    left, right = g.spectral_left, g.spectral_right
    parts = zip(left.eigenvalues, left.eigenvectors, right.eigenvalues, right.eigenvectors, x.blocks)
    norms = stacked_norms(
        (np.exp(1j * y[:, None, None] * (lam[:, None] - mu[None, :])) * (u.conj().T @ xb @ v)
         for lam, u, mu, v, xb in parts),
        "strip blocks",
    )
    return float(np.max(norms[:-1])) - max(x.norm(), float(norms[-1]))


def core_rescale(
    x: AlgebraElement,
    ax: AlgebraElement,
    approximants: list[tuple[AlgebraElement, AlgebraElement]],
) -> list[AlgebraElement]:
    """Rescale approximants of ``x`` so both norm caps hold.

    Given pairs ``(y_n, alpha_z(y_n))`` converging to ``(x, alpha_z(x) = ax)``,
    returns ``x_n = lam_n y_n`` with
    ``lam_n = min(norm(x)/norm(y_n), norm(ax)/norm(alpha_z(y_n)))``, so that
    ``norm(x_n) <= norm(x)`` and ``norm(alpha_z(x_n)) <= norm(ax)`` exactly
    (up to float rounding) while convergence is preserved.  Terms with
    ``y_n = 0`` or ``alpha_z(y_n) = 0`` are skipped.  When ``x = 0`` or
    ``ax = 0`` the caps are vacuous and the approximants are returned
    unchanged.
    """
    nx, nax = x.norm(), ax.norm()
    if nx == 0.0 or nax == 0.0:
        return [y for y, _ in approximants]
    out = []
    for y, ay in approximants:
        ny, nay = y.norm(), ay.norm()
        if ny == 0.0 or nay == 0.0:
            continue
        lam = min(nx / ny, nax / nay)
        out.append(lam * y)
    return out


def _vec(x: AlgebraElement) -> np.ndarray:
    return np.concatenate([b.ravel() for b in x.blocks])


def hs_norm(x: AlgebraElement) -> float:
    return float(np.linalg.norm(_vec(x)))


def weak_continuation_check(
    g: FlowGenerator,
    v: AlgebraElement,
    w: AlgebraElement,
    z: complex,
    functionals: list[AlgebraElement],
) -> bool:
    """Does ``alpha_z(v) = w`` hold weakly against a separating family?

    Each functional is a Hilbert-Schmidt dual ``theta_F(x) = sum_k
    tr(F_k* x_k)``.  The family must separate the algebra (joint kernel
    {0} as a linear system, else ``NotSeparatingError``); the check then
    compares ``theta(alpha_z(v))`` with ``theta(w)`` at relative
    tolerance 1e-9 for every functional.
    """
    if not functionals:
        raise NotSeparatingError("empty functional family cannot separate")
    rows = np.stack([_vec(f).conj() for f in functionals])
    if np.linalg.matrix_rank(rows) < v.shape.dim:
        raise NotSeparatingError("functional family has nontrivial joint kernel")
    cont = continue_exact(g, z, v)
    scale = 1.0 + max(hs_norm(cont), hs_norm(w))
    for f in functionals:
        tol = 1e-9 * (1.0 + hs_norm(f)) * scale
        if abs(f.hs_dot(cont) - f.hs_dot(w)) > tol:
            return False
    return True
