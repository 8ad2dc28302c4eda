"""Analytic continuation and Gaussian smearing of one-parameter flows.

The continuation ``alpha_z`` of a generator-pair flow is entire at finite
dimension, with domain the whole algebra, computed as
``exp(izH_l) x exp(-izH_r)``.

The Gaussian smear of ``x`` at width parameter ``r > 0`` and complex center ``z`` is

    x(r, z) = (r / sqrt(pi)) * integral exp(-r^2 (t - z)^2) alpha_t(x) dt

evaluated two independent ways, each as an entrywise factor on ``x`` in the joint eigenbasis of the
generators (``algebra.sandwich``), with ``nu = lam_j - mu_k``: a trapezoidal node sum of phases
``sum_j c_j exp(i t_j nu)`` over ``t_j = Re z + s_j / r`` (the complex shift is handled analytically by
the weight factor ``exp(2ir(Im z)s_j + r^2(Im z)^2)``, valid because the integrand is entire), and the
closed-form Gaussian Fourier factor ``exp(i nu z - nu^2 / (4 r^2))``.  The two share only the
eigendecomposition, so the closed form doubles as the brute-force oracle for the quadrature.  Both take a
batch of widths about one center in one call.  The quadrature groups the widths by node count, and a group's
phase tables are (widths x nodes x n) per block; ``cli`` sizes its batches of widths to bound them.

The smear obeys ``norm(x(r, z)) <= norm(x) exp(r^2 (Im z)^2)`` and
``alpha_y(x(r, z)) = x(r, z + y)``.

Both statements are basis-free, and ``cli``'s converge experiment takes its smears, approximants and
continuations on ``flows.in_eigenbasis(g, x)``: the diagonal flow unitarily equivalent to ``g`` and ``U* x V``.  Its
eigenvectors are marked as the identity, so a smear, an approximant or a continuation is one entrywise
factor with no products, and every element stays in the eigenbasis.  A unitary leaves a norm unchanged,
so each norm a check reads is the rotating route's value up to rounding; the generators' norms (the node
counts) and ``norm(x)`` (the envelopes) are carried over bit for bit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraElement, _per_member, coordinate_rows, sandwich
from .errors import NodesTooFewError, NotSeparatingError
from .flows import FlowGenerator, conjugate, conjugate_norm

L, A = 6.0, 12.0  # half-width and alias margin of the trapezoidal rule (see admissible_nodes)
# A group of widths has phase tables of widths x nodes x n per block: at n = 64 the cap keeps one
# width's at 16 MiB, and cli's batches of widths bound a group's (the benchmarks' largest plan has 87).
MAX_NODES = 2**14
# three_lines_check samples the strip on a STRIP_GRID x STRIP_GRID grid; with z itself
# for the bound, it forms STRIP_SIZE elements per member.
STRIP_GRID = 5
STRIP_SIZE = STRIP_GRID * STRIP_GRID + 1


@dataclass(frozen=True)
class SmearingPlan:
    """Quadrature configuration for evaluating a smear ``x(r, z)``."""

    r: float
    z: complex
    nodes: int

    def __post_init__(self):
        _require_positive(self.r, "smearing width r")
        _require_finite(self.z, "smear center z")
        if isinstance(self.nodes, bool) or not isinstance(self.nodes, (int, np.integer)):
            raise ValueError(f"node count must be an integer, got {self.nodes}")
        if self.nodes < 1:
            raise ValueError("node count must be positive")
        if self.nodes > MAX_NODES:
            raise ValueError(f"node count {self.nodes} above the cap of {MAX_NODES}")

    @staticmethod
    def for_flow(g: FlowGenerator, r: float, z: complex = 0.0) -> "SmearingPlan":
        """Plan with the minimal admissible node count for this flow."""
        _require_positive(r, "smearing width r")
        return SmearingPlan(r, complex(z), min_nodes(g, r, z))


def _require_positive(value, what: str) -> None:
    """``ValueError`` naming ``value`` unless it, or every entry of an array, is positive and finite (NaN fails)."""
    v = np.asarray(value, dtype=float)
    if not (np.isfinite(v) & (v > 0)).all():
        raise ValueError(f"{what} must be positive and finite, got {value}")


def _require_finite(value, what: str) -> None:
    """``ValueError`` naming ``value`` unless it, or every entry of an array, is finite (both parts of a complex).

    A float or a complex, as ``cli.validate`` checks each width, is checked with ``cmath`` in a thirtieth of the time.
    """
    if isinstance(value, (float, complex)):
        ok = cmath.isfinite(value)
    else:
        ok = np.isfinite(np.asarray(value, dtype=complex)).all()
    if not ok:
        raise ValueError(f"{what} must be finite, got {value}")


def min_nodes(g: FlowGenerator, r, z: complex):
    """Admissible trapezoidal node count for the flow ``g``, at ``nu_max = norm(H_l) + norm(H_r)``, one per width of
    an array of r.  For a batch of flows, ``nu_max`` is the largest member's, so the nodes serve every member."""
    return admissible_nodes(float(np.max(g.generator_norm())), r, z)


def admissible_nodes(nu_max: float, r, z: complex):
    """Admissible trapezoidal node count for frequencies up to ``nu_max``; an array of r gives one count per width.

    ``2 ceil(L (2B + A) / (2 pi)) + 1`` with ``B = nu_max/(2r) + r |Im z|``.  An entry of
    the smear factor is ``e^{r^2 (Im z)^2} / sqrt(pi)`` times ``h sum_j e^{-s_j^2 + i w s_j}``
    over the nodes ``s_j = -L + jh``, ``h = 2L/(N-1)``, at ``w = nu/r + 2r Im z``, ``|w| <= 2B``.
    Over all ``j`` in Z, Poisson summation gives (alias phases of modulus 1, all 1 at odd ``N``, dropped)

        h sum_j e^{-s_j^2 + i w s_j} - sqrt(pi) e^{-w^2/4} = sqrt(pi) sum_{k != 0} e^{-(w + 2 pi k/h)^2 / 4}.

    From this count on ``2 pi/h >= 2B + A``, so ``|w + 2 pi k/h| >= |k| A``, and the ``j``
    beyond ``[-L, L]`` weigh at most ``sqrt(pi) erfc(L)``.  So each entry is off by at most
    ``2 e^{-A^2/4} (1 + 2 e^{-3A^2/4}) + erfc(L)``, 4.8e-16 of the envelope, before rounding,
    and a norm by ``sqrt(n) <= 23`` times that under the CLI's dense-size budget: about
    1e-14, far below the ``quad_vs_oracle`` bound of 1e-8.  One width's count is an exact integer, however large.
    """
    _require_finite(nu_max, "largest frequency nu_max")
    _require_finite(z, "smear center z")
    budget = nu_max / (2.0 * r) + r * abs(complex(z).imag)
    half = L * (2.0 * budget + A) / (2.0 * math.pi)
    return 2 * (math.ceil(half) if isinstance(half, float) else np.ceil(half).astype(int)) + 1


def _trapezoid(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights ``h exp(-s^2)`` of the ``n``-point trapezoidal rule on ``[-L, L]``."""
    s = np.linspace(-L, L, n)
    return s, (2.0 * L / (n - 1)) * np.exp(-s * s)


def continue_exact(g: FlowGenerator, z, x: AlgebraElement) -> AlgebraElement:
    """Analytic continuation of the flow; agrees with evaluation at real ``z``.

    It adds nothing over ``flows.conjugate``, which it returns: it is the
    name ``benchmarks/tracing.py`` times continuation under, until the
    library records spans of its own.  The shape of an array of z joins
    the batch, as in ``conjugate``.
    """
    return conjugate(g, z, x)


def smear_quadrature(g: FlowGenerator, x: AlgebraElement, plan: SmearingPlan) -> AlgebraElement:
    """Trapezoidal approximation of the smear ``x(r, z)``.

    The node sum is one (n x nodes) @ (nodes x n) product of phase tables
    per block.  Raises ``NodesTooFewError`` below ``min_nodes``; from there
    on the quadrature error is below the ``quad_vs_oracle`` bound of 1e-8 relative to
    ``norm(x) exp(r^2 (Im z)^2)``, as ``admissible_nodes`` derives.
    """
    needed = min_nodes(g, plan.r, plan.z)
    if plan.nodes < needed:
        raise NodesTooFewError(f"plan has {plan.nodes} nodes, needs >= {needed}")
    return _smear_quadratures(g, x, plan.r, plan.z, plan.nodes)


def _smear_quadratures(g: FlowGenerator, x: AlgebraElement, r, z: complex, nodes) -> AlgebraElement:
    """``smear_quadrature`` about one center ``z`` at each width of ``r`` (whose shape joins the batch, ahead of the
    flow's and ``x``'s), on the count of ``nodes`` in its place, at least its ``min_nodes``.  Per block, ``x`` is
    rotated into the eigenbasis once, the widths of one count share one stacked node sum, and the batch rotates
    back as one stack (neither rotation is taken for a flow from ``flows.in_eigenbasis``).  No rule is padded, so
    each member takes the products of its own call."""
    r, counts, z = np.asarray(r), np.ravel(nodes), complex(z)
    batch = np.broadcast_shapes(g.spectral_left.eigenvalues[0].shape[:-1], x.blocks[0].shape[:-2])
    rs = r.reshape(-1, *[1] * len(batch), 1)
    # math.exp width by width: numpy's exp rounds some arguments to another last digit
    scale = np.array([math.exp(rr * rr * z.imag * z.imag) for rr in r.ravel().tolist()]) / math.sqrt(math.pi)
    groups = [(np.flatnonzero(counts == count), *_trapezoid(count)) for count in set(counts.tolist())]
    rules = [(m, z.real + s / rs[m], w * np.exp(2j * rs[m] * z.imag * s) * scale.reshape(rs.shape)[m])
             for m, s, w in groups]

    def node_sums(lam: np.ndarray, mu: np.ndarray) -> np.ndarray:
        sums = np.empty((counts.size, *batch, lam.shape[-1], mu.shape[-1]), dtype=complex)
        for members, t, coeff in rules:
            sums[members] = np.exp(1j * (lam[..., :, None] * t[..., None, :])) @ (
                coeff[..., :, None] * np.exp(-1j * (t[..., :, None] * mu[..., None, :])))
        return sums.reshape(*r.shape, *sums.shape[1:])

    # x gains r's axis: numpy rounds a one-entry block's product with its factor apart when their ndims differ
    return sandwich(g.spectral_left, g.spectral_right, x if r.ndim == 0 else x[None], node_sums)


def smear_oracle(g: FlowGenerator, x: AlgebraElement, r, z) -> AlgebraElement:
    """Closed-form smear in the joint eigenbasis of the generators.

    The shapes of arrays of r and of z join the batch, so one call forms
    the smears at many widths.
    """
    _require_positive(r, "smearing width r")
    _require_finite(z, "smear center z")
    r = _per_member(r)
    z = _per_member(np.asarray(z, dtype=complex))

    def gaussian_fourier(lam: np.ndarray, mu: np.ndarray) -> np.ndarray:
        nu = lam[..., :, None] - mu[..., None, :]
        return np.exp(1j * nu * z - nu * nu / (4.0 * r * r))

    return sandwich(g.spectral_left, g.spectral_right, x, gaussian_fourier)


def three_lines_check(g: FlowGenerator, x: AlgebraElement, z) -> float | np.ndarray:
    """Worst excess of ``norm(alpha_y(x))`` over ``max(norm(x), norm(alpha_z(x)))``.

    Samples ``y`` on the uniform ``STRIP_GRID x STRIP_GRID`` grid over the
    strip of ``z`` with real part in [-2, 2], boundary lines included
    (that is where the bound is tight).  A nonpositive return value, up
    to rounding, is the maximum principle for the continuation.  For
    batches (a flow, ``x`` and an array of z with one member each) the
    excess is returned per member.

    The strip, with ``z`` itself for the bound, is one array of z for
    ``flows.conjugate_norm``: each block rotates ``x`` into the joint
    eigenbasis once, and the norms take one batched singular-value call
    per block.  Raises ``EigFailureError`` when that call fails or
    returns NaN.
    """
    z = np.asarray(z, dtype=complex)
    grid = np.linspace(0.0, 1.0, STRIP_GRID)
    im = np.multiply.outer(grid, z.imag)
    strip = (-2.0 + 4.0 * grid).reshape(-1, *[1] * im.ndim) + 1j * im[None]
    norms = conjugate_norm(g, np.concatenate([strip.reshape(-1, *z.shape), z[None]]), x)
    return np.max(norms[:-1], axis=0) - np.maximum(x.norm(), norms[-1])


def core_rescale(g: FlowGenerator, z: complex, x: AlgebraElement, ys: AlgebraElement) -> tuple[AlgebraElement, float]:
    """Rescale approximants of ``x`` so both norm caps hold at ``z``; also return ``norm(alpha_z(x))``.

    Given the batch ``ys`` of ``y_n`` converging to ``x``, returns the
    batch of ``x_n = lam_n y_n`` with
    ``lam_n = min(norm(x)/norm(y_n), norm(alpha_z(x))/norm(alpha_z(y_n)))``,
    so that ``norm(x_n) <= norm(x)`` and ``norm(alpha_z(x_n)) <=
    norm(alpha_z(x))`` exactly (up to float rounding) while convergence is
    preserved.  The continued norms come from ``flows.conjugate_norm``, so
    no continuation is formed here; ``x_n`` keeps ``|lam_n| norm(y_n)`` as
    its norm.  Members with ``y_n = 0`` are skipped.  ``alpha_z`` is
    injective, so when ``x = 0`` the caps are vacuous: ``(ys, 0.0)``.
    """
    nx = x.norm()
    if nx == 0.0:
        return ys, 0.0
    nax = conjugate_norm(g, z, x)
    ny, nay = ys.norm(), conjugate_norm(g, z, ys)
    kept = (ny != 0.0) & (nay != 0.0)
    return np.minimum(nx / ny[kept], nax / nay[kept]) * (ys if kept.all() else ys[kept]), nax


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
    tolerance 1e-9 for every functional, as ``theta_F(x) = conj(vec F) . vec x``
    with the rows the separation test builds.
    """
    if not functionals:
        raise NotSeparatingError("empty functional family cannot separate")
    rows = np.stack([coordinate_rows(f.blocks) for f in functionals]).conj()
    if np.linalg.matrix_rank(rows) < v.shape.dim:
        raise NotSeparatingError("functional family has nontrivial joint kernel")
    cont, want = coordinate_rows(continue_exact(g, z, v).blocks), coordinate_rows(w.blocks)
    scale = 1.0 + max(np.linalg.norm(cont), np.linalg.norm(want))
    tols = 1e-9 * (1.0 + np.linalg.norm(rows, axis=1)) * scale
    return bool(np.all(np.abs(rows @ cont - rows @ want) <= tols))
