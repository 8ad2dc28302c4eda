"""Finite-dimensional C*-algebra core.

The ambient algebra is a direct sum of full complex matrix blocks,
``A = M_{n_1} + ... + M_{n_m}``.  Elements are stored as dense complex
blocks; the norm is the largest singular value over the blocks, which is
the C*-norm of the direct sum.  Hermitian functional calculus and complex
powers of strictly positive elements are built on blockwise
eigendecompositions, and so is ``sandwich``, the one kernel behind every
two-sided spectral map ``x -> U (F o (U* x V)) V*``.  Checks over a grid
of G parameters work on ``(G, n, n)`` stacks of blocks: ``sandwich_blocks``
and ``power`` form them, and ``stacked_norms`` takes their norms.

Every norm is an exact largest singular value from LAPACK's gesdd with
singular values only, called through ``np.linalg.svd``, so the module
needs numpy alone.  numpy pays a fixed cost per call, so where norms come
in bulk, ``element_norms`` takes those of many elements of one shape
with one batched call per block.

Tolerances follow double-precision headroom at desk scale (block
dimensions up to 64): ``HERM_TOL`` and ``POS_TOL_FACTOR`` are relative
1e-10, ``EIG_TOL`` relative 1e-9.  Functional calculus always symmetrizes
its input as ``(H + H*)/2`` first, so it is total on near-Hermitian
input.  Eigenvalues are returned in ascending order; the ordering never
affects any result, only the reproducibility of intermediate dumps.

All values are immutable after construction and every operation is a
pure function, so everything here is safe for concurrent use.  Because
the blocks are read-only, an element computes its norm, its Hermitian
defect ``norm(x - x*)`` and its eigendecomposition at most once and keeps
them: the stored values cannot go stale, and a race between two threads
only repeats the same pure work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import EigFailureError, NotStrictlyPositiveError, ShapeMismatchError

HERM_TOL = 1e-10
EIG_TOL = 1e-9
POS_TOL_FACTOR = 1e-10


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class BlockShape:
    """Ordered block dimensions ``n_1, ..., n_m`` of the algebra."""

    block_dims: tuple[int, ...]

    def __init__(self, block_dims: Iterable[int]):
        dims = tuple(int(n) for n in block_dims)
        if len(dims) < 1:
            raise ValueError("block shape needs at least one block")
        if any(n < 1 for n in dims):
            raise ValueError("every block dimension must be >= 1")
        object.__setattr__(self, "block_dims", dims)

    @property
    def num_blocks(self) -> int:
        return len(self.block_dims)

    @property
    def dim(self) -> int:
        """Complex dimension of the algebra, sum of ``n_k**2``."""
        return sum(n * n for n in self.block_dims)

    def __iter__(self):
        return iter(self.block_dims)


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """Element of the block algebra: one dense complex matrix per block."""

    shape: BlockShape
    blocks: tuple[np.ndarray, ...]

    def __init__(self, shape: BlockShape, blocks: Sequence[np.ndarray]):
        mats = tuple(_frozen(b) for b in blocks)
        if len(mats) != shape.num_blocks:
            raise ShapeMismatchError("number of blocks does not match shape")
        for n, b in zip(shape.block_dims, mats):
            if b.shape != (n, n):
                raise ShapeMismatchError(f"block of shape {b.shape}, expected ({n}, {n})")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "blocks", mats)
        object.__setattr__(self, "_norm", None)
        object.__setattr__(self, "_herm_defect", None)
        object.__setattr__(self, "_spectral", None)

    @staticmethod
    def from_blocks(blocks: Sequence[np.ndarray]) -> "AlgebraElement":
        mats = [np.atleast_2d(np.asarray(b, dtype=complex)) for b in blocks]
        return AlgebraElement(BlockShape(m.shape[0] for m in mats), mats)

    def star(self) -> "AlgebraElement":
        """Adjoint: blockwise conjugate transpose."""
        return AlgebraElement(self.shape, [b.conj().T for b in self.blocks])

    def norm(self) -> float:
        """C*-norm: largest singular value over the blocks.

        Each block's largest singular value comes from
        ``largest_singular_value``, and the result is kept on the element
        (as ``element_norms`` keeps it), so the SVDs run on the first call
        only.  Raises ``EigFailureError`` when the SVD fails (a NaN entry,
        or no convergence) or returns a NaN singular value (an infinite
        entry).
        """
        if self._norm is None:
            object.__setattr__(self, "_norm", max(largest_singular_value(b) for b in self.blocks))
        return self._norm

    def hs_dot(self, other: "AlgebraElement") -> complex:
        """Hilbert-Schmidt pairing ``sum_k tr(self_k* other_k)``."""
        _same_shape(self, other)
        return complex(sum(np.vdot(a, b) for a, b in zip(self.blocks, other.blocks)))

    def trace(self) -> complex:
        return complex(sum(np.trace(b) for b in self.blocks))

    def is_hermitian(self, tol: float = HERM_TOL) -> bool:
        """``norm(x - x*) <= tol * norm(x)``.

        The defect ``norm(x - x*)`` is kept on the element like the norm,
        so only the first call takes singular values; the tolerance is
        applied on every call.  A defect of exactly 0 (a bitwise Hermitian
        element) meets every tolerance ``tol >= 0`` without the norm.
        """
        if self._herm_defect is None:
            defect = max(largest_singular_value(b - b.conj().T) for b in self.blocks)
            object.__setattr__(self, "_herm_defect", defect)
        if self._herm_defect == 0.0 and tol >= 0:
            return True
        return self._herm_defect <= tol * max(self.norm(), 1e-300)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        _same_shape(self, other)
        return AlgebraElement(self.shape, [a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        _same_shape(self, other)
        return AlgebraElement(self.shape, [a - b for a, b in zip(self.blocks, other.blocks)])

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.shape, [-b for b in self.blocks])

    def __mul__(self, c: complex) -> "AlgebraElement":
        return AlgebraElement(self.shape, [c * b for b in self.blocks])

    __rmul__ = __mul__

    def __matmul__(self, other: "AlgebraElement") -> "AlgebraElement":
        return mul(self, other)

    def __repr__(self) -> str:
        return f"AlgebraElement(dims={self.shape.block_dims}, norm={self.norm():.6g})"


def largest_singular_value(b: np.ndarray) -> float:
    """Spectral norm of one matrix: LAPACK gesdd, singular values only, through ``np.linalg.svd``.

    An all-zero matrix has norm 0.0 without an SVD.  Raises
    ``EigFailureError`` naming the block when the SVD fails (a NaN entry,
    or no convergence) or returns NaN (an infinite entry).
    """
    if not np.count_nonzero(b):
        return 0.0
    try:
        s = np.linalg.svd(b, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise EigFailureError(f"singular values of a {b.shape[0]}x{b.shape[1]} block failed: {exc}") from exc
    if np.isnan(s[0]):  # LAPACK's answer to an infinite entry
        raise EigFailureError(f"singular values of a {b.shape[0]}x{b.shape[1]} block are NaN")
    return float(s[0])


def element_norms(elements: Sequence[AlgebraElement]) -> list[float]:
    """C*-norms of elements of one shape, each kept on its element as ``norm`` keeps it.

    The elements not yet normed are taken together: one ``stacked_norms``
    call per block, so numpy's cost per call is paid once per block
    rather than once per element and block.  The values are bitwise those
    of ``norm``.
    """
    todo = [x for x in elements if x._norm is None]
    for x in todo[1:]:
        _same_shape(todo[0], x)
    if todo:
        norms = stacked_norms(np.stack(blocks) for blocks in zip(*(x.blocks for x in todo)))
        for x, v in zip(todo, norms.tolist()):
            object.__setattr__(x, "_norm", v)
    return [x._norm for x in elements]


def stacked_norms(stacks: Iterable[np.ndarray], what: str = "blocks") -> np.ndarray:
    """C*-norms of a stack of elements, one per leading index.

    ``stacks`` holds one ``(G, n, n)`` array per block; the result is the
    largest singular value over the blocks at each of the G indices,
    taken with one batched singular-value call per block.  Raises
    ``EigFailureError`` when that call fails or returns NaN; ``what``
    names the stacked blocks in the message.
    """
    norms = None
    for b in stacks:
        try:
            s = np.linalg.svd(b, compute_uv=False)[:, 0]
        except np.linalg.LinAlgError as exc:
            raise EigFailureError(f"singular values of {_stacked(b, what)} failed: {exc}") from exc
        if np.isnan(s).any():
            raise EigFailureError(f"singular values of {_stacked(b, what)} are NaN")
        norms = s if norms is None else np.maximum(norms, s)
    return norms


def _stacked(b: np.ndarray, what: str) -> str:
    return f"{b.shape[0]} stacked {b.shape[1]}x{b.shape[2]} {what}"


def as_z_grid(z: Sequence[complex]) -> np.ndarray:
    """A sequence of z as a 1-D complex grid; ``ValueError`` for any other shape."""
    zs = np.asarray(z, dtype=complex)
    if zs.ndim != 1:
        raise ValueError(f"z must be a 1-D grid, not an array of shape {zs.shape}")
    return zs


def _same_shape(x: AlgebraElement, y: AlgebraElement) -> None:
    if x.shape != y.shape:
        raise ShapeMismatchError(f"shapes differ: {x.shape} vs {y.shape}")


def zeros(shape: BlockShape) -> AlgebraElement:
    return AlgebraElement(shape, [np.zeros((n, n), dtype=complex) for n in shape])


def identity(shape: BlockShape) -> AlgebraElement:
    return AlgebraElement(shape, [np.eye(n, dtype=complex) for n in shape])


def star(x: AlgebraElement) -> AlgebraElement:
    return x.star()


def mul(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Blockwise matrix product; submultiplicative for the C*-norm."""
    _same_shape(x, y)
    return AlgebraElement(x.shape, [a @ b for a, b in zip(x.blocks, y.blocks)])


@dataclass(frozen=True, eq=False)
class HermitianElement:
    """Algebra element that is Hermitian within ``HERM_TOL`` (relative)."""

    value: AlgebraElement

    def __post_init__(self):
        if not self.value.is_hermitian():
            raise ValueError("element is not Hermitian within tolerance")

    @property
    def shape(self) -> BlockShape:
        return self.value.shape

    def norm(self) -> float:
        return self.value.norm()

    @staticmethod
    def from_blocks(blocks: Sequence[np.ndarray]) -> "HermitianElement":
        return HermitianElement(AlgebraElement.from_blocks(blocks))


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Blockwise eigendata ``H_k = U_k diag(lam_k) U_k*`` with unitary U_k.

    Eigenvalues are real and ascending within each block.
    """

    shape: BlockShape
    eigenvalues: tuple[np.ndarray, ...]
    eigenvectors: tuple[np.ndarray, ...]

    def apply(self, f: Callable[[np.ndarray], np.ndarray]) -> AlgebraElement:
        """``f`` applied to the eigenvalues in the eigenbasis."""
        return AlgebraElement(self.shape, self._calculus(
            [np.broadcast_to(np.asarray(f(lam), dtype=complex), lam.shape) for lam in self.eigenvalues]
        ))

    def _calculus(self, values: Sequence[np.ndarray]) -> list[np.ndarray]:
        """``U diag(v) U*`` per block; a leading stack axis of ``v`` carries through."""
        return [(u * v[..., None, :]) @ u.conj().T for v, u in zip(values, self.eigenvectors)]

    def reconstruct(self) -> AlgebraElement:
        return self.apply(lambda lam: lam)


def _symmetrized_blocks(h: AlgebraElement) -> list[np.ndarray]:
    return [(b + b.conj().T) / 2.0 for b in h.blocks]


def spectral(h: HermitianElement | AlgebraElement) -> SpectralDecomposition:
    """Eigendecompose ``(H + H*)/2`` blockwise.

    The decomposition is kept on the element (on ``h.value`` for a
    ``HermitianElement``), so each element is decomposed at most once and
    every later call returns the same ``SpectralDecomposition``.
    """
    x = h.value if isinstance(h, HermitianElement) else h
    if x._spectral is None:
        object.__setattr__(x, "_spectral", _eigendecompose(x))
    return x._spectral


def _eigendecompose(x: AlgebraElement) -> SpectralDecomposition:
    vals, vecs = [], []
    for b in _symmetrized_blocks(x):
        try:
            lam, u = np.linalg.eigh(b)
        except np.linalg.LinAlgError as exc:
            raise EigFailureError(str(exc)) from exc
        lam = np.asarray(lam, dtype=float)
        lam.flags.writeable = False
        vals.append(lam)
        vecs.append(_frozen(u))
    return SpectralDecomposition(x.shape, tuple(vals), tuple(vecs))


def sandwich(left: SpectralDecomposition, right: SpectralDecomposition, x: AlgebraElement,
             factor: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> AlgebraElement:
    """``U (F o (U* x V)) V*`` blockwise, with ``F = factor(lam, mu)`` entrywise.

    ``U, lam`` and ``V, mu`` are the eigendata of ``left`` and ``right``, so
    ``F = exp(iz(lam_j - mu_k))`` gives ``exp(izH_l) x exp(-izH_r)``.
    """
    return AlgebraElement(x.shape, sandwich_blocks(left, right, x.blocks, factor))


def sandwich_blocks(left: SpectralDecomposition, right: SpectralDecomposition,
                    blocks: Sequence[np.ndarray],
                    factor: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> list[np.ndarray]:
    """The kernel of ``sandwich`` on raw blocks.

    The expression broadcasts: when ``factor`` returns a ``(G, n, n)``
    stack, or the blocks are stacks, each block of the result is the
    ``(G, n, n)`` stack of the G sandwiches, while a single block is
    rotated into the eigenbasis once.
    """
    dims = tuple(b.shape[-1] for b in blocks)
    if not left.shape == right.shape or dims != left.shape.block_dims:
        raise ShapeMismatchError("blocks and eigendata live over different shapes")
    parts = zip(left.eigenvalues, left.eigenvectors, right.eigenvalues, right.eigenvectors, blocks)
    return [
        u @ (factor(lam, mu) * (u.conj().T @ xb @ v)) @ v.conj().T for lam, u, mu, v, xb in parts
    ]


def herm_calculus(h: HermitianElement | AlgebraElement, f) -> AlgebraElement:
    """Apply a scalar function to a Hermitian element through its spectrum."""
    return spectral(h).apply(f)


def eigenvalues(h: HermitianElement | AlgebraElement) -> np.ndarray:
    """All eigenvalues of the symmetrized element, ascending per block."""
    return np.concatenate([lam for lam in spectral(h).eigenvalues])


def is_strictly_positive(t: AlgebraElement) -> bool:
    """True iff Hermitian within tolerance with spectrum > ``POS_TOL_FACTOR * norm``."""
    if not t.is_hermitian():
        return False
    lam = eigenvalues(t)
    return bool(np.min(lam) > POS_TOL_FACTOR * t.norm())


def power(t: AlgebraElement, z: Sequence[complex]) -> list[np.ndarray]:
    """Complex powers ``T**z`` of a strictly positive element over a 1-D grid of z.

    Computed as ``exp(z * log lam)`` on the spectrum, so ``T**0 = 1``,
    ``T**1 = T`` and the group law ``T**y T**z = T**(y+z)`` hold up to
    rounding.  Raises ``NotStrictlyPositiveError`` when the spectrum is
    not bounded below by ``POS_TOL_FACTOR * norm(T)``.  For G exponents
    the result is one ``(G, n, n)`` stack of powers per block, in the
    order of ``z``; the positivity rule runs once.
    """
    zs = as_z_grid(z)
    if not t.is_hermitian():
        raise NotStrictlyPositiveError("element is not Hermitian")
    sd = spectral(t)
    lo = min(float(np.min(lam)) for lam in sd.eigenvalues)
    if lo <= POS_TOL_FACTOR * t.norm():
        raise NotStrictlyPositiveError(f"minimum eigenvalue {lo:.3e} too small")
    return sd._calculus([np.exp(np.multiply.outer(zs, np.log(lam))) for lam in sd.eigenvalues])
