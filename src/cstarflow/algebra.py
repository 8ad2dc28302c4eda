"""Finite-dimensional C*-algebra core.

The ambient algebra is a direct sum of full complex matrix blocks,
``A = M_{n_1} + ... + M_{n_m}``.  Elements are stored as dense complex
blocks; the norm is the largest singular value over the blocks, which is
the C*-norm of the direct sum.  Hermitian functional calculus and complex
powers of strictly positive elements are built on blockwise
eigendecompositions, and so is ``sandwich``, the one kernel behind every
two-sided spectral map ``x -> U (F o (U* x V)) V*``.

One ``AlgebraElement`` may also hold a batch of elements: each block then
has leading batch axes, ``(*B, n, n)``, with one batch shape ``B`` for all
blocks (``B = ()`` is a single element).  Arithmetic, ``star``, ``norm``,
``spectral``, ``sandwich`` and ``power`` act on each member, and batches
broadcast against each other and against single elements as numpy arrays
do.  A check over a grid of G parameters forms its values as one batch of
shape ``(G,)``: the shape of a z, t or r array joins the batch.  ``stack``
builds a batch from its members, and ``x[i]`` takes member i out.  numpy's
stacked linear algebra makes, for each member, the LAPACK or BLAS call it
makes for one matrix, so a batch gives each member's own values and pays
numpy's fixed cost per call once.

``PositiveFunctional`` is a positive functional on the algebra, given by
a density element ``rho``: ``a -> sum_b tr(rho_b a_b)``.

Every norm is an exact largest singular value from LAPACK's gesdd with
singular values only, called through ``np.linalg.svd`` by
``largest_singular_value``, so the module needs numpy alone.  ``norm`` is a
float for a single element and an array of shape ``B`` for a batch.  Two
exact identities spare SVDs without making any norm an estimate.  A
scaled element ``c x`` carries ``|c| norm(x)`` when ``x``'s norm is
already known (and finite), and a member or sub-batch ``x[i]`` carries
the batch's norms.  And a unitary factor leaves the norm unchanged, so a
caller that needs only the norm of a ``sandwich`` takes it of
``F o (U* x V)`` without rotating back (``flows.conjugate_norm``).  A
large stack (members * n^3 at least ``_SPLIT_WORK`` = 2^18, and chunks
large enough that numpy releases the GIL around them; under a BLAS of more
than one thread, members of at most 64 x 64) splits its members
into contiguous chunks, one per usable CPU, the first on the calling
thread and the others on a thread pool; the values are concatenated in
member order.  Each member is still its own gesdd call on the same
matrix, so every norm is bit-for-bit the value of an unsplit call, on any
number of cores.

Tolerances follow double-precision headroom at desk scale (block
dimensions up to 64): ``HERM_TOL`` and ``POS_TOL_FACTOR`` are relative
1e-10.  Functional calculus always symmetrizes its input as
``(H + H*)/2`` first, so it is total on near-Hermitian input.  Eigenvalues are returned in ascending order; the ordering never
affects any result, only the reproducibility of intermediate dumps.

All values are immutable after construction and every operation is a
pure function, so everything here is safe for concurrent use.  Because
the blocks are read-only, an element computes its norm, its Hermitian
defect ``norm(x - x*)`` and its eigendecomposition at most once and keeps
them: the stored values cannot go stale, and a race between two threads
only repeats the same pure work.  The one shared state is the pool of a
split norm: made, under a lock, by the first stack that splits (which
imports ``concurrent.futures`` only then), and forgotten in a forked
child, whose next split makes its own.  Its threads run numpy's SVD
alone and never call back into the package.  The BLAS thread count that
decides a split of large members is read once and kept; two threads
that race to read it first read the same count.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import EigFailureError, NotStrictlyPositiveError, ShapeMismatchError

HERM_TOL = 1e-10
POS_TOL_FACTOR = 1e-10


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only complex copy of an array a caller passes in, which the caller may still write."""
    return _freeze(np.array(a, dtype=complex))


def _freeze(a: np.ndarray) -> np.ndarray:
    """An operation's own fresh array, complex (converted only if it is not) and made read-only in place."""
    out = np.asarray(a, dtype=complex)
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
    """Element of the block algebra, one dense complex matrix per block, or a batch of them.

    Each block has shape ``(*B, n, n)``, with one batch shape ``B`` for all
    blocks; ``B = ()`` is a single element.
    """

    shape: BlockShape
    blocks: tuple[np.ndarray, ...]

    __array_ufunc__ = None  # numpy defers ``array * x`` to ``__rmul__``, which scales each member

    def __init__(self, shape: BlockShape, blocks: Sequence[np.ndarray]):
        """The element over read-only copies of ``blocks``, so it never aliases an array the caller may write."""
        self._hold(shape, tuple(_frozen(b) for b in blocks))

    @classmethod
    def _adopt(cls, shape: BlockShape, blocks: Sequence[np.ndarray]) -> "AlgebraElement":
        """The element over blocks an operation has just formed and holds nowhere else, frozen in place, not copied.

        A view of another element's read-only blocks may be adopted as well.
        """
        x = cls.__new__(cls)
        x._hold(shape, tuple(_freeze(b) for b in blocks))
        return x

    def _hold(self, shape: BlockShape, mats: tuple[np.ndarray, ...]) -> None:
        if len(mats) != shape.num_blocks:
            raise ShapeMismatchError("number of blocks does not match shape")
        batch = mats[0].shape[:-2]
        for n, b in zip(shape.block_dims, mats):
            if b.shape != (*batch, n, n):
                raise ShapeMismatchError(f"block of shape {b.shape}, expected {(*batch, n, n)}")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "blocks", mats)
        object.__setattr__(self, "_norm", None)
        object.__setattr__(self, "_herm_defect", None)
        object.__setattr__(self, "_spectral", None)

    @staticmethod
    def from_blocks(blocks: Sequence[np.ndarray]) -> "AlgebraElement":
        mats = [np.atleast_2d(np.asarray(b, dtype=complex)) for b in blocks]
        return AlgebraElement(BlockShape(m.shape[0] for m in mats), mats)

    def __getitem__(self, i) -> "AlgebraElement":
        """Member ``i`` of a batch, or the sub-batch a slice or mask selects.

        The members keep the batch's norms when it has them, for an index
        on the batch axes alone: an int, a slice, a mask or an index
        array, or a tuple of at most one of these per batch axis.  A
        longer tuple, or one with ``...`` or ``None``, may reach the
        matrix axes, and takes its norm afresh.
        """
        out = AlgebraElement._adopt(self.shape, [b[i] for b in self.blocks])
        on_batch_axes = not isinstance(i, tuple) or (
            len(i) <= self.blocks[0].ndim - 2 and not any(e is Ellipsis or e is None for e in i))
        if self._norm is not None and on_batch_axes:
            object.__setattr__(out, "_norm", _kept(np.asarray(self._norm)[i]))
        return out

    def star(self) -> "AlgebraElement":
        """Adjoint: blockwise conjugate transpose."""
        return AlgebraElement._adopt(self.shape, [_adjoint(b) for b in self.blocks])

    def norm(self) -> float | np.ndarray:
        """C*-norm: largest singular value over the blocks, per member of a batch.

        A float for a single element and an array of shape ``B`` for a
        batch, both from ``largest_singular_value``.  The value is kept on
        the element, so the SVDs run on the first call only.  Raises
        ``EigFailureError`` for an entry that is NaN or infinite, and when
        the SVD fails (no convergence) or returns a NaN singular value.
        """
        if self._norm is None:
            object.__setattr__(self, "_norm", _over_blocks(largest_singular_value(b) for b in self.blocks))
        return self._norm

    def is_hermitian(self, tol: float = HERM_TOL) -> bool:
        """``norm(x - x*) <= tol * norm(x)``, for every member of a batch.

        The defect ``norm(x - x*)`` is kept on the element like the norm,
        so only the first call takes singular values; the tolerance is
        applied on every call.  A defect of exactly 0 (a bitwise Hermitian
        element) meets every tolerance ``tol >= 0`` without the norm.
        """
        if self._herm_defect is None:
            defect = _over_blocks(largest_singular_value(b - _adjoint(b)) for b in self.blocks)
            object.__setattr__(self, "_herm_defect", defect)
        if not np.count_nonzero(self._herm_defect) and tol >= 0:
            return True
        return bool((self._herm_defect <= tol * np.maximum(self.norm(), 1e-300)).all())

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        _same_shape(self, other)
        return AlgebraElement._adopt(self.shape, [a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        _same_shape(self, other)
        return AlgebraElement._adopt(self.shape, [a - b for a, b in zip(self.blocks, other.blocks)])

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement._adopt(self.shape, [-b for b in self.blocks])

    def __mul__(self, c) -> "AlgebraElement":
        """Scale by a number, or each member by its entry of an array of shape ``B``.

        When this element's norm is already known, the result carries
        ``|c| norm(x)`` (per member), so its ``norm`` takes no SVD.  A
        value that is not finite (an overflow, or a NaN ``c``) is not kept,
        and the result's ``norm`` goes through ``largest_singular_value``.
        """
        factor = _per_member(c)
        out = AlgebraElement._adopt(self.shape, [factor * b for b in self.blocks])
        scaled = None if self._norm is None else _scaled_norm(c, self._norm)
        if scaled is not None:
            object.__setattr__(out, "_norm", scaled)
        return out

    __rmul__ = __mul__

    def __matmul__(self, other: "AlgebraElement") -> "AlgebraElement":
        """Blockwise matrix product; submultiplicative for the C*-norm."""
        _same_shape(self, other)
        return AlgebraElement._adopt(self.shape, [a @ b for a, b in zip(self.blocks, other.blocks)])

    def __repr__(self) -> str:
        batch = self.blocks[0].shape[:-2]
        return f"AlgebraElement(dims={self.shape.block_dims}, " + (
            f"batch={batch})" if batch else f"norm={self.norm():.6g})")


def _adjoint(b: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack (``.T`` would reverse the batch axes too)."""
    return b.conj().swapaxes(-1, -2)


def _per_member(p):
    """A parameter as an entrywise factor on n x n blocks: a number as it is, an array
    with two trailing axes, so that its shape joins the batch."""
    return p if np.ndim(p) == 0 else np.asarray(p)[..., None, None]


def _scaled_norm(c, norm: float | np.ndarray) -> float | np.ndarray | None:
    """``|c| norm`` as an element keeps it, per member, or None when a value is not finite."""
    if isinstance(norm, float) and isinstance(c, (int, float, complex, np.number)):
        value = abs(complex(c)) * norm  # Python floats: an overflow is inf, with no warning
        return value if math.isfinite(value) else None
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.abs(c) * norm
    return _kept(values) if np.isfinite(values).all() else None


def _over_blocks(values) -> float | np.ndarray:
    """The largest of per-block values, per member: a float, or a read-only array of shape ``B``."""
    values = list(values)
    return float(max(values)) if np.ndim(values[0]) == 0 else _kept(functools.reduce(np.maximum, values))


def _kept(values) -> float | np.ndarray:
    """A per-member value as an element keeps it: a float for a single element, else a read-only array."""
    if np.ndim(values) == 0:
        return float(values)
    values = np.asarray(values, dtype=float)
    values.flags.writeable = False
    return values


# A stack of members n x m splits its members over the usable CPUs when members * n * m * min(n, m)
# reaches _SPLIT_WORK and each chunk keeps members * min(n, m) of at least _GIL_FREE_SIZE.
# Measured on a shared 2-core x86-64 host, numpy 2.4.6, one OpenBLAS thread:
# - numpy releases the GIL around a stacked SVD only when members * min(n, m) exceeds 500
#   (7 x 71 x 71 holds it, 7 x 72 x 72 does not); a chunk that holds it runs after the others,
#   not beside them, and 2 x 64 x 64 split in two took 1.5-1.8 times its serial time;
# - a chunk's handoff to the pool and back costs 30-50 us, and two chunks that both release the
#   GIL take 0.55-0.72 of the serial time, from 0.2 ms saved at 501 x 2 x 2 to 3 ms at 16 x 64 x 64;
# - the first split costs about 8 ms more, to import concurrent.futures and start the pool, and
#   0.4-0.5 MB.
# So every split the chunk rule admits wins once the pool runs, and the work floor decides which
# stacks start it: 2^18 = 64 x 16^3, about the smallest stack of 16 x 16 blocks whose chunks
# release the GIL (63 members, 0.6 ms saved a call).  A stack of smaller blocks that the chunk rule
# admits, such as the 650 x 3 x 3 grid norms of the bundled verify config (work 2^14), saves too
# little a call to pay for the pool.
_SPLIT_WORK = 2**18
_GIL_FREE_SIZE = 501
# Under a multithreaded BLAS, the pool's threads and BLAS's own compete for the cores, and a split pays only on
# small members.  With 2 OpenBLAS threads on the same host, unsplit -> split took 8.7 -> 4.5 ms at 16 x 64 x 64,
# 39.6 -> 40.6 ms at 16 x 96 x 96, 70.7 -> 73.6 ms at 16 x 128 x 128 and 121.6 -> 133.7 ms at 8 x 256 x 256.  So
# above one BLAS thread only members with min(n, m) <= _MULTI_BLAS_SIZE split; at one thread, or where the count
# cannot be read, the rule above alone decides.
_MULTI_BLAS_SIZE = 64
_pool = None  # the ThreadPoolExecutor of split stacks, made by the first one
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    """In a forked child: the parent's pool threads do not exist here, so the next split makes its own."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@functools.cache
def _blas_threads() -> int | None:
    """The thread count of numpy's bundled OpenBLAS (``scipy_openblas_get_num_threads64_`` in
    ``numpy.libs/libscipy_openblas64_*.so``, through ``ctypes``), read once, by the first stack that would
    split and whose split depends on it; None where numpy bundles no such library or it exports no such function."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            get = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        return get()
    return None


def _split_pool(workers: int):
    """The pool of split stacks, made with ``workers`` threads if there is none yet."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="cstarflow-svd")
        return _pool


def _top_singular_values(b: np.ndarray) -> np.ndarray:
    """The largest singular value of each matrix of a stack, by numpy alone: a pool thread runs it,
    and calls no cstarflow function."""
    return np.linalg.svd(b, compute_uv=False)[..., 0]


def _split_top_singular_values(b: np.ndarray, parts: int) -> np.ndarray:
    """``_top_singular_values`` of a stack ``(..., n, m)``, its members in ``parts`` contiguous chunks:
    the first on this thread, the others on the pool.  Each member is still its own gesdd call, so
    each value is the one an unsplit call gives."""
    chunks = np.array_split(b.reshape(-1, *b.shape[-2:]), parts)
    pool = _split_pool(_usable_cpus() - 1)
    futures = [pool.submit(_top_singular_values, c) for c in chunks[1:]]
    try:
        first = _top_singular_values(chunks[0])
    finally:
        for f in futures:
            f.exception()  # wait for every chunk, so that none still runs once this call returns or raises
    return np.concatenate([first, *(f.result() for f in futures)]).reshape(b.shape[:-2])


def _parts(b: np.ndarray) -> int:
    """How many chunks the members of a stack split into: one per usable CPU when the stack reaches
    ``_SPLIT_WORK``, but no chunk under ``_GIL_FREE_SIZE``, and under a BLAS of more than one thread only
    members of at most ``_MULTI_BLAS_SIZE``; 1 (no split) otherwise."""
    n, m = b.shape[-2:]
    members = math.prod(b.shape[:-2])
    if members < 2 or members * n * m * min(n, m) < _SPLIT_WORK:
        return 1
    if min(n, m) > _MULTI_BLAS_SIZE and (_blas_threads() or 1) > 1:
        return 1
    return max(1, min(_usable_cpus(), members * min(n, m) // _GIL_FREE_SIZE))


def largest_singular_value(b: np.ndarray) -> float | np.ndarray:
    """Spectral norm of a matrix, or of each matrix of a stack ``(..., n, m)``.

    LAPACK gesdd with singular values only, through ``np.linalg.svd``: a
    float for one matrix, an array of the leading shape for a stack.  An
    all-zero input has norm 0 without an SVD.  A large stack (``_parts``)
    splits its members over the usable CPUs, with the same values.  Raises
    ``EigFailureError`` naming the blocks for an entry that is NaN or
    infinite, before LAPACK sees it (its scaling routine would print to
    stdout), and when the SVD fails (no convergence) or returns NaN.
    """
    # one pass over the entries: the sum of their squared moduli is positive and finite unless they are
    # all zero, one is not finite, or the squares under- or overflow; only then are the entries read again
    squares = float(np.vdot(b, b).real)
    if not 0.0 < squares < math.inf:
        if not np.isfinite(b).all():
            raise EigFailureError(f"singular values of {_described(b)} not taken: an entry is NaN or infinite")
        if not np.count_nonzero(b):
            return 0.0 if b.ndim == 2 else np.zeros(b.shape[:-2])
    parts = _parts(b)
    try:
        s = _split_top_singular_values(b, parts) if parts > 1 else _top_singular_values(b)
    except np.linalg.LinAlgError as exc:
        raise EigFailureError(f"singular values of {_described(b)} failed: {exc}") from exc
    if np.isnan(s).any():
        raise EigFailureError(f"singular values of {_described(b)} are NaN")
    return float(s) if b.ndim == 2 else s


def _described(b: np.ndarray) -> str:
    n, m = b.shape[-2:]
    return f"a {n}x{m} block" if b.ndim == 2 else f"{math.prod(b.shape[:-2])} stacked {n}x{m} blocks"


def stack(elements: Sequence[AlgebraElement]) -> AlgebraElement:
    """The batch whose members, along a new leading axis, are ``elements``: all of one shape and batch."""
    for x in elements[1:]:
        _same_shape(elements[0], x)
    return AlgebraElement._adopt(elements[0].shape, [np.array(b) for b in zip(*(x.blocks for x in elements))])


def coordinate_rows(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Hilbert-Schmidt coordinates of square blocks, each raveled and all concatenated.

    Leading axes carry through: a batch of blocks gives one row per member.
    """
    return np.concatenate([b.reshape(*b.shape[:-2], b.shape[-1] ** 2) for b in blocks], axis=-1)


def _same_shape(x: AlgebraElement, y: AlgebraElement) -> None:
    if x.shape != y.shape:
        raise ShapeMismatchError(f"shapes differ: {x.shape} vs {y.shape}")


def identity(shape: BlockShape) -> AlgebraElement:
    return AlgebraElement(shape, [np.eye(n, dtype=complex) for n in shape])


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


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Blockwise eigendata ``H_k = U_k diag(lam_k) U_k*`` with unitary U_k.

    Eigenvalues are real and ascending within each block; for a batch,
    ``lam_k`` and ``U_k`` carry its batch axes.
    """

    shape: BlockShape
    eigenvalues: tuple[np.ndarray, ...]
    eigenvectors: tuple[np.ndarray, ...]

    def apply(self, f: Callable[[np.ndarray], np.ndarray]) -> AlgebraElement:
        """``f`` applied to the eigenvalues in the eigenbasis."""
        return AlgebraElement._adopt(self.shape, self._calculus(
            [np.broadcast_to(np.asarray(f(lam), dtype=complex), lam.shape) for lam in self.eigenvalues]
        ))

    def _calculus(self, values: Sequence[np.ndarray]) -> list[np.ndarray]:
        """``U diag(v) U*`` per block; leading axes of ``v`` join the batch."""
        return [(u * v[..., None, :]) @ _adjoint(u) for v, u in zip(values, self.eigenvectors)]


def spectral(h: HermitianElement | AlgebraElement) -> SpectralDecomposition:
    """Eigendecompose ``(H + H*)/2`` blockwise, each member of a batch on its own.

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
    for b in x.blocks:
        try:
            lam, u = np.linalg.eigh((b + _adjoint(b)) / 2.0)
        except np.linalg.LinAlgError as exc:
            raise EigFailureError(str(exc)) from exc
        lam = np.asarray(lam, dtype=float)
        lam.flags.writeable = False
        vals.append(lam)
        vecs.append(_freeze(u))
    return SpectralDecomposition(x.shape, tuple(vals), tuple(vecs))


def sandwich(left: SpectralDecomposition, right: SpectralDecomposition, x: AlgebraElement,
             factor: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> AlgebraElement:
    """``U (F o (U* x V)) V*`` blockwise, with ``F = factor(lam, mu)`` entrywise.

    ``U, lam`` and ``V, mu`` are the eigendata of ``left`` and ``right``, so
    ``F = exp(iz(lam_j - mu_k))`` gives ``exp(izH_l) x exp(-izH_r)``.  The
    expression broadcasts: batched eigendata, a batch ``x`` and a factor
    with leading axes (as from an array of z) each join the batch of the
    result, and a single ``x`` is rotated into the eigenbasis once.
    """
    parts = zip(left.eigenvectors, right.eigenvectors, _eigenbasis(left, right, x, factor))
    return AlgebraElement._adopt(x.shape, [u @ m @ _adjoint(v) for u, v, m in parts])


def _eigenbasis(left: SpectralDecomposition, right: SpectralDecomposition, x: AlgebraElement,
                factor: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> list[np.ndarray]:
    """The blocks ``F o (U* x V)`` of ``sandwich`` before it rotates back.

    ``U`` and ``V`` are unitary, so these blocks have the norm of the
    sandwich itself: a caller that needs only that norm skips the two
    products per block that rotate back.
    """
    if not left.shape == right.shape == x.shape:
        raise ShapeMismatchError("element and eigendata live over different shapes")
    parts = zip(left.eigenvalues, left.eigenvectors, right.eigenvalues, right.eigenvectors, x.blocks)
    return [factor(lam, mu) * (_adjoint(u) @ xb @ v) for lam, u, mu, v, xb in parts]


def eigenvalues(h: HermitianElement | AlgebraElement) -> np.ndarray:
    """All eigenvalues of the symmetrized element, ascending per block (per member of a batch)."""
    return np.concatenate(spectral(h).eigenvalues, axis=-1)


def _lowest(t: AlgebraElement) -> float | np.ndarray:
    """The smallest eigenvalue over the blocks, per member."""
    return np.min(eigenvalues(t), axis=-1)


def is_strictly_positive(t: AlgebraElement) -> bool:
    """True iff Hermitian within tolerance with spectrum > ``POS_TOL_FACTOR * norm``, for every member."""
    return t.is_hermitian() and bool((_lowest(t) > POS_TOL_FACTOR * t.norm()).all())


def power(t: AlgebraElement, z) -> AlgebraElement:
    """Complex powers ``T**z`` of a strictly positive element (each member of a batch).

    Computed as ``exp(z * log lam)`` on the spectrum, so ``T**0 = 1``,
    ``T**1 = T`` and the group law ``T**y T**z = T**(y+z)`` hold up to
    rounding.  A number z gives one power; the shape of an array of z joins
    the batch, in the order of ``z``, broadcast against the batch of T.
    The positivity rule runs once: ``NotStrictlyPositiveError`` when the
    spectrum is not bounded below by ``POS_TOL_FACTOR * norm(T)``.
    """
    if not t.is_hermitian():
        raise NotStrictlyPositiveError("element is not Hermitian")
    lo = _lowest(t)
    low = lo <= POS_TOL_FACTOR * t.norm()
    if low.any():
        raise NotStrictlyPositiveError(f"minimum eigenvalue {np.min(lo[low]):.3e} too small")
    zs = np.asarray(z, dtype=complex)[..., None]
    sd = spectral(t)
    return AlgebraElement._adopt(t.shape, sd._calculus([np.exp(zs * np.log(lam)) for lam in sd.eigenvalues]))


@dataclass(frozen=True, eq=False)
class PositiveFunctional:
    """Positive functional on the algebra, given by a density element."""

    rho: AlgebraElement

    def __post_init__(self):
        r = self.rho
        if not r.is_hermitian(1e-12):
            raise ValueError("density element is not Hermitian")
        lo = float(np.min(eigenvalues(r)))
        if lo < -1e-12 * max(r.norm(), 1e-300):
            raise ValueError(f"density element has negative eigenvalue {lo:.3e}")

    @property
    def shape(self) -> BlockShape:
        return self.rho.shape

    def value(self, a: AlgebraElement) -> complex | np.ndarray:
        """``sum_k tr(rho_k a_k)``: a complex number, or an array of one per member of a batch."""
        v = sum(np.trace(r @ b, axis1=-2, axis2=-1) for r, b in zip(self.rho.blocks, a.blocks))
        return complex(v) if np.ndim(v) == 0 else v
