"""Hilbert modules ``E = A^k`` over the block algebra and their operators.

Module vectors carry the A-valued inner product ``<v, w> = sum_i w_i* v_i``
(linear in the first variable, right A-linear).  Adjointable operators on
E form ``M_k(A)``, a direct sum of full matrix blocks of size ``k n_b``,
and are stored that way: one algebra element over
``BlockShape(k n_1, ..., k n_m)`` (``ModuleOperator.flat``) plus the rank
k, so norms, positivity and complex powers go through the spectral layer
of :mod:`cstarflow.algebra`.  A vector is stored as one stacked
``(k n_b) x n_b`` matrix per block (``ModuleVector.stacked``, slot i in
rows ``i n_b`` to ``(i+1) n_b``), so ``S v`` and ``<v, w>`` are one
matmul per block.  The grid and tuple ``entries``, and the constructors
taking them, are derived conveniences.  A grid of operators needs no
type of its own: it is one ``ModuleOperator`` whose ``flat`` is a batch
of elements (see :mod:`cstarflow.algebra`), as ``op_power`` gives at an
array of z, and its products and norms act per member.  At finite
dimension every module map with an adjoint is bounded, so no
unbounded-operator bookkeeping appears anywhere.

Sub-C*-algebras of the operator algebra are handled through an
orthonormal Hilbert-Schmidt basis of the span generated by a finite set
of operators, held as one array of coordinate rows; membership tests are
orthogonal projections onto that span, which keeps them basis-independent.
The span is closed one candidate at a time, with products formed on the
rows, and stops as soon as it fills the whole operator algebra.  The
whole basis is moved by a batch of operators and projected at once
(``SubalgebraBasis.leaks``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

from .algebra import (
    AlgebraElement,
    BlockShape,
    _adjoint,
    _frozen,
    eigenvalues,
    herm_calculus,
    identity,
    is_strictly_positive,
    power,
    stack,
    zeros,
)
from .errors import NotStrictlyPositiveError, ShapeMismatchError

SPAN_TOL = 1e-9
AFFILIATION_TOL = 1e-8
UNITARY_TOL = 1e-10


def _flat_shape(shape: BlockShape, k: int) -> BlockShape:
    return BlockShape(k * n for n in shape)


@dataclass(frozen=True, eq=False)
class ModuleVector:
    """Element of ``E = A^k``: one stacked ``(k n_b) x n_b`` matrix per block."""

    shape: BlockShape
    k: int
    stacked: tuple[np.ndarray, ...]

    def __init__(self, entries: Sequence[AlgebraElement]):
        """Vector with the given k slots."""
        entries = tuple(entries)
        if not entries:
            raise ValueError("module vector needs at least one entry")
        shape = entries[0].shape
        if any(e.shape != shape for e in entries):
            raise ShapeMismatchError("module vector entries over different shapes")
        self._store(
            shape,
            len(entries),
            [np.vstack([e.blocks[b] for e in entries]) for b in range(shape.num_blocks)],
        )

    def _store(self, shape: BlockShape, k: int, stacked: Sequence[np.ndarray]) -> None:
        mats = tuple(_frozen(b) for b in stacked)
        if len(mats) != shape.num_blocks or any(
            m.shape != (k * n, n) for n, m in zip(shape, mats)
        ):
            raise ShapeMismatchError("stacked blocks do not match the module")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "stacked", mats)

    @classmethod
    def from_stacked(
        cls, shape: BlockShape, k: int, stacked: Sequence[np.ndarray]
    ) -> "ModuleVector":
        """Vector whose block b is the ``(k n_b) x n_b`` matrix ``stacked[b]``."""
        v = object.__new__(cls)
        v._store(shape, k, stacked)
        return v

    @property
    def entries(self) -> tuple[AlgebraElement, ...]:
        """The k slots as algebra elements."""
        return tuple(
            AlgebraElement(
                self.shape, [sb[i * n : (i + 1) * n] for n, sb in zip(self.shape, self.stacked)]
            )
            for i in range(self.k)
        )

    def _like(self, stacked: Sequence[np.ndarray]) -> "ModuleVector":
        return ModuleVector.from_stacked(self.shape, self.k, stacked)

    def times(self, a: AlgebraElement) -> "ModuleVector":
        """Right module action ``v . a``."""
        if a.shape != self.shape:
            raise ShapeMismatchError("module and algebra element over different shapes")
        return self._like([vb @ ab for vb, ab in zip(self.stacked, a.blocks)])

    def norm(self) -> float:
        """Module norm ``norm(<v, v>)**0.5``."""
        return float(np.sqrt(inner(self, self).norm()))

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        _same_module(self, other)
        return self._like([a + b for a, b in zip(self.stacked, other.stacked)])

    def __sub__(self, other: "ModuleVector") -> "ModuleVector":
        _same_module(self, other)
        return self._like([a - b for a, b in zip(self.stacked, other.stacked)])

    def __mul__(self, c: complex) -> "ModuleVector":
        return self._like([c * b for b in self.stacked])

    __rmul__ = __mul__


def _same_module(v, w) -> None:
    if v.k != w.k or v.shape != w.shape:
        raise ShapeMismatchError("module ranks or shapes differ")


def inner(v: ModuleVector, w: ModuleVector) -> AlgebraElement:
    """A-valued inner product ``sum_i w_i* v_i``, linear in ``v``."""
    _same_module(v, w)
    return AlgebraElement(v.shape, [_adjoint(b) @ a for a, b in zip(v.stacked, w.stacked)])


@dataclass(frozen=True, eq=False)
class ModuleOperator:
    """Adjointable operator on ``E = A^k``, stored as its flattened element."""

    flat: AlgebraElement
    k: int
    shape: BlockShape

    def __init__(self, entries: Sequence[Sequence[AlgebraElement]]):
        """Operator with the given k x k grid of algebra elements."""
        grid = tuple(tuple(row) for row in entries)
        k = len(grid)
        if k < 1 or any(len(row) != k for row in grid):
            raise ShapeMismatchError("operator grid must be square")
        shape = grid[0][0].shape
        if any(e.shape != shape for row in grid for e in row):
            raise ShapeMismatchError("operator entries over different shapes")
        flats = [
            np.block([[e.blocks[b] for e in row] for row in grid])
            for b in range(shape.num_blocks)
        ]
        self._store(AlgebraElement(_flat_shape(shape, k), flats), k)

    def _store(self, flat: AlgebraElement, k: int) -> None:
        dims = flat.shape.block_dims
        if k < 1 or any(n % k for n in dims):
            raise ShapeMismatchError(f"flattened blocks {dims} do not fit module rank {k}")
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "shape", BlockShape(n // k for n in dims))

    @classmethod
    def from_flat(cls, flat: AlgebraElement, k: int) -> "ModuleOperator":
        """Operator of rank ``k`` whose flattened element is ``flat``."""
        s = object.__new__(cls)
        s._store(flat, k)
        return s

    @property
    def entries(self) -> tuple[tuple[AlgebraElement, ...], ...]:
        """The k x k grid of algebra elements, cut out of the flat blocks."""
        dims, k = self.shape.block_dims, self.k
        return tuple(
            tuple(
                AlgebraElement(
                    self.shape,
                    [
                        f[i * n : (i + 1) * n, j * n : (j + 1) * n]
                        for n, f in zip(dims, self.flat.blocks)
                    ],
                )
                for j in range(k)
            )
            for i in range(k)
        )

    def star(self) -> "ModuleOperator":
        """Adjoint: ``(S*)_{ij} = (S_{ji})*``."""
        return ModuleOperator.from_flat(self.flat.star(), self.k)

    def norm(self) -> float:
        """Operator norm on E: largest singular value over flattened blocks.

        Kept on ``flat`` after the first call, like every element norm.
        """
        return self.flat.norm()

    def __add__(self, other: "ModuleOperator") -> "ModuleOperator":
        _same_module(self, other)
        return ModuleOperator.from_flat(self.flat + other.flat, self.k)

    def __sub__(self, other: "ModuleOperator") -> "ModuleOperator":
        _same_module(self, other)
        return ModuleOperator.from_flat(self.flat - other.flat, self.k)

    def __mul__(self, c: complex) -> "ModuleOperator":
        return ModuleOperator.from_flat(c * self.flat, self.k)

    __rmul__ = __mul__

    def __matmul__(self, other):
        _same_module(self, other)
        if isinstance(other, ModuleVector):
            return other._like([f @ vb for f, vb in zip(self.flat.blocks, other.stacked)])
        return ModuleOperator.from_flat(self.flat @ other.flat, self.k)

    def __repr__(self) -> str:
        return f"ModuleOperator(k={self.k}, dims={self.shape.block_dims})"


def operator_from_flat(shape: BlockShape, k: int, flats: Sequence[np.ndarray]) -> ModuleOperator:
    """Operator with the given ``(k n_b) x (k n_b)`` blocks, ``flat.blocks`` of the result."""
    return ModuleOperator.from_flat(AlgebraElement(_flat_shape(shape, k), flats), k)


def identity_operator(shape: BlockShape, k: int) -> ModuleOperator:
    return ModuleOperator.from_flat(identity(_flat_shape(shape, k)), k)


def zero_operator(shape: BlockShape, k: int) -> ModuleOperator:
    return ModuleOperator.from_flat(zeros(_flat_shape(shape, k)), k)


def is_unitary(s: ModuleOperator) -> bool:
    one = identity_operator(s.shape, s.k)
    return (s.star() @ s - one).norm() <= UNITARY_TOL and (s @ s.star() - one).norm() <= UNITARY_TOL


def strictly_positive(s: ModuleOperator) -> bool:
    """Hermitian with spectrum above ``1e-10 * norm`` on every block."""
    return is_strictly_positive(s.flat)


def op_power(t: ModuleOperator, z) -> ModuleOperator:
    """Complex power ``T**z`` of a strictly positive module operator.

    ``algebra.power`` of the flattened element, so an array of z gives the
    operators with a batched ``flat``; raises ``NotStrictlyPositiveError``
    (from there) otherwise.
    """
    return ModuleOperator.from_flat(power(t.flat, z), t.k)


def op_log(t: ModuleOperator) -> ModuleOperator:
    """Hermitian logarithm of a strictly positive module operator."""
    if not strictly_positive(t):
        raise NotStrictlyPositiveError("module operator is not strictly positive")
    return ModuleOperator.from_flat(herm_calculus(t.flat, np.log), t.k)


def op_exp(h: ModuleOperator) -> ModuleOperator:
    """Exponential of a Hermitian module operator; strictly positive."""
    return ModuleOperator.from_flat(herm_calculus(h.flat, np.exp), h.k)


def condition_number(t: ModuleOperator) -> float:
    lam = eigenvalues(t.flat)
    lo = float(np.min(lam))
    if lo <= 0:
        return float("inf")
    return float(np.max(lam)) / lo


def operator_vec(s: ModuleOperator) -> np.ndarray:
    """Hilbert-Schmidt coordinates of an operator (flattened blocks)."""
    return _flat_rows(s.flat.blocks)


def vector_coordinates(v: ModuleVector) -> np.ndarray:
    """Complex coordinates of a module vector, slot-major then blockwise."""
    return np.concatenate([sb.reshape(v.k, -1) for sb in v.stacked], axis=1).ravel()


def vector_from_coordinates(shape: BlockShape, k: int, coords: np.ndarray) -> ModuleVector:
    """Inverse of ``vector_coordinates``."""
    slots = np.asarray(coords).reshape(k, -1)
    cuts = np.cumsum([n * n for n in shape])[:-1]
    cols = np.split(slots, cuts, axis=1)
    return ModuleVector.from_stacked(shape, k, [c.reshape(k * n, n) for n, c in zip(shape, cols)])


def operator_matrix(s: ModuleOperator) -> np.ndarray:
    """Matrix of ``v -> S v`` in the ``vector_coordinates`` basis."""
    cell = s.shape.dim
    d = s.k * cell
    out = np.zeros((d, d), dtype=complex)
    pos = 0
    for n, f in zip(s.shape, s.flat.blocks):
        # kron(f, I_n) is S acting on this block's rows, indexed slot-major
        idx = (np.arange(s.k)[:, None] * cell + pos + np.arange(n * n)).ravel()
        out[np.ix_(idx, idx)] = np.kron(f, np.eye(n))
        pos += n * n
    return out


class SubalgebraBasis:
    """Orthonormal Hilbert-Schmidt basis of a generated *-subalgebra.

    Held only as its coordinate rows ``_q`` (one ``operator_vec`` per
    element); ``flats`` cuts them into block stacks without copying, and
    ``basis`` builds the operators on first use.  Candidates are drawn in
    order, first the generators and their adjoints; each kept row then
    adds its adjoint and its products with every kept row, in both
    orders, each formed on the rows only when drawn.  A candidate is projected
    against the kept rows by classical Gram-Schmidt run twice,
    ``v <- v - Q^T (Q* v)``, and kept iff its residual exceeds
    ``SPAN_TOL * max(1, max ||g||)``.  The closure stops when no
    candidate is left or the span fills ``M_k(A)``.  The span must then act
    nondegenerately: its unit (the HS projection of the identity) must
    be the identity operator.
    """

    def __init__(self, generators: Sequence[ModuleOperator]):
        generators = list(generators)
        if not generators:
            raise ValueError("need at least one generator")
        self.shape, self.k = generators[0].shape, generators[0].k
        self._build(generators)
        self._check_nondegenerate()

    @property
    def dim(self) -> int:
        return len(self._q)

    @property
    def flats(self) -> list[np.ndarray]:
        """The basis as one ``(dim, k n_b, k n_b)`` stack per block, views of ``_q``."""
        return _unvec_flats(self.shape, self.k, self._q)

    @cached_property
    def basis(self) -> tuple[ModuleOperator, ...]:
        """The basis elements as operators."""
        return tuple(operator_from_flat(self.shape, self.k, f) for f in zip(*self.flats))

    def _build(self, generators: list[ModuleOperator]) -> None:
        shape, k = self.shape, self.k
        tol = SPAN_TOL * max(float(np.max(stack([g.flat for g in generators]).norm())), 1.0)
        full = sum((k * n) ** 2 for n in shape)
        q = np.empty((full, full), dtype=complex)
        q_conj = np.empty_like(q)  # the conjugated rows, kept as they are kept
        kept = 0
        # candidate streams, drawn in order; each kept row appends its own
        # stream while the loop runs, and a row is formed only when drawn
        streams = [map(operator_vec, chain(generators, (g.star() for g in generators)))]
        for vec in chain.from_iterable(streams):
            rows, rows_conj = q[:kept], q_conj[:kept]
            for _ in range(2):  # classical Gram-Schmidt, twice
                vec = vec - rows.T @ (rows_conj @ vec)
            nrm = float(np.linalg.norm(vec))
            if nrm <= tol:
                continue
            q[kept] = vec / nrm
            q_conj[kept] = q[kept].conj()
            streams.append(_candidates(shape, k, q, kept))
            kept += 1
            if kept == full:  # a full span is all of M_k(A)
                break
        self._q = q[:kept].copy()

    def _check_nondegenerate(self) -> None:
        defect = (self.unit() - identity_operator(self.shape, self.k)).norm()
        if defect > 1e-8:
            raise ValueError(f"subalgebra acts degenerately: unit differs from identity by {defect:.3e}")

    def unit(self) -> ModuleOperator:
        """Unit of the span: HS projection of the identity operator."""
        vec = operator_vec(identity_operator(self.shape, self.k))
        proj = self._q.T @ (self._q.conj() @ vec)
        return operator_from_flat(self.shape, self.k, _unvec_flats(self.shape, self.k, proj))

    def residual(self, s: ModuleOperator) -> float:
        """HS distance from ``s`` to the span."""
        vec = operator_vec(s)
        return float(np.linalg.norm(vec - self._q.T @ (self._q.conj() @ vec)))

    def leaks(self, left: AlgebraElement, right: AlgebraElement | None = None) -> np.ndarray:
        """HS distances from ``L_g b R_g`` to the span, for every basis element b: ``(*G, dim)``.

        ``left`` and ``right`` (if given) are batches of flattened operators of batch
        shape G, as ``algebra.power`` gives for an array of z: one stacked matmul per
        block, one projection.
        """
        moved = [lb[..., None, :, :] @ f for lb, f in zip(left.blocks, self.flats)]
        if right is not None:
            moved = [m @ rb[..., None, :, :] for m, rb in zip(moved, right.blocks)]
        rows = _flat_rows(moved)
        return np.linalg.norm(rows - (rows @ self._q.conj().T) @ self._q, axis=-1)


def _flat_rows(flats: Sequence[np.ndarray]) -> np.ndarray:
    """Coordinate rows of flat blocks; leading axes carry through."""
    return np.concatenate([f.reshape(*f.shape[:-2], f.shape[-1] ** 2) for f in flats], axis=-1)


def _unvec_flats(shape: BlockShape, k: int, vec: np.ndarray) -> list[np.ndarray]:
    """Inverse of ``_flat_rows``: views of the flat blocks, leading axes carried through."""
    parts = np.split(vec, np.cumsum([(k * n) ** 2 for n in shape])[:-1], axis=-1)
    return [p.reshape(*vec.shape[:-1], k * n, k * n) for n, p in zip(shape, parts)]


def _row_product(shape: BlockShape, k: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coordinate row of the product of the operators with rows ``a`` and ``b``."""
    return _flat_rows([x @ y for x, y in zip(_unvec_flats(shape, k, a), _unvec_flats(shape, k, b))])


def _candidates(shape: BlockShape, k: int, q: np.ndarray, i: int) -> Iterator[np.ndarray]:
    """What kept row i adds to the closure: its adjoint, then its products with rows 0..i."""
    yield _flat_rows([x.conj().T for x in _unvec_flats(shape, k, q[i])])
    for j in range(i + 1):
        yield _row_product(shape, k, q[i], q[j])
        yield _row_product(shape, k, q[j], q[i])


def matrix_unit_operators(shape: BlockShape, k: int) -> list[ModuleOperator]:
    """Flattened matrix units: a linear basis of the full operator algebra."""
    out = []
    for b, n in enumerate(shape.block_dims):
        m = k * n
        for r in range(m):
            for c in range(m):
                flats = [np.zeros((k * nn, k * nn), dtype=complex) for nn in shape.block_dims]
                flats[b][r, c] = 1.0
                out.append(operator_from_flat(shape, k, flats))
    return out


def affiliation_test(alpha: ModuleOperator, basis: SubalgebraBasis, t_samples: Sequence[float]) -> bool:
    """Does the unitary group of ``alpha`` act inside the subalgebra?

    True iff ``alpha**(it) b`` stays in the span for every sampled ``t``
    and every basis element ``b`` (Hilbert-Schmidt projection residual
    below ``AFFILIATION_TOL * norm(b)``, one ``basis.leaks`` call), together
    with a Lipschitz probe at a nearby time standing in for norm continuity.
    ``alpha`` must be strictly positive (``NotStrictlyPositiveError``).
    """
    log_norm = op_log(alpha).norm()
    delta = 1e-3 / max(1.0, log_norm)
    u = power(alpha.flat, 1j * np.array([*map(float, t_samples), delta]))
    carrier = AlgebraElement(alpha.flat.shape, basis.flats)
    norms = carrier.norm()
    if (basis.leaks(u[:-1]) > AFFILIATION_TOL * np.maximum(norms, 1e-300)).any():
        return False
    drift = (u[-1] @ carrier - carrier).norm()
    return bool((drift <= delta * log_norm * norms * (1.0 + 1e-8) + 1e-12).all())
