"""Hilbert modules ``E = A^k`` over the block algebra and their operators.

Module vectors carry the A-valued inner product ``<v, w> = sum_i w_i* v_i``
(linear in the first variable, right A-linear).  Adjointable operators on
E form ``M_k(A)``, a direct sum of full matrix blocks of size ``k n_b``,
and are stored that way: one algebra element over
``BlockShape(k n_1, ..., k n_m)`` plus the rank k, so norms, positivity
and complex powers go through the spectral layer of
:mod:`cstarflow.algebra`.  A vector is stored as one stacked
``(k n_b) x n_b`` matrix per block (slot i in rows ``i n_b`` to
``(i+1) n_b``), so ``S v`` and ``<v, w>`` are one matmul per block.
Each value is built from what it stores, ``ModuleOperator(flat, k)`` and
``ModuleVector(shape, k, stacked)``; the k x k grid and the k slots are
derived conveniences, read as ``entries`` and built by ``from_entries``.
Coordinate rows (``operator_vec``) are ``algebra.coordinate_rows`` of the
flat blocks.  A grid of operators needs no type of its own: it is one
``ModuleOperator`` whose ``flat`` is a batch of elements (see
:mod:`cstarflow.algebra`), as ``op_power`` gives at an array of z, and
its products and norms act per member, on a vector too; a batch of
vectors carries the batch axes on its stacked blocks.  At finite
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

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

from .algebra import (
    AlgebraElement,
    BlockShape,
    _adjoint,
    _frozen,
    coordinate_rows,
    eigenvalues,
    herm_calculus,
    identity,
    is_strictly_positive,
    power,
    stack,
)
from .errors import NotStrictlyPositiveError, ShapeMismatchError

SPAN_TOL = 1e-9
AFFILIATION_TOL = 1e-8


def _flat_shape(shape: BlockShape, k: int) -> BlockShape:
    return BlockShape(k * n for n in shape)


@dataclass(frozen=True, eq=False)
class ModuleVector:
    """Element of ``E = A^k``: one stacked ``(k n_b) x n_b`` matrix per block, copied read-only.

    A batch has blocks ``(*B, k n_b, n_b)``, one ``B`` for all blocks, and
    norms per member.  ``ShapeMismatchError`` unless the blocks fit ``shape`` and ``k``.
    """

    shape: BlockShape
    k: int
    stacked: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = tuple(_frozen(b) for b in self.stacked)
        batch = mats[0].shape[:-2] if mats else ()
        if len(mats) != self.shape.num_blocks or any(
            m.shape != (*batch, self.k * n, n) for n, m in zip(self.shape, mats)
        ):
            raise ShapeMismatchError("stacked blocks do not match the module")
        object.__setattr__(self, "stacked", mats)

    @classmethod
    def from_entries(cls, entries: Sequence[AlgebraElement]) -> "ModuleVector":
        """Vector with the given k slots."""
        entries = tuple(entries)
        if not entries:
            raise ValueError("module vector needs at least one entry")
        shape = entries[0].shape
        if any(e.shape != shape for e in entries):
            raise ShapeMismatchError("module vector entries over different shapes")
        return cls(
            shape,
            len(entries),
            [np.concatenate([e.blocks[b] for e in entries], axis=-2) for b in range(shape.num_blocks)],
        )

    @property
    def entries(self) -> tuple[AlgebraElement, ...]:
        """The k slots as algebra elements."""
        return tuple(
            AlgebraElement(
                self.shape, [sb[..., i * n : (i + 1) * n, :] for n, sb in zip(self.shape, self.stacked)]
            )
            for i in range(self.k)
        )

    def times(self, a: AlgebraElement) -> "ModuleVector":
        """Right module action ``v . a``."""
        if a.shape != self.shape:
            raise ShapeMismatchError("module and algebra element over different shapes")
        return ModuleVector(self.shape, self.k, [vb @ ab for vb, ab in zip(self.stacked, a.blocks)])

    def norm(self) -> float | np.ndarray:
        """Module norm ``norm(<v, v>)**0.5``, per member."""
        return np.sqrt(inner(self, self).norm())

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        _same_module(self, other)
        return ModuleVector(self.shape, self.k, [a + b for a, b in zip(self.stacked, other.stacked)])

    def __sub__(self, other: "ModuleVector") -> "ModuleVector":
        _same_module(self, other)
        return ModuleVector(self.shape, self.k, [a - b for a, b in zip(self.stacked, other.stacked)])

    def __mul__(self, c: complex) -> "ModuleVector":
        return ModuleVector(self.shape, self.k, [c * b for b in self.stacked])

    __rmul__ = __mul__


def _same_module(v, w) -> None:
    if v.k != w.k or v.shape != w.shape:
        raise ShapeMismatchError("module ranks or shapes differ")


def inner(v: ModuleVector, w: ModuleVector) -> AlgebraElement:
    """A-valued inner product ``sum_i w_i* v_i``, linear in ``v``."""
    _same_module(v, w)
    return AlgebraElement._adopt(v.shape, [_adjoint(b) @ a for a, b in zip(v.stacked, w.stacked)])


@dataclass(frozen=True, eq=False)
class ModuleOperator:
    """Adjointable operator on ``E = A^k``, stored as its flattened element (or a batch).

    ``shape`` is worked out from ``flat``; ``ShapeMismatchError`` unless k divides every block.
    """

    flat: AlgebraElement
    k: int
    shape: BlockShape = field(init=False)

    def __post_init__(self):
        dims = self.flat.shape.block_dims
        if self.k < 1 or any(n % self.k for n in dims):
            raise ShapeMismatchError(f"flattened blocks {dims} do not fit module rank {self.k}")
        object.__setattr__(self, "shape", BlockShape(n // self.k for n in dims))

    @classmethod
    def from_entries(cls, entries: Sequence[Sequence[AlgebraElement]]) -> "ModuleOperator":
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
        return cls(AlgebraElement._adopt(_flat_shape(shape, k), flats), k)

    @property
    def entries(self) -> tuple[tuple[AlgebraElement, ...], ...]:
        """The k x k grid of algebra elements, cut out of the flat blocks (batches per member)."""
        dims, k = self.shape.block_dims, self.k
        return tuple(
            tuple(
                AlgebraElement(
                    self.shape,
                    [
                        f[..., i * n : (i + 1) * n, j * n : (j + 1) * n]
                        for n, f in zip(dims, self.flat.blocks)
                    ],
                )
                for j in range(k)
            )
            for i in range(k)
        )

    def star(self) -> "ModuleOperator":
        """Adjoint: ``(S*)_{ij} = (S_{ji})*``."""
        return ModuleOperator(self.flat.star(), self.k)

    def norm(self) -> float:
        """Operator norm on E: largest singular value over flattened blocks.

        Kept on ``flat`` after the first call, like every element norm.
        """
        return self.flat.norm()

    def __add__(self, other: "ModuleOperator") -> "ModuleOperator":
        _same_module(self, other)
        return ModuleOperator(self.flat + other.flat, self.k)

    def __sub__(self, other: "ModuleOperator") -> "ModuleOperator":
        _same_module(self, other)
        return ModuleOperator(self.flat - other.flat, self.k)

    def __mul__(self, c: complex) -> "ModuleOperator":
        return ModuleOperator(c * self.flat, self.k)

    __rmul__ = __mul__

    def __matmul__(self, other):
        _same_module(self, other)
        if isinstance(other, ModuleVector):
            return ModuleVector(other.shape, other.k, [f @ vb for f, vb in zip(self.flat.blocks, other.stacked)])
        return ModuleOperator(self.flat @ other.flat, self.k)

    def __repr__(self) -> str:
        return f"ModuleOperator(k={self.k}, dims={self.shape.block_dims})"


def identity_operator(shape: BlockShape, k: int) -> ModuleOperator:
    return ModuleOperator(identity(_flat_shape(shape, k)), k)


def strictly_positive(s: ModuleOperator) -> bool:
    """Hermitian with spectrum above ``1e-10 * norm`` on every block."""
    return is_strictly_positive(s.flat)


def op_power(t: ModuleOperator, z) -> ModuleOperator:
    """Complex power ``T**z`` of a strictly positive module operator.

    ``algebra.power`` of the flattened element, so an array of z gives the
    operators with a batched ``flat``; raises ``NotStrictlyPositiveError``
    (from there) otherwise.
    """
    return ModuleOperator(power(t.flat, z), t.k)


def op_log(t: ModuleOperator) -> ModuleOperator:
    """Hermitian logarithm of a strictly positive module operator."""
    if not strictly_positive(t):
        raise NotStrictlyPositiveError("module operator is not strictly positive")
    return ModuleOperator(herm_calculus(t.flat, np.log), t.k)


def op_exp(h: ModuleOperator) -> ModuleOperator:
    """Exponential of a Hermitian module operator; strictly positive."""
    return ModuleOperator(herm_calculus(h.flat, np.exp), h.k)


def condition_number(t: ModuleOperator) -> float:
    lam = eigenvalues(t.flat)
    lo = float(np.min(lam))
    if lo <= 0:
        return float("inf")
    return float(np.max(lam)) / lo


def operator_vec(s: ModuleOperator) -> np.ndarray:
    """Hilbert-Schmidt coordinates of an operator (flattened blocks)."""
    return coordinate_rows(s.flat.blocks)


def operator_matrix(s: ModuleOperator) -> np.ndarray:
    """Matrix of ``v -> S v`` on the coordinates of a vector: slot-major, then each block row-major."""
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
        self._flat_shape = generators[0].flat.shape
        self._build(generators)
        self._check_nondegenerate()

    @property
    def dim(self) -> int:
        return len(self._q)

    @property
    def flats(self) -> list[np.ndarray]:
        """The basis as one ``(dim, k n_b, k n_b)`` stack per block, views of ``_q``."""
        return _unvec_flats(self._flat_shape, self._q)

    @cached_property
    def basis(self) -> tuple[ModuleOperator, ...]:
        """The basis elements as operators."""
        return tuple(ModuleOperator(AlgebraElement(self._flat_shape, f), self.k) for f in zip(*self.flats))

    def _build(self, generators: list[ModuleOperator]) -> None:
        flat = self._flat_shape
        tol = SPAN_TOL * max(float(np.max(stack([g.flat for g in generators]).norm())), 1.0)
        full = flat.dim
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
            streams.append(_candidates(flat, q, kept))
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
        return ModuleOperator(AlgebraElement(self._flat_shape, _unvec_flats(self._flat_shape, proj)), self.k)

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
        rows = coordinate_rows(moved)
        return np.linalg.norm(rows - (rows @ self._q.conj().T) @ self._q, axis=-1)


def _unvec_flats(flat: BlockShape, vec: np.ndarray) -> list[np.ndarray]:
    """Inverse of ``coordinate_rows`` over the flat shape: views of the blocks, leading axes carried through."""
    parts = np.split(vec, np.cumsum([n * n for n in flat])[:-1], axis=-1)
    return [p.reshape(*vec.shape[:-1], n, n) for n, p in zip(flat, parts)]


def _row_product(flat: BlockShape, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coordinate row of the product of the operators with rows ``a`` and ``b``."""
    return coordinate_rows([x @ y for x, y in zip(_unvec_flats(flat, a), _unvec_flats(flat, b))])


def _candidates(flat: BlockShape, q: np.ndarray, i: int) -> Iterator[np.ndarray]:
    """What kept row i adds to the closure: its adjoint, then its products with rows 0..i."""
    yield coordinate_rows([x.conj().T for x in _unvec_flats(flat, q[i])])
    for j in range(i + 1):
        yield _row_product(flat, q[i], q[j])
        yield _row_product(flat, q[j], q[i])


def matrix_unit_operators(shape: BlockShape, k: int) -> list[ModuleOperator]:
    """Flattened matrix units: a linear basis of the full operator algebra."""
    flat = _flat_shape(shape, k)
    out = []
    for b, m in enumerate(flat):
        for r in range(m):
            for c in range(m):
                flats = [np.zeros((mm, mm), dtype=complex) for mm in flat]
                flats[b][r, c] = 1.0
                out.append(ModuleOperator(AlgebraElement(flat, flats), k))
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
