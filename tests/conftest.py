import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from cstarflow import (
    AlgebraElement,
    BlockCarrier,
    BlockShape,
    ConfigInvalidError,
    FlowGenerator,
    HermitianElement,
    InducedOperator,
    ModuleOperator,
    ModuleVector,
    PositiveFunctional,
    SubalgebraBasis,
    identity_operator,
)
from cstarflow import algebra
from cstarflow.algebra import largest_singular_value
from cstarflow.cli import ScenarioConfig, validate
from cstarflow.sampling import gaussian, random_element, random_hermitian, rng


@pytest.fixture
def shape23():
    return BlockShape([2, 3])


# z-grids of 1-9 points that mix real, imaginary and complex z
Z_POINTS = st.one_of(
    st.floats(-1.5, 1.5).map(complex),
    st.floats(-1.0, 1.0).map(lambda b: complex(0.0, b)),
    st.builds(complex, st.floats(-1.5, 1.5), st.floats(-1.0, 1.0)),
)
Z_GRIDS = st.lists(Z_POINTS, min_size=1, max_size=9)


_eigvalsh = np.linalg.eigvalsh


def failing_eigvalsh(a, UPLO="L"):
    """``np.linalg.eigvalsh`` that fails on a stack of matrices, as the Grams of a check's batched norms are one."""
    if np.ndim(a) >= 3:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return _eigvalsh(a, UPLO)


def counting_eigvalsh(calls: list):
    """``np.linalg.eigvalsh``, the LAPACK call of every norm, that appends the shape of each input to ``calls``.

    A norm passes it the Gram of each member on its smaller side, so a square stack records its own shape.
    """

    def eigvalsh(a, *args, **kwargs):
        calls.append(np.shape(a))
        return _eigvalsh(a, *args, **kwargs)

    return eigvalsh


@pytest.fixture
def fresh_pool(monkeypatch):
    """No split-norm thread pool at the start of the test; the one the test starts is shut down at its end."""
    monkeypatch.setattr(algebra, "_pool", None)
    yield
    if algebra._pool is not None:
        algebra._pool.shutdown()


def load_config(path: str | Path) -> ScenarioConfig:
    """The validated config in the JSON file at ``path``; ``ConfigInvalidError`` with its problems."""
    config, problems = validate(json.loads(Path(path).read_text()))
    if problems:
        raise ConfigInvalidError(problems)
    return config


def unitary_defect(s: ModuleOperator) -> float:
    """The larger of ``norm(S* S - 1)`` and ``norm(S S* - 1)``."""
    one = identity_operator(s.shape, s.k)
    return max((s.star() @ s - one).norm(), (s @ s.star() - one).norm())


def carrier_units(carrier: BlockCarrier) -> list[ModuleOperator]:
    """The matrix units ``U_b E_ac U_b*`` of a carrier, in the order of its ``leaks``."""
    flat = BlockShape(carrier.k * n for n in carrier.shape)
    out = []
    for b, (u, parts) in enumerate(zip(carrier.unitaries, carrier.parts)):
        labels = np.repeat(np.arange(len(parts)), parts)
        for a, c in zip(*np.nonzero(labels[:, None] == labels[None, :])):
            flats = [np.zeros((m, m), dtype=complex) for m in flat]
            flats[b] = np.outer(u[:, a], u[:, c].conj())
            out.append(ModuleOperator(AlgebraElement(flat, flats), carrier.k))
    return out


def matrix_unit_operators(shape: BlockShape, k: int) -> list[ModuleOperator]:
    """Flattened matrix units: a linear basis of the full operator algebra."""
    return carrier_units(BlockCarrier.full(shape, k))


def make_rng(seed: int) -> np.random.Generator:
    return rng(seed)


def e12(n: int = 2) -> AlgebraElement:
    """Single-block matrix unit with a one in position (1, 2)."""
    m = np.zeros((n, n), dtype=complex)
    m[0, 1] = 1.0
    return AlgebraElement.from_blocks([m])


def diag_flow(*diag: float) -> FlowGenerator:
    """Automorphism flow of a single diagonal block."""
    h = HermitianElement(AlgebraElement.from_blocks([np.diag(diag).astype(complex)]))
    return FlowGenerator(h, h)


def zeros(shape: BlockShape) -> AlgebraElement:
    return AlgebraElement(shape, [np.zeros((n, n), dtype=complex) for n in shape])


def still_flow(shape: BlockShape) -> FlowGenerator:
    """The flow with zero generators: every ``alpha_z`` is the identity."""
    h = HermitianElement(zeros(shape))
    return FlowGenerator(h, h)


def vector_from_entries(entries: list[AlgebraElement]) -> ModuleVector:
    """The module vector with the given k slots."""
    shape = entries[0].shape
    return ModuleVector(shape, len(entries), [np.concatenate([e.blocks[b] for e in entries], axis=-2)
                                              for b in range(shape.num_blocks)])


def vector_entries(v: ModuleVector) -> list[AlgebraElement]:
    """The k slots of a module vector (each member of a batch) as algebra elements."""
    return [AlgebraElement(v.shape, [sb[..., i * n : (i + 1) * n, :] for n, sb in zip(v.shape, v.stacked)])
            for i in range(v.k)]


def vector_times(v: ModuleVector, a: AlgebraElement) -> ModuleVector:
    """Right module action ``v . a``."""
    return ModuleVector(v.shape, v.k, [vb @ ab for vb, ab in zip(v.stacked, a.blocks)])


def operator_from_entries(entries: list[list[AlgebraElement]]) -> ModuleOperator:
    """The operator with the given k x k grid of algebra elements: the inverse of ``operator_entries``."""
    k, shape = len(entries), entries[0][0].shape
    flats = [np.block([[e.blocks[b] for e in row] for row in entries]) for b in range(shape.num_blocks)]
    return ModuleOperator(AlgebraElement(BlockShape(k * n for n in shape), flats), k)


def operator_entries(s: ModuleOperator) -> list[list[AlgebraElement]]:
    """The k x k grid of algebra elements of an operator, cut out of its flat blocks (batches per member)."""
    return [[AlgebraElement(s.shape, [f[..., i * n : (i + 1) * n, j * n : (j + 1) * n]
                                      for n, f in zip(s.shape, s.flat.blocks)])
             for j in range(s.k)] for i in range(s.k)]


def entrywise_operator(r: np.random.Generator, shape: BlockShape, k: int, norm: float | None = None) -> ModuleOperator:
    """A Gaussian operator from k^2 single element draws, row by row, rescaled to ``norm`` unless it is None.

    The oracle of ``sampling.random_operator``, which draws the same numbers.
    """
    s = operator_from_entries([[random_element(r, shape) for _ in range(k)] for _ in range(k)])
    return s if norm is None else ModuleOperator((norm / s.norm()) * s.flat, k)


def slotwise_vectors(r: np.random.Generator, shape: BlockShape, k: int, count: int) -> ModuleVector:
    """A batch of ``count`` Gaussian vectors, each from k single element draws, stacked.

    The oracle of ``sampling.random_vector``, which draws the same numbers.
    """
    vs = [vector_from_entries([random_element(r, shape) for _ in range(k)]) for _ in range(count)]
    return ModuleVector(shape, k, [np.stack(bs) for bs in zip(*(v.stacked for v in vs))])


def blockwise_state(r: np.random.Generator, shape: BlockShape, rank: int | None = None) -> PositiveFunctional:
    """A state of normalized Gaussian density ``g g*``, with g drawn block by block as ``n_b x min(rank, n_b)``.

    With ``rank`` None it is the oracle of ``sampling.random_state``, which draws the same numbers.
    """
    blocks = []
    for n in shape:
        g = gaussian(r, (n, n if rank is None else min(rank, n)))
        blocks.append(g @ g.conj().T)
    rho = AlgebraElement(shape, blocks)
    mass = sum(np.trace(b).real for b in rho.blocks)
    return PositiveFunctional((1.0 / mass) * rho)


def automorphism_flow(r: np.random.Generator, shape: BlockShape, norm: float = 1.0) -> FlowGenerator:
    """A random automorphism flow: one random Hermitian generator of the given norm on both sides."""
    h = random_hermitian(r, shape, norm)
    return FlowGenerator(h, h)


def basis_operators(basis: SubalgebraBasis) -> list[ModuleOperator]:
    """The elements of a subalgebra basis as operators, in the order of its rows."""
    return [ModuleOperator(AlgebraElement(basis._flat_shape, f), basis.k) for f in zip(*basis.flats)]


class SwappedInduced(InducedOperator):
    """Acts as ``(+)_b I_{r_b} (x) F_b`` in place of ``(+)_b F_b (x) I_{r_b}``."""

    def apply_block(self, b, y):
        f = self.factors[b]
        rows = y.reshape(*y.shape[:-1], -1, f.shape[-1]) @ np.swapaxes(f, -1, -2)
        return rows.reshape(*rows.shape[:-2], -1)


@pytest.fixture
def swapped_induce():
    """A stand-in for ``induce`` that is a *-homomorphism, with products and
    powers factor by factor, but does not satisfy ``S_w L(v) = L(S v)``."""
    return lambda loc, op: SwappedInduced(op.flat.blocks, loc.ranks)


def exact_intertwining_residual(loc, a_om, a) -> float:
    """Spectral norm of ``a_om L(v) - L(a v)`` as matrices over the standard basis of the module.

    The oracle of ``stone.intertwining_residual``: each block is the exact
    ``k n_b r_b x k n_b^2`` matrix over the ``k n_b^2`` basis vectors of the
    block, and the norm is the largest over the blocks a state sees.
    """
    diffs = []
    for b, (f, n, r) in enumerate(zip(a.flat.blocks, loc.shape, loc.ranks)):
        if r:
            m = f.shape[0]
            units = np.eye(m * n, dtype=complex).reshape(m * n, m, n)
            diffs.append(a_om.apply_block(b, loc.apply_block(b, units)) - loc.apply_block(b, f @ units))
    return max(largest_singular_value(d) for d in diffs)


def vector_coordinates(v: ModuleVector) -> np.ndarray:
    """Complex coordinates of a module vector, slot-major then blockwise: the basis of ``operator_matrix``."""
    return np.concatenate([sb.reshape(v.k, -1) for sb in v.stacked], axis=1).ravel()


def vector_from_coordinates(shape: BlockShape, k: int, coords: np.ndarray) -> ModuleVector:
    """Inverse of ``vector_coordinates``."""
    slots = np.asarray(coords).reshape(k, -1)
    cuts = np.cumsum([n * n for n in shape])[:-1]
    cols = np.split(slots, cuts, axis=1)
    return ModuleVector(shape, k, [c.reshape(k * n, n) for n, c in zip(shape, cols)])


def induced_dense(op: InducedOperator) -> np.ndarray:
    """The d x d matrix of an induced operator, for small d."""
    blocks = []
    for f, r in zip(op.factors, op.ranks):
        m = f.shape[0]
        cell = np.zeros((m, r, m, r), dtype=complex)
        cell[:, np.arange(r), :, np.arange(r)] = f
        blocks.append(cell.reshape(m * r, m * r))
    d = sum(b.shape[0] for b in blocks)
    out = np.zeros((d, d), dtype=complex)
    pos = 0
    for b in blocks:
        out[pos : pos + b.shape[0], pos : pos + b.shape[0]] = b
        pos += b.shape[0]
    return out
