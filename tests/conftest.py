import numpy as np
import pytest
from hypothesis import strategies as st

from cstarflow import AlgebraElement, BlockShape, FlowGenerator, HermitianElement, InducedOperator, ModuleVector
from cstarflow.algebra import largest_singular_value
from cstarflow.sampling import rng


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


_svd = np.linalg.svd


def failing_svd(a, compute_uv=True):
    """``np.linalg.svd`` that fails on a stack of matrices, as the batched norms of a check pass one."""
    if np.ndim(a) >= 3:
        raise np.linalg.LinAlgError("SVD did not converge")
    return _svd(a, compute_uv=compute_uv)


def counting_svd(calls: list):
    """``np.linalg.svd`` that appends the shape of each input to ``calls``."""

    def svd(a, *args, **kwargs):
        calls.append(np.shape(a))
        return _svd(a, *args, **kwargs)

    return svd


def make_rng(seed: int) -> np.random.Generator:
    return rng(seed)


def e12(n: int = 2) -> AlgebraElement:
    """Single-block matrix unit with a one in position (1, 2)."""
    m = np.zeros((n, n), dtype=complex)
    m[0, 1] = 1.0
    return AlgebraElement.from_blocks([m])


def diag_flow(*diag: float) -> FlowGenerator:
    """Automorphism flow of a single diagonal block."""
    h = HermitianElement.from_blocks([np.diag(diag).astype(complex)])
    return FlowGenerator(h, h)


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
