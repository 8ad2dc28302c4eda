"""Seeded random algebra and module data.

All draws go through a counter-based Philox generator, so a seed fully
determines every sample on a given platform.  Random Hermitian elements
follow the recipe: i.i.d. standard complex Gaussian matrix G, then
``(G + G*)/2`` rescaled to the requested norm.
"""

from __future__ import annotations

import numpy as np

from .algebra import AlgebraElement, BlockShape, HermitianElement, stack
from .flows import FlowGenerator
from .hilbmod import ModuleOperator, ModuleVector
from .stone import PositiveFunctional


def rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def gaussian(r: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """I.i.d. standard complex Gaussian entries, with ``E|g|**2 = 1``."""
    return (r.standard_normal(shape) + 1j * r.standard_normal(shape)) / np.sqrt(2.0)


def _rescaled(x: AlgebraElement, norm: float) -> AlgebraElement:
    """Each member of ``x`` times ``norm`` over its C*-norm, a zero one as it is."""
    n = np.asarray(x.norm())
    return np.divide(norm, n, out=np.ones_like(n), where=n > 0) * x


def random_elements(
    r: np.random.Generator, shape: BlockShape, count: int, norm: float | None = None
) -> AlgebraElement:
    """A batch of ``count`` Gaussian elements drawn one after another, each rescaled to ``norm`` unless it is None."""
    draws = [[gaussian(r, (n, n)) for n in shape] for _ in range(count)]
    xs = AlgebraElement(shape, [np.array(b) for b in zip(*draws)])
    return xs if norm is None else _rescaled(xs, norm)


def random_element(r: np.random.Generator, shape: BlockShape, norm: float | None = None) -> AlgebraElement:
    return random_elements(r, shape, 1, norm)[0]


def _hermitians(x: AlgebraElement, norm: float) -> list[HermitianElement]:
    """The Hermitian parts ``(x + x*)/2`` of the members of a batch, each rescaled to ``norm``."""
    hs = _rescaled(0.5 * (x + x.star()), norm)
    return [HermitianElement(hs[i]) for i in range(len(hs.blocks[0]))]


def random_hermitian(r: np.random.Generator, shape: BlockShape, norm: float = 1.0) -> HermitianElement:
    return _hermitians(random_elements(r, shape, 1), norm)[0]


def random_flow(
    r: np.random.Generator,
    shape: BlockShape,
    norm: float = 1.0,
    automorphism: bool = False,
) -> FlowGenerator:
    hs = _hermitians(random_elements(r, shape, 1 if automorphism else 2), norm)
    return FlowGenerator(hs[0], hs[-1])


def random_unitary(r: np.random.Generator, n: int) -> np.ndarray:
    q, rr = np.linalg.qr(gaussian(r, (n, n)))
    return q * (np.diagonal(rr) / np.abs(np.diagonal(rr)))


def random_commuting_flows(
    r: np.random.Generator, shape: BlockShape, norm: float = 1.0
) -> tuple[FlowGenerator, FlowGenerator]:
    """Two flows whose generator pairs commute sidewise exactly.

    Left generators are diagonal in one random basis, right generators
    in another, so the commutators vanish up to rounding.
    """

    def diag_pair():
        blocks_a, blocks_b = [], []
        for n in shape:
            u = random_unitary(r, n)
            da = r.standard_normal(n)
            db = r.standard_normal(n)
            blocks_a.append((u * da) @ u.conj().T)
            blocks_b.append((u * db) @ u.conj().T)
        return AlgebraElement(shape, blocks_a), AlgebraElement(shape, blocks_b)

    al, bl = diag_pair()
    ar, br = diag_pair()
    hs = _hermitians(stack([al, ar, bl, br]), norm)
    return FlowGenerator(hs[0], hs[1]), FlowGenerator(hs[2], hs[3])


def random_vector(r: np.random.Generator, shape: BlockShape, k: int) -> ModuleVector:
    xs = random_elements(r, shape, k)
    return ModuleVector(shape, k, [b.reshape(k * n, n) for n, b in zip(shape, xs.blocks)])


def random_operator(
    r: np.random.Generator, shape: BlockShape, k: int, norm: float | None = None
) -> ModuleOperator:
    s = ModuleOperator.from_entries([[random_element(r, shape) for _ in range(k)] for _ in range(k)])
    # the operator norm is the C*-norm of the flattened element
    return s if norm is None else ModuleOperator(_rescaled(s.flat, norm), k)


def random_positive_operator(
    r: np.random.Generator, shape: BlockShape, k: int, cond: float = 100.0
) -> ModuleOperator:
    """Strictly positive operator with spectrum spread at most ``cond``."""
    flats = []
    for n in shape:
        m = k * n
        u = random_unitary(r, m)
        log_lam = r.uniform(-0.5, 0.5, size=m) * np.log(cond)
        flats.append((u * np.exp(log_lam)) @ u.conj().T)
    return ModuleOperator(AlgebraElement.from_blocks(flats), k)


def random_state(r: np.random.Generator, shape: BlockShape, rank: int | None = None) -> PositiveFunctional:
    """Random state: normalized Gaussian density, optionally rank-limited."""
    blocks = []
    for n in shape:
        m = n if rank is None else min(rank, n)
        g = gaussian(r, (n, m))
        blocks.append(g @ g.conj().T)
    rho = AlgebraElement(shape, blocks)
    mass = sum(np.trace(b).real for b in rho.blocks)
    return PositiveFunctional((1.0 / mass) * rho)
