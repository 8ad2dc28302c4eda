"""Seeded random algebra and module data.

All draws go through a counter-based Philox generator, so a seed fully
determines every sample on a given platform.  Random Hermitian elements
follow the recipe: i.i.d. standard complex Gaussian matrix G, then
``(G + G*)/2`` rescaled to the requested norm.
"""

from __future__ import annotations

import numpy as np

from .algebra import AlgebraElement, BlockShape, HermitianElement
from .flows import FlowGenerator
from .hilbmod import ModuleOperator, ModuleVector, operator_from_flat
from .stone import PositiveFunctional


def rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def gaussian(r: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """I.i.d. standard complex Gaussian entries, with ``E|g|**2 = 1``."""
    return (r.standard_normal(shape) + 1j * r.standard_normal(shape)) / np.sqrt(2.0)


def random_element(r: np.random.Generator, shape: BlockShape, norm: float | None = None) -> AlgebraElement:
    x = AlgebraElement(shape, [gaussian(r, (n, n)) for n in shape])
    if norm is not None and x.norm() > 0:
        x = (norm / x.norm()) * x
    return x


def random_hermitian(r: np.random.Generator, shape: BlockShape, norm: float = 1.0) -> HermitianElement:
    blocks = []
    for n in shape:
        g = gaussian(r, (n, n))
        blocks.append((g + g.conj().T) / 2.0)
    h = AlgebraElement(shape, blocks)
    if h.norm() > 0:
        h = (norm / h.norm()) * h
    return HermitianElement(h)


def random_flow(
    r: np.random.Generator,
    shape: BlockShape,
    norm: float = 1.0,
    automorphism: bool = False,
) -> FlowGenerator:
    h_left = random_hermitian(r, shape, norm)
    if automorphism:
        return FlowGenerator(h_left, h_left)
    return FlowGenerator(h_left, random_hermitian(r, shape, norm))


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

    def rescale(x: AlgebraElement) -> HermitianElement:
        sym = 0.5 * (x + x.star())
        if sym.norm() > 0:
            sym = (norm / sym.norm()) * sym
        return HermitianElement(sym)

    alpha = FlowGenerator(rescale(al), rescale(ar))
    beta = FlowGenerator(rescale(bl), rescale(br))
    return alpha, beta


def random_vector(r: np.random.Generator, shape: BlockShape, k: int) -> ModuleVector:
    return ModuleVector([random_element(r, shape) for _ in range(k)])


def random_operator(
    r: np.random.Generator, shape: BlockShape, k: int, norm: float | None = None
) -> ModuleOperator:
    s = ModuleOperator(
        [[random_element(r, shape) for _ in range(k)] for _ in range(k)]
    )
    if norm is not None and s.norm() > 0:
        s = (norm / s.norm()) * s
    return s


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
    return operator_from_flat(shape, k, flats)


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
