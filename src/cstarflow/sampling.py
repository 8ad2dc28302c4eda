"""Seeded random algebra and module data.

All draws go through a counter-based Philox generator, so a seed fully
determines every sample on a given platform.  Random Hermitian elements
follow the recipe: i.i.d. standard complex Gaussian matrix G, then
``(G + G*)/2`` rescaled to the requested norm.

Elements and flows are drawn in two steps, so that a runner can draw its
instances one after another and finish them as one batch.  A raw draw
(``draw_elements``, ``draw_flow``, ``draw_commuting``) takes the standard
normals of one instance from the stream, in the order the complex
Gaussians, unitaries and eigenvalues consume them.  Its finish
(``elements``, ``flows``, ``commuting_flows``) forms those values from a
raw draw, or from a stack of raw draws along leading batch axes at once,
each member exactly as from its own draw.  ``random_elements``,
``random_flow`` and ``random_commuting_flows`` finish a single draw.

A batch draw takes the same normals, in the same order, as that many
single draws one after another: on one stream, consecutive
``standard_normal`` calls return the numbers of one call of their summed
size.  So each module value takes its normals in one call and is laid
out directly in the form the library stores: ``random_operator`` draws
its k x k grid of elements row by row, ``random_vector`` draws ``count``
vectors slot by slot, and ``random_state`` draws one element ``g`` and
normalizes ``g g*``.
"""

from __future__ import annotations

import itertools

import numpy as np

from .algebra import AlgebraElement, BlockShape, HermitianElement, PositiveFunctional, _adjoint
from .flows import FlowGenerator
from .hilbmod import ModuleOperator, ModuleVector


def rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def gaussian(r: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """I.i.d. standard complex Gaussian entries, with ``E|g|**2 = 1``."""
    return _complex(*r.standard_normal((2, *shape)))


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Standard complex Gaussian entries from the normals of their real and imaginary parts."""
    return (re + 1j * im) / np.sqrt(2.0)


def _complex_blocks(p: np.ndarray, n: int) -> np.ndarray:
    """The n x n complex Gaussians of runs of 2 n^2 normals, real parts first."""
    re_im = p.reshape(*p.shape[:-1], 2, n, n)
    return _complex(re_im[..., 0, :, :], re_im[..., 1, :, :])


def _runs(raw: np.ndarray, count: int, sizes: list[int]) -> list[np.ndarray]:
    """The last axis of ``raw`` as ``count`` equal runs (a new axis), each cut into pieces of ``sizes``."""
    runs = raw.reshape(*raw.shape[:-1], count, -1)
    ends = list(itertools.accumulate(sizes))
    return [runs[..., end - size : end] for size, end in zip(sizes, ends)]


def _rescaled(x: AlgebraElement, norm: float) -> AlgebraElement:
    """Each member of ``x`` times ``norm`` over its C*-norm, a zero one as it is."""
    n = np.asarray(x.norm())
    return np.divide(norm, n, out=np.ones_like(n), where=n > 0) * x


def draw_elements(r: np.random.Generator, shape: BlockShape, count: int) -> np.ndarray:
    """The raw draw of ``count`` Gaussian elements: per element and block, the real parts' normals, then the imaginary."""
    return r.standard_normal(2 * count * shape.dim)


def elements(shape: BlockShape, raw: np.ndarray, norm: float | None = None) -> AlgebraElement:
    """The elements of a raw ``draw_elements``, each rescaled to ``norm`` unless it is None.

    ``raw`` of shape ``(*B, 2 count dim)`` gives a batch of shape ``(*B, count)``.
    """
    parts = _runs(raw, raw.shape[-1] // (2 * shape.dim), [2 * n * n for n in shape])
    xs = AlgebraElement._adopt(shape, [_complex_blocks(p, n) for n, p in zip(shape, parts)])
    return xs if norm is None else _rescaled(xs, norm)


def random_elements(
    r: np.random.Generator, shape: BlockShape, count: int, norm: float | None = None
) -> AlgebraElement:
    """A batch of ``count`` Gaussian elements drawn one after another, each rescaled to ``norm`` unless it is None."""
    return elements(shape, draw_elements(r, shape, count), norm)


def random_element(r: np.random.Generator, shape: BlockShape, norm: float | None = None) -> AlgebraElement:
    return random_elements(r, shape, 1, norm)[0]


def _hermitians(x: AlgebraElement, norm: float) -> list[HermitianElement]:
    """The Hermitian parts ``(x + x*)/2`` of a batch, each rescaled to ``norm``, one per index of its last axis.

    That axis is moved to the front before the parts are normed, so that each
    part is a member ``hs[j]`` and keeps its norm from the one batched norm call.
    """
    parts = 0.5 * (x + x.star())
    hs = _rescaled(AlgebraElement._adopt(x.shape, [np.moveaxis(b, -3, 0) for b in parts.blocks]), norm)
    return [HermitianElement(hs[j]) for j in range(len(hs.blocks[0]))]


def random_hermitian(r: np.random.Generator, shape: BlockShape, norm: float = 1.0) -> HermitianElement:
    return _hermitians(random_elements(r, shape, 1), norm)[0]


def draw_flow(r: np.random.Generator, shape: BlockShape) -> np.ndarray:
    """The raw draw of a flow: its two Gaussian elements."""
    return draw_elements(r, shape, 2)


def flows(shape: BlockShape, raw: np.ndarray, norm: float) -> FlowGenerator:
    """The flow of a raw ``draw_flow``: the Hermitian parts of its elements, rescaled to ``norm``, as ``(H_l, H_r)``.

    A stack of raw draws gives one flow per member.
    """
    return FlowGenerator(*_hermitians(elements(shape, raw), norm))


def random_flow(r: np.random.Generator, shape: BlockShape, norm: float = 1.0) -> FlowGenerator:
    return flows(shape, draw_flow(r, shape), norm)


def _unitary(g: np.ndarray) -> np.ndarray:
    """The unitary factor of ``g = QR``, with the phases of R's diagonal moved into it, per matrix of a stack."""
    q, rr = np.linalg.qr(g)
    d = np.diagonal(rr, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_unitary(r: np.random.Generator, n: int) -> np.ndarray:
    return _unitary(gaussian(r, (n, n)))


def draw_commuting(r: np.random.Generator, shape: BlockShape) -> np.ndarray:
    """The raw draw of two commuting flows: for the left side, then the right, and each block,
    the Gaussian of a unitary and the eigenvalues of the two flows' generators."""
    return r.standard_normal(2 * sum(2 * n * (n + 1) for n in shape))


def commuting_flows(shape: BlockShape, raw: np.ndarray, norm: float) -> tuple[FlowGenerator, FlowGenerator]:
    """The two flows of a raw ``draw_commuting``, whose generator pairs commute sidewise exactly.

    Left generators are diagonal in one random basis, right generators in
    another, so the commutators vanish up to rounding.  A stack of raw
    draws gives one pair per member.
    """
    blocks = []
    for n, p in zip(shape, _runs(raw, 2, [2 * n * (n + 1) for n in shape])):
        u = _unitary(_complex_blocks(p[..., : 2 * n * n], n))  # (..., side, n, n)
        eig = np.swapaxes(p[..., 2 * n * n :].reshape(*p.shape[:-1], 2, n), -2, -3)  # (..., flow, side, n)
        gens = (u[..., None, :, :, :] * eig[..., None, :]) @ _adjoint(u)[..., None, :, :, :]
        blocks.append(gens.reshape(*gens.shape[:-4], 4, n, n))  # alpha left, alpha right, beta left, beta right
    hs = _hermitians(AlgebraElement._adopt(shape, blocks), norm)
    return FlowGenerator(hs[0], hs[1]), FlowGenerator(hs[2], hs[3])


def random_commuting_flows(
    r: np.random.Generator, shape: BlockShape, norm: float = 1.0
) -> tuple[FlowGenerator, FlowGenerator]:
    """Two flows whose generator pairs commute sidewise exactly (see ``commuting_flows``)."""
    return commuting_flows(shape, draw_commuting(r, shape), norm)


def random_vector(r: np.random.Generator, shape: BlockShape, k: int, count: int | None = None) -> ModuleVector:
    """A Gaussian vector, or a batch of ``count`` drawn one after another, each slot by slot."""
    batch = () if count is None else (count,)
    xs = random_elements(r, shape, k * (1 if count is None else count))
    return ModuleVector(shape, k, [b.reshape(*batch, k * n, n) for n, b in zip(shape, xs.blocks)])


def random_operator(
    r: np.random.Generator, shape: BlockShape, k: int, norm: float | None = None
) -> ModuleOperator:
    """A Gaussian operator: its k x k grid of elements drawn row by row, laid out as flat blocks ``k n_b``."""
    xs = random_elements(r, shape, k * k)
    flat = AlgebraElement._adopt(BlockShape(k * n for n in shape),
                                 [b.reshape(k, k, n, n).swapaxes(1, 2).reshape(k * n, k * n)
                                  for n, b in zip(shape, xs.blocks)])
    # the operator norm is the C*-norm of the flattened element
    return ModuleOperator(flat if norm is None else _rescaled(flat, norm), k)


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


def random_state(r: np.random.Generator, shape: BlockShape) -> PositiveFunctional:
    """Random state: the density ``g g*`` of a Gaussian element g, normalized to trace 1."""
    g = random_element(r, shape)
    rho = g @ g.star()
    mass = sum(np.trace(b).real for b in rho.blocks)
    return PositiveFunctional((1.0 / mass) * rho)
