"""Random draws: stream order, and the batch finish of stacked raw draws."""

import numpy as np
import pytest

from cstarflow import AlgebraElement, BlockShape
from cstarflow.algebra import stack
from cstarflow.sampling import (
    commuting_flows,
    draw_commuting,
    draw_elements,
    draw_flow,
    elements,
    flows,
    gaussian,
    random_commuting_flows,
    random_elements,
    random_flow,
    random_unitary,
    rng,
)

from conftest import counting_svd

EPS = np.finfo(float).eps

SHAPES = [BlockShape([2, 3]), BlockShape([1]), BlockShape([4, 1, 2])]


def same(x: AlgebraElement, y: AlgebraElement) -> bool:
    return all(np.array_equal(a, b) for a, b in zip(x.blocks, y.blocks))


def one_at_a_time_commuting(r, shape, norm):
    """The generators of two commuting flows as drawn one block at a time: (alpha_l, alpha_r, beta_l, beta_r)."""

    def diag_pair():
        blocks_a, blocks_b = [], []
        for n in shape:
            u = random_unitary(r, n)
            da, db = r.standard_normal(n), r.standard_normal(n)
            blocks_a.append((u * da) @ u.conj().T)
            blocks_b.append((u * db) @ u.conj().T)
        return AlgebraElement(shape, blocks_a), AlgebraElement(shape, blocks_b)

    (al, bl), (ar, br) = diag_pair(), diag_pair()
    hs = stack([al, ar, bl, br])
    hs = 0.5 * (hs + hs.star())
    return norm / np.asarray(hs.norm()) * hs


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_elements_take_the_stream_block_by_block(shape):
    xs = random_elements(rng(3), shape, 2)
    r = rng(3)
    for i in range(2):
        assert same(xs[i], AlgebraElement(shape, [gaussian(r, (n, n)) for n in shape]))


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_commuting_flows_take_the_stream_block_by_block(shape):
    alpha, beta = random_commuting_flows(rng(4), shape, 1.5)
    want = one_at_a_time_commuting(rng(4), shape, 1.5)
    for i, h in enumerate((alpha.h_left, alpha.h_right, beta.h_left, beta.h_right)):
        assert same(h.value, want[i])


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_a_stack_of_draws_finishes_as_each_draw(shape):
    r = rng(5)
    raws = [(draw_elements(r, shape, 3), draw_flow(r, shape), draw_flow(r, shape, automorphism=True),
             draw_commuting(r, shape)) for _ in range(4)]
    xs_raw, flow_raw, auto_raw, comm_raw = (np.array(column) for column in zip(*raws))
    xs, g, auto = elements(shape, xs_raw, 1.0), flows(shape, flow_raw, 2.0), flows(shape, auto_raw, 0.5)
    alpha, beta = commuting_flows(shape, comm_raw, 1.5)
    assert auto.h_left is auto.h_right
    for i, (x_raw, f_raw, a_raw, c_raw) in enumerate(raws):
        assert same(xs[i], elements(shape, x_raw, 1.0))
        for batch, member in ((g, flows(shape, f_raw, 2.0)), (auto, flows(shape, a_raw, 0.5)),
                              *zip((alpha, beta), commuting_flows(shape, c_raw, 1.5))):
            assert same(batch.h_left.value[i], member.h_left.value)
            assert same(batch.h_right.value[i], member.h_right.value)



@pytest.mark.parametrize("batch", [(), (3,)], ids=["one", "batch"])
def test_generator_norm_reaches_no_lapack(batch, monkeypatch):
    # the Hermitian parts are normed in one batched SVD when they are rescaled; each generator keeps its norm
    shape, r = BlockShape([4, 2]), rng(21)
    g = flows(shape, np.array([draw_flow(r, shape) for _ in range(3)]), 1.5) if batch else random_flow(r, shape, 1.5)
    calls = []
    monkeypatch.setattr(np.linalg, "svd", counting_svd(calls))
    got = g.generator_norm()
    assert calls == []
    monkeypatch.undo()
    want = sum(np.max([np.linalg.svd(b, compute_uv=False)[..., 0] for b in h.value.blocks], axis=0)
               for h in (g.h_left, g.h_right))
    assert np.shape(got) == batch
    assert np.all(np.abs(got - want) <= 4 * max(shape) * EPS * want)
