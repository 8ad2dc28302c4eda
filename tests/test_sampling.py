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
    random_operator,
    random_state,
    random_unitary,
    random_vector,
    rng,
)

from conftest import automorphism_flow, blockwise_state, counting_eigvalsh, entrywise_operator, slotwise_vectors

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
    raws = [(draw_elements(r, shape, 3), draw_flow(r, shape), draw_commuting(r, shape)) for _ in range(4)]
    xs_raw, flow_raw, comm_raw = (np.array(column) for column in zip(*raws))
    xs, g = elements(shape, xs_raw, 1.0), flows(shape, flow_raw, 2.0)
    alpha, beta = commuting_flows(shape, comm_raw, 1.5)
    for i, (x_raw, f_raw, c_raw) in enumerate(raws):
        assert same(xs[i], elements(shape, x_raw, 1.0))
        for batch, member in ((g, flows(shape, f_raw, 2.0)), *zip((alpha, beta), commuting_flows(shape, c_raw, 1.5))):
            assert same(batch.h_left.value[i], member.h_left.value)
            assert same(batch.h_right.value[i], member.h_right.value)


# each module value drawn in one stream call, and its oracle from single draws (tests/conftest.py), as arrays
MODULE_DRAWS = {
    "operator": (lambda r, shape, k: random_operator(r, shape, k).flat.blocks,
                 lambda r, shape, k: entrywise_operator(r, shape, k).flat.blocks),
    "operator_rescaled": (lambda r, shape, k: random_operator(r, shape, k, 0.5).flat.blocks,
                          lambda r, shape, k: entrywise_operator(r, shape, k, 0.5).flat.blocks),
    "vector": (lambda r, shape, k: random_vector(r, shape, k).stacked,
               lambda r, shape, k: [b[0] for b in slotwise_vectors(r, shape, k, 1).stacked]),
    "vector_batch": (lambda r, shape, k: random_vector(r, shape, k, 20).stacked,
                     lambda r, shape, k: slotwise_vectors(r, shape, k, 20).stacked),
    "state": (lambda r, shape, k: random_state(r, shape).rho.blocks,
              lambda r, shape, k: blockwise_state(r, shape).rho.blocks),
    # an automorphism flow's generator is the left one of a two-sided flow's draw
    "automorphism": (lambda r, shape, k: random_flow(r, shape, 0.5).h_left.value.blocks,
                     lambda r, shape, k: automorphism_flow(r, shape, 0.5).h_right.value.blocks),
}


@pytest.mark.parametrize("kind", MODULE_DRAWS)
@pytest.mark.parametrize("shape, k", [(BlockShape([1]), 1), (BlockShape([3, 2]), 3), (BlockShape([4, 1, 2]), 4)],
                         ids=["1_k1", "32_k3", "412_k4"])
def test_module_values_take_the_stream_as_single_draws(kind, shape, k):
    one_call, single_draws = MODULE_DRAWS[kind]
    r, r_oracle = rng(6), rng(6)
    got, want = one_call(r, shape, k), single_draws(r_oracle, shape, k)
    assert len(got) == len(want) == shape.num_blocks
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    if kind != "automorphism":  # a two-sided flow draws a second element
        assert np.array_equal(r.standard_normal(8), r_oracle.standard_normal(8))


@pytest.mark.parametrize("batch", [(), (3,)], ids=["one", "batch"])
def test_generator_norm_reaches_no_lapack(batch, monkeypatch):
    # the Hermitian parts are normed in one batched norm call when they are rescaled; each generator keeps its norm
    shape, r = BlockShape([4, 2]), rng(21)
    g = flows(shape, np.array([draw_flow(r, shape) for _ in range(3)]), 1.5) if batch else random_flow(r, shape, 1.5)
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh(calls))
    got = g.generator_norm()
    assert calls == []
    monkeypatch.undo()
    want = sum(np.max([np.linalg.svd(b, compute_uv=False)[..., 0] for b in h.value.blocks], axis=0)
               for h in (g.h_left, g.h_right))
    assert np.shape(got) == batch
    assert np.all(np.abs(got - want) <= 4 * max(shape) * EPS * want)
