"""Commuting pairs, product flows, double smears, tensor products."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstarflow import (
    AlgebraElement,
    BlockShape,
    CommutingPair,
    EigFailureError,
    FlowGenerator,
    HermitianElement,
    NodesTooFewError,
    NotCommutingError,
    SmearingPlan,
    continue_exact,
    double_smear,
    evaluate,
    gamma_continuation_check,
    identity,
    left_companion,
    min_nodes,
    smear_oracle,
    smear_quadrature,
    tensor_continuation_check,
    tensor_element,
    tensor_flow,
)
from cstarflow.algebra import stack
from cstarflow.composition import _kron
from cstarflow.continuation import _trapezoid
from cstarflow.sampling import (
    random_commuting_flows,
    random_element,
    random_elements,
    random_flow,
    rng,
)

from conftest import Z_GRIDS, diag_flow, failing_eigvalsh, still_flow

EPS = np.finfo(float).eps


def diagonal_pair(*pairs):
    """Commuting automorphism pair from two diagonal generators."""
    alpha = diag_flow(*pairs[0])
    beta = diag_flow(*pairs[1])
    return CommutingPair(alpha, beta)


def pointwise_gamma(p, z, x):
    """The per-z residual of the product-flow factorization, and its scale."""
    gz = continue_exact(p.product, z, x)
    ab = continue_exact(p.alpha, z, continue_exact(p.beta, z, x))
    ba = continue_exact(p.beta, z, continue_exact(p.alpha, z, x))
    return max((gz - ab).norm(), (gz - ba).norm()), max(x.norm(), gz.norm(), ab.norm(), ba.norm())


def pointwise_tensor(tf, z, x, y):
    """The per-z residual of the tensor flow on ``x (x) y``, and its scale."""
    lhs = continue_exact(tf.product, z, tensor_element(x, y))
    rhs = tensor_element(continue_exact(tf.alpha, z, x), continue_exact(tf.beta, z, y))
    return (lhs - rhs).norm(), max(lhs.norm(), rhs.norm())


class TestProductFlow:
    def test_trivial_partner_is_identity_on_flows(self):
        shape = BlockShape([2, 2])
        alpha = random_flow(rng(0), shape, 1.0)
        pair = CommutingPair(alpha, still_flow(shape))
        gamma = pair.product
        assert (gamma.h_left.value - alpha.h_left.value).norm() == 0.0
        assert (gamma.h_right.value - alpha.h_right.value).norm() == 0.0

    def test_doubling(self):
        h = HermitianElement(AlgebraElement.from_blocks([np.diag([1.0, -0.5])]))
        g = FlowGenerator(h, h)
        gamma = CommutingPair(g, g).product
        assert (gamma.h_left.value - 2.0 * h.value).norm() == 0.0

    def test_matches_composition_additive_phases(self):
        pair = diagonal_pair((1.0, 0.0), (0.5, -0.5))
        x = random_element(rng(1), BlockShape([2]))
        gamma = pair.product
        for t in (0.7, -1.9):
            composed = evaluate(pair.alpha, t, evaluate(pair.beta, t, x))
            assert (evaluate(gamma, t, x) - composed).norm() <= 1e-12

    def test_built_once_per_pair(self):
        pair = CommutingPair(*random_commuting_flows(rng(2), BlockShape([2, 3]), 1.0))
        assert pair.product is pair.product

    def test_non_commuting_rejected(self):
        h1 = HermitianElement(AlgebraElement.from_blocks([np.array([[0.0, 1.0], [1.0, 0.0]])]))
        h2 = HermitianElement(AlgebraElement.from_blocks([np.diag([1.0, -1.0])]))
        with pytest.raises(NotCommutingError):
            CommutingPair(FlowGenerator(h1, h1), FlowGenerator(h2, h2))


class TestGammaContinuation:
    def test_real_parameter(self):
        r = rng(2)
        alpha, beta = random_commuting_flows(r, BlockShape([2, 3]), 2.0)
        pair = CommutingPair(alpha, beta)
        x = random_element(r, BlockShape([2, 3]))
        assert gamma_continuation_check(pair, [1.3 + 0.0j], x)[0] <= 1e-11 * x.norm()

    def test_diagonal_pair_at_i(self):
        pair = diagonal_pair((1.0, 0.0), (0.5, -0.5))
        x = random_element(rng(3), BlockShape([2]))
        scale = max(1.0, continue_exact(pair.product, 1j, x).norm())
        assert gamma_continuation_check(pair, [1j], x)[0] <= 1e-10 * scale

    def test_trivial_partner(self):
        shape = BlockShape([2])
        alpha = random_flow(rng(4), shape, 1.0)
        pair = CommutingPair(alpha, still_flow(shape))
        x = random_element(rng(5), shape)
        z = 0.4 - 0.6j
        gamma_z = continue_exact(pair.product, z, x)
        assert (gamma_z - continue_exact(alpha, z, x)).norm() <= 1e-13 * max(1.0, gamma_z.norm())


class TestGammaGrid:
    @settings(max_examples=25, deadline=None)
    @given(grid=Z_GRIDS, seed=st.integers(0, 2**16),
           dims=st.sampled_from([[2], [3, 2], [1, 2, 2]]))
    def test_grid_matches_pointwise_oracle(self, grid, seed, dims):
        r = rng(seed)
        shape = BlockShape(dims)
        pair = CommutingPair(*random_commuting_flows(r, shape, 2.0))
        x = random_element(r, shape)
        got = gamma_continuation_check(pair, grid, x)
        assert got.shape == (len(grid),)
        for z, resid in zip(grid, got):
            want, scale = pointwise_gamma(pair, z, x)
            assert abs(resid - want) <= 64 * max(dims) * EPS * scale

    def test_failed_batched_svd_is_a_numerical_breakdown(self, monkeypatch):
        r = rng(20)
        pair = CommutingPair(*random_commuting_flows(r, BlockShape([2]), 1.0))
        x = random_element(r, BlockShape([2]))
        monkeypatch.setattr(np.linalg, "eigvalsh", failing_eigvalsh)
        # two residuals per grid point
        with pytest.raises(EigFailureError, match="6 stacked 2x2 blocks"):
            gamma_continuation_check(pair, [0.5j, 1.0, -1.0 + 0.5j], x)


class TestDoubleSmear:
    def test_trivial_flows_reproduce_element(self):
        shape = BlockShape([2])
        still = still_flow(shape)
        pair = CommutingPair(still, still)
        x = random_element(rng(6), shape)
        for n in (1.0, 3.0):
            assert (double_smear(pair, x, n) - x).norm() <= 1e-13 * x.norm()

    def test_quadratic_rate(self):
        r = rng(7)
        alpha, beta = random_commuting_flows(r, BlockShape([2]), 1.0)
        pair = CommutingPair(alpha, beta)
        x = random_element(r, BlockShape([2]))
        errs = {}
        for n in (8.0, 16.0, 32.0):
            errs[n] = (double_smear(pair, x, n) - x).norm()
        assert 0.2 <= errs[16.0] / errs[8.0] <= 0.3
        assert 0.2 <= errs[32.0] / errs[16.0] <= 0.3

    def test_fubini_matches_iterated_oracle(self):
        r = rng(8)
        alpha, beta = random_commuting_flows(r, BlockShape([2, 2]), 1.5)
        pair = CommutingPair(alpha, beta)
        x = random_element(r, BlockShape([2, 2]))
        for n, z in ((1.0, 0.0j), (2.0, 0.1 + 0.3j)):
            two_var = double_smear(pair, x, n, z)
            iterated = smear_oracle(alpha, smear_oracle(beta, x, n, z), n, z)
            assert (two_var - iterated).norm() <= 1e-9 * max(1.0, iterated.norm())

    def test_matches_product_flow_smear_of_double(self):
        # gamma_z applied to the centered double smear equals the shifted one
        r = rng(9)
        alpha, beta = random_commuting_flows(r, BlockShape([2]), 1.0)
        pair = CommutingPair(alpha, beta)
        x = random_element(r, BlockShape([2]))
        n, z = 2.0, 0.2 + 0.25j
        gamma = pair.product
        lhs = continue_exact(gamma, z, double_smear(pair, x, n, 0.0))
        rhs = double_smear(pair, x, n, z)
        assert (lhs - rhs).norm() <= 1e-8 * max(1.0, rhs.norm())

    def test_node_counts_below_either_axis_rule_rejected(self):
        r = rng(10)
        alpha, beta = random_commuting_flows(r, BlockShape([2]), 1.0)
        pair = CommutingPair(alpha, beta)
        x = random_element(r, BlockShape([2]))
        n, z = 0.5, 0.25j
        need = (min_nodes(alpha, n, z), min_nodes(beta, n, z))
        for nodes in ((need[0] - 1, need[1]), (need[0], need[1] - 1)):
            with pytest.raises(NodesTooFewError):
                double_smear(pair, x, n, z, nodes)
        assert (double_smear(pair, x, n, z, need) - double_smear(pair, x, n, z)).norm() == 0.0


def _propagators(g, points):
    """Left and right conjugation factors of ``g`` at an array of times."""
    left, right = [], []
    for lam, ul, mu, ur in zip(
        g.spectral_left.eigenvalues,
        g.spectral_left.eigenvectors,
        g.spectral_right.eigenvalues,
        g.spectral_right.eigenvectors,
    ):
        phases_l = np.exp(1j * np.outer(points, lam))
        phases_r = np.exp(-1j * np.outer(points, mu))
        left.append(np.einsum("jk,ik,lk->ijl", ul, phases_l, ul.conj()))
        right.append(np.einsum("jk,ik,lk->ijl", ur, phases_r, ur.conj()))
    return left, right


def node_pair_double_smear(p, x, n, z, nodes):
    """The tensor rule: one term per (s, t) node pair."""
    s_pts, s_w = _trapezoid(nodes[0])
    t_pts, t_w = _trapezoid(nodes[1])
    growth = math.exp(2.0 * n * n * z.imag * z.imag) / math.pi
    cs = s_w * np.exp(2j * n * z.imag * s_pts)
    ct = t_w * np.exp(2j * n * z.imag * t_pts)
    la, ra = _propagators(p.alpha, z.real + s_pts / n)
    lb, rb = _propagators(p.beta, z.real + t_pts / n)
    out = []
    for b, xb in enumerate(x.blocks):
        inner = np.einsum("jab,bc,jcd->jad", lb[b], xb, rb[b])
        acc = np.zeros_like(xb)
        for i in range(nodes[0]):
            for j in range(nodes[1]):
                acc += (cs[i] * ct[j]) * (la[b][i] @ inner[j] @ ra[b][i])
        out.append(growth * acc)
    return AlgebraElement(x.shape, out)


class TestDoubleSmearAgainstNodePairs:
    SHAPE = BlockShape([3, 2])

    @pytest.mark.parametrize("n, z", [(1.0, 0.0j), (2.0, 0.1 + 0.3j), (0.5, -0.2 - 0.4j)])
    def test_iterated_rules_match_node_pairs(self, n, z):
        r = rng(40)
        alpha, beta = random_commuting_flows(r, self.SHAPE, 1.0)
        pair = CommutingPair(alpha, beta)
        x = random_element(r, self.SHAPE)
        nodes = (min_nodes(alpha, n, z), min_nodes(beta, n, z) + 3)
        diff = (double_smear(pair, x, n, z, nodes) - node_pair_double_smear(pair, x, n, z, nodes)).norm()
        # same bound as the one-axis reference, on the two-variable envelope
        envelope = x.norm() * math.exp(2.0 * n * n * z.imag * z.imag)
        assert diff <= 64 * max(self.SHAPE) * EPS * envelope


class TestTensor:
    def test_zero_exponent(self):
        r = rng(10)
        shape = BlockShape([2])
        tf = tensor_flow(random_flow(r, shape, 1.0), random_flow(r, shape, 1.0))
        x, y = random_element(r, shape), random_element(r, shape)
        assert tensor_continuation_check(tf, [0.0], x, y)[0] <= 1e-13

    def test_diagonal_flows_at_i_kron_phase_oracle(self):
        alpha = diag_flow(1.0, 0.0)
        beta = diag_flow(0.5, -0.5)
        tf = tensor_flow(alpha, beta)
        r = rng(11)
        x, y = random_element(r, BlockShape([2])), random_element(r, BlockShape([2]))
        assert tensor_continuation_check(tf, [1j], x, y)[0] <= 1e-10

    def test_unit_first_factor_reduces(self):
        r = rng(12)
        shape = BlockShape([2])
        alpha, beta = random_flow(r, shape, 1.0), random_flow(r, shape, 1.0)
        tf = tensor_flow(alpha, beta)
        one = identity(shape)
        y = random_element(r, shape)
        z = 0.3 - 0.2j
        lhs = continue_exact(tf.product, z, tensor_element(one, y))
        rhs = tensor_element(continue_exact(alpha, z, one), continue_exact(beta, z, y))
        assert (lhs - rhs).norm() <= 1e-10 * max(1.0, rhs.norm())

    def test_isometry_of_product_flow(self):
        r = rng(13)
        shape = BlockShape([2])
        tf = tensor_flow(random_flow(r, shape, 1.5), random_flow(r, shape, 1.5))
        w = random_element(r, tf.product.shape)
        for t in (0.4, -2.2):
            assert abs(evaluate(tf.product, t, w).norm() - w.norm()) <= 1e-10 * w.norm()


class TestTensorGrid:
    @settings(max_examples=25, deadline=None)
    @given(grid=Z_GRIDS, seed=st.integers(0, 2**16), dims=st.sampled_from([[2], [2, 1], [3]]))
    def test_grid_matches_pointwise_oracle(self, grid, seed, dims):
        r = rng(seed)
        shape = BlockShape(dims)
        tf = tensor_flow(random_flow(r, shape, 1.5), random_flow(r, shape, 1.5))
        x, y = random_element(r, shape), random_element(r, shape)
        got = tensor_continuation_check(tf, grid, x, y)
        assert got.shape == (len(grid),)
        for z, resid in zip(grid, got):
            want, scale = pointwise_tensor(tf, z, x, y)
            assert abs(resid - want) <= 64 * max(dims) ** 2 * EPS * scale

    def test_failed_batched_svd_is_a_numerical_breakdown(self, monkeypatch):
        r = rng(22)
        shape = BlockShape([2])
        tf = tensor_flow(random_flow(r, shape, 1.0), random_flow(r, shape, 1.0))
        x, y = random_element(r, shape), random_element(r, shape)
        monkeypatch.setattr(np.linalg, "eigvalsh", failing_eigvalsh)
        with pytest.raises(EigFailureError, match="2 stacked 4x4 blocks"):
            tensor_continuation_check(tf, [0.5j, 1.0], x, y)

    def test_kronecker_products_match_numpy_bit_for_bit(self):
        r = rng(23)
        x, y = random_element(r, BlockShape([2, 3])), random_element(r, BlockShape([1, 2]))
        want = [np.kron(a, b) for a in x.blocks for b in y.blocks]
        assert all(np.array_equal(got, w) for got, w in zip(tensor_element(x, y).blocks, want))
        a = np.stack([random_element(r, BlockShape([2])).blocks[0] for _ in range(3)])
        b = np.stack([random_element(r, BlockShape([3])).blocks[0] for _ in range(3)])
        assert np.array_equal(_kron(a, b), np.stack([np.kron(p, q) for p, q in zip(a, b)]))
        assert np.array_equal(_kron(np.eye(2), y.blocks[1]), np.kron(np.eye(2), y.blocks[1]))


def batched_flow(flows):
    """The batch of flows whose members are ``flows``."""
    return FlowGenerator(
        HermitianElement(stack([f.h_left.value for f in flows])),
        HermitianElement(stack([f.h_right.value for f in flows])),
    )


class TestBatchedFlows:
    def test_pair_and_tensor_checks_act_per_member(self):
        r = rng(24)
        shape = BlockShape([2, 3])
        pairs = [random_commuting_flows(r, shape) for _ in range(2)]
        alpha, beta = batched_flow([a for a, _ in pairs]), batched_flow([b for _, b in pairs])
        x, y = random_elements(r, shape, 2), random_elements(r, shape, 2)
        zs = np.array([0.4 + 0.3j, -0.7 + 0.2j])  # one z per member
        gamma = gamma_continuation_check(CommutingPair(alpha, beta), zs, x)
        tensor = tensor_continuation_check(tensor_flow(alpha, beta), zs, x, y)
        assert gamma.shape == tensor.shape == (2,)
        for i, (a, b) in enumerate(pairs):
            assert gamma[i] == gamma_continuation_check(CommutingPair(a, b), zs[i], x[i])
            assert tensor[i] == tensor_continuation_check(tensor_flow(a, b), zs[i], x[i], y[i])

    def test_smears_of_a_batch_give_each_member_its_own(self):
        # the nodes are planned at the largest member's norm, and every member is smeared on them
        r = rng(26)
        shape = BlockShape([2, 3])
        pairs = [random_commuting_flows(r, shape, norm) for norm in (1.0, 3.0)]
        alpha, beta = batched_flow([a for a, _ in pairs]), batched_flow([b for _, b in pairs])
        x = random_element(r, shape, 1.0)
        n, z = 1.5, 0.2 + 0.3j
        plan = SmearingPlan.for_flow(alpha, n, z)
        assert plan.nodes == max(SmearingPlan.for_flow(a, n, z).nodes for a, _ in pairs)
        nodes = (plan.nodes, min_nodes(beta, n, z))
        smears, doubles = smear_quadrature(alpha, x, plan), double_smear(CommutingPair(alpha, beta), x, n, z)
        for i, (a, b) in enumerate(pairs):
            for batch, member in ((smears, smear_quadrature(a, x, plan)),
                                  (doubles, double_smear(CommutingPair(a, b), x, n, z, nodes))):
                assert all(np.array_equal(p, q) for p, q in zip(batch[i].blocks, member.blocks))

    def test_smears_of_a_batch_keep_the_batch_at_a_very_wide_width(self):
        # at r = 1e7 and norm 1e-9 the Gaussian is nearly a delta, and the smear still takes
        # the one trapezoidal path, for the batch as for each member
        r = rng(28)
        shape = BlockShape([2])
        flows = [random_flow(r, shape, 1e-9) for _ in range(2)]
        x = random_element(r, shape)
        plan = SmearingPlan.for_flow(batched_flow(flows), 1e7)
        smears = smear_quadrature(batched_flow(flows), x, plan)
        assert smears.blocks[0].shape == (2, 2, 2)
        for i, f in enumerate(flows):
            assert all(np.array_equal(p, q) for p, q in zip(smears[i].blocks, smear_quadrature(f, x, plan).blocks))

    def test_one_non_commuting_member_is_refused(self):
        r = rng(25)
        shape = BlockShape([2, 3])
        a0, b0 = random_commuting_flows(r, shape)
        a1, b1 = random_flow(r, shape), random_flow(r, shape)
        with pytest.raises(NotCommutingError):
            CommutingPair(batched_flow([a0, a1]), batched_flow([b0, b1]))


class TestCompositionInvariants:
    def test_real_flow_commutes_with_continuation(self):
        r = rng(14)
        alpha, beta = random_commuting_flows(r, BlockShape([3]), 2.0)
        x = random_element(r, BlockShape([3]))
        t, z = 0.8, 0.3 + 0.4j
        lhs = evaluate(alpha, t, continue_exact(beta, z, x))
        rhs = continue_exact(beta, z, evaluate(alpha, t, x))
        assert (lhs - rhs).norm() <= 1e-10 * max(1.0, rhs.norm())

    def test_product_companions_factor(self):
        r = rng(15)
        alpha, beta = random_commuting_flows(r, BlockShape([2, 2]), 1.5)
        pair = CommutingPair(alpha, beta)
        gamma = pair.product
        x = random_element(r, BlockShape([2, 2]))
        for t in (0.5, -1.1):
            lhs = evaluate(left_companion(gamma), t, x)
            rhs = evaluate(left_companion(alpha), t, evaluate(left_companion(beta), t, x))
            assert (lhs - rhs).norm() <= 1e-10 * x.norm()

    def test_tensor_left_companion_factors(self):
        r = rng(16)
        shape = BlockShape([2])
        alpha, beta = random_flow(r, shape, 1.0), random_flow(r, shape, 1.0)
        tf = tensor_flow(alpha, beta)
        tf_left = tensor_flow(left_companion(alpha), left_companion(beta))
        x, y = random_element(r, shape), random_element(r, shape)
        w = tensor_element(x, y)
        for t in (0.7, -0.9):
            lhs = evaluate(left_companion(tf.product), t, w)
            rhs = evaluate(tf_left.product, t, w)
            assert (lhs - rhs).norm() <= 1e-10 * w.norm()

    def test_kron_norm_multiplicative(self):
        r = rng(17)
        for _ in range(10):
            x = random_element(r, BlockShape([2, 3]))
            y = random_element(r, BlockShape([2]))
            got = tensor_element(x, y).norm()
            assert abs(got - x.norm() * y.norm()) <= 1e-12 * max(1.0, got)

    def test_tensor_factor_isometries(self):
        # the product flow conjugates x (x) y exactly like the factors
        r = rng(18)
        shape = BlockShape([2])
        alpha, beta = random_flow(r, shape, 1.0), random_flow(r, shape, 1.0)
        tf = tensor_flow(alpha, beta)
        x, y = random_element(r, shape), random_element(r, shape)
        for t in (0.6, -1.4):
            lhs = evaluate(tf.product, t, tensor_element(x, y))
            rhs = tensor_element(evaluate(alpha, t, x), evaluate(beta, t, y))
            assert (lhs - rhs).norm() <= 1e-10 * max(1.0, rhs.norm())
