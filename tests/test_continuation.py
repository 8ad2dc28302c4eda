"""Analytic continuation, Gaussian smearing, strip bound, core rescaling."""

import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cstarflow import (
    AlgebraElement,
    BlockShape,
    CommutingPair,
    EigFailureError,
    FlowGenerator,
    HermitianElement,
    NodesTooFewError,
    NotSeparatingError,
    SmearingPlan,
    conjugate,
    conjugate_norm,
    continue_exact,
    core_rescale,
    double_smear,
    evaluate,
    identity,
    identity_operator,
    in_eigenbasis,
    min_nodes,
    smear_oracle,
    recover,
    smear_quadrature,
    three_lines_check,
    vector_smear,
    weak_continuation_check,
)
from cstarflow.continuation import (
    MAX_NODES,
    STRIP_GRID,
    A,
    L,
    _require_finite,
    _require_positive,
    _smear_quadratures,
    _trapezoid,
    admissible_nodes,
)
from cstarflow.algebra import stack
from cstarflow.sampling import random_element, random_flow, random_vector, rng
from cstarflow.stone import SampledUnitaryGroup

from conftest import automorphism_flow, diag_flow, e12, failing_eigvalsh, still_flow, zeros

EPS = np.finfo(float).eps


class TestContinueExact:
    def test_zero_is_identity(self):
        r = rng(0)
        g = random_flow(r, BlockShape([2, 3]), 2.0)
        x = random_element(r, BlockShape([2, 3]))
        assert (continue_exact(g, 0.0, x) - x).norm() <= 1e-14

    def test_matrix_unit_decay_oracle(self):
        g = diag_flow(1.0, 0.0)
        out = continue_exact(g, 1j, e12())
        # oracle: entrywise exp(i z (lam_j - mu_k)) = exp(-1) on the moved entry
        np.testing.assert_allclose(
            out.blocks[0], np.array([[0.0, np.exp(-1.0)], [0.0, 0.0]]), atol=1e-14
        )

    def test_real_z_equals_evaluate_exactly(self):
        r = rng(1)
        g = random_flow(r, BlockShape([3]), 2.0)
        x = random_element(r, BlockShape([3]))
        for t in (-1.73, 0.4, 2.0):
            a = continue_exact(g, complex(t, 0.0), x)
            b = evaluate(g, t, x)
            for ba, bb in zip(a.blocks, b.blocks):
                np.testing.assert_array_equal(ba, bb)

    def test_sequential_limit_consistency(self):
        # closedness has no finite-dimensional content beyond this
        r = rng(2)
        g = random_flow(r, BlockShape([2, 2]), 2.0)
        x = random_element(r, BlockShape([2, 2]))
        z = 0.4 + 0.6j
        target = continue_exact(g, z, x)
        for j in (1, 4, 16, 64):
            xj = x + (1.0 / j) * random_element(r, BlockShape([2, 2]))
            drift = (continue_exact(g, z, xj) - target).norm()
            assert drift <= (1.0 / j) * math.exp(abs(z.imag) * g.generator_norm()) * 2.0


class TestSmearQuadrature:
    def test_trivial_flow_reproduces_element(self):
        shape = BlockShape([2])
        g = still_flow(shape)
        x = random_element(rng(3), shape)
        for r in (0.5, 1.0, 7.0):
            q = smear_quadrature(g, x, SmearingPlan.for_flow(g, r, 0.0))
            assert (q - x).norm() <= 1e-13 * x.norm()

    def test_worked_gaussian_fourier_value(self):
        # oracle: (r/sqrt(pi)) integral exp(-r^2 t^2) exp(i nu t) dt = exp(-nu^2/(4r^2))
        g = diag_flow(1.0, 0.0)
        x = e12()
        plan = SmearingPlan.for_flow(g, 1.0, 0.0)
        q = smear_quadrature(g, x, plan)
        expected = math.exp(-0.25)
        assert abs(q.blocks[0][0, 1] - expected) <= 1e-10
        assert (q - expected * x).norm() <= 1e-10

    def test_norm_bound(self):
        r = rng(4)
        shape = BlockShape([3, 2])
        for _ in range(5):
            g = random_flow(r, shape, 3.0)
            x = random_element(r, shape)
            for rr, im in ((0.5, 1.0), (1.0, -0.5), (2.0, 0.8)):
                z = complex(float(r.uniform(-1, 1)), im)
                q = smear_quadrature(g, x, SmearingPlan.for_flow(g, rr, z))
                assert q.norm() <= x.norm() * math.exp(rr * rr * im * im) * (1 + 1e-8)

    def test_rejects_inadmissible_plans(self):
        g = diag_flow(2.0, -2.0)
        x = e12()
        needed = min_nodes(g, 0.5, 1j)
        with pytest.raises(NodesTooFewError):
            smear_quadrature(g, x, SmearingPlan(0.5, 1j, needed - 1))

    def test_very_wide_smears_stay_on_the_oracle(self):
        # the Gaussian is nearly a delta at these widths, and the one trapezoidal path still
        # reproduces the closed form to rounding
        r = rng(27)
        shape = BlockShape([2, 3])
        for norm in (1e-9, 1e-3, 2.0):
            g = random_flow(r, shape, norm)
            x = random_element(r, shape)
            for rr in (1e6 + 1, 1e7, 1e13):
                got = smear_quadrature(g, x, SmearingPlan.for_flow(g, rr, 0.0))
                assert (got - smear_oracle(g, x, rr, 0.0)).norm() <= 1e-15 * x.norm()

    def test_node_cap(self):
        assert SmearingPlan(1.0, 0.5j, MAX_NODES).nodes == MAX_NODES
        with pytest.raises(ValueError, match="cap"):
            SmearingPlan(1.0, 0.5j, MAX_NODES + 1)

    def test_large_node_counts_stay_accurate(self):
        # a tiny r pushes the admissible rule past 10000 nodes, where the
        # node tables must stay finite and the relative error small; an
        # automorphism flow keeps the zero frequencies, so the smear is not 0
        r = rng(20)
        g = automorphism_flow(r, BlockShape([2]), 2.0)
        x = random_element(r, BlockShape([2]))
        z = 0.1 + 0.6j
        plan = SmearingPlan.for_flow(g, 6e-4, z)
        assert plan.nodes > 10000
        q = smear_quadrature(g, x, plan)
        envelope = x.norm() * math.exp((6e-4 * z.imag) ** 2)
        assert np.all([np.all(np.isfinite(b)) for b in q.blocks])
        assert q.norm() >= 0.1 * x.norm()
        assert (q - smear_oracle(g, x, 6e-4, z)).norm() <= 1e-8 * envelope


class TestSmearOracle:
    def test_second_moment_decay(self):
        r = rng(5)
        shape = BlockShape([2, 3])
        g = random_flow(r, shape, 2.0)
        x = random_element(r, shape)
        # oracle: err(r) ~ norm(f''(0)) / (4 r^2) with f'' = -(Hl^2 x - 2 Hl x Hr + x Hr^2)
        hl, hr = g.h_left.value, g.h_right.value
        second = (hl @ hl @ x) - 2.0 * (hl @ (x @ hr)) + (x @ hr @ hr)
        for rr in (20.0, 40.0, 80.0):
            err = (smear_oracle(g, x, rr, 0.0) - x).norm()
            assert err <= second.norm() / (4 * rr * rr) * 1.05

    def test_matches_quadrature_worked_value(self):
        g = diag_flow(1.0, 0.0)
        out = smear_oracle(g, e12(), 1.0, 0.0)
        assert abs(out.blocks[0][0, 1] - math.exp(-0.25)) <= 1e-14

    def test_continuation_shifts_the_center(self):
        r = rng(6)
        shape = BlockShape([2, 2])
        g = random_flow(r, shape, 2.0)
        x = random_element(r, shape)
        for y, z in ((0.5j, 0.2), (0.3 - 0.4j, 0.1 + 0.2j)):
            lhs = continue_exact(g, y, smear_oracle(g, x, 1.5, z))
            rhs = smear_oracle(g, x, 1.5, z + y)
            assert (lhs - rhs).norm() <= 1e-10 * max(1.0, rhs.norm())


def pointwise_three_lines(g: FlowGenerator, x: AlgebraElement, z: complex) -> float:
    """Reference: continue x to each strip point, rotate back, take the norm."""
    z = complex(z)
    bound = max(x.norm(), continue_exact(g, z, x).norm())
    worst = -math.inf
    for u in np.linspace(0.0, 1.0, STRIP_GRID):
        for v in np.linspace(0.0, 1.0, STRIP_GRID):
            y = complex(-2.0 + 4.0 * u, v * z.imag)
            worst = max(worst, continue_exact(g, y, x).norm() - bound)
    return worst


class TestThreeLines:
    @pytest.mark.parametrize("dims", [[3, 2], [4]])
    @pytest.mark.parametrize("z", [1.3, 0.4 + 0.8j, -0.7 - 1.1j])
    def test_batched_norms_match_pointwise_reference(self, dims, z):
        r = rng(12)
        shape = BlockShape(dims)
        for _ in range(5):
            g = random_flow(r, shape, 2.0)
            x = random_element(r, shape)
            scale = max(x.norm(), continue_exact(g, z, x).norm())
            batched = three_lines_check(g, x, z)
            assert abs(batched - pointwise_three_lines(g, x, z)) <= 64 * max(dims) * EPS * scale

    def test_failed_batched_svd_is_a_numerical_breakdown(self, monkeypatch):
        g = random_flow(rng(13), BlockShape([2]), 1.0)
        x = random_element(rng(14), BlockShape([2]))
        monkeypatch.setattr(np.linalg, "eigvalsh", failing_eigvalsh)
        with pytest.raises(EigFailureError, match="26 stacked 2x2 blocks"):
            three_lines_check(g, x, 0.5j)

    def test_real_z_degenerates_to_isometry(self):
        r = rng(7)
        g = random_flow(r, BlockShape([2, 2]), 2.0)
        x = random_element(r, BlockShape([2, 2]))
        assert three_lines_check(g, x, 1.3 + 0.0j) <= 1e-12

    def test_random_instances(self):
        r = rng(8)
        shape = BlockShape([3, 2])
        for _ in range(10):
            g = random_flow(r, shape, 2.0)
            x = random_element(r, shape)
            z = complex(float(r.uniform(-1, 1)), float(r.uniform(-1, 1)))
            scale = max(x.norm(), continue_exact(g, z, x).norm())
            assert three_lines_check(g, x, z) <= 1e-9 * scale

    def test_worked_diagonal_instance(self):
        g = diag_flow(1.0, 0.0)
        x = e12()
        half = continue_exact(g, 0.5j, x)
        assert abs(half.norm() - math.exp(-0.5)) <= 1e-12
        assert max(x.norm(), continue_exact(g, 1j, x).norm()) == pytest.approx(1.0)
        assert three_lines_check(g, x, 1j) <= 1e-12


class TestCoreRescale:
    def test_exact_approximants_untouched(self):
        r = rng(9)
        g = random_flow(r, BlockShape([2]), 1.0)
        x = random_element(r, BlockShape([2]))
        out, nax = core_rescale(g, 0.5j, x, stack([x] * 3))
        assert np.all((out - x).norm() <= 1e-14)
        assert nax == conjugate_norm(g, 0.5j, x)

    def test_zero_element_passthrough(self):
        # alpha_z is injective, so x = 0 is the one case in which alpha_z(x) = 0 too
        r = rng(10)
        shape = BlockShape([2])
        g = random_flow(r, shape, 1.0)
        ys = stack([random_element(r, shape) for _ in range(3)])
        out, nax = core_rescale(g, 0.5j, zeros(shape), ys)
        assert out is ys and nax == 0.0

    def test_double_scaling_restores(self):
        r = rng(11)
        g = random_flow(r, BlockShape([2]), 1.0)
        x = random_element(r, BlockShape([2]))
        out, _ = core_rescale(g, 0.4j, x, stack([2.0 * x]))
        assert (out[0] - x).norm() <= 1e-13

    def test_caps_hold_on_smeared_approximants(self):
        r = rng(12)
        shape = BlockShape([2, 2])
        g = random_flow(r, shape, 2.0)
        x = random_element(r, shape)
        z = 0.3 + 0.5j
        ax = continue_exact(g, z, x)
        ys = smear_oracle(g, x, 2.0 ** np.arange(14), 0.0)
        out, nax = core_rescale(g, z, x, ys)
        assert nax == pytest.approx(ax.norm(), rel=1e-12)
        # out carries |lam_n| norm(y_n); a fresh copy takes the norm of each x_n afresh
        assert np.all(AlgebraElement(shape, out.blocks).norm() <= x.norm() * (1 + 1e-12))
        assert np.all(continue_exact(g, z, out).norm() <= ax.norm() * (1 + 1e-12))
        assert (out[-1] - x).norm() <= 1e-6


class TestWeakContinuation:
    @staticmethod
    def full_entry_duals(shape: BlockShape):
        duals = []
        for b, n in enumerate(shape.block_dims):
            for p in range(n):
                for q in range(n):
                    blocks = [np.zeros((m, m), dtype=complex) for m in shape.block_dims]
                    blocks[b][p, q] = 1.0
                    duals.append(AlgebraElement(shape, blocks))
        return duals

    def test_consistent_pair_passes(self):
        r = rng(13)
        shape = BlockShape([2])
        g = random_flow(r, shape, 1.5)
        v = random_element(r, shape)
        z = 0.2 + 0.7j
        w = continue_exact(g, z, v)
        assert weak_continuation_check(g, v, w, z, self.full_entry_duals(shape))

    def test_perturbation_detected(self):
        r = rng(14)
        shape = BlockShape([2])
        g = random_flow(r, shape, 1.5)
        v = random_element(r, shape)
        z = 0.2 + 0.7j
        w = continue_exact(g, z, v) + identity(shape)
        assert not weak_continuation_check(g, v, w, z, self.full_entry_duals(shape))

    def test_single_entry_dual_detects_phase_scaling(self):
        # one-dimensional algebra: a single entry dual is separating
        shape = BlockShape([1])
        h = HermitianElement(AlgebraElement.from_blocks([np.array([[1.0]])]))
        g = FlowGenerator(h, HermitianElement(zeros(shape)))
        v = AlgebraElement.from_blocks([np.array([[1.0]])])
        dual = [AlgebraElement.from_blocks([np.array([[1.0]])])]
        z = 0.3 + 0.4j
        good = np.exp(1j * z) * v
        bad = np.exp(1j * (z + 0.1)) * v
        assert weak_continuation_check(g, v, good, z, dual)
        assert not weak_continuation_check(g, v, bad, z, dual)

    def test_non_separating_family_rejected(self):
        shape = BlockShape([2])
        g = diag_flow(1.0, 0.0)
        v = e12()
        with pytest.raises(NotSeparatingError):
            weak_continuation_check(g, v, v, 0.5j, self.full_entry_duals(shape)[:3])


class TestContinuationInvariants:
    def test_quadrature_vs_oracle_grid(self):
        r = rng(15)
        shape = BlockShape([3, 2])
        for seed_flow in range(3):
            g = random_flow(r, shape, 4.0)
            x = random_element(r, shape)
            for rr in (0.5, 1.0, 2.0, 4.0):
                z = complex(float(r.uniform(-1, 1)), float(r.uniform(-1, 1)))
                q = smear_quadrature(g, x, SmearingPlan.for_flow(g, rr, z))
                o = smear_oracle(g, x, rr, z)
                envelope = x.norm() * math.exp(rr * rr * z.imag * z.imag)
                assert (q - o).norm() <= 1e-8 * envelope

    def test_smearing_commutes_with_continuation(self):
        r = rng(16)
        shape = BlockShape([2, 2])
        g = random_flow(r, shape, 2.0)
        x = random_element(r, shape)
        y, rr, z = 0.4 - 0.3j, 1.5, 0.2 + 0.1j
        lhs = continue_exact(g, y, smear_oracle(g, x, rr, z))
        rhs = smear_oracle(g, continue_exact(g, y, x), rr, z)
        assert (lhs - rhs).norm() <= 1e-9 * max(1.0, rhs.norm())

    def test_same_side_composition(self):
        r = rng(17)
        shape = BlockShape([3])
        g = random_flow(r, shape, 2.0)
        x = random_element(r, shape)
        for y, z in ((0.2 + 0.3j, -0.5 + 0.1j), (-0.1 - 0.4j, 0.3 - 0.2j)):
            comp = continue_exact(g, y, continue_exact(g, z, x))
            direct = continue_exact(g, y + z, x)
            scale = max(direct.norm(), x.norm())
            assert (comp - direct).norm() <= 1e-9 * scale

    def test_inverse(self):
        r = rng(18)
        shape = BlockShape([2, 3])
        g = random_flow(r, shape, 2.0)
        x = random_element(r, shape)
        for z in (0.7j, 1.0 - 0.5j, -0.3 + 0.9j):
            back = continue_exact(g, -z, continue_exact(g, z, x))
            assert (back - x).norm() <= 1e-9 * x.norm()

    def test_continuations_are_semi_multiplicative(self):
        # the companion identity survives continuation to complex z
        r = rng(21)
        shape = BlockShape([2, 2])
        g = random_flow(r, shape, 2.0)
        a, b = random_element(r, shape), random_element(r, shape)
        from cstarflow import left_companion, right_companion

        for z in (0.4 + 0.3j, -0.2 - 0.6j):
            lhs = continue_exact(left_companion(g), z, b) @ continue_exact(g, z, a)
            rhs = continue_exact(g, z, b @ a)
            assert (lhs - rhs).norm() <= 1e-9 * max(1.0, rhs.norm())
            lhs = continue_exact(g, z, a) @ continue_exact(right_companion(g), z, b)
            rhs = continue_exact(g, z, a @ b)
            assert (lhs - rhs).norm() <= 1e-9 * max(1.0, rhs.norm())

    def test_bounded_analytic_units_for_automorphism_flows(self):
        # damped unit smears stay in the unit ball on both boundary
        # lines and converge to the unit as the damping relaxes
        r = rng(22)
        shape = BlockShape([2, 2])
        g = automorphism_flow(r, shape, 2.0)
        one = identity(shape)
        z = 0.4 + 0.8j
        prev_gap = math.inf
        for rr in (2.0, 1.0, 0.5, 0.25):
            u = math.exp(-rr * rr * z.imag * z.imag) * smear_oracle(g, one, rr, 0.0)
            assert u.norm() <= 1.0 + 1e-12
            assert continue_exact(g, z, u).norm() <= 1.0 + 1e-10
            gap = (u - one).norm()
            assert gap <= prev_gap + 1e-12
            prev_gap = gap
        assert prev_gap <= 0.05

    def test_convergence_ratio_window(self):
        r = rng(19)
        shape = BlockShape([2, 2])
        g = random_flow(r, shape, 2.0)
        x = random_element(r, shape)
        rr = 1.0
        while (smear_oracle(g, x, rr, 0.0) - x).norm() > 1e-2 * x.norm():
            rr *= 2.0
        for _ in range(3):
            e1 = (smear_oracle(g, x, rr, 0.0) - x).norm()
            e2 = (smear_oracle(g, x, 2 * rr, 0.0) - x).norm()
            assert 0.2 <= e2 / e1 <= 0.3
            rr *= 2.0


def per_node_quadrature(g, x, plan):
    """The node-by-node sum ``sum_j c_j conjugate(g, t_j, x)``."""
    r, z = plan.r, complex(plan.z)
    s, w = _trapezoid(plan.nodes)
    growth = math.exp(r * r * z.imag * z.imag)
    coeff = w * np.exp(2j * r * z.imag * s) * (growth / math.sqrt(math.pi))
    acc = [np.zeros((n, n), dtype=complex) for n in x.shape]
    for ci, si in zip(coeff, s):
        term = conjugate(g, z.real + si / r, x)
        for a, b in zip(acc, term.blocks):
            a += ci * b
    return AlgebraElement(x.shape, acc)


class TestNodeSumAgainstPerNode:
    SHAPE = BlockShape([3, 2])

    @pytest.mark.parametrize(
        "rr, z",
        [
            (0.25, 0.0),
            (0.25, 0.3 + 0.5j),
            (1.0, -0.5 + 1.0j),
            (4.0, 0.2 - 0.5j),
            (16.0, -0.7j),
        ],
    )
    def test_phase_table_sum_matches_per_node_sum(self, rr, z):
        r = rng(30)
        g = random_flow(r, self.SHAPE, 3.0)
        x = random_element(r, self.SHAPE)
        plan = SmearingPlan.for_flow(g, rr, z)
        assert plan.nodes <= 605
        diff = (smear_quadrature(g, x, plan) - per_node_quadrature(g, x, plan)).norm()
        # rounding of sums over max(n) entries, headroom 64, on the smear's envelope
        envelope = x.norm() * math.exp(rr * rr * complex(z).imag ** 2)
        assert diff <= 64 * max(self.SHAPE) * EPS * envelope


# The per-entry bound that admissible_nodes derives for the rule, before rounding: 4.8e-16.
ENTRY_BOUND = 2 * math.exp(-A * A / 4) * (1 + 2 * math.exp(-3 * A * A / 4)) + math.erfc(L)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.5, 128.0), st.floats(-1.0, 1.0), st.floats(math.log(0.01), math.log(64.0)),
       st.floats(-1.0, 1.0), st.floats(-2.0, 2.0))
def test_trapezoidal_entry_within_derived_bound_hypothesis(nu_max, frac, log_r, re, im):
    # one entry of the smear factor at nu = frac * nu_max, over the envelope exp(r^2 (Im z)^2)
    # so that it stays finite; the node count is not capped here
    nu, r, z = frac * nu_max, math.exp(log_r), complex(re, im)
    s, w = _trapezoid(admissible_nodes(nu_max, r, z))
    t = z.real + s / r
    node_sum = (w * np.exp(2j * r * z.imag * s)) @ np.exp(1j * nu * t) / math.sqrt(math.pi)
    closed = cmath.exp(1j * nu * z - nu * nu / (4 * r * r) - (r * z.imag) ** 2)
    # rounding of the phase arguments nu t_j and 2 r (Im z) s_j, and of the sum over the nodes
    rounding = 2 * EPS * (abs(nu) * (abs(z.real) + L / r) + 2 * r * abs(z.imag) * L + len(s))
    assert ENTRY_BOUND < 4.9e-16 and abs(node_sum - closed) <= ENTRY_BOUND + rounding


# Smear properties over random seeds, block shapes, widths and centers.
SMEARS = st.tuples(
    st.integers(0, 2**32 - 1),
    st.sampled_from([(1,), (2,), (3,), (2, 1), (1, 2)]),
    st.floats(0.25, 4.0),
    st.floats(-1.0, 1.0),
    st.floats(-1.0, 1.0),
)


@settings(max_examples=25, deadline=None)
@given(SMEARS, st.floats(-2.0, 2.0))
def test_smear_covariance_hypothesis(smear, y):
    seed, dims, rr, re, im = smear
    r = rng(seed)
    shape = BlockShape(dims)
    g = random_flow(r, shape, 2.0)
    x = random_element(r, shape)
    z = complex(re, im)
    # twice the quad_vs_oracle bound, one quadrature on each side
    tol = 2 * 1e-8 * x.norm() * math.exp(rr * rr * im * im)
    quad = smear_quadrature(g, x, SmearingPlan.for_flow(g, rr, z))
    shifted = smear_quadrature(g, x, SmearingPlan.for_flow(g, rr, z + y))
    assert (evaluate(g, y, quad) - shifted).norm() <= tol
    oracle = evaluate(g, y, smear_oracle(g, x, rr, z))
    assert (oracle - smear_oracle(g, x, rr, z + y)).norm() <= tol


@settings(max_examples=25, deadline=None)
@given(SMEARS)
def test_smear_norm_bound_hypothesis(smear):
    seed, dims, rr, re, im = smear
    r = rng(seed)
    shape = BlockShape(dims)
    g = random_flow(r, shape, 2.0)
    x = random_element(r, shape)
    z = complex(re, im)
    bound = x.norm() * math.exp(rr * rr * im * im) * (1 + 1e-8)
    assert smear_quadrature(g, x, SmearingPlan.for_flow(g, rr, z)).norm() <= bound
    assert smear_oracle(g, x, rr, z).norm() <= bound


# Flows of 1-2 blocks of n <= 12, their norm, a width r and a center z, for the eigenbasis route of converge.
EIGENBASIS_ROUTES = st.tuples(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(1, 12), min_size=1, max_size=2),
    st.floats(0.1, 5.0),
    st.floats(0.1, 10.0),
    st.floats(-2.0, 2.0),
    st.floats(-1.0, 1.0),
)
# The stages of each value that the two routes do not share, counted to first order, each worth at most
# n gamma_{n+2} of its operand's norm (see the property below):
# - ||x(r, 0) - x||: rotating the smear back (2), the rounding of U* x V against x (2 products, 2 for U and V
#   not quite unitary), U and V on the difference (2, of a difference up to 2 ||x||), two subtractions (2),
#   two norms (4, of values up to 2 ||x||);
# - ||quadrature - closed form||: rotating each back (4), U and V on the difference (4), two subtractions (2),
#   two norms (4), every value up to 2 E;
# - ||quadrature||: rotating it back (2), U and V (2), two norms (2);
# - ||alpha_z(y)||: y rotated back, into the eigenbasis again and U and V on it (6, times the growth w), the
#   continuation rotated back (2), U and V (2), two norms (2).
ROUTE_STAGES = {"smear_error": 16, "quad_vs_oracle": 14, "quad_norm": 6, "continued_norm": 12}


@settings(max_examples=40, deadline=None)
@given(EIGENBASIS_ROUTES)
def test_the_eigenbasis_route_reads_the_norms_of_the_rotating_one_hypothesis(route):
    """``in_eigenbasis(g, x)`` gives the norms of ``g`` and ``x`` bit for bit, and every other value within
    c n gamma_{n+2} of its scale, with c the stage count of ``ROUTE_STAGES``.

    The bound, for blocks of n at most the largest dimension, u = eps/2 and gamma_k = k u / (1 - k u):
    - A product of M by a computed eigenvector matrix, whose rows have unit norm to rounding, is off in each entry
      by at most gamma_{n+2} sum_k |u_ik| |m_kj| <= gamma_{n+2} ||M|| (the complex inner product, Higham,
      *Accuracy and Stability of Numerical Algorithms*, 2002, sec. 3.6, and Cauchy-Schwarz), so by at most
      n gamma_{n+2} ||M|| in the norm (Frobenius over n^2 entries).
    - ``eigh``'s eigenvectors are unitary to ||U* U - I|| <= p(n) u and ``eigvalsh`` is backward stable to
      p(n) u ||A||, for a modestly growing p(n) (LAPACK Users' Guide, sec. 4.7): both are taken at the same
      n gamma_{n+2}, so U and V on a value move its norm by 2 n gamma_{n+2}, and a norm, from its Gram, by
      n gamma_{n+2}.
    - A subtraction rounds each entry by u, n gamma_{n+2} in the norm.
    The smear at z = 0 is an average of diagonal unitary conjugations, so it does not raise a norm; the
    quadrature and the closed form stay within E = ||x|| exp(r^2 (Im z)^2) (their weights sum to the envelope),
    and the continuation's factor exp(iz(lam_j - mu_k)) = a_j b_k moves a norm by at most
    w = exp(|Im z| (||H_l|| + ||H_r||)).  Terms of second order in n gamma_{n+2} (at most 2e-14 here) are
    covered by the factor 1 + c n gamma_{n+2}.
    """
    seed, dims, norm, rr, re, im = route
    r = rng(seed)
    shape = BlockShape(dims)
    g = random_flow(r, shape, norm)
    x = random_element(r, shape)
    z = complex(re, im)
    gh, xh = in_eigenbasis(g, x)
    assert (gh.h_left.norm(), gh.h_right.norm(), xh.norm()) == (g.h_left.norm(), g.h_right.norm(), x.norm())
    plan = SmearingPlan.for_flow(g, rr, z)
    assert SmearingPlan.for_flow(gh, rr, z) == plan

    def values(g, x):
        y = smear_oracle(g, x, rr, 0.0)
        quad = smear_quadrature(g, x, plan)
        return {"smear_error": (y - x).norm(), "quad_vs_oracle": (quad - smear_oracle(g, x, rr, z)).norm(),
                "quad_norm": quad.norm(), "continued_norm": continue_exact(g, z, y).norm()}

    n, u = max(dims), EPS / 2
    per_stage = n * (n + 2) * u / (1 - (n + 2) * u)
    envelope = x.norm() * math.exp(rr * rr * im * im)
    scales = {"smear_error": x.norm(), "quad_vs_oracle": envelope, "quad_norm": envelope,
              "continued_norm": x.norm() * math.exp(abs(im) * float(g.generator_norm()))}
    rotating, eigenbasis = values(g, x), values(gh, xh)
    for name, c in ROUTE_STAGES.items():
        assert abs(rotating[name] - eigenbasis[name]) <= c * per_stage * (1 + c * per_stage) * scales[name], name


# A batch of widths about one center: distinct widths, then each width of the batch one of them (so some
# repeat), the flows' norm (nu = 2 norm), the center with Im z below, at or above 0, and which widths
# take the batch's largest count in place of their own, so that widths of unequal minimal counts share one.
WIDTH_BATCHES = st.tuples(
    st.integers(0, 2**32 - 1),
    st.sampled_from([(1,), (2,), (3,), (2, 1), (1, 2)]),
    st.lists(st.floats(0.05, 4.0), min_size=1, max_size=4, unique=True),
    st.lists(st.integers(0, 3), min_size=1, max_size=8),
    st.floats(0.1, 3.0),
    st.floats(-1.0, 1.0),
    st.sampled_from([-1.0, 0.0, 1.0]),
    st.floats(0.05, 1.0),
    st.lists(st.booleans(), min_size=8, max_size=8),
)


@settings(max_examples=40, deadline=None)
@given(WIDTH_BATCHES, st.sampled_from([1, 2]))
# one width on a one-entry block, whose product with its factor numpy rounds apart from the others'
@example((0, (1, 2), [0.5], [0], 1.0, 0.3, 1.0, 0.5, [False] * 8), 1)
def test_smears_of_a_batch_of_widths_are_each_widths_own_hypothesis(batch, flows):
    seed, dims, distinct, picks, norm, re, sign, im, lifted = batch
    r = rng(seed)
    shape = BlockShape(dims)
    members = [random_flow(r, shape, norm) for _ in range(flows)]
    g = members[0] if flows == 1 else FlowGenerator(HermitianElement(stack([f.h_left.value for f in members])),
                                                    HermitianElement(stack([f.h_right.value for f in members])))
    x = random_element(r, shape)
    z = complex(re, sign * im)
    widths = np.array([distinct[i % len(distinct)] for i in picks])
    needed = min_nodes(g, widths, z)
    nodes = np.where(lifted[:widths.size], needed.max(), needed)
    smears = _smear_quadratures(g, x, widths, z, nodes)
    # the widths' axis leads, ahead of the flows'
    assert smears.blocks[0].shape[:-2] == ((widths.size,) if flows == 1 else (widths.size, flows))
    for i, (rr, count) in enumerate(zip(widths.tolist(), nodes.tolist())):
        own = smear_quadrature(g, x, SmearingPlan(rr, z, count))
        assert all(np.array_equal(p, q) for p, q in zip(smears[i].blocks, own.blocks))
    with pytest.raises(NodesTooFewError, match=f"plan has {needed[-1] - 1} nodes, needs >= {needed[-1]}"):
        smear_quadrature(g, x, SmearingPlan(widths[-1], z, int(needed[-1]) - 1))


# each guard of a width, smearing index or start time, called with the value under test
GUARDS = {
    "SmearingPlan": lambda v: SmearingPlan(v, 0.0, 9),
    "SmearingPlan.for_flow": lambda v: SmearingPlan.for_flow(diag_flow(1.0, 0.0), v),
    "smear_oracle": lambda v: smear_oracle(diag_flow(1.0, 0.0), e12(), v, 0.0),
    "vector_smear": lambda v: vector_smear(identity_operator(BlockShape([2]), 1),
                                           random_vector(rng(0), BlockShape([2]), 1), v),
    "double_smear": lambda v: double_smear(CommutingPair(diag_flow(1.0, 0.0), diag_flow(0.5, 0.0)), e12(), v),
    "recover": lambda v: recover(SampledUnitaryGroup.from_positive(identity_operator(BlockShape([2]), 1)), v),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("call", GUARDS.values(), ids=list(GUARDS))
def test_guards_refuse_non_finite_and_non_positive_values(call, value):
    # a guard written value <= 0 let NaN through: it is False for NaN
    with pytest.raises(ValueError, match=rf"must be positive and finite, got {value}$"):
        call(value)


# each smear input that is not finite, or a node count that is not an integer, and the refusal
# naming it: unrefused, a NaN or float node count fails later in _trapezoid, and a NaN center
# gives NaN entries
SMEAR_REFUSALS = {
    "nan_nodes": (lambda: SmearingPlan(1.0, 0.0, math.nan), "node count must be an integer, got nan"),
    "float_nodes": (lambda: SmearingPlan(1.0, 0.0, 41.0), "node count must be an integer, got 41.0"),
    "bool_nodes": (lambda: SmearingPlan(1.0, 0.0, True), "node count must be an integer, got True"),
    "nan_center": (lambda: SmearingPlan(1.0, math.nan, 41), "smear center z must be finite, got nan"),
    "oracle_nan_center": (lambda: smear_oracle(diag_flow(1.0, 0.0), e12(), 1.0, math.nan),
                          "smear center z must be finite, got nan"),
    "oracle_center_array": (lambda: smear_oracle(diag_flow(1.0, 0.0), e12(), 1.0, np.array([0.5, math.inf])),
                            "smear center z must be finite, got [0.5 inf]"),
    "for_flow_nan_center": (lambda: SmearingPlan.for_flow(diag_flow(1.0, 0.0), 1.0, math.nan * 1j),
                            "smear center z must be finite, got (nan+nanj)"),
    "admissible_nan_nu": (lambda: admissible_nodes(math.nan, 1.0, 0.0),
                          "largest frequency nu_max must be finite, got nan"),
    "admissible_inf_center": (lambda: admissible_nodes(1.0, 1.0, complex(0.0, math.inf)),
                              "smear center z must be finite, got infj"),
}


@pytest.mark.parametrize("call, message", SMEAR_REFUSALS.values(), ids=list(SMEAR_REFUSALS))
def test_smear_inputs_are_finite_and_node_counts_integers(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def _refusal(check, value) -> str | None:
    try:
        check(value, "w")
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324, 1e308, 2.0])
def test_a_number_is_checked_as_its_array_is(value):
    # _require_finite takes a float or a complex through cmath, anything else through numpy: both refuse the
    # same values with the same message, as _require_positive does
    for check, numbers in ((_require_positive, (value, np.float64(value))),
                           (_require_finite, (value, np.float64(value), complex(value, 1.0), complex(1.0, value)))):
        for number in numbers:
            assert _refusal(check, number) == _refusal(check, np.array(number))


def test_trapezoid_nodes_are_linspace_bit_for_bit():
    for n in [*range(2, 1025), *range(1025, MAX_NODES, 61), MAX_NODES]:
        s, w = _trapezoid(n)
        nodes = np.linspace(-L, L, n)
        assert s.tobytes() == nodes.tobytes(), n
        assert w.tobytes() == ((2.0 * L / (n - 1)) * np.exp(-nodes * nodes)).tobytes(), n


def test_a_numpy_integer_node_count_is_a_node_count():
    g = diag_flow(1.0, 0.0)
    plan = SmearingPlan(1.0, 0.0, np.int64(41))
    assert plan.nodes == 41
    assert (smear_quadrature(g, e12(), plan) - smear_oracle(g, e12(), 1.0, 0.0)).norm() <= 1e-15
