"""Flow evaluation, companions, group laws."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cstarflow import (
    BlockShape,
    FlowGenerator,
    HermitianElement,
    conjugate,
    conjugate_norm,
    evaluate,
    identity,
    in_eigenbasis,
    left_companion,
    right_companion,
)
from cstarflow.algebra import stack
from cstarflow.sampling import random_element, random_elements, random_flow, random_hermitian, rng

from conftest import diag_flow, e12, zeros

EPS = np.finfo(float).eps


def group_law_residual(g, s, t, xs):
    """The largest ``norm(alpha_s(alpha_t(x)) - alpha_{s+t}(x))`` over the members of a batch ``xs``."""
    return np.max((evaluate(g, s, evaluate(g, t, xs)) - evaluate(g, s + t, xs)).norm())


def phase_oracle(g: FlowGenerator, t: complex, x):
    """Independent route: entrywise phases of diagonal generators."""
    out = []
    for hl, hr, xb in zip(g.h_left.value.blocks, g.h_right.value.blocks, x.blocks):
        lam = np.diagonal(hl).real
        mu = np.diagonal(hr).real
        out.append(np.exp(1j * t * (lam[:, None] - mu[None, :])) * xb)
    return out


class TestEvaluate:
    def test_time_zero_is_identity(self):
        r = rng(0)
        g = random_flow(r, BlockShape([2, 3]), 2.0)
        x = random_element(r, BlockShape([2, 3]))
        assert (evaluate(g, 0.0, x) - x).norm() <= 1e-14 * x.norm()

    def test_matrix_unit_picks_up_phase(self):
        g = diag_flow(1.0, 0.0)
        x = e12()
        for t in (-2.0, 0.3, 1.7):
            expected = phase_oracle(g, t, x)
            got = evaluate(g, t, x)
            np.testing.assert_allclose(got.blocks[0], expected[0], atol=1e-13)

    def test_unit_is_fixed_by_automorphisms(self):
        r = rng(1)
        h = random_hermitian(r, BlockShape([3]), 2.0)
        g = FlowGenerator(h, h)
        one = identity(BlockShape([3]))
        for t in (-5.0, 0.7, 11.0):
            assert (evaluate(g, t, one) - one).norm() <= 1e-12

    def test_complex_time_is_refused(self):
        # numpy would drop the imaginary part of a complex array: np.array([1j]) would act as t = 0
        g, x = diag_flow(1.0, 0.0), e12()
        for t in (1j, 0.5 + 0.0j, np.array([1j]), np.array([0.0, 1.0], dtype=complex)):
            with pytest.raises(ValueError, match="continue_exact"):
                evaluate(g, t, x)
        np.testing.assert_allclose(evaluate(g, np.array([0.0, 1.0]), x).blocks[0][1], phase_oracle(g, 1.0, x)[0])


class TestCompanions:
    def test_companion_shares_the_eigendata(self):
        g = random_flow(rng(1), BlockShape([2, 3]), 1.0)
        assert left_companion(g).spectral_left is g.spectral_left
        assert right_companion(g).spectral_right is g.spectral_right

    def test_automorphism_decomposes_its_generator_once(self):
        h = random_hermitian(rng(2), BlockShape([3]), 1.0)
        g = FlowGenerator(h, h)
        assert g.spectral_left is g.spectral_right

    def test_automorphism_case_collapses(self):
        h = random_hermitian(rng(2), BlockShape([2, 2]), 1.0)
        g = FlowGenerator(h, h)
        x = random_element(rng(3), BlockShape([2, 2]))
        for companion in (left_companion(g), right_companion(g)):
            for t in (0.4, -1.1):
                assert (evaluate(companion, t, x) - evaluate(g, t, x)).norm() == 0.0

    def test_zero_right_generator_gives_trivial_companion(self):
        shape = BlockShape([3])
        g = FlowGenerator(
            random_hermitian(rng(4), shape, 1.0), HermitianElement(zeros(shape))
        )
        x = random_element(rng(5), shape)
        trivial = right_companion(g)
        for t in (0.9, -2.3, 7.0):
            assert (evaluate(trivial, t, x) - x).norm() <= 1e-13

    def test_semi_multiplicativity_expm_oracle(self):
        # independent oracle: explicit scaling-and-squaring exponential products
        r = rng(6)
        shape = BlockShape([3, 2])
        g = random_flow(r, shape, 1.5)
        a, b = random_element(r, shape), random_element(r, shape)
        t = 0.8
        lhs = evaluate(left_companion(g), t, b) @ evaluate(g, t, a)
        oracle = []
        for hl, hr, ab in zip(
            g.h_left.value.blocks, g.h_right.value.blocks, (b @ a).blocks
        ):
            el = scipy.linalg.expm(1j * t * hl)
            er = scipy.linalg.expm(-1j * t * hr)
            oracle.append(el @ ab @ er)
        for got, want in zip(lhs.blocks, oracle):
            np.testing.assert_allclose(got, want, atol=1e-10)


class TestGroupLaw:
    def test_zero_times(self):
        r = rng(7)
        g = random_flow(r, BlockShape([2, 2]), 2.0)
        xs = random_elements(r, BlockShape([2, 2]), 3)
        assert group_law_residual(g, 0.0, 0.0, xs) <= 1e-14

    def test_additivity(self):
        r = rng(8)
        g = random_flow(r, BlockShape([3]), 2.0)
        xs = random_elements(r, BlockShape([3]), 5)
        assert group_law_residual(g, 0.6, -1.4, xs) <= 1e-11

    def test_inverse_at_unit_time(self):
        r = rng(9)
        g = random_flow(r, BlockShape([2, 3]), 2.0)
        x = random_element(r, BlockShape([2, 3]))
        resid = (evaluate(g, 1.0, evaluate(g, -1.0, x)) - x).norm()
        assert resid <= 1e-11


class TestInvariants:
    def test_isometry_large_times(self):
        r = rng(10)
        g = random_flow(r, BlockShape([3, 2]), 2.0)
        x = random_element(r, BlockShape([3, 2]))
        for t in (-100.0, -7.3, 0.1, 55.0, 100.0):
            assert abs(evaluate(g, t, x).norm() - x.norm()) <= 1e-10 * x.norm()

    def test_semi_multiplicativity_both_sides(self):
        r = rng(11)
        shape = BlockShape([2, 3])
        for _ in range(10):
            g = random_flow(r, shape, 2.0)
            a, b = random_element(r, shape), random_element(r, shape)
            t = float(r.uniform(-3, 3))
            prod = a.norm() * b.norm()
            left = evaluate(left_companion(g), t, b) @ evaluate(g, t, a)
            assert (left - evaluate(g, t, b @ a)).norm() <= 1e-10 * prod
            right = evaluate(g, t, a) @ evaluate(right_companion(g), t, b)
            assert (right - evaluate(g, t, a @ b)).norm() <= 1e-10 * prod

    def test_companions_multiplicative(self):
        r = rng(12)
        shape = BlockShape([3])
        g = random_flow(r, shape, 2.0)
        x, y = random_element(r, shape), random_element(r, shape)
        for companion in (left_companion(g), right_companion(g)):
            for t in (0.3, -1.8):
                lhs = evaluate(companion, t, x @ y)
                rhs = evaluate(companion, t, x) @ evaluate(companion, t, y)
                assert (lhs - rhs).norm() <= 1e-10 * x.norm() * y.norm()

    def test_lipschitz_continuity_bound(self):
        r = rng(13)
        shape = BlockShape([2, 3])
        g = random_flow(r, shape, 2.0)
        x = random_element(r, shape)
        budget = g.h_left.norm() + g.h_right.norm()
        for t in (1e-3, 0.05, 0.4, 1.0):
            drift = (evaluate(g, t, x) - x).norm()
            assert drift <= t * budget * x.norm() * (1 + 1e-8)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    s=st.floats(-3.0, 3.0),
    t=st.floats(-3.0, 3.0),
    z_im=st.floats(-1.0, 1.0),
)
def test_group_law_inverse_and_semi_multiplicativity_hypothesis(seed, dims, s, t, z_im):
    r = rng(seed)
    shape = BlockShape(dims)
    g = random_flow(r, shape, 2.0)
    x, a, b = (random_element(r, shape) for _ in range(3))
    assert group_law_residual(g, s, t, x) <= 1e-11 * x.norm()

    # alpha_{-z} undoes alpha_z; alpha_{-z} has norm at most exp(|Im z| nu) on alpha_z(x)
    z = complex(s, z_im)
    xz = conjugate(g, z, x)
    growth = math.exp(abs(z_im) * (g.h_left.norm() + g.h_right.norm()))
    assert (conjugate(g, -z, xz) - x).norm() <= 1e-11 * growth * max(x.norm(), xz.norm())

    prod = a.norm() * b.norm()
    left = evaluate(left_companion(g), t, b) @ evaluate(g, t, a)
    assert (left - evaluate(g, t, b @ a)).norm() <= 1e-10 * prod
    right = evaluate(g, t, a) @ evaluate(right_companion(g), t, b)
    assert (right - evaluate(g, t, a @ b)).norm() <= 1e-10 * prod


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    layout=st.sampled_from(["one z", "z array", "batch", "z per member", "z array by batch"]),
    z_im=st.floats(-1.5, 1.5).filter(lambda v: v != 0.0),
)
def test_conjugate_norm_is_the_norm_of_the_conjugate(seed, dims, layout, z_im):
    r = rng(seed)
    shape = BlockShape(dims)
    g = random_flow(r, shape, 2.0)
    members = 1 if layout in ("one z", "z array") else 3
    x = stack([random_element(r, shape) for _ in range(members)]) if members > 1 else random_element(r, shape)
    zs = r.uniform(-2.0, 2.0, 3) + 1j * z_im * r.uniform(0.5, 1.0, 3)
    z = {"one z": zs[0], "z array": zs, "batch": zs[0], "z per member": zs,
         "z array by batch": zs[:2, None]}[layout]
    want = conjugate(g, z, x).norm()
    got = conjugate_norm(g, z, x)
    assert np.shape(got) == np.shape(want)
    # the rounding of both routes scales with the largest phase, exp(|Im z| nu), times norm(x)
    scale = np.asarray(x.norm()) * np.exp(np.abs(np.imag(z)) * float(g.generator_norm()))
    assert np.all(np.abs(got - want) <= 4 * max(dims) * EPS * scale)


def test_in_eigenbasis_marks_its_diagonal_generators_eigenvectors_without_eigh(monkeypatch):
    r = rng(41)
    shape = BlockShape([3, 2])
    g, x = random_flow(r, shape, 2.0), random_element(r, shape)
    gh, xh = in_eigenbasis(g, x)

    def refused(*args, **kwargs):
        raise AssertionError("eigh called on a diagonal generator")

    monkeypatch.setattr(np.linalg, "eigh", refused)
    for h, sd in ((gh.h_left, g.spectral_left), (gh.h_right, g.spectral_right)):
        own = gh.spectral_left if h is gh.h_left else gh.spectral_right
        assert own.eigenvectors == (None, None) and all(a is b for a, b in zip(own.eigenvalues, sd.eigenvalues))
        assert all(np.array_equal(b, np.diag(lam)) for b, lam in zip(h.value.blocks, sd.eigenvalues))
    # U* x V, as the rotating route forms it
    want = [u.conj().swapaxes(-1, -2) @ b @ v for u, v, b in
            zip(g.spectral_left.eigenvectors, g.spectral_right.eigenvectors, x.blocks)]
    assert all(np.array_equal(p, q) for p, q in zip(xh.blocks, want))


def test_in_eigenbasis_of_a_batch_of_flows_carries_the_norm_of_one_element_to_each_member():
    r = rng(42)
    shape = BlockShape([3, 2])
    members = [random_flow(r, shape, 1.0) for _ in range(3)]
    g = FlowGenerator(HermitianElement(stack([f.h_left.value for f in members])),
                      HermitianElement(stack([f.h_right.value for f in members])))
    x = random_element(r, shape)
    gh, xh = in_eigenbasis(g, x)
    assert np.array_equal(xh.norm(), np.full(3, x.norm())) and xh[1].norm() == x.norm()
    assert np.array_equal(gh.generator_norm(), g.generator_norm())
    # each member's continuation keeps its norm, up to the rounding of the two routes
    z = 0.4 - 0.3j
    scale = x.norm() * np.exp(0.3 * g.generator_norm())
    assert np.all(np.abs(conjugate(gh, z, xh).norm() - conjugate(g, z, x).norm()) <= 4 * 3 * EPS * scale)
