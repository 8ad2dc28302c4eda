"""Implemented flows, middle multipliers, localized identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cstarflow.implemented as implemented_mod
from cstarflow import (
    AlgebraElement,
    BlockCarrier,
    BlockShape,
    EigFailureError,
    FlowGenerator,
    HermitianElement,
    IllConditionedError,
    ImplementedFlow,
    InvarianceViolationError,
    ModuleOperator,
    NotInAlgebraError,
    ShapeMismatchError,
    SubalgebraBasis,
    continue_exact,
    identity_operator,
    implemented_continuation_check,
    implemented_evaluate,
    localize,
    localized_middle_check,
    op_exp,
    op_log,
    op_power,
    power,
    separating_check,
)
from cstarflow.sampling import (
    random_operator,
    random_positive_operator,
    random_state,
    random_unitary,
    rng,
)

from conftest import (
    Z_GRIDS,
    basis_operators,
    failing_svd,
    matrix_unit_operators,
    operator_entries,
    operator_from_entries,
)
from test_hilbmod import CLOSURE_CASES, carrier_positive

EPS = np.finfo(float).eps


def diag_op(*vals: float) -> ModuleOperator:
    return operator_from_entries([[AlgebraElement.from_blocks([np.diag(vals).astype(complex)])]])


def full_basis(shape: BlockShape, k: int) -> SubalgebraBasis:
    return SubalgebraBasis(matrix_unit_operators(shape, k))


def diagonal_basis(shape: BlockShape, k: int) -> SubalgebraBasis:
    gens = []
    for b, n in enumerate(shape.block_dims):
        for j in range(k * n):
            flats = [np.zeros((k * m, k * m), dtype=complex) for m in shape.block_dims]
            flats[b][j, j] = 1.0
            gens.append(ModuleOperator(AlgebraElement.from_blocks(flats), k))
    return SubalgebraBasis(gens)


class TestImplementedEvaluate:
    def test_time_zero(self):
        r = rng(0)
        shape = BlockShape([2])
        f = ImplementedFlow(
            random_positive_operator(r, shape, 2, cond=50.0),
            random_positive_operator(r, shape, 2, cond=50.0),
            full_basis(shape, 2),
        )
        x = random_operator(r, shape, 2)
        assert (implemented_evaluate(f, 0.0, x) - x).norm() <= 1e-12 * max(1.0, x.norm())

    def test_equal_pair_is_multiplicative(self):
        r = rng(1)
        shape = BlockShape([2])
        s = random_positive_operator(r, shape, 2, cond=50.0)
        f = ImplementedFlow(s, s, full_basis(shape, 2))
        x, y = random_operator(r, shape, 2), random_operator(r, shape, 2)
        t = 0.8
        lhs = implemented_evaluate(f, t, x @ y)
        rhs = implemented_evaluate(f, t, x) @ implemented_evaluate(f, t, y)
        assert (lhs - rhs).norm() <= 1e-10 * max(1.0, rhs.norm())

    def test_unit_fixed_by_automorphism_case(self):
        r = rng(2)
        shape = BlockShape([2])
        s = random_positive_operator(r, shape, 1, cond=20.0)
        f = ImplementedFlow(s, s, full_basis(shape, 1))
        one = identity_operator(shape, 1)
        for t in (0.5, -3.0):
            assert (implemented_evaluate(f, t, one) - one).norm() <= 1e-11

    def test_rejects_elements_outside_carrier(self):
        shape = BlockShape([2])
        s = diag_op(1.0, 2.0)
        f = ImplementedFlow(s, s, diagonal_basis(shape, 1))
        off_diagonal = operator_from_entries(
            [[AlgebraElement.from_blocks([np.array([[0.0, 1.0], [0.0, 0.0]])])]]
        )
        with pytest.raises(NotInAlgebraError):
            implemented_evaluate(f, 0.5, off_diagonal)

    def test_invariance_violation_detected_at_construction(self):
        shape = BlockShape([2])
        # S mixes the basis the diagonal carrier lives in
        mix = np.array([[2.0, 0.6], [0.6, 1.0]])
        s = operator_from_entries([[AlgebraElement.from_blocks([mix])]])
        one = identity_operator(shape, 1)
        with pytest.raises(InvarianceViolationError):
            ImplementedFlow(s, one, diagonal_basis(shape, 1))

    def test_ill_conditioned_pair_refused(self):
        shape = BlockShape([2])
        s = diag_op(1e7, 1.0)
        with pytest.raises(IllConditionedError):
            ImplementedFlow(s, s, full_basis(shape, 1))


def sequential_probe(s, t, basis):
    """The per-element invariance probe ``ImplementedFlow`` replaced: the first failing time, or None."""
    for tp in implemented_mod.PROBE_TIMES:
        us, ut_inv = op_power(s, 1j * tp), op_power(t, -1j * tp)
        for b in basis_operators(basis):
            if basis.residual(us @ b @ ut_inv) > implemented_mod.INVARIANCE_TOL * max(1.0, b.norm()):
                return tp
    return None


def probe_verdict(s, t, basis):
    """The probe time ``ImplementedFlow`` fails at, or None; checked against the per-element loop."""
    tp = sequential_probe(s, t, basis)
    if tp is None:
        ImplementedFlow(s, t, basis)
    else:
        with pytest.raises(InvarianceViolationError, match=f"at t={tp} "):
            ImplementedFlow(s, t, basis)
    return tp


class TestProbeAgainstSequential:
    @pytest.mark.parametrize("case", sorted(CLOSURE_CASES))
    def test_verdicts_match_the_per_element_loop(self, case):
        basis = SubalgebraBasis(CLOSURE_CASES[case]())
        r = rng(50)
        pairs = [
            (carrier_positive(basis, 51), carrier_positive(basis, 52)),
            (random_positive_operator(r, basis.shape, basis.k, cond=50.0),
             random_positive_operator(r, basis.shape, basis.k, cond=50.0)),
        ]
        assert probe_verdict(*pairs[0], basis) is None
        probe_verdict(*pairs[1], basis)  # fails for the proper carriers, passes for the full ones

    def test_failing_diagonal_carrier(self):
        shape = BlockShape([2])
        mix = operator_from_entries([[AlgebraElement.from_blocks([np.array([[2.0, 0.6], [0.6, 1.0]])])]])
        one = identity_operator(shape, 1)
        assert probe_verdict(mix, one, diagonal_basis(shape, 1)) == implemented_mod.PROBE_TIMES[0]


class TestProbeOnlyProperCarriers:
    """Construction raises S and T to the probe times only for a carrier below the dimension of M_k(A)."""

    @staticmethod
    def counted_powers(monkeypatch) -> list:
        calls = []

        def counted(*args):
            calls.append(args)
            return power(*args)

        monkeypatch.setattr(implemented_mod, "power", counted)
        return calls

    @pytest.mark.parametrize("carrier", [BlockCarrier.full, full_basis])
    def test_a_carrier_of_full_dimension_raises_no_power(self, monkeypatch, carrier):
        shape, r = BlockShape([2, 1]), rng(80)
        s, t = (random_positive_operator(r, shape, 2, cond=50.0) for _ in range(2))
        c = carrier(shape, 2)
        assert c.dim == s.flat.shape.dim
        calls = self.counted_powers(monkeypatch)
        f = ImplementedFlow(s, t, c)
        assert calls == []
        x = random_operator(r, shape, 2)
        assert implemented_evaluate(f, 0.5, x).norm() > 0.0

    @pytest.mark.parametrize("carrier", [
        lambda: BlockCarrier.full(BlockShape([3]), 1),
        lambda: BlockCarrier.full(BlockShape([1]), 2),  # the flat shape of S, at another module rank
        lambda: BlockCarrier(BlockShape([1]), 1, [np.eye(1)], [(1,)]),
        lambda: full_basis(BlockShape([1]), 2),
    ])
    def test_a_carrier_of_another_shape_or_rank_is_refused(self, carrier):
        r = rng(82)
        s, t = (random_positive_operator(r, BlockShape([2]), 1, cond=10.0) for _ in range(2))
        c = carrier()
        with pytest.raises(ShapeMismatchError):
            ImplementedFlow(s, t, c)
        if isinstance(c, BlockCarrier):
            with pytest.raises(ShapeMismatchError):
                c.residual(s)
        if c.k == 1:  # otherwise the carrier's flat blocks are those of S
            with pytest.raises(ShapeMismatchError):
                c.leaks(s.flat)

    def test_a_proper_carrier_raises_both_sides_to_the_probe_times(self, monkeypatch):
        u = random_unitary(rng(81), 2)
        carrier = BlockCarrier(BlockShape([2]), 1, [u], [(1, 1)])
        s, t = (ModuleOperator(AlgebraElement.from_blocks([u @ np.diag(d) @ u.conj().T]), 1)
                for d in ((2.0, 1.0), (3.0, 0.5)))
        calls = self.counted_powers(monkeypatch)
        ImplementedFlow(s, t, carrier)
        times = np.array(implemented_mod.PROBE_TIMES)
        (left, left_times), (right, right_times) = calls
        assert left is s.flat and right is t.flat
        assert np.array_equal(left_times, 1j * times) and np.array_equal(right_times, -1j * times)


class TestToleranceWitnesses:
    """Inputs just inside and just past the carrier bounds, on proper carriers of M_2 (shape [2], k = 1)."""

    shape = BlockShape([2])

    def test_span_tolerance(self):
        # x = U (diag(0.5, -0.3) + eps E_01) U* has norm <= 1 and residual eps on the
        # carrier U (M_1 + M_1) U*; S and T lie in the carrier and keep that residual
        u = random_unitary(rng(70), 2)
        carrier = BlockCarrier(self.shape, 1, [u], [(1, 1)])

        def rotated(*diag: float, eps: float = 0.0) -> ModuleOperator:
            inner_block = np.diag(diag) + eps * np.eye(2, k=1)
            return ModuleOperator(AlgebraElement.from_blocks([u @ inner_block @ u.conj().T]), 1)

        f = ImplementedFlow(rotated(2.0, 1.0), rotated(3.0, 0.5), carrier)
        for eps, accepted in ((5e-10, True), (2e-9, False)):
            x = rotated(0.5, -0.3, eps=eps)
            assert x.norm() <= 1.0
            assert carrier.residual(x) == pytest.approx(eps, rel=1e-5)
            if accepted:
                assert carrier.residual(implemented_evaluate(f, 0.5, x)) == pytest.approx(eps, rel=1e-5)
                implemented_continuation_check(f, [0.5j], x)
            else:
                with pytest.raises(NotInAlgebraError):
                    implemented_evaluate(f, 0.5, x)
                with pytest.raises(NotInAlgebraError):
                    implemented_continuation_check(f, [0.5j], x)

    def test_invariance_tolerance(self):
        # S = exp(eps sigma_x) gives S^(it) = cos(t eps) + i sin(t eps) sigma_x, which moves
        # E_00 out of the diagonal carrier by sin(t eps): the largest leak at t = 1 is sin(eps)
        carrier = BlockCarrier(self.shape, 1, [np.eye(2)], [(1, 1)])
        one = identity_operator(self.shape, 1)
        for eps, accepted in ((0.99e-8, True), (1.01e-8, False)):
            h = eps * np.array([[0.0, 1.0], [1.0, 0.0]])
            s = op_exp(operator_from_entries([[AlgebraElement.from_blocks([h])]]))
            leaks = carrier.leaks(power(s.flat, 1j * np.array(implemented_mod.PROBE_TIMES)))
            assert leaks.max() == pytest.approx(np.sin(eps), rel=1e-6)
            if accepted:
                ImplementedFlow(s, one, carrier)
            else:
                with pytest.raises(InvarianceViolationError, match="at t=1.0 "):
                    ImplementedFlow(s, one, carrier)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dims=st.sampled_from([(1,), (2,), (3,), (2, 1), (1, 2)]),
       k=st.integers(1, 2), count=st.integers(1, 3), hermitian=st.booleans())
def test_carrier_basis_elements_have_norm_at_most_one_hypothesis(seed, dims, k, count, hermitian):
    # the invariance probe's bound INVARIANCE_TOL * max(1, norm(b)) is INVARIANCE_TOL
    # itself: the rows are Hilbert-Schmidt orthonormal, so norm(b) <= 1
    r = rng(seed)
    gens = [random_operator(r, BlockShape(dims), k) for _ in range(count)]
    basis = SubalgebraBasis([g + g.star() for g in gens] if hermitian else gens)
    assert AlgebraElement(basis._flat_shape, basis.flats).norm().max() <= 1 + 1e-12


class TestMiddleMultiplier:
    def test_zero(self):
        shape = BlockShape([2])
        z = 0.0 * identity_operator(shape, 2)
        s = identity_operator(shape, 2)
        assert (s @ z @ s).norm() == 0.0

    def test_identity_pair(self):
        r = rng(3)
        shape = BlockShape([2, 2])
        x = random_operator(r, shape, 1)
        one = identity_operator(shape, 1)
        assert (one @ x @ one - x).norm() == 0.0

    def test_diagonal_entrywise_oracle(self):
        s = diag_op(2.0, 3.0)
        t = diag_op(5.0, 7.0)
        x = random_operator(rng(4), BlockShape([2]), 1)
        got = operator_entries(s @ x @ t)[0][0].blocks[0]
        xb = operator_entries(x)[0][0].blocks[0]
        want = np.diag([2.0, 3.0]) @ xb @ np.diag([5.0, 7.0])
        np.testing.assert_allclose(got, want, atol=1e-13)


def pointwise_implemented(f, z, x):
    """The per-z residual of the two continuation routes, and its scale.

    Route one is the flow generated by ``(log S, log T)``; route two the
    product of complex powers.
    """
    logs = FlowGenerator(HermitianElement(op_log(f.s).flat), HermitianElement(op_log(f.t).flat))
    lhs = continue_exact(logs, z, x.flat)
    rhs = (op_power(f.s, 1j * z) @ x @ op_power(f.t, -1j * z)).flat
    return (lhs - rhs).norm(), max(x.norm(), lhs.norm(), rhs.norm())


def random_implemented(seed: int, dims, k: int):
    r = rng(seed)
    shape = BlockShape(dims)
    f = ImplementedFlow(
        random_positive_operator(r, shape, k, cond=1e3),
        random_positive_operator(r, shape, k, cond=1e3),
        full_basis(shape, k),
    )
    return f, random_operator(r, shape, k, norm=1.0)


class TestContinuationGrid:
    @settings(max_examples=25, deadline=None)
    @given(grid=Z_GRIDS, seed=st.integers(0, 2**16),
           module=st.sampled_from([([2], 1), ([2], 2), ([2, 1], 2)]))
    def test_grid_matches_pointwise_oracle(self, grid, seed, module):
        dims, k = module
        f, x = random_implemented(seed, dims, k)
        got = implemented_continuation_check(f, grid, x)
        assert got.shape == (len(grid),)
        for z, resid in zip(grid, got):
            want, scale = pointwise_implemented(f, z, x)
            assert abs(resid - want) <= 64 * k * max(dims) * EPS * scale

    def test_failed_batched_svd_is_a_numerical_breakdown(self, monkeypatch):
        f, x = random_implemented(9, [2], 2)
        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        with pytest.raises(EigFailureError, match="2 stacked 4x4 blocks"):
            implemented_continuation_check(f, [1j, -0.5], x)


class TestContinuationFormula:
    def test_real_parameter(self):
        r = rng(5)
        shape = BlockShape([2])
        f = ImplementedFlow(
            random_positive_operator(r, shape, 2, cond=100.0),
            random_positive_operator(r, shape, 2, cond=100.0),
            full_basis(shape, 2),
        )
        x = random_operator(r, shape, 2)
        assert implemented_continuation_check(f, [1.3 + 0.0j], x)[0] <= 1e-10 * max(1.0, x.norm())

    def test_worked_diagonal_instance(self):
        s = diag_op(np.e, 1.0)
        f = ImplementedFlow(s, s, full_basis(BlockShape([2]), 1))
        e12_op = operator_from_entries(
            [[AlgebraElement.from_blocks([np.array([[0.0, 1.0], [0.0, 0.0]])])]]
        )
        cont = op_power(s, 1j * 1j) @ e12_op @ op_power(s, -1j * 1j)
        # entry scaling exp(i z (sigma_1 - sigma_2)) at z = i is exp(-1)
        got = operator_entries(cont)[0][0].blocks[0][0, 1]
        assert abs(got - np.exp(-1.0)) <= 1e-12
        assert implemented_continuation_check(f, [1j], e12_op)[0] <= 1e-10

    def test_route_agreement_on_grid(self):
        r = rng(6)
        shape = BlockShape([2])
        f = ImplementedFlow(
            random_positive_operator(r, shape, 2, cond=1e3),
            random_positive_operator(r, shape, 2, cond=1e3),
            full_basis(shape, 2),
        )
        x = random_operator(r, shape, 2, norm=1.0)
        grid = [complex(re, im) for re in (-1.0, 0.0, 1.0) for im in (-1.0, 0.0, 1.0)]
        assert (implemented_continuation_check(f, grid, x) <= 1e-8 * max(1.0, x.norm())).all()

    def test_three_lines_bound_for_implemented_flow(self):
        r = rng(7)
        shape = BlockShape([2])
        s = random_positive_operator(r, shape, 1, cond=30.0)
        t = random_positive_operator(r, shape, 1, cond=30.0)
        x = random_operator(r, shape, 1, norm=1.0)
        z = 1j

        def alpha(w: complex) -> float:
            return (op_power(s, 1j * w) @ x @ op_power(t, -1j * w)).norm()

        bound = max(x.norm(), alpha(z))
        for u in np.linspace(0.0, 1.0, 5):
            for v in np.linspace(0.0, 1.0, 5):
                y = complex(-2.0 + 4.0 * u, v * z.imag)
                assert alpha(y) <= bound + 1e-9 * bound


class TestSemiMultiplicativity:
    def test_left_companion_implemented_by_s(self):
        r = rng(8)
        shape = BlockShape([2])
        s = random_positive_operator(r, shape, 2, cond=40.0)
        t = random_positive_operator(r, shape, 2, cond=40.0)
        f = ImplementedFlow(s, t, full_basis(shape, 2))
        x, y = random_operator(r, shape, 2), random_operator(r, shape, 2)
        tt = 0.7
        ad_s = op_power(s, 1j * tt) @ x @ op_power(s, -1j * tt)
        lhs = ad_s @ implemented_evaluate(f, tt, y)
        rhs = implemented_evaluate(f, tt, x @ y)
        scale = max(1.0, rhs.norm())
        assert (lhs - rhs).norm() <= 1e-9 * scale

    def test_extension_formula_on_span_unit(self):
        r = rng(9)
        shape = BlockShape([2])
        s = random_positive_operator(r, shape, 1, cond=40.0)
        t = random_positive_operator(r, shape, 1, cond=40.0)
        basis = full_basis(shape, 1)
        f = ImplementedFlow(s, t, basis)
        unit = basis.unit()
        tt = 0.9
        lhs = implemented_evaluate(f, tt, unit)
        rhs = op_power(s, 1j * tt) @ unit @ op_power(t, -1j * tt)
        assert (lhs - rhs).norm() <= 1e-11


class TestLocalizedMiddle:
    def test_identity_pair_reduces_to_induce_homomorphism(self):
        r = rng(10)
        shape = BlockShape([2])
        omega = random_state(r, shape)
        loc = localize(omega, 2)
        one = identity_operator(shape, 2)
        x = random_operator(r, shape, 2)
        assert localized_middle_check(loc, one, x, one) <= 1e-9 * max(1.0, x.norm())

    def test_faithful_state_random_data(self):
        r = rng(11)
        shape = BlockShape([2])
        omega = random_state(r, shape)
        loc = localize(omega, 2)
        s = random_positive_operator(r, shape, 2, cond=100.0)
        t = random_positive_operator(r, shape, 2, cond=100.0)
        x = random_operator(r, shape, 2)
        scale = max(1.0, s.norm() * x.norm() * t.norm())
        assert localized_middle_check(loc, s, x, t) <= 1e-9 * scale

    def test_check_sees_a_map_that_does_not_intertwine(self, monkeypatch, swapped_induce):
        # kron(I, F_b) is a *-homomorphism too, but it does not satisfy
        # S_w L(v) = L(S v); a check made through L has to notice
        r = rng(13)
        shape = BlockShape([2, 3])
        loc = localize(random_state(r, shape), 2)
        s = random_positive_operator(r, shape, 2, cond=100.0)
        t = random_positive_operator(r, shape, 2, cond=100.0)
        x = random_operator(r, shape, 2)
        scale = max(1.0, s.norm() * x.norm() * t.norm())
        assert localized_middle_check(loc, s, x, t) <= 1e-9 * scale

        monkeypatch.setattr(implemented_mod, "induce", swapped_induce)
        assert localized_middle_check(loc, s, x, t) > 1e-3 * scale

    def test_converse_direction_forces_global_identity(self):
        # agreement of the localized middle products over a faithful
        # family pins the global middle product
        r = rng(12)
        shape = BlockShape([2])
        s = random_positive_operator(r, shape, 1, cond=50.0)
        t = random_positive_operator(r, shape, 1, cond=50.0)
        x = random_operator(r, shape, 1)
        y = s @ x @ t
        states = [random_state(r, shape), random_state(r, shape)]
        assert separating_check(s @ x @ t, y, states)
        bumped = y + 1e-3 * identity_operator(shape, 1)
        assert not separating_check(s @ x @ t, bumped, states)
