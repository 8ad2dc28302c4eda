"""Generator recovery, localization, induced operators, separation."""

import importlib

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import cstarflow.implemented as implemented_mod
from cstarflow import (
    AlgebraElement,
    BlockShape,
    BranchAmbiguityError,
    FamilyNotFaithfulError,
    IllDefinedError,
    Localization,
    ModuleOperator,
    NotAGroupError,
    NotStrictlyPositiveError,
    PositiveFunctional,
    SampledUnitaryGroup,
    ZeroFunctionalError,
    hermitian_matrix_power,
    identity_operator,
    induce,
    induced_power_check,
    inner,
    localize,
    matrix_unit_operators,
    op_exp,
    op_log,
    op_power,
    recover_generator,
    recovery_report,
    separating_check,
    stone,
    vector_smear,
)
from cstarflow.stone import GNS_TOL
from cstarflow.hilbmod import operator_matrix
from cstarflow.implemented import localized_middle_check, middle_multiplier
from cstarflow.sampling import (
    random_operator,
    random_positive_operator,
    random_state,
    random_vector,
    rng,
)

from conftest import exact_intertwining_residual, induced_dense, vector_from_coordinates

stone_mod = importlib.import_module("cstarflow.stone")  # not the function ``stone``


def diag_module_operator(*vals: float) -> ModuleOperator:
    return ModuleOperator.from_entries([[AlgebraElement.from_blocks([np.diag(vals).astype(complex)])]])


class TestRecoverGenerator:
    def test_each_time_is_sampled_once(self):
        # the probe forms u at 0, +-t0, +-2 t0 and +-10 t0, and reuses u(t0) and
        # u(2 t0) for the group law; recovery keeps each sample next to its logarithm
        t_op = random_positive_operator(rng(22), BlockShape([2, 1]), 2, cond=10.0)
        exact = SampledUnitaryGroup.from_positive(t_op)
        times = []

        def counted(t):
            times.append(t)
            return exact(t)

        u = SampledUnitaryGroup(counted)
        u.probe(0.5)
        assert sorted(times) == sorted([0.0, 0.5, -0.5, 1.0, -1.0, 5.0, -5.0])
        times.clear()
        _, t_used, halvings = stone_mod._recover_with_trace(u, 0.5)
        assert (t_used, halvings) == (0.5, 0)
        assert len(times) == 7 + 3 and len(set(times[7:])) == 3

    def test_trivial_group(self):
        shape = BlockShape([2, 2])
        one = identity_operator(shape, 2)
        u = SampledUnitaryGroup(lambda t: one)
        k = recover_generator(u, 1.0)
        assert k.norm() <= 1e-12

    def test_diagonal_entrywise_log_oracle(self):
        t_op = diag_module_operator(np.e, 1.0)
        u = SampledUnitaryGroup.from_positive(t_op)
        k = recover_generator(u, 1.0)
        np.testing.assert_allclose(k.entries[0][0].blocks[0], np.diag([1.0, 0.0]), atol=1e-12)
        t_rec = stone(u)
        np.testing.assert_allclose(
            t_rec.entries[0][0].blocks[0], np.diag([np.e, 1.0]), atol=1e-10
        )

    def test_branch_wrap_needs_halving(self):
        # phase-wrap oracle: an eigenphase of 4 > pi wraps at t0 = 1; at
        # t0 = 1/2 every phase is inside the principal branch
        t_op = op_exp(diag_module_operator(4.0, 0.0))
        u = SampledUnitaryGroup.from_positive(t_op)
        report = recovery_report(u, 1.0)
        assert report["halvings"] >= 1
        assert report["t0_used"] <= 0.5
        assert max(err for _, err in report["residual_grid"]) <= 1e-8
        np.testing.assert_allclose(report["T_spectrum"], [1.0, np.exp(4.0)], rtol=1e-10)

    def test_wrap_free_phases_accept_immediately(self):
        # an eigenphase of 3 < pi never wraps, so no halving is spent
        t_op = op_exp(diag_module_operator(3.0, 0.0))
        report = recovery_report(SampledUnitaryGroup.from_positive(t_op), 1.0)
        assert report["halvings"] == 0
        assert report["t0_used"] == 1.0

    def test_branch_ambiguity_when_phases_never_settle(self):
        # both eigenphases stay wrapped inconsistently through all 8 halvings
        def u_t(t: float) -> ModuleOperator:
            return ModuleOperator.from_entries(
                [[AlgebraElement.from_blocks(
                    [np.diag([np.exp(1000j * t), np.exp(1339j * t)])]
                )]]
            )

        with pytest.raises(BranchAmbiguityError):
            recover_generator(SampledUnitaryGroup(u_t), 1.0)

    def test_aliased_generator_is_refused(self):
        # u(1) has phases +-11, whose principal logarithm is +-(11 - 4 pi); halving
        # agrees, and so does every multiple of 1/2, but u(0.3) does not
        u = SampledUnitaryGroup.from_positive(op_exp(diag_module_operator(11.0, -11.0)))
        for recover in (lambda: recover_generator(u, 1.0), lambda: stone(u)):
            with pytest.raises(BranchAmbiguityError, match=r"accepted at t=1\.0 misses u\(0\.3\) by 1\.902e\+00"):
                recover()
        # from t0 = 1/2 the halving check sees the wrap, and the true generator is kept
        k = recover_generator(u, 0.5)
        np.testing.assert_allclose(k.entries[0][0].blocks[0], np.diag([11.0, -11.0]), atol=1e-9)

    def test_finite_difference_oracle(self):
        # independent route: K ~ (u(h) - u(-h)) / (2ih) with O(h^2) bias
        r = rng(15)
        t_op = random_positive_operator(r, BlockShape([2]), 2, cond=20.0)
        u = SampledUnitaryGroup.from_positive(t_op)
        k_rec = recover_generator(u, 1.0)
        h = 1e-4
        fd = (1.0 / (2j * h)) * (u(h) - u(-h))
        fd_herm = 0.5 * (fd + fd.star())
        assert (fd_herm - k_rec).norm() <= 1e-6 * max(1.0, k_rec.norm())

    def test_non_group_rejected(self):
        shape = BlockShape([2])
        t_op = random_positive_operator(rng(0), shape, 1, cond=10.0)
        k = op_log(t_op)
        u = SampledUnitaryGroup(lambda t: op_exp((1j * t * t) * k * (-1j)))
        # u(t) = exp(i t^2 K): unitary, u(0) = 1, but not additive
        with pytest.raises(NotAGroupError):
            recover_generator(u, 1.0)


class TestStone:
    def test_trivial_group_recovers_identity(self):
        shape = BlockShape([2, 2])
        one = identity_operator(shape, 2)
        t_rec = stone(SampledUnitaryGroup(lambda t: one))
        assert (t_rec - one).norm() <= 1e-12

    def test_round_trip_random(self):
        r = rng(1)
        for shape, k in ((BlockShape([2]), 2), (BlockShape([2, 3]), 1)):
            for _ in range(5):
                t_op = random_positive_operator(r, shape, k, cond=1e3)
                t_rec = stone(SampledUnitaryGroup.from_positive(t_op))
                assert (t_rec - t_op).norm() <= 1e-8 * t_op.norm()

    def test_continuation_grid(self):
        r = rng(2)
        t_op = random_positive_operator(r, BlockShape([2]), 2, cond=1e3)
        t_rec = stone(SampledUnitaryGroup.from_positive(t_op))
        log_norm = op_log(t_op).norm()
        for re in (-2.0, 0.0, 2.0):
            for im in (-1.0, 0.5, 1.0):
                z = complex(re, im)
                err = (op_power(t_rec, 1j * z) - op_power(t_op, 1j * z)).norm()
                assert err <= 1e-8 * np.exp(abs(im) * log_norm)

    def test_evaluation_at_minus_i_returns_t(self):
        t_op = diag_module_operator(np.e, 1.0)
        u = SampledUnitaryGroup.from_positive(t_op)
        # continuation of the group at z = -i is the operator itself
        u_minus_i = op_power(stone(u), 1j * (-1j))
        assert (u_minus_i - t_op).norm() <= 1e-10


class TestLocalize:
    def test_faithful_state_keeps_full_dimension(self):
        shape = BlockShape([2, 3])
        omega = random_state(rng(3), shape)
        loc = localize(omega, 2)
        assert loc.d == 2 * shape.dim

    def test_rank_one_density_gram_rank_oracle(self):
        shape = BlockShape([3])
        rho = np.zeros((3, 3), dtype=complex)
        rho[0, 0] = 1.0
        omega = PositiveFunctional(AlgebraElement.from_blocks([rho]))
        for k in (1, 2):
            loc = localize(omega, k)
            # oracle: Gram = (x) copies of rho^T, one per slot and matrix row
            assert loc.d == 3 * k

    def test_block_supported_density_kills_other_blocks(self):
        shape = BlockShape([2, 2])
        rho = AlgebraElement.from_blocks([np.eye(2), np.zeros((2, 2))])
        omega = PositiveFunctional(0.5 * rho)
        loc = localize(omega, 1)
        from cstarflow import ModuleVector

        dead = ModuleVector.from_entries(
            [AlgebraElement.from_blocks([np.zeros((2, 2)), np.eye(2)])]
        )
        assert np.linalg.norm(loc.apply(dead)) <= 1e-12

    def test_gram_identity(self):
        r = rng(4)
        shape = BlockShape([2, 2])
        omega = random_state(r, shape)
        loc = localize(omega, 2)
        for _ in range(20):
            v, w = random_vector(r, shape, 2), random_vector(r, shape, 2)
            lhs = complex(np.vdot(loc.apply(w), loc.apply(v)))
            rhs = omega.value(inner(v, w))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_zero_functional_rejected(self):
        shape = BlockShape([2])
        from cstarflow import zeros as alg_zeros

        omega = PositiveFunctional(alg_zeros(shape))
        with pytest.raises(ZeroFunctionalError):
            localize(omega, 1)


class TestInduce:
    def test_identity_localizes_to_identity(self):
        shape = BlockShape([2])
        omega = random_state(rng(5), shape)
        loc = localize(omega, 2)
        one_om = induced_dense(induce(loc, identity_operator(shape, 2)))
        np.testing.assert_allclose(one_om, np.eye(loc.d), atol=1e-12)

    def test_power_compatibility(self):
        r = rng(6)
        shape = BlockShape([2])
        omega = random_state(r, shape)
        loc = localize(omega, 2)
        s = random_positive_operator(r, shape, 2, cond=100.0)
        s_om = induced_dense(induce(loc, s))
        zs = (0.5, 1j, 1 + 1j)
        for z, rhs in zip(zs, hermitian_matrix_power(s_om, zs)):
            lhs = induced_dense(induce(loc, op_power(s, z)))
            assert np.linalg.norm(lhs - rhs, 2) <= 1e-8 * max(1.0, np.linalg.norm(rhs, 2))

    def test_star_homomorphism(self):
        r = rng(7)
        shape = BlockShape([2, 2])
        omega = random_state(r, shape)
        loc = localize(omega, 1)
        s, t = random_operator(r, shape, 1), random_operator(r, shape, 1)
        prod = induced_dense(induce(loc, s @ t))
        assert np.linalg.norm(prod - induced_dense(induce(loc, s) @ induce(loc, t)), 2) <= 1e-9 * max(
            1.0, np.linalg.norm(prod, 2)
        )
        s_om = induced_dense(induce(loc, s))
        assert np.linalg.norm(induced_dense(induce(loc, s.star())) - s_om.conj().T, 2) <= 1e-10 * max(
            1.0, s.norm()
        )

    def test_faithful_induction_injective(self):
        # faithful-GNS oracle: the induction map has no kernel
        shape = BlockShape([2])
        omega = random_state(rng(8), shape)
        loc = localize(omega, 1)
        columns = []
        for unit in matrix_unit_operators(shape, 1):
            columns.append(induced_dense(induce(loc, unit)).ravel())
        mat = np.stack(columns, axis=1)
        smallest = np.linalg.svd(mat, compute_uv=False)[-1]
        assert smallest > 1e-6

    def test_cut_block_of_heavy_functional_still_induces(self):
        # the cutoff is relative to the largest eigenvalue over all blocks, so
        # the light block of a heavy functional is cut whole; the guard allows it
        shape = BlockShape([2, 2])
        rho = AlgebraElement.from_blocks([np.diag([1e3, 1.0]), np.diag([5e-8, 0.0])])
        loc = localize(PositiveFunctional(rho), 1)
        assert loc.ranks == (2, 0) and loc.d == 4
        s = random_operator(rng(16), shape, 1)
        np.testing.assert_array_equal(induced_dense(induce(loc, s)), np.kron(s.flat.blocks[0], np.eye(2)))

    def test_broken_localization_rejected(self):
        shape = BlockShape([2])
        r = rng(9)
        omega = random_state(r, shape)
        loc = localize(omega, 1)
        # drop one kept column of the factor: C C* then misses rho by an
        # eigenvalue the cutoff keeps, so L no longer carries the Gram form
        with pytest.raises(IllDefinedError, match="localization factor of block 0 misses its density"):
            Localization(omega, 1, (loc.factors[0][:, :-1],), loc.cutoff)


class TestInducedPowerCheck:
    def test_factor_power_matches_the_dense_power(self):
        # the full d x d oracle at small d: hermitian_matrix_power of the dense T_w
        r = rng(17)
        shape = BlockShape([2, 3])
        loc = localize(random_state(r, shape), 2)
        t = random_positive_operator(r, shape, 2, cond=100.0)
        zs = (0.5, 1j, 1 + 1j)
        dense_powers = hermitian_matrix_power(kron_reference(loc, t), zs)
        resids = induced_power_check(loc, t, zs)
        for z, dense, resid in zip(zs, dense_powers, resids):
            scale = max(1.0, np.linalg.norm(dense, 2))
            assert np.linalg.norm(induced_dense(induce(loc, t).power(z)) - dense, 2) <= 1e-12 * scale
            assert resid <= 1e-12 * scale

    def test_rank_deficient_state_and_unseen_block(self):
        r = rng(18)
        shape = BlockShape([3, 2])
        loc = localize(oracle_state(r, [3, 2], 1, 1), 2)
        assert loc.ranks == (1, 0)
        t = random_positive_operator(r, shape, 2, cond=1e3)
        assert (induced_power_check(loc, t, (0.5, 1j, 1 + 1j)) <= 1e-12 * t.norm()).all()

    def test_check_sees_a_map_that_does_not_intertwine(self, monkeypatch, swapped_induce):
        # I (x) F_b is a *-homomorphism too, and its powers are the I (x) F_b**z,
        # but it does not satisfy S_w L(v) = L(S v); a check made through L has
        # to notice
        r = rng(19)
        shape = BlockShape([2, 3])
        loc = localize(random_state(r, shape), 2)
        t = random_positive_operator(r, shape, 2, cond=100.0)
        scale = max(1.0, t.norm())
        zs = (0.5, 1j, 1 + 1j)
        assert (induced_power_check(loc, t, zs) <= 1e-12 * scale).all()

        monkeypatch.setattr(stone_mod, "induce", swapped_induce)
        assert (induced_power_check(loc, t, zs) > 1e-3 * scale).all()


    def test_oracle_sees_a_faulty_numpy_eigh(self, monkeypatch):
        # the module side goes through numpy's eigh; the oracle must not, or a
        # fault there cancels between the two sides and the check reads 0.0
        r = rng(3)
        shape = BlockShape([2, 3])
        loc = localize(random_state(r, shape), 2)
        t = random_positive_operator(r, shape, 2, cond=100.0)
        eigh = np.linalg.eigh

        def faulty(a):
            lam, u = eigh(a)
            return 1.001 * lam, u

        monkeypatch.setattr(np.linalg, "eigh", faulty)
        assert induced_power_check(loc, t, [0.5])[0] > 1e-4 * t.norm()

    @pytest.mark.parametrize("eigs", [(2.0, -1.0), (1.0, -1.0), (1.0, 1.0, -1.0), (1.0, 1e-13), (0.0, 0.0)])
    def test_oracle_refuses_what_is_not_positive_definite(self, eigs):
        # the SVD gives |m|; rotated, the pair +-1 and diag(1, 1, -1) can have
        # all Rayleigh quotients positive, but not all equal to their singular values
        r, n = rng(4), len(eigs)
        q, _ = np.linalg.qr(r.normal(size=(n, n)) + 1j * r.normal(size=(n, n)))
        m = (q * np.array(eigs)) @ q.conj().T
        with pytest.raises(ValueError, match="positive definite"):
            hermitian_matrix_power(m, [0.5])

    def test_grid_matches_pointwise_and_decomposes_each_factor_once(self, monkeypatch):
        r = rng(21)
        shape = BlockShape([2, 3])
        loc = localize(oracle_state(r, [2, 3], 2, 1), 2)
        assert loc.ranks == (2, 0)
        t = random_positive_operator(r, shape, 2, cond=100.0)
        zs = (0.5, 1j, 1 + 1j, -0.25 - 0.5j)
        pointwise = [induced_power_check(loc, t, [z])[0] for z in zs]
        sizes = []
        power = stone_mod.hermitian_matrix_power

        def spy(m, z):
            sizes.append(m.shape)
            return power(m, z)

        monkeypatch.setattr(stone_mod, "hermitian_matrix_power", spy)
        grid = induced_power_check(loc, t, zs)
        assert grid.shape == (4,) and grid.tolist() == pointwise
        # one decomposition of the one seen factor, of size k n_b = 4, for the whole grid
        assert sizes == [(4, 4)]

    @pytest.mark.parametrize("dead_block", [None, 1])
    def test_power_of_a_grid_is_each_member_power(self, dead_block):
        r = rng(23)
        shape = BlockShape([2, 3])
        loc = localize(oracle_state(r, [2, 3], None, dead_block), 2)
        assert loc.ranks == ((2, 0) if dead_block else (2, 3))
        t_om = induce(loc, random_positive_operator(r, shape, 2, cond=100.0))
        zs = np.array([[0.5, 1j, -0.25 - 0.5j], [1 + 1j, 0.0, 2.0]])
        grid = t_om.power(zs)
        for i in np.ndindex(zs.shape):
            for f, one, rank in zip(grid.factors, t_om.power(zs[i]).factors, loc.ranks):
                np.testing.assert_array_equal(f[i] if rank else f, one)
        # a block no state sees keeps its factor as it is
        assert all(f is g for f, g, rank in zip(grid.factors, t_om.factors, loc.ranks) if not rank)
        assert grid.norm().shape == zs.shape
        assert grid.norm()[1, 0] == t_om.power(zs[1, 0]).norm()

    def test_grid_of_any_shape_is_one_batch(self, monkeypatch):
        r = rng(24)
        shape = BlockShape([2, 3])
        loc = localize(oracle_state(r, [2, 3], 1, 0), 2)
        t = random_positive_operator(r, shape, 2, cond=100.0)
        zs = np.array([0.5, 1j, 1 + 1j, -0.25 - 0.5j, 2.0, -1j])
        calls = []
        power = stone_mod.op_power

        def spy(op, z):
            calls.append(np.shape(z))
            return power(op, z)

        monkeypatch.setattr(stone_mod, "op_power", spy)
        flat = induced_power_check(loc, t, zs)
        square = induced_power_check(loc, t, zs.reshape(2, 3))
        one = induced_power_check(loc, t, zs[2])
        # one module power per check, whatever the grid's size or shape
        assert calls == [(6,), (2, 3), ()]
        assert square.shape == (2, 3) and square.tolist() == flat.reshape(2, 3).tolist()
        assert isinstance(one, float) and one == flat[2]

    def test_a_batch_against_one_operator_keeps_the_probe_axis_apart(self):
        # as many members as probes: a batch axis taken for the probe axis would still broadcast
        r = rng(25)
        shape = BlockShape([2, 3])
        loc = localize(random_state(r, shape), 2)
        t = random_positive_operator(r, shape, 2, cond=100.0)
        zs = np.linspace(0.1, 1.0, stone_mod.PROBES)
        half = op_power(t, 0.5)
        batch = stone_mod.intertwining_residual(loc, induce(loc, t).power(zs), half)
        assert batch.tolist() == [stone_mod.intertwining_residual(loc, induce(loc, t).power(z), half) for z in zs]
        assert batch[4] <= 1e-12 * t.norm() < 1e-3 < batch[0]

    def test_same_inputs_give_the_same_float(self):
        # the probes come from a stream of their own, drawn afresh on each call
        r = rng(20)
        shape = BlockShape([2, 3])
        loc = localize(random_state(r, shape), 2)
        t = random_positive_operator(r, shape, 2, cond=100.0)
        first = induced_power_check(loc, t, [1 + 1j])
        assert first.shape == (1,)
        assert induced_power_check(loc, t, [1 + 1j]).tolist() == first.tolist()


class TestSeparatingCheck:
    def test_equal_operators(self):
        shape = BlockShape([2])
        r = rng(10)
        s = random_operator(r, shape, 2)
        assert separating_check(s, s, [random_state(r, shape)])

    def test_detects_small_perturbation(self):
        shape = BlockShape([2])
        r = rng(11)
        s = random_operator(r, shape, 2)
        bumped = s + 1e-3 * identity_operator(shape, 2)
        assert not separating_check(s, bumped, [random_state(r, shape)])

    def test_non_faithful_family_flagged(self):
        shape = BlockShape([2, 2])
        rho = AlgebraElement.from_blocks([np.eye(2) / 2.0, np.zeros((2, 2))])
        half_seeing = PositiveFunctional(rho)
        r = rng(12)
        s = random_operator(r, shape, 1)
        with pytest.raises(FamilyNotFaithfulError):
            separating_check(s, s, [half_seeing])


class TestSmearedCoreTransport:
    def test_induced_group_matches_induced_generator_powers(self):
        r = rng(13)
        shape = BlockShape([2])
        k = 2
        t_op = random_positive_operator(r, shape, k, cond=50.0)
        omega = random_state(r, shape)
        loc = localize(omega, k)
        t_om = induced_dense(induce(loc, t_op))
        a = random_vector(r, shape, k)
        zs = np.array([0.5j, 1.0 - 0.5j])
        for z, t_om_z in zip(zs, hermitian_matrix_power(t_om, 1j * zs)):
            smeared = vector_smear(t_op, a, 2.0, 0.0)
            lhs = induce(loc, op_power(t_op, 1j * z)).apply(loc.apply(smeared))
            rhs = t_om_z @ loc.apply(smeared)
            scale = max(1.0, float(np.linalg.norm(rhs)))
            assert np.linalg.norm(lhs - rhs) <= 1e-8 * scale

    def test_vector_smear_limits(self):
        r = rng(14)
        shape = BlockShape([2])
        t_op = random_positive_operator(r, shape, 2, cond=20.0)
        v = random_vector(r, shape, 2)
        errs = [
            (vector_smear(t_op, v, rr, 0.0) - v).norm() for rr in (8.0, 16.0, 32.0)
        ]
        assert 0.2 <= errs[1] / errs[0] <= 0.3
        assert 0.2 <= errs[2] / errs[1] <= 0.3

    def test_vector_smear_refuses_what_op_power_refuses(self):
        # 1e-12 > 0, but below the 1e-10 * norm floor that op_power applies
        t_op = diag_module_operator(1.0, 1e-12)
        v = random_vector(rng(15), BlockShape([2]), 1)
        with pytest.raises(NotStrictlyPositiveError):
            op_power(t_op, 1j)
        with pytest.raises(ValueError, match="strictly positive"):
            vector_smear(t_op, v, 1.0)


# Dense Gram-form localization, kept as the oracle of the block form: the
# d x d Gram matrix of omega(<v, w>) in ``vector_coordinates`` is
# eigendecomposed whole, and S induces ``lam @ operator_matrix(S) @ lam_pinv``.
def dense_gram(omega: PositiveFunctional, shape: BlockShape, k: int) -> np.ndarray:
    cells = [np.kron(np.eye(n), rb.T) for _ in range(k) for n, rb in zip(shape, omega.rho.blocks)]
    return scipy.linalg.block_diag(*cells)


def dense_localize(omega: PositiveFunctional, shape: BlockShape, k: int):
    w, v = np.linalg.eigh(dense_gram(omega, shape, k))
    keep = w > GNS_TOL * np.max(w)
    lam = np.sqrt(w[keep])[:, None] * v[:, keep].conj().T
    lam_pinv = v[:, keep] / np.sqrt(w[keep])[None, :]
    return lam, lam_pinv


def kron_reference(loc: Localization, s: ModuleOperator) -> np.ndarray:
    """The induced operator as the dense (+)_b kron(F_b, I_{r_b})."""
    return scipy.linalg.block_diag(
        *(np.kron(f, np.eye(rk)) for f, rk in zip(s.flat.blocks, loc.ranks) if rk)
    )


def block_map_matrix(loc: Localization) -> np.ndarray:
    """Matrix of ``loc.apply`` in the ``vector_coordinates`` basis."""
    dim = loc.k * loc.shape.dim
    return np.stack(
        [loc.apply(vector_from_coordinates(loc.shape, loc.k, e)) for e in np.eye(dim)], axis=1
    )


def oracle_state(r, dims, rank, dead_block):
    """Random state of the given rank, with block ``dead_block`` unseen."""
    blocks = list(random_state(r, BlockShape(dims), rank).rho.blocks)
    if dead_block is not None:
        blocks[dead_block] = np.zeros_like(blocks[dead_block])
    return PositiveFunctional(AlgebraElement.from_blocks(blocks))


class TestDenseOracle:
    @pytest.mark.parametrize(
        "dims, k, rank, dead_block",
        [
            ([3, 2], 2, None, None),
            ([4], 1, None, None),
            ([2, 2, 3], 3, None, None),
            ([2, 2, 3], 3, 1, None),
            ([3, 2], 2, None, 1),
        ],
        ids=["faithful_32_k2", "faithful_4_k1", "faithful_223_k3", "rank_one_223_k3",
             "dead_block_32_k2"],
    )
    def test_block_form_matches_dense_up_to_unitary(self, dims, k, rank, dead_block):
        r = rng(200 + len(dims) + k)
        shape = BlockShape(dims)
        omega = oracle_state(r, dims, rank, dead_block)
        loc = localize(omega, k)
        lam, lam_pinv = dense_localize(omega, shape, k)
        assert loc.d == lam.shape[0]
        l_block = block_map_matrix(loc)
        w = l_block @ lam_pinv
        assert np.linalg.norm(w.conj().T @ w - np.eye(loc.d), 2) <= 1e-12
        assert np.linalg.norm(l_block - w @ lam, 2) <= 1e-12
        for s in (random_operator(r, shape, k), random_positive_operator(r, shape, k, cond=100.0)):
            s_dense = lam @ operator_matrix(s) @ lam_pinv
            gap = np.linalg.norm(w @ s_dense @ w.conj().T - induced_dense(induce(loc, s)), 2)
            assert gap <= 1e-12 * max(1.0, s.norm())

    def test_block_map_carries_the_gram_matrix(self):
        r = rng(210)
        shape = BlockShape([3, 2])
        omega = oracle_state(r, [3, 2], 2, None)
        l_block = block_map_matrix(localize(omega, 2))
        # omega(<v, w>) = w* G v in coordinates, and <L v, L w> = w* L* L v
        gram = dense_gram(omega, shape, 2)
        assert np.linalg.norm(l_block.conj().T @ l_block - gram, 2) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([(1,), (2,), (3,), (2, 1), (1, 2), (3, 2)]),
    st.integers(1, 3),
    st.sampled_from([None, 1, 2]),
)
def test_localize_gram_identity_and_rank_hypothesis(seed, dims, k, rank):
    r = rng(seed)
    shape = BlockShape(dims)
    omega = random_state(r, shape, rank)
    loc = localize(omega, k)
    kept = tuple(n if rank is None else min(rank, n) for n in dims)
    assert loc.ranks == kept
    assert loc.d == k * sum(n * m for n, m in zip(dims, kept))
    v, w = random_vector(r, shape, k), random_vector(r, shape, k)
    lhs = complex(np.vdot(loc.apply(w), loc.apply(v)))
    rhs = omega.value(inner(v, w))
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, v.norm() * w.norm())


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([(1,), (2,), (3,), (2, 1), (1, 2), (3, 2)]),
    st.integers(1, 3),
    st.sampled_from([None, 1, 2]),
    st.booleans(),
)
def test_induced_operator_matches_kron_reference_hypothesis(seed, dims, k, rank, dead):
    r = rng(seed)
    shape = BlockShape(dims)
    dead_block = 0 if dead and len(dims) > 1 else None
    loc = localize(oracle_state(r, list(dims), rank, dead_block), k)
    s, t = random_operator(r, shape, k), random_operator(r, shape, k)
    s_om, t_om = induce(loc, s), induce(loc, t)
    ref_s, ref_t = kron_reference(loc, s), kron_reference(loc, t)
    np.testing.assert_array_equal(induced_dense(s_om), ref_s)
    norm_s, norm_t = np.linalg.norm(ref_s, 2), np.linalg.norm(ref_t, 2)
    prod = induced_dense(s_om @ t_om)
    assert np.linalg.norm(prod - ref_s @ ref_t, 2) <= 1e-12 * max(1.0, norm_s * norm_t)
    ys = r.normal(size=(3, loc.d)) + 1j * r.normal(size=(3, loc.d))
    for y in (ys[0], ys):  # one vector, and a stack of vectors along the first axis
        gap = np.linalg.norm(s_om.apply(y) - y @ ref_s.T)
        assert gap <= 1e-12 * max(1.0, norm_s * np.linalg.norm(y))
    assert abs(s_om.norm() - norm_s) <= 1e-12 * max(1.0, norm_s)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([(1,), (2,), (3,), (2, 1), (1, 2), (3, 2)]),
    st.integers(1, 3),
    st.floats(1.0, 1e3),
    st.floats(0.25, 2.0),
)
def test_stone_round_trip_hypothesis(seed, dims, k, cond, t0):
    # cond up to 1e3, as the stone experiment draws T; recovery_error bound
    t_op = random_positive_operator(rng(seed), BlockShape(dims), k, cond=cond)
    t_rec = stone(SampledUnitaryGroup.from_positive(t_op), t0)
    assert (t_rec - t_op).norm() <= 1e-8 * t_op.norm()


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([(1,), (2,), (3,), (2, 1), (1, 2), (3, 2)]),
    st.sampled_from([1, 2]),
    st.sampled_from([None, 1]),
    st.booleans(),
)
def test_intertwining_estimate_bounds_the_exact_residual_hypothesis(seed, dims, k, rank, dead):
    # the probe bound holds for one linear map R; at rounding level the two
    # sides are not one, so the module side is moved by an operator E and
    # R is v -> -L(E v), up to rounding
    r = rng(seed)
    shape = BlockShape(dims)
    dead_block = 0 if dead and len(dims) > 1 else None
    loc = localize(oracle_state(r, list(dims), rank, dead_block), k)
    s, t = (random_positive_operator(r, shape, k, cond=100.0) for _ in range(2))
    x, e = random_operator(r, shape, k), random_operator(r, shape, k, 1e-3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stone_mod, "op_power", lambda op, z: op_power(op, z) + e)
        zs = (0.5, 1j, 1 + 1j)
        for z, resid in zip(zs, induced_power_check(loc, t, zs)):
            exact = exact_intertwining_residual(loc, induce(loc, t).power(z), op_power(t, z) + e)
            assert resid >= exact > 0.0
        mp.setattr(implemented_mod, "middle_multiplier", lambda s, x, t: middle_multiplier(s, x, t) + e)
        lhs = induce(loc, s) @ (induce(loc, x) @ induce(loc, t))
        exact = exact_intertwining_residual(loc, lhs, middle_multiplier(s, x, t) + e)
        assert localized_middle_check(loc, s, x, t) >= exact > 0.0


# the phases of the property below: a window s [-pi/2, pi - 1e-9] of one side s, since
# the logarithm of a pair straddling -1 at distance d moves by 2 pi / d times its input
EDGE = np.pi - 1e-9
PHASE_KINDS = {
    "spread": lambda r, n: r.uniform(-np.pi / 2, EDGE, n),
    "clustered": lambda r, n: np.clip(r.choice(r.uniform(-np.pi / 2, EDGE, 2), n) + 1e-6 * r.uniform(-1, 1, n),
                                      -np.pi / 2, EDGE),
    "repeated": lambda r, n: r.choice(r.uniform(-np.pi / 2, EDGE, 3), n),
    "near_zero": lambda r, n: 1e-9 * r.uniform(-1, 1, n),
    "mirrored": lambda r, n: r.choice([-np.pi / 2, np.pi / 2], n),
    "edge": lambda r, n: np.where(r.random(n) < 0.5, EDGE, r.uniform(-np.pi / 2, EDGE, n)),
}


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 64),
    st.sampled_from(sorted(PHASE_KINDS)),
    st.sampled_from([-1.0, 1.0]),
)
def test_principal_log_phases_inverts_exp_hypothesis(seed, n, kind, side):
    # for Hermitian K with spectrum in (-pi, pi), the principal logarithm of exp(iK) is iK
    r = rng(seed)
    phases = side * PHASE_KINDS[kind](r, n)
    q, _ = np.linalg.qr(r.normal(size=(n, n)) + 1j * r.normal(size=(n, n)))
    k = (q * phases) @ q.conj().T
    u = (q * np.exp(1j * phases)) @ q.conj().T
    got = stone_mod._principal_log_phases(ModuleOperator(AlgebraElement.from_blocks([u]), 1))
    assert np.linalg.norm(got.flat.blocks[0] - k, 2) <= 16 * np.finfo(float).eps * n
