"""Hilbert modules: inner products, adjointable operators, subalgebras."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cstarflow.algebra as algebra
import cstarflow.hilbmod as hilbmod
from cstarflow import (
    AlgebraElement,
    BlockCarrier,
    BlockShape,
    ImplementedFlow,
    InvarianceViolationError,
    ModuleOperator,
    ModuleVector,
    NotStrictlyPositiveError,
    ShapeMismatchError,
    SubalgebraBasis,
    affiliation_test,
    identity,
    identity_operator,
    induce,
    inner,
    localize,
    op_exp,
    op_log,
    op_power,
    strictly_positive,
)
from cstarflow.hilbmod import (
    AFFILIATION_TOL,
    SPAN_TOL,
    _unvec_flats,
    operator_vec,
)
from cstarflow.sampling import (
    random_element,
    random_operator,
    random_positive_operator,
    random_state,
    random_unitary,
    random_vector,
    rng,
)

from conftest import (
    basis_operators,
    carrier_units,
    counting_svd,
    induced_dense,
    matrix_unit_operators,
    operator_entries,
    operator_from_entries,
    unitary_defect,
    vector_coordinates,
    vector_entries,
    vector_from_coordinates,
    vector_from_entries,
    vector_times,
    zeros,
)

EPS = np.finfo(float).eps


def unit_first_slot(shape: BlockShape, k: int) -> ModuleVector:
    entries = [identity(shape)] + [zeros(shape) for _ in range(k - 1)]
    return vector_from_entries(entries)


class TestInner:
    def test_unit_vector(self):
        shape = BlockShape([2, 2])
        v = unit_first_slot(shape, 3)
        assert (inner(v, v) - identity(shape)).norm() == 0.0

    def test_right_linearity(self):
        r = rng(0)
        shape = BlockShape([2, 3])
        v, w = random_vector(r, shape, 2), random_vector(r, shape, 2)
        a = random_element(r, shape)
        lhs = inner(vector_times(v, a), w)
        rhs = inner(v, w) @ a
        assert (lhs - rhs).norm() <= 1e-12 * max(1.0, rhs.norm())

    def test_hermitian_symmetry(self):
        r = rng(1)
        shape = BlockShape([3])
        v, w = random_vector(r, shape, 2), random_vector(r, shape, 2)
        assert (inner(v, w).star() - inner(w, v)).norm() <= 1e-13

    def test_rank_one_module_gives_positive_square(self):
        r = rng(2)
        shape = BlockShape([2])
        x = random_element(r, shape)
        v = vector_from_entries([x])
        # direct matrix product oracle: <v, v> = x* x
        want = x.blocks[0].conj().T @ x.blocks[0]
        np.testing.assert_allclose(inner(v, v).blocks[0], want, atol=1e-13)
        assert np.min(np.linalg.eigvalsh(want)) >= -1e-12


class TestOperatorBasics:
    def test_identity_unitary_and_positive(self):
        one = identity_operator(BlockShape([2, 2]), 2)
        assert unitary_defect(one) <= 1e-10
        assert strictly_positive(one)

    def test_projection_not_strictly_positive(self):
        shape = BlockShape([2])
        p = operator_from_entries(
            [
                [identity(shape), zeros(shape)],
                [zeros(shape), zeros(shape)],
            ]
        )
        vals = np.linalg.eigvalsh(p.flat.blocks[0])
        assert np.min(vals) >= -1e-14  # positive
        assert not strictly_positive(p)  # but with kernel

    def test_imaginary_power_is_unitary(self):
        t = random_positive_operator(rng(3), BlockShape([2]), 2, cond=30.0)
        for s in (0.5, -2.0):
            assert unitary_defect(op_power(t, 1j * s)) <= 1e-10

    def test_an_array_scales_each_member(self):
        # numpy defers array * s to ModuleOperator.__rmul__, so (1j * t * t) * K over an
        # array of times is one batch, not an object array
        s = random_operator(rng(6), BlockShape([2, 1]), 2)
        scaled = np.array([2.0, -1j]) * s
        assert scaled.k == 2 and scaled.flat.blocks[0].shape == (2, 4, 4)
        for i, c in enumerate((2.0, -1j)):
            assert all(np.array_equal(a, c * b) for a, b in zip(scaled.flat[i].blocks, s.flat.blocks))

    def test_norm_is_kept_on_the_operator(self, monkeypatch):
        calls = []
        monkeypatch.setattr(np.linalg, "svd", counting_svd(calls))
        s = random_operator(rng(5), BlockShape([2, 1]), 2)
        first = s.norm()
        assert calls == [(4, 4), (2, 2)]
        assert s.norm() == first and s.flat.norm() == first
        assert calls == [(4, 4), (2, 2)]

    def test_adjoint_pairing(self):
        r = rng(4)
        shape = BlockShape([2, 2])
        s = random_operator(r, shape, 2)
        v, w = random_vector(r, shape, 2), random_vector(r, shape, 2)
        lhs = inner(s @ v, w)
        rhs = inner(v, s.star() @ w)
        assert (lhs - rhs).norm() <= 1e-10 * max(1.0, rhs.norm())


class TestOpPower:
    def test_zero_exponent(self):
        t = random_positive_operator(rng(5), BlockShape([2]), 2, cond=10.0)
        one = identity_operator(BlockShape([2]), 2)
        assert (op_power(t, 0.0) - one).norm() <= 1e-12

    def test_diagonal_square_root(self):
        t = operator_from_entries([[AlgebraElement.from_blocks([np.diag([4.0, 9.0])])]])
        out = op_power(t, 0.5)
        np.testing.assert_allclose(operator_entries(out)[0][0].blocks[0], np.diag([2.0, 3.0]), atol=1e-12)

    def test_imaginary_power_adjoint(self):
        t = random_positive_operator(rng(6), BlockShape([3]), 2, cond=50.0)
        lhs = op_power(t, 1j).star()
        rhs = op_power(t, -1j)
        assert (lhs - rhs).norm() <= 1e-10

    def test_group_law(self):
        t = random_positive_operator(rng(7), BlockShape([2]), 2, cond=100.0)
        lhs = op_power(t, 0.3 + 0.5j) @ op_power(t, 0.7 - 0.5j)
        assert (lhs - op_power(t, 1.0)).norm() <= 1e-10 * t.norm()

    def test_rejects_non_positive(self):
        shape = BlockShape([2])
        p = operator_from_entries([[zeros(shape)]])
        with pytest.raises(NotStrictlyPositiveError):
            op_power(p, 0.5)

    def test_batched_power_acts_on_a_vector_per_member(self):
        # a z-grid of powers is one operator, and it acts on a vector as each member does
        r = rng(8)
        shape = BlockShape([2, 3])
        t = random_positive_operator(r, shape, 2, cond=100.0)
        v = random_vector(r, shape, 2)
        zs = np.array([[0.5j, 1j, -0.3], [1 + 1j, 0.0, 2.0 - 0.5j]])
        batch = op_power(t, zs) @ v
        assert batch.norm().shape == zs.shape
        for i in np.ndindex(zs.shape):
            one = op_power(t, zs[i]) @ v
            for got, want in zip(batch.stacked, one.stacked):
                np.testing.assert_array_equal(got[i], want)
            assert batch.norm()[i] == one.norm()
            for got, want in zip(vector_entries(batch), vector_entries(one)):
                np.testing.assert_array_equal(got.blocks[1][i], want.blocks[1])
        for got, want in zip(vector_from_entries(vector_entries(batch)).stacked, batch.stacked):
            np.testing.assert_array_equal(got, want)
        loc = localize(random_state(r, shape), 2)
        assert loc.apply(batch).shape == (*zs.shape, loc.d)
        np.testing.assert_array_equal(loc.apply(batch)[1, 2], loc.apply(op_power(t, zs[1, 2]) @ v))

    def test_vector_blocks_share_one_batch_shape(self):
        shape = BlockShape([2, 1])
        with pytest.raises(ShapeMismatchError, match="stacked blocks do not match"):
            ModuleVector(shape, 1, [np.zeros((3, 2, 2)), np.zeros((4, 1, 1))])


class TestSubalgebraBasis:
    def test_two_generic_generators_fill_the_algebra(self):
        r = rng(8)
        shape = BlockShape([2])
        basis = SubalgebraBasis([random_operator(r, shape, 2), random_operator(r, shape, 2)])
        assert basis.dim == 16
        assert (basis.unit() - identity_operator(shape, 2)).norm() <= 1e-10

    def test_closure_under_products(self):
        r = rng(9)
        shape = BlockShape([2])
        basis = SubalgebraBasis([random_operator(r, shape, 1), random_operator(r, shape, 1)])
        for a in basis_operators(basis):
            for b in basis_operators(basis):
                assert basis.residual(a @ b) <= 1e-9 * max(1.0, (a @ b).norm())
                assert basis.residual(a.star()) <= 1e-9

    def test_degenerate_algebra_rejected(self):
        shape = BlockShape([2])
        p_mat = np.diag([1.0, 0.0]).astype(complex)
        p = operator_from_entries([[AlgebraElement.from_blocks([p_mat])]])
        with pytest.raises(ValueError, match="degenerate"):
            SubalgebraBasis([p])

    def test_matrix_units_span_everything(self):
        shape = BlockShape([2, 2])
        units = matrix_unit_operators(shape, 2)
        basis = SubalgebraBasis(units)
        assert basis.dim == sum((2 * n) ** 2 for n in shape)


class TestAffiliation:
    def test_full_algebra_accepts_everything(self):
        r = rng(10)
        shape = BlockShape([2])
        basis = SubalgebraBasis(matrix_unit_operators(shape, 2))
        alpha = random_positive_operator(r, shape, 2, cond=40.0)
        assert affiliation_test(alpha, basis, [0.5, 1.0, 3.0])

    def test_generator_inside_span(self):
        # power-series oracle: exp of a span member stays in a closed *-algebra
        shape = BlockShape([2])
        d1 = AlgebraElement.from_blocks([np.diag([0.7, -0.2])])
        d2 = AlgebraElement.from_blocks([np.diag([-0.1, 0.4])])
        z = zeros(shape)
        gens = [
            operator_from_entries([[d1, z], [z, d2]]),
            operator_from_entries([[d2, z], [z, d1]]),
            identity_operator(shape, 2),
        ]
        basis = SubalgebraBasis(gens)
        k_op = gens[0]
        alpha = op_exp(k_op)
        assert affiliation_test(alpha, basis, [0.5, 1.0, 2.0])

    def test_scalars_reject_non_scalar_spectrum(self):
        r = rng(11)
        shape = BlockShape([2])
        basis = SubalgebraBasis([identity_operator(shape, 2)])
        alpha = random_positive_operator(r, shape, 2, cond=40.0)
        assert not affiliation_test(alpha, basis, [0.5, 1.0])

    def test_requires_strict_positivity(self):
        shape = BlockShape([2])
        basis = SubalgebraBasis([identity_operator(shape, 1)])
        with pytest.raises(NotStrictlyPositiveError):
            affiliation_test(operator_from_entries([[zeros(shape)]]), basis, [1.0])


class TestModuleInvariants:
    def test_cauchy_schwarz(self):
        r = rng(12)
        shape = BlockShape([2, 3])
        for _ in range(20):
            v, w = random_vector(r, shape, 2), random_vector(r, shape, 2)
            assert inner(v, w).norm() <= v.norm() * w.norm() + 1e-10

    def test_inner_positivity_100_vectors(self):
        r = rng(13)
        shape = BlockShape([2, 2])
        for _ in range(100):
            v = random_vector(r, shape, 2)
            gram = inner(v, v)
            lo = min(np.min(np.linalg.eigvalsh(b)) for b in gram.blocks)
            assert lo >= -1e-12 * v.norm() ** 2

    def test_adjoint_involution_and_antimultiplicativity(self):
        r = rng(14)
        shape = BlockShape([2])
        s, t = random_operator(r, shape, 2), random_operator(r, shape, 2)
        assert (s.star().star() - s).norm() <= 1e-12 * s.norm()
        lhs = (s @ t).star()
        rhs = t.star() @ s.star()
        assert (lhs - rhs).norm() <= 1e-12 * max(1.0, rhs.norm())

    def test_operator_norm_power_iteration_oracle(self):
        r = rng(15)
        shape = BlockShape([2, 3])
        s = random_operator(r, shape, 2)
        v = random_vector(r, shape, 2)
        coords = vector_coordinates(v)
        coords /= np.linalg.norm(coords)
        m = hilbmod.operator_matrix(s)
        sigma = 0.0
        for _ in range(500):
            coords = m.conj().T @ (m @ coords)
            nrm = np.linalg.norm(coords)
            sigma = np.sqrt(nrm)
            coords /= nrm
        # Rayleigh estimate of the top singular value on module vectors
        top = np.linalg.norm(m @ coords) / np.linalg.norm(coords)
        assert abs(top - s.norm()) <= 1e-9 * s.norm()

    def test_vector_coordinates_roundtrip(self):
        r = rng(16)
        shape = BlockShape([2, 3])
        v = random_vector(r, shape, 2)
        w = vector_from_coordinates(shape, 2, vector_coordinates(v))
        assert (w - v).norm() == 0.0

    def test_operator_vec_roundtrip(self):
        r = rng(17)
        shape = BlockShape([2, 2])
        s = random_operator(r, shape, 2)
        back = ModuleOperator(AlgebraElement(s.flat.shape, _unvec_flats(s.flat.shape, operator_vec(s))), 2)
        assert (back - s).norm() == 0.0


# Reference implementations over the k x k grid of algebra elements: the
# summation order the flat and stacked products replace.


def _sum_elements(elems):
    out = elems[0]
    for e in elems[1:]:
        out = out + e
    return out


def grid_product(s, t):
    k = s.k
    return operator_from_entries(
        [
            [_sum_elements([operator_entries(s)[i][m] @ operator_entries(t)[m][j] for m in range(k)]) for j in range(k)]
            for i in range(k)
        ]
    )


def grid_apply(s, v):
    return vector_from_entries(
        [_sum_elements([e @ x for e, x in zip(row, vector_entries(v))]) for row in operator_entries(s)]
    )


def slot_inner(v, w):
    out = zeros(v.shape)
    for a, b in zip(vector_entries(v), vector_entries(w)):
        out = out + (b.star() @ a)
    return out


class TestFlatAgainstGrid:
    SHAPE = BlockShape([3, 2])

    def bound(self, k, x_norm, y_norm):
        # a sum of k * max(n) products, with headroom 8, in float64
        return 8 * k * max(self.SHAPE) * EPS * x_norm * y_norm

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_operator_product(self, k):
        r = rng(100 + k)
        s, t = random_operator(r, self.SHAPE, k), random_operator(r, self.SHAPE, k)
        diff = (s @ t - grid_product(s, t)).norm()
        assert diff <= self.bound(k, s.norm(), t.norm())

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_operator_on_vector(self, k):
        r = rng(110 + k)
        s, v = random_operator(r, self.SHAPE, k), random_vector(r, self.SHAPE, k)
        diff = (s @ v - grid_apply(s, v)).norm()
        assert diff <= self.bound(k, s.norm(), v.norm())

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_inner(self, k):
        r = rng(120 + k)
        v, w = random_vector(r, self.SHAPE, k), random_vector(r, self.SHAPE, k)
        diff = (inner(v, w) - slot_inner(v, w)).norm()
        assert diff <= self.bound(k, v.norm(), w.norm())

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_grid_round_trips_bitwise(self, k):
        r = rng(130 + k)
        s, v = random_operator(r, self.SHAPE, k), random_vector(r, self.SHAPE, k)
        for a, b in zip(operator_from_entries(operator_entries(s)).flat.blocks, s.flat.blocks):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(vector_from_entries(vector_entries(v)).stacked, v.stacked):
            np.testing.assert_array_equal(a, b)
        back = vector_from_coordinates(self.SHAPE, k, vector_coordinates(v))
        for a, b in zip(back.stacked, v.stacked):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("k", [1, 2])
    def test_grid_of_a_batch_is_per_member(self, k):
        t = random_positive_operator(rng(140 + k), self.SHAPE, k)
        batch = op_power(t, 1j * np.array([0.3, -0.7, 1.1]))
        for m in range(3):
            member = ModuleOperator(batch.flat[m], k)
            for row, member_row in zip(operator_entries(batch), operator_entries(member)):
                for e, want in zip(row, member_row):
                    for a, b in zip(e.blocks, want.blocks):
                        np.testing.assert_array_equal(a[m], b)
        for a, b in zip(operator_from_entries(operator_entries(batch)).flat.blocks, batch.flat.blocks):
            np.testing.assert_array_equal(a, b)


# Module-layer properties over random seeds, block shapes and ranks.
SMALL_MODULES = st.tuples(
    st.integers(0, 2**32 - 1),
    st.sampled_from([(1,), (2,), (3,), (2, 1), (1, 2)]),
    st.integers(1, 3),
)


@settings(max_examples=20, deadline=None)
@given(SMALL_MODULES)
def test_induce_star_homomorphism_hypothesis(module):
    seed, dims, k = module
    r = rng(seed)
    shape = BlockShape(dims)
    loc = localize(random_state(r, shape), k)
    s, t = random_operator(r, shape, k), random_operator(r, shape, k)
    prod = induced_dense(induce(loc, s @ t))
    assert np.linalg.norm(prod - induced_dense(induce(loc, s) @ induce(loc, t)), 2) <= 1e-9 * max(
        1.0, np.linalg.norm(prod, 2)
    )
    s_om = induced_dense(induce(loc, s))
    assert np.linalg.norm(induced_dense(induce(loc, s.star())) - s_om.conj().T, 2) <= 1e-10 * max(
        1.0, s.norm()
    )


@settings(max_examples=30, deadline=None)
@given(SMALL_MODULES)
def test_adjoint_pairing_hypothesis(module):
    seed, dims, k = module
    r = rng(seed)
    shape = BlockShape(dims)
    s = random_operator(r, shape, k)
    v, w = random_vector(r, shape, k), random_vector(r, shape, k)
    rhs = inner(v, s.star() @ w)
    assert (inner(s @ v, w) - rhs).norm() <= 1e-10 * max(1.0, rhs.norm())


@settings(max_examples=30, deadline=None)
@given(SMALL_MODULES)
def test_cstar_identity_hypothesis(module):
    seed, dims, k = module
    s = random_operator(rng(seed), BlockShape(dims), k)
    n2 = s.norm() ** 2
    assert abs((s.star() @ s).norm() - n2) <= 1e-10 * max(n2, 1e-30)


# Reference closure: the loop as it was before the stop at full span, the
# lazy products and the matrix-vector projection.  Each new element is
# multiplied against every earlier one, in both orders, with its adjoint
# queued as well, and every candidate is projected one vdot at a time.


def sequential_closure(generators, span_tol=SPAN_TOL):
    flat, k = generators[0].flat.shape, generators[0].k
    tol = span_tol * max(max(g.norm() for g in generators), 1.0)
    rows, ops = [], []
    pending = list(generators) + [g.star() for g in generators]
    while pending:
        vec = operator_vec(pending.pop(0))
        for _ in range(2):
            for row in rows:
                vec = vec - np.vdot(row, vec) * row
        nrm = float(np.linalg.norm(vec))
        if nrm <= tol:
            continue
        vec = vec / nrm
        new_op = ModuleOperator(AlgebraElement(flat, _unvec_flats(flat, vec)), k)
        rows.append(vec)
        ops.append(new_op)
        pending.append(new_op.star())
        for other in ops:
            pending.append(new_op @ other)
            pending.append(other @ new_op)
    return np.stack(rows)


def diagonal_units(shape, k):
    gens = []
    for b, n in enumerate(shape.block_dims):
        for j in range(k * n):
            flats = [np.zeros((k * m, k * m), dtype=complex) for m in shape.block_dims]
            flats[b][j, j] = 1.0
            gens.append(ModuleOperator(AlgebraElement.from_blocks(flats), k))
    return gens


def span_inside_generators():
    shape = BlockShape([2])
    d1 = AlgebraElement.from_blocks([np.diag([0.7, -0.2])])
    d2 = AlgebraElement.from_blocks([np.diag([-0.1, 0.4])])
    z = zeros(shape)
    return [
        operator_from_entries([[d1, z], [z, d2]]),
        operator_from_entries([[d2, z], [z, d1]]),
        identity_operator(shape, 2),
    ]


CLOSURE_CASES = {
    "matrix_units": lambda: matrix_unit_operators(BlockShape([2, 2]), 2),
    "random_one_block": lambda: [random_operator(rng(20), BlockShape([2]), 2) for _ in range(2)],
    "random_two_blocks": lambda: [random_operator(rng(21), BlockShape([2, 3]), 2) for _ in range(2)],
    "diagonal": lambda: diagonal_units(BlockShape([2, 3]), 2),
    "scalars": lambda: [identity_operator(BlockShape([2, 3]), 2)],
    "span_inside": span_inside_generators,
}


class TestClosureAgainstSequential:
    @pytest.mark.parametrize("case", sorted(CLOSURE_CASES))
    def test_same_dim_and_projector(self, case):
        gens = CLOSURE_CASES[case]()
        basis = SubalgebraBasis(gens)
        ref = sequential_closure(gens)
        assert basis.dim == len(ref) == len(basis._q)
        proj, proj_ref = basis._q.T @ basis._q.conj(), ref.T @ ref.conj()
        assert np.max(np.abs(proj - proj_ref)) <= 1e-12

    def test_rows_are_orthonormal(self):
        q = SubalgebraBasis(CLOSURE_CASES["random_two_blocks"]())._q
        assert np.max(np.abs(q.conj() @ q.T - np.eye(len(q)))) <= 1e-12

    def test_full_span_stops_before_any_product(self, monkeypatch):
        # the matrix units span M_k(A) by themselves; no queued product is formed
        def refuse(*args):
            raise AssertionError("closure formed a product")

        gens = CLOSURE_CASES["matrix_units"]()
        monkeypatch.setattr(hilbmod, "_row_product", refuse)
        assert SubalgebraBasis(gens).dim == 16 + 16

    def test_products_go_through_the_row_helper(self, monkeypatch):
        # the control for the test above: a closure that needs products forms them there
        calls = []
        product = hilbmod._row_product

        def counted(*args):
            calls.append(args)
            return product(*args)

        monkeypatch.setattr(hilbmod, "_row_product", counted)
        assert SubalgebraBasis(CLOSURE_CASES["random_one_block"]()).dim == 16
        assert calls

    def test_roadmap_size_closes(self):
        # matrix units of M_16: dimension 256, the whole algebra
        shape = BlockShape([8])
        basis = SubalgebraBasis(matrix_unit_operators(shape, 2))
        assert basis.dim == 256
        assert (basis.unit() - identity_operator(shape, 2)).norm() <= 1e-10


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 3), st.integers(1, 2))
def test_closure_under_adjoints_and_products_hypothesis(seed, count, n, k):
    r = rng(seed)
    shape = BlockShape([n])
    basis = SubalgebraBasis([random_operator(r, shape, k) for _ in range(count)])
    for a in basis_operators(basis):
        assert basis.residual(a.star()) <= 1e-9
        for b in basis_operators(basis):
            ab = a @ b
            assert basis.residual(ab) <= 1e-9 * max(1.0, ab.norm())


# Reference probes: the per-element loops that ``SubalgebraBasis.leaks``
# replaced.  Each basis element is built as an operator, moved by
# operator products and projected on its own.


def sequential_leaks(basis, lefts, rights=None):
    rights = rights or [None] * len(lefts)
    return np.array([
        [basis.residual(left @ b if right is None else left @ b @ right) for b in basis_operators(basis)]
        for left, right in zip(lefts, rights)
    ])


def sequential_affiliation(alpha, basis, t_samples, tol=AFFILIATION_TOL):
    log_norm = op_log(alpha).norm()
    for t in t_samples:
        u = op_power(alpha, 1j * float(t))
        for b in basis_operators(basis):
            if basis.residual(u @ b) > tol * max(b.norm(), 1e-300):
                return False
    delta = 1e-3 / max(1.0, log_norm)
    u_delta = op_power(alpha, 1j * delta)
    for b in basis_operators(basis):
        drift = (u_delta @ b - b).norm()
        if drift > delta * log_norm * b.norm() * (1.0 + 1e-8) + 1e-12:
            return False
    return True


def carrier_positive(basis, seed):
    """``exp(h)`` for a random Hermitian ``h`` of norm 1 inside the span."""
    r = rng(seed)
    coeffs = r.standard_normal(basis.dim) + 1j * r.standard_normal(basis.dim)
    x = ModuleOperator(AlgebraElement.from_blocks(_unvec_flats(basis._flat_shape, coeffs @ basis._q)), basis.k)
    h = x + x.star()
    return op_exp((1.0 / h.norm()) * h)


PROBE_GRID = [0.5, -1.0, 3.0]


class TestLeaksAgainstSequential:
    @pytest.mark.parametrize("case", sorted(CLOSURE_CASES))
    def test_leaks_match_the_per_element_loop(self, case):
        basis = SubalgebraBasis(CLOSURE_CASES[case]())
        r = rng(40)
        s = random_positive_operator(r, basis.shape, basis.k, cond=50.0)
        t = random_positive_operator(r, basis.shape, basis.k, cond=50.0)
        zs = 1j * np.array(PROBE_GRID)
        got = basis.leaks(algebra.power(s.flat, zs), algebra.power(t.flat, -zs))
        want = sequential_leaks(basis, [op_power(s, z) for z in zs], [op_power(t, -z) for z in zs])
        assert got.shape == want.shape == (len(PROBE_GRID), basis.dim)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
        left_only = basis.leaks(algebra.power(s.flat, zs))
        np.testing.assert_allclose(left_only, sequential_leaks(basis, [op_power(s, z) for z in zs]),
                                   rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("case", sorted(CLOSURE_CASES))
    def test_affiliation_verdicts_match(self, case):
        basis = SubalgebraBasis(CLOSURE_CASES[case]())
        inside = carrier_positive(basis, 41)
        generic = random_positive_operator(rng(42), basis.shape, basis.k, cond=40.0)
        assert affiliation_test(inside, basis, PROBE_GRID)
        for alpha in (inside, generic):
            for grid in (PROBE_GRID, []):  # no sampled time: the Lipschitz probe alone
                assert affiliation_test(alpha, basis, grid) == sequential_affiliation(alpha, basis, grid)

    def test_failing_diagonal_carrier(self):
        basis = SubalgebraBasis(diagonal_units(BlockShape([2]), 1))
        mix = operator_from_entries([[AlgebraElement.from_blocks([np.array([[2.0, 0.6], [0.6, 1.0]])])]])
        assert not affiliation_test(mix, basis, PROBE_GRID)
        assert not sequential_affiliation(mix, basis, PROBE_GRID)
        zs = 1j * np.array(PROBE_GRID)
        got = basis.leaks(algebra.power(mix.flat, zs))
        np.testing.assert_allclose(got, sequential_leaks(basis, [op_power(mix, z) for z in zs]),
                                   rtol=0.0, atol=1e-12)
        assert got.max() > 1e-3

    def test_basis_operators_are_the_rows(self):
        basis = SubalgebraBasis(CLOSURE_CASES["random_two_blocks"]())
        assert len(basis_operators(basis)) == basis.dim
        np.testing.assert_array_equal(np.stack([operator_vec(b) for b in basis_operators(basis)]), basis._q)


# BlockCarrier against the closure of its own matrix units, which spans the
# same subalgebra: residuals and per-time sums of squared leaks (which do not
# depend on the choice of orthonormal basis) must agree.


def rotated_carrier(seed: int, shape: BlockShape, k: int, parts) -> BlockCarrier:
    r = rng(seed)
    return BlockCarrier(shape, k, [random_unitary(r, k * n) for n in shape], parts)


BLOCK_CARRIERS = {
    "full": lambda: BlockCarrier.full(BlockShape([2, 1]), 2),
    "diagonal": lambda: BlockCarrier(BlockShape([2, 3]), 2, [np.eye(4), np.eye(6)], [(1,) * 4, (1,) * 6]),
    "rotated": lambda: rotated_carrier(50, BlockShape([2, 1]), 2, [(1, 3), (2,)]),
}


def carrier_element(carrier: BlockCarrier, seed: int, positive: bool = False) -> ModuleOperator:
    """``U (+)_j x_j U*`` with random x_j on the sub-blocks; ``w w* + 1`` for each x_j if ``positive``."""
    r = rng(seed)
    flats = []
    for u, parts in zip(carrier.unitaries, carrier.parts):
        inner_blocks = np.zeros(u.shape, dtype=complex)
        pos = 0
        for m in parts:
            w = r.standard_normal((m, m)) + 1j * r.standard_normal((m, m))
            inner_blocks[pos : pos + m, pos : pos + m] = w @ w.conj().T + np.eye(m) if positive else w
            pos += m
        f = u @ inner_blocks @ u.conj().T
        flats.append(0.5 * (f + f.conj().T) if positive else f)
    return ModuleOperator(AlgebraElement.from_blocks(flats), carrier.k)


def flow_verdict(s: ModuleOperator, t: ModuleOperator, carrier) -> str | None:
    """The refusal ``ImplementedFlow`` raises for the pair on the carrier, or None."""
    try:
        ImplementedFlow(s, t, carrier)
    except InvarianceViolationError as err:
        return str(err)
    return None


def assert_matches_closure(carrier: BlockCarrier, seed: int) -> None:
    basis = SubalgebraBasis(carrier_units(carrier))
    assert basis.dim == carrier.dim
    r = rng(seed)
    for x in (random_operator(r, carrier.shape, carrier.k), carrier_element(carrier, seed)):
        assert abs(carrier.residual(x) - basis.residual(x)) <= 1e-12
    s = random_positive_operator(r, carrier.shape, carrier.k, cond=50.0)
    t = random_positive_operator(r, carrier.shape, carrier.k, cond=50.0)
    zs = 1j * np.array(PROBE_GRID)
    left, right = algebra.power(s.flat, zs), algebra.power(t.flat, -zs)
    for probe in ((left,), (left, right)):
        got, want = carrier.leaks(*probe), basis.leaks(*probe)
        assert got.shape == want.shape == (len(PROBE_GRID), carrier.dim)
        np.testing.assert_allclose((got**2).sum(-1), (want**2).sum(-1), rtol=1e-12, atol=1e-24)


class TestBlockCarrierAgainstClosure:
    @pytest.mark.parametrize("case", sorted(BLOCK_CARRIERS))
    def test_residuals_and_leaks_match(self, case):
        assert_matches_closure(BLOCK_CARRIERS[case](), 60)

    @pytest.mark.parametrize("case", sorted(BLOCK_CARRIERS))
    def test_flow_verdicts_match(self, case):
        carrier = BLOCK_CARRIERS[case]()
        basis = SubalgebraBasis(carrier_units(carrier))
        r = rng(61)
        generic = [random_positive_operator(r, carrier.shape, carrier.k, cond=50.0) for _ in range(2)]
        inside = [carrier_element(carrier, seed, positive=True) for seed in (62, 63)]
        assert flow_verdict(*inside, carrier) is None
        for pair in (generic, inside):
            assert flow_verdict(*pair, carrier) == flow_verdict(*pair, basis)
        assert (flow_verdict(*generic, carrier) is None) == (case == "full")

    def test_full_carrier_is_the_whole_algebra(self):
        carrier = BlockCarrier.full(BlockShape([2, 3]), 2)
        assert carrier.dim == SubalgebraBasis(matrix_unit_operators(carrier.shape, 2)).dim == 16 + 36
        x = random_operator(rng(64), carrier.shape, 2)
        assert carrier.residual(x) == 0.0
        assert not carrier.leaks(algebra.power(x.star().flat @ x.flat, 1j * np.array(PROBE_GRID))).any()


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 3), min_size=1, max_size=2), st.integers(1, 2))
def test_block_carrier_matches_closure_hypothesis(seed, dims, k):
    r = rng(seed)
    # a partition of each k n_b: cut after each position with probability 1/2
    parts = [np.diff([0, *np.flatnonzero(r.random(k * n - 1) < 0.5) + 1, k * n]) for n in dims]
    assert_matches_closure(rotated_carrier(seed, BlockShape(dims), k, parts), seed)


def residual_through_every_block(carrier: BlockCarrier, s: ModuleOperator) -> float:
    """``BlockCarrier.residual`` with every block rotated, a block of one part too."""
    sq = sum(float(np.sum(np.abs((algebra._adjoint(u) @ f @ u)[~same]) ** 2))
             for u, same, f in zip(carrier.unitaries, carrier._same_part, s.flat.blocks))
    return float(np.sqrt(sq))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.tuples(st.integers(1, 3), st.booleans()), min_size=1, max_size=3),
       st.integers(1, 2), st.sampled_from(["none", "batch", "single"]))
def test_one_part_blocks_in_closed_form_hypothesis(seed, blocks, k, right_kind):
    # a block of one part, or a cut after each position with probability 1/2 (at least one where k n_b > 1)
    r = rng(seed)
    shape = BlockShape([n for n, _ in blocks])
    parts = []
    for n, whole in blocks:
        cuts = np.flatnonzero(r.random(k * n - 1) < 0.5) + 1
        if not whole and k * n > 1 and not cuts.size:
            cuts = np.array([k * n // 2])
        parts.append((k * n,) if whole else tuple(np.diff([0, *cuts, k * n])))
    carrier = BlockCarrier(shape, k, [random_unitary(r, k * n) for n in shape], parts)
    flat = BlockShape([k * n for n in shape])

    def unitaries(*batch: int) -> AlgebraElement:
        return AlgebraElement(flat, [np.array([random_unitary(r, m) for _ in range(math.prod(batch))]).reshape(*batch, m, m)
                                     for m in flat])

    left = unitaries(2)
    right = {"none": None, "batch": unitaries(2), "single": unitaries()}[right_kind]
    got = carrier.leaks(left, right)
    one_part = np.concatenate([np.full(int(same.sum()), len(p) == 1) for p, same in zip(carrier.parts, carrier._same_part)])
    assert got.shape == (2, carrier.dim) and not got[:, one_part].any()
    for x in (random_operator(r, shape, k), carrier_element(carrier, seed)):
        assert carrier.residual(x) == residual_through_every_block(carrier, x)


class TestBlockCarrierConstructor:
    shape = BlockShape([2, 1])

    def build(self, unitaries=None, parts=None) -> BlockCarrier:
        return BlockCarrier(self.shape, 2, unitaries or [np.eye(4), np.eye(2)], parts or [(1, 3), (2,)])

    def test_parts_must_sum_to_the_block(self):
        with pytest.raises(ValueError, match=r"block 1: parts \(1, 2\) sum to 3, not k n_b = 2"):
            self.build(parts=[(1, 3), (1, 2)])

    def test_parts_must_be_positive(self):
        with pytest.raises(ValueError, match=r"block 1: parts \(3, -1\) are not all positive"):
            self.build(parts=[(1, 3), (3, -1)])

    def test_unitary_must_fit_the_block(self):
        with pytest.raises(ValueError, match=r"block 1: unitary has shape \(4, 4\), not \(2, 2\)"):
            self.build(unitaries=[np.eye(4), np.eye(4)])

    def test_unitary_must_be_unitary(self):
        with pytest.raises(ValueError, match="block 1: unitary defect"):
            self.build(unitaries=[np.eye(4), np.array([[1.0, 1.0], [0.0, 1.0]])])

    def test_unitary_tolerance_witness(self):
        # (1 + d) I has defect (1 + d)^2 - 1, about 2d: 5e-11 is accepted, 2e-10 is not
        self.build(unitaries=[np.eye(4), (1 + 2.5e-11) * np.eye(2)])
        with pytest.raises(ValueError, match="block 1: unitary defect 2.000e-10"):
            self.build(unitaries=[np.eye(4), (1 + 1e-10) * np.eye(2)])

    def test_one_unitary_and_partition_per_block(self):
        with pytest.raises(ValueError, match="one unitary and one partition for each of 2 blocks"):
            self.build(parts=[(1, 3)])
