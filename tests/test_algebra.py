"""Block algebra core: *-operations, norms, functional calculus, powers."""

import concurrent.futures
import importlib
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cstarflow import (
    AlgebraElement,
    BlockShape,
    EigFailureError,
    FlowGenerator,
    HermitianElement,
    NotStrictlyPositiveError,
    ShapeMismatchError,
    identity,
    is_strictly_positive,
    conjugate,
    power,
    spectral,
)
from cstarflow import algebra
from cstarflow.algebra import HERM_TOL, SpectralDecomposition, largest_singular_value, sandwich, stack
from cstarflow.cli import run
from cstarflow.hilbmod import identity_operator
from cstarflow.sampling import gaussian, random_element, random_hermitian, rng

from conftest import counting_eigvalsh, e12, load_config, zeros

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

EPS = np.finfo(float).eps
NOT_FINITE = "not taken: an entry is NaN or infinite"


def power_at(t, z):
    """``T**z`` at one z: the member of the one-point grid of ``power``."""
    return power(t, [z])[0]


class TestStar:
    def test_matrix_unit(self):
        out = e12().star()
        np.testing.assert_array_equal(out.blocks[0], np.array([[0, 0], [1, 0]], dtype=complex))

    def test_identity_fixed(self):
        one = identity(BlockShape([2, 3]))
        assert (one.star() - one).norm() == 0.0

    def test_involution_exact(self):
        x = random_element(rng(0), BlockShape([2, 3]))
        # conjugate-transpose twice is bitwise the identity
        for a, b in zip(x.star().star().blocks, x.blocks):
            np.testing.assert_array_equal(a, b)

    def test_isometric(self):
        x = random_element(rng(1), BlockShape([3, 2]))
        assert abs(x.star().norm() - x.norm()) <= 1e-14 * x.norm()


class TestMul:
    def test_identity(self):
        one = identity(BlockShape([2]))
        assert ((one @ one) - one).norm() == 0.0

    def test_matrix_units(self):
        prod = e12() @ e12().star()  # e12 e21 = e11
        np.testing.assert_array_equal(prod.blocks[0], np.array([[1, 0], [0, 0]], dtype=complex))

    def test_submultiplicative_svd_oracle(self):
        r = rng(2)
        for _ in range(20):
            x = random_element(r, BlockShape([3, 2]))
            y = random_element(r, BlockShape([3, 2]))
            # oracle: dense SVD for all three norms
            nx = max(np.linalg.svd(b, compute_uv=False)[0] for b in x.blocks)
            ny = max(np.linalg.svd(b, compute_uv=False)[0] for b in y.blocks)
            nxy = max(np.linalg.svd(b, compute_uv=False)[0] for b in (x @ y).blocks)
            assert nxy <= nx * ny * (1 + 1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            random_element(rng(0), BlockShape([2])) @ random_element(rng(0), BlockShape([3]))


class TestOpNorm:
    def test_zero(self):
        assert zeros(BlockShape([2, 3])).norm() == 0.0

    def test_diagonal(self):
        x = AlgebraElement.from_blocks([np.diag([3.0, -4.0])])
        assert x.norm() == pytest.approx(4.0, abs=0)

    def test_two_blocks_svd_oracle(self):
        x = AlgebraElement.from_blocks([[[2.0]], [[0.0, 5.0], [0.0, 0.0]]])
        oracle = max(np.linalg.svd(np.asarray(b, dtype=complex), compute_uv=False)[0]
                     for b in ([[2.0]], [[0.0, 5.0], [0.0, 0.0]]))
        assert oracle == 5.0
        assert x.norm() == pytest.approx(oracle, rel=1e-14)

    def test_second_call_does_not_reach_lapack(self, monkeypatch):
        calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh(calls))
        x = random_element(rng(4), BlockShape([3, 2]))
        first = x.norm()
        assert calls == [(3, 3), (2, 2)]
        assert x.norm() == first
        assert calls == [(3, 3), (2, 2)]

    def test_nan_entry_is_a_numerical_breakdown(self):
        x = AlgebraElement.from_blocks([np.eye(2), [[1.0, np.nan], [0.0, 1.0]]])
        with pytest.raises(EigFailureError, match=f"2x2 block {NOT_FINITE}"):
            x.norm()

    def test_infinite_entry_is_a_numerical_breakdown(self):
        # a later finite block must not hide the refused one behind max()
        x = AlgebraElement.from_blocks([np.eye(1), [[np.inf, 2.0], [3.0, 4j]]])
        with pytest.raises(EigFailureError, match=f"2x2 block {NOT_FINITE}"):
            x.norm()

    def test_batch_norms_are_the_member_norms(self):
        r = rng(6)
        elements = [random_element(r, BlockShape([3, 2])) for _ in range(4)]
        norms = stack(elements).norm()
        assert norms.shape == (4,)
        for got, x in zip(norms, elements):
            assert abs(got - x.norm()) <= 8 * 3 * EPS * x.norm()

    def test_stacked_infinite_entry_is_a_numerical_breakdown(self):
        blocks = np.zeros((3, 2, 2), dtype=complex)
        blocks[1, 0, 0] = np.inf
        with pytest.raises(EigFailureError, match=f"3 stacked 2x2 blocks {NOT_FINITE}"):
            AlgebraElement(BlockShape([1, 2]), [np.zeros((3, 1, 1)), blocks]).norm()

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 64])
    def test_largest_singular_value_matches_scipy_svdvals(self, n):
        r = rng(100 + n)
        for scale in (1.0, 1e-150, 1e150):
            b = scale * random_element(r, BlockShape([n])).blocks[0]
            oracle = scipy.linalg.svdvals(b)[0]
            assert abs(largest_singular_value(b) - oracle) <= 4 * n * EPS * oracle

    def test_zero_block_is_exactly_zero_without_an_svd(self, monkeypatch):
        calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh(calls))
        assert largest_singular_value(np.zeros((3, 3), dtype=complex)) == 0.0
        assert AlgebraElement.from_blocks([np.zeros((2, 2)), [[-2.0]]]).norm() == 2.0
        assert calls == [(1, 1)]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
    def test_non_finite_entry_is_a_numerical_breakdown(self, bad):
        b = np.eye(3, dtype=complex)
        b[1, 2] = bad
        with pytest.raises(EigFailureError, match="3x3 block"):
            largest_singular_value(b)

    @pytest.mark.parametrize("where", ["stack", "row", "member"])
    def test_non_finite_stack_is_refused_before_lapack_prints(self, where, capfd):
        # LAPACK's scaling routine prints "** On entry to DLASCL ..." to fd 1 for an infinite entry
        b = _complex_stack(7, (16, 64, 64))
        b[{"stack": ..., "row": (5, 17), "member": 11}[where]] = np.inf
        with pytest.raises(EigFailureError, match=f"^singular values of 16 stacked 64x64 blocks {NOT_FINITE}$"):
            largest_singular_value(b)
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("scale", [5e-324, 1e-170, 1e170, 1e300])
    def test_squares_that_under_or_overflow_keep_the_exact_norm(self, scale):
        # the squared moduli sum to 0 or to inf, so the entries are read again before the SVD
        b = scale * np.array([[[1.0, 0.5j], [0.0, -1.0]], [[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]])
        assert np.array_equal(largest_singular_value(b), _one_svd_per_member(b))
        assert largest_singular_value(b[0]) == _one_svd_per_member(b[0])

    @pytest.mark.parametrize("stacked", [False, True], ids=["alone", "stacked"])
    @pytest.mark.parametrize("scale", [1e-161, 1e-160, 1e-158])
    def test_a_member_whose_gram_is_subnormal_keeps_its_norm(self, scale, stacked):
        # entries near 1e-160 square to subnormals, where a Gram keeps few digits: alone, the squared moduli
        # sum to below _SQUARES_BAND, and stacked with O(1) members, inside it, with the member's largest
        # eigenvalue below the band's floor; either way the member is scaled by a power of two first
        r = np.random.default_rng(160)
        tiny = scale * (r.standard_normal((4, 4)) + 1j * r.standard_normal((4, 4)))
        b = np.stack([tiny, *(r.standard_normal((2, 4, 4)) + 1j * r.standard_normal((2, 4, 4)))]) if stacked else tiny
        want = np.linalg.svd(b, compute_uv=False)[..., 0]
        # the bound of test_largest_singular_value_matches_the_svd_oracle at n = m = 4
        assert np.all(np.abs(largest_singular_value(b) - want) <= (4 + 2 * 4) * EPS * want)

    def test_nan_singular_values_are_a_numerical_breakdown(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, UPLO="L": np.full(a.shape[:-1], np.nan))
        with pytest.raises(EigFailureError, match="^singular values of a 2x2 block are NaN$"):
            largest_singular_value(np.eye(2))


class TestElementNorms:
    def test_bitwise_the_member_norms_and_kept(self, monkeypatch):
        r = rng(9)
        shape = BlockShape([3, 2, 1])
        elements = [random_element(r, shape) for _ in range(5)]
        elements += [zeros(shape), AlgebraElement(shape, [np.zeros((3, 3)), *elements[0].blocks[1:]])]
        want = [AlgebraElement(shape, x.blocks).norm() for x in elements]
        batch = stack(elements)
        got = batch.norm().tolist()
        assert [v.hex() for v in got] == [v.hex() for v in want]
        calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh(calls))
        assert batch.norm().tolist() == got
        assert calls == []

    def test_one_batched_svd_per_block(self, monkeypatch):
        r = rng(10)
        batch = stack([random_element(r, BlockShape([3, 2])) for _ in range(4)])
        calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh(calls))
        assert batch.norm().shape == (4,)
        assert calls == [(4, 3, 3), (4, 2, 2)]

    def test_one_shape(self):
        with pytest.raises(ShapeMismatchError):
            stack([random_element(rng(0), BlockShape([2])), random_element(rng(0), BlockShape([3]))])
        with pytest.raises(ShapeMismatchError, match=r"expected \(2, 3, 3\)"):
            AlgebraElement(BlockShape([2, 3]), [np.zeros((2, 2, 2)), np.zeros((3, 3, 3))])


def _one_svd_per_member(b: np.ndarray) -> np.ndarray:
    """The largest singular value of each matrix of a stack, one ``np.linalg.svd`` call per member."""
    flat = b.reshape(-1, *b.shape[-2:])
    return np.array([np.linalg.svd(m, compute_uv=False)[0] for m in flat]).reshape(b.shape[:-2])


def _one_kernel_call_per_member(b: np.ndarray) -> np.ndarray:
    """The largest singular value of each matrix of a stack, one call of the norm kernel per member."""
    flat = b.reshape(-1, *b.shape[-2:])
    return np.array([algebra._top_singular_values(m) for m in flat]).reshape(b.shape[:-2])


def _complex_stack(seed: int, shape: tuple) -> np.ndarray:
    r = np.random.default_rng(seed)
    return r.standard_normal(shape) + 1j * r.standard_normal(shape)


def _norm_in_child(b: np.ndarray, want: np.ndarray) -> None:
    """The target of a forked child: exit 0 when the norms of ``b`` are ``want``."""
    sys.exit(0 if np.array_equal(largest_singular_value(b), want) else 1)


class TestSplitNorms:
    """A large stack splits its members over a thread pool; each value is the one its own kernel call gives."""

    @pytest.fixture
    def cpus(self, monkeypatch):
        """Set the usable CPU count the split sees, with one BLAS thread, whatever the host has."""
        monkeypatch.setattr(algebra, "_blas_threads", lambda: 1)
        return lambda count: monkeypatch.setattr(algebra, "_usable_cpus", lambda: count)

    @pytest.mark.parametrize(
        "count, shape, parts",
        [
            (2, (16, 64, 64), 2),
            (2, (3, 7, 48, 48), 2),
            (2, (17, 64, 64), 2),  # 9 and 8 members
            (3, (17, 96, 96), 3),  # 6, 6 and 5 members
            (2, (4, 64, 64), 1),  # chunks of 2 x 64 would hold the GIL
            (1, (16, 64, 64), 1),
        ],
    )
    def test_bitwise_the_per_member_svds(self, cpus, count, shape, parts):
        cpus(count)
        b = _complex_stack(1, shape)
        assert algebra._parts(b) == parts
        assert np.array_equal(largest_singular_value(b), _one_kernel_call_per_member(b))

    @pytest.mark.parametrize("threads", [1, 2, None])
    @pytest.mark.parametrize("shape", [(16, 64, 64), (16, 64, 96), (16, 65, 65), (16, 96, 96)])
    def test_a_multithreaded_blas_splits_only_members_up_to_64(self, cpus, monkeypatch, threads, shape):
        cpus(2)
        monkeypatch.setattr(algebra, "_blas_threads", lambda: threads)
        split, unsplit = [], algebra._split_top_singular_values
        monkeypatch.setattr(algebra, "_split_top_singular_values", lambda b, parts: split.append(b.shape) or unsplit(b, parts))
        b = _complex_stack(8, shape)
        assert np.array_equal(largest_singular_value(b), _one_kernel_call_per_member(b))
        assert split == ([] if threads == 2 and min(shape[1:]) > 64 else [shape])

    def test_the_blas_thread_count_is_read_at_a_split_not_at_import(self):
        # numpy's bundled OpenBLAS reads 1 under OPENBLAS_NUM_THREADS=1; a numpy without it reads None
        code = ("import cstarflow.algebra as a; print(a._blas_threads.cache_info().currsize, a._blas_threads(),"
                " a._blas_threads.cache_info().misses)")
        src = os.path.dirname(os.path.dirname(algebra.__file__))
        path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
        assert out.stdout.split() in (["0", "1", "1"], ["0", "None", "1"])

    @pytest.mark.parametrize("view", [lambda b: b.swapaxes(-1, -2), lambda b: b[::2], lambda b: b.conj()[1::2, ::-1]])
    def test_bitwise_on_a_non_contiguous_view(self, cpus, view):
        cpus(2)
        b = view(_complex_stack(2, (32, 64, 64)))
        assert not b.flags.c_contiguous and algebra._parts(b) == 2
        assert np.array_equal(largest_singular_value(b), _one_kernel_call_per_member(b))

    def test_batch_norm_is_the_member_norms_taken_one_at_a_time(self, cpus):
        cpus(2)
        r = rng(11)
        shape = BlockShape([64, 8])
        batch = stack([random_element(r, shape) for _ in range(16)])
        want = [AlgebraElement(shape, [b[i] for b in batch.blocks]).norm() for i in range(16)]
        assert np.array_equal(batch.norm(), want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_member_on_the_pool_is_a_numerical_breakdown(self, cpus, bad):
        cpus(2)
        b = _complex_stack(3, (16, 64, 64))
        b[13, 2, 5] = bad  # members 8-15 are the chunk the pool would take
        with pytest.raises(EigFailureError, match=f"^singular values of 16 stacked 64x64 blocks {NOT_FINITE}$"):
            largest_singular_value(b)
        good = _complex_stack(4, (16, 64, 64))
        assert np.array_equal(largest_singular_value(good), _one_kernel_call_per_member(good))

    def test_an_svd_failure_on_the_pool_is_a_numerical_breakdown(self, cpus, monkeypatch):
        cpus(2)
        eigvalsh = np.linalg.eigvalsh

        def failing_off_the_main_thread(a, UPLO="L"):
            if threading.current_thread() is not threading.main_thread():
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigvalsh(a, UPLO)

        b = _complex_stack(5, (16, 64, 64))
        monkeypatch.setattr(np.linalg, "eigvalsh", failing_off_the_main_thread)
        with pytest.raises(EigFailureError,
                           match="^singular values of 16 stacked 64x64 blocks failed: Eigenvalues did not converge$"):
            largest_singular_value(b)
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        assert np.array_equal(largest_singular_value(b), _one_kernel_call_per_member(b))

    # Python 3.12 warns on any fork of a process that runs threads, and forking one is this test's point
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_a_child_forked_after_a_split_takes_a_large_norm(self, cpus):
        # the parent's pool threads do not exist in a forked child; a child that submitted to that pool would wait forever
        cpus(2)
        b = _complex_stack(6, (16, 64, 64))
        want = largest_singular_value(b)
        assert algebra._pool is not None
        child = multiprocessing.get_context("fork").Process(target=_norm_in_child, args=(b, want))
        child.start()
        try:
            child.join(timeout=30)
            assert not child.is_alive(), "the forked child still runs its first large norm"
            assert child.exitcode == 0
        finally:
            if child.is_alive():
                child.kill()
                child.join()

    def test_threads_racing_to_the_first_split_share_one_pool(self, cpus, monkeypatch, fresh_pool):
        cpus(2)
        made = []

        class Counted(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(self)
                time.sleep(0.01)  # widen the window between the check for a pool and its creation
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
        b = _complex_stack(7, (16, 64, 64))
        want = _one_kernel_call_per_member(b)
        results = []
        start = threading.Barrier(4)

        def norms():
            start.wait(timeout=10)
            results.extend(np.array_equal(largest_singular_value(b), want) for _ in range(3))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=norms) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert (results, len(made)) == ([True] * 12, 1)


class TestScaledNorms:
    """A scaled element, and a member of a batch, keep the norm the element already has."""

    def test_scaling_takes_no_singular_values(self, monkeypatch):
        r = rng(11)
        x = random_element(r, BlockShape([3, 2]))
        batch = stack([x, random_element(r, BlockShape([3, 2]))])
        x.norm(), batch.norm()
        calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh(calls))
        assert (-2.5 * x).norm() == 2.5 * x.norm()
        assert ((1 - 1j) * x).norm() == abs(1 - 1j) * x.norm()
        assert (np.array([2.0, 0.5j]) * batch).norm().tolist() == (np.array([2.0, 0.5]) * batch.norm()).tolist()
        assert (0.0 * batch).norm().tolist() == [0.0, 0.0]
        assert calls == []

    def test_scaled_module_operators_and_draws_take_no_further_singular_values(self, monkeypatch):
        op = identity_operator(BlockShape([2]), 2)
        op.norm()
        calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh(calls))
        assert (3.0 * op).norm() == 3.0
        assert calls == []
        x = random_element(rng(15), BlockShape([3, 2]), 2.0)  # scaled to norm 2 by one batched SVD
        assert x.norm() == pytest.approx(2.0, rel=4 * EPS)
        assert calls == [(1, 3, 3), (1, 2, 2)]

    def test_a_member_keeps_the_batch_norm(self, monkeypatch):
        r = rng(12)
        batch = stack([random_element(r, BlockShape([3, 2])) for _ in range(4)])
        norms = batch.norm()
        calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh(calls))
        assert batch[2].norm() == norms[2]
        assert batch[1:3].norm().tolist() == norms[1:3].tolist()
        assert batch[norms > np.median(norms)].norm().tolist() == norms[norms > np.median(norms)].tolist()
        assert calls == []

    def test_a_tuple_index_on_the_batch_axes_keeps_the_batch_norm(self, monkeypatch):
        # the verify runner's xab[:, 0]: a (4, 3) batch, one column of members
        r = rng(16)
        shape = BlockShape([3, 2])
        xab = stack([stack([random_element(r, shape) for _ in range(3)]) for _ in range(4)])
        norms = xab.norm()
        calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh(calls))
        assert xab[:, 0].norm().tolist() == norms[:, 0].tolist()
        assert xab[1, 2].norm() == norms[1, 2]
        assert calls == []

    @pytest.mark.parametrize("index", [(slice(None), slice(None), [0, 0]), (Ellipsis, [0, 0])],
                             ids=["three_entries", "ellipsis"])
    def test_an_index_that_may_reach_the_matrix_axes_takes_a_fresh_norm(self, index, monkeypatch):
        # on a (3, 2, 2) batch, both keep the batch's shape and put each member's first
        # column in place of its second
        batch = stack([random_element(rng(17), BlockShape([2])) for _ in range(3)])
        batch.norm()
        calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh(calls))
        picked = batch[index]
        assert picked.norm().tolist() == AlgebraElement(picked.shape, picked.blocks).norm().tolist()
        assert calls == [(3, 2, 2), (3, 2, 2)]

    def test_without_a_known_norm_the_product_takes_its_own(self, monkeypatch):
        x = random_element(rng(13), BlockShape([2]))
        calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh(calls))
        (3.0 * x).norm()
        assert calls == [(2, 2)]

    def test_an_overflowing_product_is_a_numerical_breakdown(self):
        x = AlgebraElement.from_blocks([[[1e10, 0.0], [0.0, 1.0]]])
        assert x.norm() == 1e10
        with np.errstate(over="ignore"):  # the entry 1e310 overflows as the product is formed
            big = 1e300 * x
        with pytest.raises(EigFailureError, match=f"2x2 block {NOT_FINITE}"):
            big.norm()

    def test_a_nan_factor_is_a_numerical_breakdown(self):
        x = random_element(rng(14), BlockShape([2]))
        batch = stack([x, x])
        x.norm(), batch.norm()
        with pytest.raises(EigFailureError, match="2x2 block"):
            (np.nan * x).norm()
        with pytest.raises(EigFailureError, match="2 stacked 2x2 blocks"):
            (np.array([1.0, np.nan]) * batch).norm()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([(1,), (3,), (2, 3), (6, 1)]),
    st.integers(1, 3),
    st.sampled_from(["real", "complex", "zero", "array"]),
    st.floats(-100.0, 100.0),
)
def test_scaled_norm_matches_the_svd_of_a_fresh_copy(seed, dims, members, kind, exponent):
    # members = 1 is a single element, whose norm is a float; more members make a batch
    r = rng(seed)
    drawn = [random_element(r, BlockShape(dims)) for _ in range(members)]
    xs = stack(drawn) if members > 1 else drawn[0]
    c = 10.0**exponent * {"real": -1.0, "complex": np.exp(2j * np.pi * r.uniform()), "zero": 0.0,
                          "array": gaussian(r, (members,))}[kind]
    xs.norm()
    got = (c * xs).norm()
    want = AlgebraElement(xs.shape, (c * xs).blocks).norm()
    assert np.all(np.abs(got - want) <= 4 * max(dims) * EPS * want)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([(1,), (2,), (3,), (2, 3), (4, 1)]),
    st.sampled_from(["hermitian", "perturbed", "random"]),
    st.sampled_from([1e-13, 1e-11, 1e-9]),
    st.sampled_from([HERM_TOL, 1e-12, 0.0]),
)
def test_is_hermitian_agrees_with_the_defect_svd_rule(seed, dims, kind, size, tol):
    r, shape = rng(seed), BlockShape(dims)
    x = random_element(r, shape)
    if kind != "random":
        x = 0.5 * (x + x.star())
        assert all(np.array_equal(b, b.conj().T) for b in x.blocks)  # bitwise Hermitian
    if kind == "perturbed":
        x = x + size * random_element(r, shape)
    defect = max(scipy.linalg.svdvals(b - b.conj().T)[0] for b in x.blocks)
    norm = max(scipy.linalg.svdvals(b)[0] for b in x.blocks)
    assert x.is_hermitian(tol) == (defect <= tol * max(norm, 1e-300))


def _oracle_member(r: np.random.Generator, kind: str, n: int, m: int) -> np.ndarray:
    """One n x m member of the kind the norm kernel finds hardest."""
    g = r.standard_normal((n, m)) + 1j * r.standard_normal((n, m))
    if kind == "rank_one":
        return np.outer(g[:, 0], g[0].conj())
    if kind == "isometry":  # every singular value equal, then split by 1e-12: near-equal top values
        q = np.linalg.qr(g)[0] if n >= m else np.linalg.qr(g.conj().T)[0].conj().T
        return r.uniform(0.5, 2.0) * q + 1e-12 * g
    return {"gaussian": 1.0, "zero": 0.0, "tiny": 1e-170, "huge": 1e170}[kind] * g


@settings(max_examples=120, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 12),
    st.integers(1, 12),
    st.lists(st.sampled_from(["gaussian", "rank_one", "isometry", "zero", "tiny", "huge"]), min_size=1, max_size=6),
)
def test_largest_singular_value_matches_the_svd_oracle(seed, n, m, kinds):
    # the Gram's rounding moves its largest eigenvalue by O(max(n, m) eps) relative, and its square root
    # halves that; tiny and huge members take the power-of-two scaling, inside a stack of O(1) members
    r = np.random.default_rng(seed)
    b = np.stack([_oracle_member(r, kind, n, m) for kind in kinds])
    want = np.linalg.svd(b, compute_uv=False)[..., 0]
    got = largest_singular_value(b)
    assert got.shape == (len(kinds),)
    assert np.all(np.abs(got - want) <= (4 + 2 * max(n, m)) * EPS * want)
    assert [v.hex() for v in got[want == 0]] == ["0x0.0p+0"] * int(np.sum(want == 0))
    assert [largest_singular_value(member) for member in b] == pytest.approx(got, rel=(4 + 2 * max(n, m)) * EPS)


def test_every_norm_of_the_bundled_configs_takes_no_svd(tmp_path, monkeypatch):
    # the norms a run of each bundled config takes, taken again with np.linalg.svd refused: the same values
    taken = []
    norm = algebra.largest_singular_value

    def recorded(b):
        value = norm(b)
        taken.append((b, value))
        return value

    monkeypatch.setattr(algebra, "largest_singular_value", recorded)
    monkeypatch.setattr(importlib.import_module("cstarflow.stone"), "largest_singular_value", recorded)
    for path in sorted(CONFIG_DIR.glob("*.json")):
        run(load_config(path), tmp_path / path.stem, quiet=True)
    monkeypatch.undo()

    def refused(*args, **kwargs):
        raise AssertionError("a norm called np.linalg.svd")

    monkeypatch.setattr(np.linalg, "svd", refused)
    assert len(taken) > 100
    for b, value in taken:
        assert np.array_equal(largest_singular_value(b), value)


class TestHermCalculus:
    def test_identity_function(self):
        h = random_hermitian(rng(3), BlockShape([3, 2]), 2.0)
        out = spectral(h).apply(lambda lam: lam)
        assert (out - h.value).norm() <= 1e-9 * max(1.0, h.norm())

    def test_diagonal_exp(self):
        h = HermitianElement(AlgebraElement.from_blocks([np.diag([0.0, np.log(2.0)])]))
        out = spectral(h).apply(np.exp)
        np.testing.assert_allclose(out.blocks[0], np.diag([1.0, 2.0]), atol=1e-12)

    def test_exp_vs_scaling_squaring(self):
        # independent oracle: scipy's scaling-and-squaring expm
        for seed in range(5):
            h = random_hermitian(rng(10 + seed), BlockShape([4, 3]), 3.0)
            ours = spectral(h).apply(np.exp)
            for blk, hb in zip(ours.blocks, h.value.blocks):
                np.testing.assert_allclose(blk, scipy.linalg.expm(hb), atol=1e-10)

    def test_spectral_reconstruction(self):
        h = random_hermitian(rng(4), BlockShape([4]), 2.0)
        sd = spectral(h)
        assert (sd.apply(lambda lam: lam) - h.value).norm() <= 1e-9 * max(1.0, h.norm())
        for u in sd.eigenvectors:
            np.testing.assert_allclose(u.conj().T @ u, np.eye(u.shape[0]), atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 6), min_size=1, max_size=3), st.sampled_from([(), (3,)]),
       st.complex_numbers(max_magnitude=2.0))
def test_identity_marked_eigenvectors_take_the_values_of_explicit_identities(seed, dims, batch, z):
    # None for U takes no product; a product with an exact identity adds only exact zeros to each entry,
    # so the two give the same entries, whether one side, the other or both are marked
    r = np.random.default_rng(seed)
    shape = BlockShape(dims)
    lams = [np.sort(r.standard_normal((*batch, n))) for n in dims]

    def eigendata(marked):
        return SpectralDecomposition(shape, tuple(lams), tuple(None if marked else np.eye(n, dtype=complex)
                                                              for n in dims))

    x = random_element(rng(seed), shape)
    phases = lambda lam, mu: np.exp(1j * z * (lam[..., :, None] - mu[..., None, :]))
    explicit = sandwich(eigendata(False), eigendata(False), x, phases)
    for left, right in ((True, True), (True, False), (False, True)):
        marked = sandwich(eigendata(left), eigendata(right), x, phases)
        assert all((p == q).all() for p, q in zip(marked.blocks, explicit.blocks))
    assert all((p == q).all() for p, q in zip(eigendata(True).apply(np.exp).blocks,
                                              eigendata(False).apply(np.exp).blocks))


class TestPower:
    def test_identity_any_exponent(self):
        one = identity(BlockShape([2, 2]))
        for z in (0.0, 1.0, 0.5, 2.0 + 1.0j, -3.0j):
            assert (power_at(one, z) - one).norm() <= 1e-12

    def test_diagonal_square_root(self):
        t = AlgebraElement.from_blocks([np.diag([4.0, 9.0])])
        np.testing.assert_allclose(power_at(t, 0.5).blocks[0], np.diag([2.0, 3.0]), atol=1e-12)

    def test_imaginary_power_phase_oracle(self):
        t = AlgebraElement.from_blocks([np.diag([np.e, 1.0])])
        out = power_at(t, 1j * np.pi)
        # oracle: entrywise exp(z ln lam) = diag(exp(i pi), 1)
        np.testing.assert_allclose(out.blocks[0], np.diag([-1.0 + 0.0j, 1.0 + 0.0j]), atol=1e-12)

    def test_zeroth_and_first_power(self):
        h = random_hermitian(rng(6), BlockShape([3]), 1.0)
        tpos = spectral(h).apply(np.exp)
        assert (power_at(tpos, 0) - identity(BlockShape([3]))).norm() <= 1e-12
        assert (power_at(tpos, 1) - tpos).norm() <= 1e-10 * tpos.norm()

    def test_rejects_kernel(self):
        with pytest.raises(NotStrictlyPositiveError):
            power(AlgebraElement.from_blocks([np.diag([1.0, 0.0])]), [0.5])

    def test_grid_of_exponents_decomposes_once(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counting(b):
            calls.append(b.shape)
            return eigh(b)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        t = spectral(random_hermitian(rng(5), BlockShape([3]), 1.0)).apply(np.exp)
        assert calls == [(3, 3)]  # decomposing the exponent h
        root = power_at(t, 0.5)
        power(t, [1j])
        assert calls == [(3, 3), (3, 3)]
        assert (root @ root - t).norm() <= 1e-12 * t.norm()

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotStrictlyPositiveError):
            power(e12(), [0.5])

    def test_second_power_takes_no_singular_values(self, monkeypatch):
        calls = []
        t = spectral(random_hermitian(rng(7), BlockShape([3, 2]), 1.0)).apply(np.exp)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh(calls))
        power(t, [0.5])
        assert calls == [(3, 3), (2, 2)] * 2  # the Hermitian defect and the norm
        power(t, [1j])
        assert calls == [(3, 3), (2, 2)] * 2

    def test_grid_of_exponents_gives_the_stacked_powers(self):
        t = spectral(random_hermitian(rng(8), BlockShape([3, 2]), 1.0)).apply(np.exp)
        grid = [0.5, 1j, -0.25 + 0.75j]
        stacks = power(t, grid).blocks
        assert [s.shape for s in stacks] == [(3, 3, 3), (3, 2, 2)]
        for g, z in enumerate(grid):
            one = power_at(t, z)
            for blocks, block in zip(stacks, one.blocks):
                assert np.abs(blocks[g] - block).max() <= 16 * EPS * one.norm()

    @pytest.mark.parametrize("z", [0.5, [[0.5, 1j]]], ids=["scalar", "2-D"])
    def test_exponent_shape_joins_the_batch(self, z):
        t = spectral(random_hermitian(rng(9), BlockShape([2]), 1.0)).apply(np.exp)
        got = power(t, z)
        assert got.blocks[0].shape == (*np.shape(z), 2, 2)
        for i in np.ndindex(np.shape(z)):
            np.testing.assert_array_equal(got[i].blocks[0], power(t, np.asarray(z)[i]).blocks[0])


class TestStrictPositivity:
    def test_identity(self):
        assert is_strictly_positive(identity(BlockShape([2, 3])))

    def test_kernel_fails(self):
        assert not is_strictly_positive(AlgebraElement.from_blocks([np.diag([1.0, 0.0])]))

    def test_charpoly_oracle(self):
        t = AlgebraElement.from_blocks([np.array([[2.0, 1.0], [1.0, 2.0]])])
        # oracle: roots of lam^2 - tr lam + det
        roots = np.roots([1.0, -4.0, 3.0])
        assert sorted(roots.real) == pytest.approx([1.0, 3.0])
        assert is_strictly_positive(t)


class TestFrozenBlocks:
    def test_a_caller_array_is_copied(self):
        block = np.array([[1.0, 2.0], [3.0, 4.0j]])
        x = AlgebraElement(BlockShape([2]), [block])
        block[0, 0] = 99.0
        assert x.blocks[0][0, 0] == 1.0
        assert not np.shares_memory(x.blocks[0], block)

    def test_operation_results_are_read_only(self):
        x = random_element(rng(7), BlockShape([2, 3]))
        y = x.star()
        for z in (x, y, x + y, 2.0 * x, x @ y, stack([x, y])[1], spectral(HermitianElement(x + y)).apply(np.exp)):
            assert all(not b.flags.writeable for b in z.blocks)
            with pytest.raises(ValueError):
                z.blocks[0][0, 0] = 1.0

    def test_an_operation_holds_its_result_once(self):
        # a 256 x 256 complex block is 1 MiB: a copy of the fresh sum would take the peak to 2 MiB
        x = random_element(rng(8), BlockShape([256]))
        tracemalloc.start()
        try:
            x + x
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20


class TestInvariants:
    def test_cstar_identity_100_random(self):
        r = rng(100)
        for _ in range(100):
            x = random_element(r, BlockShape([3, 2]))
            n2 = x.norm() ** 2
            assert abs((x.star() @ x).norm() - n2) <= 1e-10 * n2

    def test_calculus_homomorphism_polynomials(self):
        f = lambda lam: lam**2 + 1.0
        g = lambda lam: lam**3 - 2.0 * lam
        r = rng(101)
        for _ in range(10):
            h = random_hermitian(r, BlockShape([3, 2]), 2.0)
            prod = spectral(h).apply(lambda lam: f(lam) * g(lam))
            split = spectral(h).apply(f) @ spectral(h).apply(g)
            scale = max(1.0, prod.norm())
            assert (prod - split).norm() <= 1e-10 * scale

    def test_power_group_law(self):
        r = rng(102)
        for _ in range(10):
            h = random_hermitian(r, BlockShape([3]), np.log(10.0))  # condition <= 1e3 guaranteed
            t = spectral(h).apply(np.exp)
            y = complex(r.uniform(-1, 1), r.uniform(-1, 1))
            z = complex(r.uniform(-1, 1), r.uniform(-1, 1))
            lhs = power_at(t, y) @ power_at(t, z)
            rhs = power_at(t, y + z)
            assert (lhs - rhs).norm() <= 1e-10 * rhs.norm()

    def test_unitary_exponentials(self):
        r = rng(103)
        one = identity(BlockShape([4]))
        for t in (0.1, 1.0, 5.0, 10.0):
            h = random_hermitian(r, BlockShape([4]), 1.0)
            u = spectral(h).apply(lambda lam: np.exp(1j * t * lam))
            assert (u.star() @ u - one).norm() <= 1e-10


@settings(max_examples=30, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5)),
        min_size=2,
        max_size=2,
    )
)
def test_cstar_identity_hypothesis(data):
    blocks = [
        np.array([[complex(a, b), complex(c, d)], [complex(d, a), complex(b, c)]])
        for a, b, c, d in data
    ]
    x = AlgebraElement.from_blocks(blocks)
    n2 = x.norm() ** 2
    assert abs((x.star() @ x).norm() - n2) <= 1e-10 * max(n2, 1e-30)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_norm_is_largest_block_singular_value_hypothesis(data):
    dims = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    entries = st.floats(-1e3, 1e3, allow_nan=False)
    blocks = [
        np.array(data.draw(st.lists(entries, min_size=2 * n * n, max_size=2 * n * n)))
        .view(complex).reshape(n, n)
        for n in dims
    ]
    x = AlgebraElement.from_blocks(blocks)
    oracle = max(np.linalg.norm(b, 2) for b in blocks)
    assert abs(x.norm() - oracle) <= 4 * max(dims) * EPS * oracle


@settings(max_examples=30, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3))
def test_hermitian_exp_positive_hypothesis(a, b, c):
    # spectrum spread stays well inside the relative positivity cutoff
    h = HermitianElement(AlgebraElement.from_blocks([np.array([[a, complex(b, c)], [complex(b, -c), -a]])]))
    assert is_strictly_positive(spectral(h).apply(np.exp))


def _bitwise(a: AlgebraElement, b: AlgebraElement) -> bool:
    return a.shape == b.shape and all(np.array_equal(p, q) for p, q in zip(a.blocks, b.blocks))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 5), min_size=1, max_size=3),
       st.lists(st.integers(1, 4), min_size=1, max_size=2))
def test_batch_operations_act_per_member_bitwise_hypothesis(seed, dims, batch):
    # each operation on a batch equals the same operation on each member, bit for bit:
    # numpy's stacked LAPACK and BLAS calls are the per-matrix calls
    r, shape, batch = rng(seed), BlockShape(dims), tuple(batch)

    def draw() -> AlgebraElement:
        return AlgebraElement(shape, [gaussian(r, (*batch, n, n)) for n in dims])

    x, y, h_left, h_right = draw(), draw(), draw(), draw()
    h_left, h_right = 0.5 * (h_left + h_left.star()), 0.5 * (h_right + h_right.star())
    z = gaussian(r, batch)
    g = FlowGenerator(HermitianElement(h_left), HermitianElement(h_right))
    t = spectral(h_left).apply(lambda lam: np.exp(0.3 * lam))
    norms, sd, moved, powers = x.norm(), spectral(h_left), conjugate(g, z, x), power(t, z)
    assert norms.shape == batch
    for i in np.ndindex(batch):
        assert norms[i] == x[i].norm()
        assert _bitwise(x.star()[i], x[i].star())
        assert _bitwise((x + y)[i], x[i] + y[i])
        assert _bitwise((x @ y)[i], x[i] @ y[i])
        one = spectral(h_left[i])
        for lam, u, lam_i, u_i in zip(sd.eigenvalues, sd.eigenvectors, one.eigenvalues, one.eigenvectors):
            assert np.array_equal(lam[i], lam_i) and np.array_equal(u[i], u_i)
        g_i = FlowGenerator(HermitianElement(h_left[i]), HermitianElement(h_right[i]))
        assert _bitwise(moved[i], conjugate(g_i, z[i], x[i]))
        assert _bitwise(powers[i], power(t[i], z[i]))
