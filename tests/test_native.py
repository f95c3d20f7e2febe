"""The compiled per-column hash SpKAdd kernel and its loader.

Conformance: the ``fast`` backend must emit the same bytes with the C
kernel loaded and with it forced off (the NumPy loop), and the same
bytes as the ``instrumented`` table — on adversarial values (signed
zeros, NaN, infinities, subnormals, exact cancellation, int64 wrap) and
awkward structure (unsorted, empty columns, k=1, mixed dtypes, column
views, strided data).

Loader robustness: with no compiler, a failing compile, an unusable
cache, a corrupt cached library or two processes building at once, a
call still returns the right answer, warns at most once, and leaves no
partial file behind.
"""

import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels.fast
from repro.core.api import spkadd
from repro.formats.csc import CSCMatrix
from repro.kernels import native, sort_reduce
from tests.conftest import random_collection, shuffle_columns
from tests.test_property_based import COMMON, matrix_collection

STAT_FIELDS = (
    "input_nnz", "output_nnz", "bytes_read", "bytes_written",
    "col_in_nnz", "col_out_nnz", "col_ops",
)


def _same_stats(a, b, label):
    for field in STAT_FIELDS:
        x, y = getattr(a, field), getattr(b, field)
        assert np.array_equal(np.asarray(x), np.asarray(y)), f"{label}: {field}"


def assert_same_result(a, b, label):
    """Byte identity of arrays and dtypes, the sorted flag, and both
    phases' statistics."""
    for name in ("indptr", "indices", "data"):
        x, y = getattr(a.matrix, name), getattr(b.matrix, name)
        assert x.dtype == y.dtype, f"{label}: {name} dtype"
        assert x.tobytes() == y.tobytes(), f"{label}: {name} bytes"
    assert a.matrix.sorted == b.matrix.sorted, f"{label}: sorted flag"
    _same_stats(a.stats, b.stats, f"{label}: stats")
    _same_stats(a.stats_symbolic, b.stats_symbolic, f"{label}: stats_symbolic")


def run_paths(monkeypatch, mats, **kwargs):
    """The fast backend with the kernel, without it, and the
    instrumented table: ``(native, numpy, instrumented)`` results."""
    if native.library() is None:
        pytest.skip(f"no native kernel: {native.fallback_reason()}")
    with_lib = spkadd(mats, backend="fast", **kwargs)
    with monkeypatch.context() as mp:
        mp.setattr(native, "library", lambda: None)
        without = spkadd(mats, backend="fast", **kwargs)
    inst = spkadd(mats, backend="instrumented", **kwargs)
    return with_lib, without, inst


def check_conformance(monkeypatch, mats, label="", **kwargs):
    with_lib, without, inst = run_paths(monkeypatch, mats, **kwargs)
    assert_same_result(with_lib, without, f"{label} native vs numpy")
    canon = inst.matrix.copy()
    canon.sort_indices()
    for name in ("indptr", "indices", "data"):
        assert (
            getattr(with_lib.matrix, name).tobytes()
            == getattr(canon, name).tobytes()
        ), f"{label}: native vs instrumented {name}"
    return with_lib


def column_collection(columns, m, dtype, index_dtype=np.int32):
    """One single-column-per-entry matrix per addend: ``columns[i]`` is
    a list of ``(row, col, value)`` for addend ``i``."""
    n = 1 + max((c for entries in columns for _, c, _ in entries), default=0)
    mats = []
    for entries in columns:
        rows = np.array([r for r, _, _ in entries], dtype=index_dtype)
        cols = np.array([c for _, c, _ in entries], dtype=index_dtype)
        vals = np.array([v for _, _, v in entries], dtype=dtype)
        order = np.argsort(cols, kind="stable")
        indptr = np.zeros(n + 1, dtype=index_dtype)
        np.cumsum(np.bincount(cols, minlength=n), out=indptr[1:])
        mats.append(CSCMatrix(
            (m, n), indptr, rows[order], vals[order], sorted=False,
            check=True,
        ))
    return mats


FLOAT_POOL = [
    0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2e-308,
    1.5, -1.5, 1e308, -1e308, 3.0,
]


def float_pool_collection(dtype):
    """Seven 6x40 addends of 120 entries each, values drawn from
    :data:`FLOAT_POOL`, with many duplicate (row, column) pairs."""
    rng = np.random.default_rng(5)
    columns = [
        [
            (int(rng.integers(0, 6)), int(rng.integers(0, 40)),
             FLOAT_POOL[int(rng.integers(0, len(FLOAT_POOL)))])
            for _ in range(120)
        ]
        for _ in range(7)
    ]
    return column_collection(columns, 6, dtype)


def assert_same_bytes(a, b, label):
    for name in ("indptr", "indices", "data"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, f"{label}: {name} dtype"
        assert x.tobytes() == y.tobytes(), f"{label}: {name} bytes"


class TestValueConformance:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_adversarial_float_pool(self, monkeypatch, dtype):
        with np.errstate(over="ignore", invalid="ignore"):
            mats = float_pool_collection(dtype)
            check_conformance(monkeypatch, mats, str(dtype))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_signed_zero_follows_ieee(self, monkeypatch, dtype):
        # rows: 0 = -0 + -0, 1 = -0 + +0, 2 = +0 + -0, 3 = lone -0
        mats = column_collection(
            [[(0, 0, -0.0), (1, 0, -0.0), (2, 0, 0.0), (3, 0, -0.0)],
             [(0, 0, -0.0), (1, 0, 0.0), (2, 0, -0.0)]],
            4, dtype,
        )
        res = check_conformance(monkeypatch, mats)
        assert res.matrix.data.tolist() == [0.0, 0.0, 0.0, 0.0]
        assert np.signbit(res.matrix.data).tolist() == [True, False, False, True]

    def test_cancellation_stays_stored(self, monkeypatch):
        mats = column_collection(
            [[(0, 0, 1.5), (4, 1, 2.0)], [(0, 0, -1.5), (4, 1, -2.0)]],
            5, np.float64,
        )
        res = check_conformance(monkeypatch, mats)
        assert res.matrix.nnz == 2
        assert res.matrix.data.tolist() == [0.0, 0.0]

    def test_nan_inf_subnormal(self, monkeypatch):
        tiny = np.nextafter(0.0, 1.0)
        with np.errstate(invalid="ignore"):
            mats = column_collection(
                [[(0, 0, np.nan), (1, 0, np.inf), (2, 0, tiny)],
                 [(0, 0, 1.0), (1, 0, -np.inf), (2, 0, tiny)]],
                3, np.float64,
            )
            res = check_conformance(monkeypatch, mats)
        data = res.matrix.data
        assert np.isnan(data[0]) and np.isnan(data[1])
        assert data[2] == 2 * tiny

    def test_int64_wraps_like_numpy(self, monkeypatch):
        top = np.iinfo(np.int64).max
        mats = column_collection(
            [[(0, 0, top), (1, 0, -top)], [(0, 0, 1), (1, 0, -2)],
             [(0, 0, 5)]],
            2, np.int64,
        )
        res = check_conformance(monkeypatch, mats)
        with np.errstate(over="ignore"):
            expect = np.array([top, -top], dtype=np.int64)
            expect += np.array([1, -2], dtype=np.int64)
            expect += np.array([5, 0], dtype=np.int64)
        assert res.matrix.data.tolist() == expect.tolist()


INT_POOL = [
    np.iinfo(np.int64).max, np.iinfo(np.int64).min, -1, 0, 1,
    np.iinfo(np.int64).max - 3,
]


@settings(**COMMON)
@given(matrix_collection(), st.data(), st.sampled_from(
    [np.float64, np.float32, np.int64]))
def test_property_adversarial_values(monkeypatch, mats, data, dtype):
    """Random structure, values drawn only from the edge cases."""
    pool = INT_POOL if dtype == np.int64 else FLOAT_POOL
    with np.errstate(over="ignore", invalid="ignore"):
        adversarial = [
            CSCMatrix(
                A.shape, A.indptr, A.indices,
                np.array(data.draw(st.lists(
                    st.sampled_from(pool), min_size=A.nnz, max_size=A.nnz,
                )), dtype=dtype),
                sorted=A.sorted,
            )
            for A in mats
        ]
        check_conformance(monkeypatch, adversarial)


@pytest.mark.usefixtures("native_mode")
class TestAdversarialExecutors:
    """The adversarial float pool through the parallel executors: each
    chunk's sums, and the layout that joins them, must not change a
    byte of the serial fast result."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("method", ["hash", "sliding_hash"])
    @pytest.mark.parametrize("executor", ["thread", "shm"])
    def test_parallel_matches_serial(self, dtype, method, executor):
        with np.errstate(over="ignore", invalid="ignore"):
            mats = float_pool_collection(dtype)
            serial = spkadd(mats, method=method, backend="fast")
            par = spkadd(
                mats, method=method, backend="fast", threads=2,
                executor=executor,
            )
        assert_same_bytes(
            par.matrix, serial.matrix, f"{executor}/{method}/{dtype}"
        )

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("method", ["hash", "sliding_hash"])
    def test_thread_chunks_honour_caller_errstate(self, dtype, method):
        """``np.errstate`` is thread-local; the thread executor carries
        the caller's state into its chunks, so NaN/inf sums stay as
        silent as the serial call."""
        with np.errstate(over="ignore", invalid="ignore"):
            mats = float_pool_collection(dtype)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                spkadd(
                    mats, method=method, backend="fast", threads=2,
                    executor="thread",
                )
        assert not [w for w in caught if w.category is RuntimeWarning]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_sliding_matches_hash(self, dtype):
        with np.errstate(over="ignore", invalid="ignore"):
            mats = float_pool_collection(dtype)
            hashed = spkadd(mats, method="hash", backend="fast")
            slid = spkadd(
                mats, method="sliding_hash", backend="fast",
                table_entries=16,
            )
        assert_same_bytes(slid.matrix, hashed.matrix, str(dtype))


class TestStructuralConformance:
    def test_unsorted_inputs(self, monkeypatch):
        rng = np.random.default_rng(11)
        mats = [
            shuffle_columns(rng, A) for A in random_collection(12, 300, 9, 5)
        ]
        check_conformance(monkeypatch, mats, "unsorted")

    def test_empty_columns_and_addends(self, monkeypatch):
        mats = column_collection(
            [[(1, 0, 1.0), (2, 7, 2.0)], [], [(1, 7, 3.0)]], 4, np.float64
        )
        res = check_conformance(monkeypatch, mats, "empty")
        assert res.matrix.indptr.tolist() == [0, 1, 1, 1, 1, 1, 1, 1, 3]
        empty = [CSCMatrix.zeros((5, 3)) for _ in range(3)]
        check_conformance(monkeypatch, empty, "all empty")

    def test_single_addend(self, monkeypatch):
        rng = np.random.default_rng(2)
        (A,) = random_collection(13, 50, 6, 1)
        check_conformance(monkeypatch, [shuffle_columns(rng, A)], "k=1")

    @pytest.mark.parametrize("dtypes", [
        (np.int32, np.float32), (np.int32, np.int64), (np.bool_, np.int16),
        (np.float32, np.float32),
    ])
    def test_mixed_value_dtypes(self, monkeypatch, dtypes):
        mats = random_collection(14, 60, 7, 4)
        mats = [
            A.astype(dtypes[i % 2]) if dtypes[i % 2] != np.bool_
            else CSCMatrix(A.shape, A.indptr, A.indices, A.data > 0,
                           sorted=A.sorted)
            for i, A in enumerate(mats)
        ]
        check_conformance(monkeypatch, mats, str(dtypes))

    @pytest.mark.parametrize("index_dtype", [None, "int64"])
    def test_mixed_index_dtypes(self, monkeypatch, index_dtype):
        mats = random_collection(15, 70, 8, 4)
        mats[1] = mats[1].with_index_dtype(np.int64)
        mats[2] = mats[2].with_index_dtype(np.int32)
        check_conformance(monkeypatch, mats, "mixed index",
                          index_dtype=index_dtype)

    def test_column_view_chunks(self, monkeypatch):
        mats = random_collection(16, 90, 20, 5)
        for j0, j1 in ((0, 7), (7, 8), (8, 20), (3, 3)):
            views = [A.col_view(j0, j1) for A in mats]
            check_conformance(monkeypatch, views, f"view {j0}:{j1}")

    def test_strided_data(self, monkeypatch):
        mats = []
        for A in random_collection(17, 40, 6, 3):
            wide = np.empty(2 * A.nnz)
            wide[::2] = A.data
            strided = CSCMatrix(A.shape, A.indptr, A.indices, wide[::2],
                                sorted=A.sorted)
            assert not strided.data.flags.c_contiguous
            mats.append(strided)
        check_conformance(monkeypatch, mats, "strided")

    def test_threads_and_shm_match_serial(self, monkeypatch):
        mats = random_collection(18, 120, 23, 6)
        serial = spkadd(mats, backend="fast")
        for executor in ("thread", "shm"):
            got = spkadd(mats, backend="fast", threads=2, executor=executor)
            for name in ("indptr", "indices", "data"):
                assert (getattr(got.matrix, name).tobytes()
                        == getattr(serial.matrix, name).tobytes()), executor

    def test_heavy_columns_of_different_sizes(self, monkeypatch):
        # Column 0 holds 16384 input entries, column 1 about 12000: every
        # column's table must fit in the scratch sized for the largest.
        rng = np.random.default_rng(28)
        m = 1 << 16
        columns = [[], []]
        for col, per_addend in ((0, 8192), (1, 6000)):
            for entries in columns:
                rows = rng.choice(m, size=per_addend, replace=False)
                entries.extend((int(r), col, float(r % 7) - 3.0) for r in rows)
        mats = column_collection(columns, m, np.float64)
        res = check_conformance(monkeypatch, mats, "heavy columns")
        assert res.stats.col_in_nnz.tolist() == [16384, 12000]

    def test_malformed_indptr_is_rejected(self):
        if native.library() is None:
            pytest.skip("no native kernel")
        good = random_collection(27, 20, 4, 2)
        for bad_ptr in ([0, 3, 1, 4, 4], [-1, 0, 1, 2, 3], [0, 1, 2, 3, 99]):
            A = good[1]
            bad = CSCMatrix(A.shape, np.array(bad_ptr), A.indices, A.data,
                            sorted=False, check=False)
            with pytest.raises(ValueError, match="malformed CSC addend"):
                native.spkadd_columns([good[0], bad], np.float64, np.int32)

    def test_result_arrays_hold_exactly_nnz(self):
        if native.library() is None:
            pytest.skip("no native kernel")
        mats = column_collection(
            [[(0, 0, 1.0), (1, 0, 1.0)], [(0, 0, 1.0), (1, 0, 1.0)]],
            2, np.float64,
        )
        out = native.spkadd_columns(mats, np.float64, np.int32)
        indptr, indices, data, col_in = out
        assert indices.size == data.size == 2
        assert col_in.tolist() == [4]


class TestSignedZeroNumpyPath:
    """``sort_reduce`` seeds each slot as if with its first addend."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_all_negative_zero_slot_stays_negative(self, dtype):
        keys = np.array([3, 3, 5, 5, 7, 9], dtype=np.int64)
        vals = np.array([-0.0, -0.0, -0.0, 0.0, -0.0, 2.0], dtype=dtype)
        k, v = sort_reduce(keys, vals)
        assert k.tolist() == [3, 5, 7, 9]
        assert np.signbit(v).tolist() == [True, False, True, False]

    def test_complex_components(self):
        keys = np.array([1, 1, 2], dtype=np.int64)
        vals = np.array([complex(-0.0, 1.0), complex(-0.0, -1.0),
                         complex(0.0, -0.0)])
        _, v = sort_reduce(keys, vals)
        assert np.signbit(v.real).tolist() == [True, False]
        assert np.signbit(v.imag).tolist() == [False, True]

    def test_fast_matches_instrumented_on_negative_zeros(self, monkeypatch):
        monkeypatch.setattr(native, "library", lambda: None)
        mats = column_collection(
            [[(0, 0, -0.0), (1, 1, -0.0)], [(0, 0, -0.0), (1, 1, 0.0)]],
            2, np.float64,
        )
        for A in mats:
            A.sort_indices()
        for method in ("hash", "heap", "sliding_hash", "2way_tree", "spa"):
            fast = spkadd(mats, method=method).matrix.data
            inst = spkadd(mats, method="hash",
                          backend="instrumented").matrix.data
            assert fast.tobytes() == inst.tobytes(), method
            assert np.signbit(fast).tolist() == [True, False], method

    def test_numpy_path_goes_through_module_attribute(self, monkeypatch):
        calls = []
        original = repro.kernels.fast.sort_reduce

        def counted(keys, vals):
            calls.append(keys.size)
            return original(keys, vals)

        monkeypatch.setattr(native, "library", lambda: None)
        monkeypatch.setattr(repro.kernels.fast, "sort_reduce", counted)
        mats = random_collection(19, 30, 4, 3)
        spkadd(mats)
        assert sum(calls) == sum(A.nnz for A in mats)


class TestRowBounds:
    """A stored row outside ``[0, m)`` is a typed error naming the
    addend on every path, never a wrong answer."""

    @staticmethod
    def addends(rows_per_addend):
        return [
            CSCMatrix((4, 1), np.array([0, len(rows)]), np.array(rows),
                      np.arange(1.0, len(rows) + 1), sorted=False, check=False)
            for rows in rows_per_addend
        ]

    @pytest.mark.parametrize("rows, message", [
        ([[-1, 2], [9, 2]], r"addend 0 has row index -1 outside \[0, 4\)"),
        ([[1, 2], [9, 2]], r"addend 1 has row index 9 outside \[0, 4\)"),
    ])
    def test_fast_and_instrumented_raise(self, native_mode, rows, message):
        mats = self.addends(rows)
        for backend in ("fast", "instrumented"):
            with pytest.raises(ValueError, match=message):
                spkadd(mats, backend=backend)

    def test_row_mutated_out_of_range_after_a_plan(self, plans):
        mats = self.addends([[0, 2], [3, 2]])
        for _ in range(3):
            spkadd(mats)
        assert plans.plan_hits == 1
        mats[1].indices[0] = 4
        with pytest.raises(ValueError, match="addend 1 has row index 4"):
            spkadd(mats)
        assert plans.plan_rejects == 1


# ---------------------------------------------------------------------------
# The pattern cache: the second call with an index pattern builds a plan,
# later calls replay it.
# ---------------------------------------------------------------------------


@pytest.fixture
def plans(monkeypatch):
    """A loader state with an empty pattern cache and zeroed counters
    (the library itself is loaded again from its cache file)."""
    if native.library() is None:
        pytest.skip(f"no native kernel: {native.fallback_reason()}")
    state = native._State()
    monkeypatch.setattr(native, "_STATE", state)
    return state


def revalue(mats, rng, pool=None):
    """The same index arrays (the same objects) with new values."""
    out = []
    for A in mats:
        if pool is None:
            data = rng.random(A.data.size).astype(A.data.dtype)
        else:
            data = np.asarray(pool, dtype=A.data.dtype)[
                rng.integers(0, len(pool), A.data.size)]
        out.append(CSCMatrix(A.shape, A.indptr, A.indices, data,
                             sorted=A.sorted, check=False))
    return out


def kernel_only(monkeypatch, mats, **kwargs):
    """The fast backend with an empty cache (the plain kernel), and the
    NumPy loop, on ``mats``."""
    with monkeypatch.context() as mp:
        mp.setattr(native, "_STATE", native._State())
        kernel = spkadd(mats, backend="fast", **kwargs)
        mp.setattr(native, "library", lambda: None)
        numpy_loop = spkadd(mats, backend="fast", **kwargs)
    return kernel, numpy_loop


def assert_replays(monkeypatch, plans, mats, calls=4, pool=None, **kwargs):
    """``calls`` calls over the pattern of ``mats`` with new values each:
    every one matches the plain kernel and the NumPy loop byte for byte
    (dtypes and stats included), and every call from the third on is a
    plan hit."""
    rng = np.random.default_rng(31)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(calls):
            step = revalue(mats, rng, pool)
            got = spkadd(step, backend="fast", **kwargs)
            kernel, numpy_loop = kernel_only(monkeypatch, step, **kwargs)
            assert_same_result(got, kernel, f"call {i}: replay vs kernel")
            assert_same_result(got, numpy_loop, f"call {i}: replay vs numpy")
    assert (plans.plan_builds, plans.plan_hits, plans.plan_rejects) == (
        1, calls - 2, 0)
    return got


class TestPlanCache:
    @pytest.mark.parametrize("dtype, pool", [
        (np.float64, FLOAT_POOL), (np.float32, FLOAT_POOL),
        (np.int64, INT_POOL),
    ])
    def test_replay_is_byte_identical(self, monkeypatch, plans, dtype, pool):
        mats = [A.astype(dtype) for A in random_collection(40, 30, 12, 6)]
        assert_replays(monkeypatch, plans, mats, pool=pool)

    @pytest.mark.parametrize("in_dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("index_dtype", [None, "int32", "int64"])
    def test_index_widths(self, monkeypatch, plans, in_dtype, index_dtype):
        mats = [A.with_index_dtype(in_dtype)
                for A in random_collection(41, 90, 10, 5)]
        got = assert_replays(monkeypatch, plans, mats,
                             index_dtype=index_dtype)
        if index_dtype is not None:
            assert got.matrix.indices.dtype == np.dtype(index_dtype)

    def test_unsorted_inputs(self, monkeypatch, plans):
        rng = np.random.default_rng(42)
        mats = [shuffle_columns(rng, A)
                for A in random_collection(42, 60, 9, 5)]
        assert_replays(monkeypatch, plans, mats)

    def test_column_view_chunks(self, monkeypatch, plans):
        mats = random_collection(43, 80, 20, 5)
        for j0, j1 in ((0, 7), (8, 20)):
            plans.plan_builds = plans.plan_hits = 0
            assert_replays(monkeypatch, plans,
                           [A.col_view(j0, j1) for A in mats])

    def test_indptr_not_starting_at_zero(self, monkeypatch, plans):
        # Entries before indptr[0] are not part of the matrix; their
        # rows are deliberately invalid.
        padded = []
        for pad, A in enumerate(random_collection(44, 50, 8, 4), start=3):
            padded.append(CSCMatrix(
                A.shape, A.indptr + pad,
                np.concatenate([np.full(pad, -7, A.indices.dtype), A.indices]),
                np.concatenate([np.zeros(pad), A.data]),
                sorted=A.sorted, check=False,
            ))
        assert_replays(monkeypatch, plans, padded)

    def test_indices_mutated_in_place(self, monkeypatch, plans):
        rng = np.random.default_rng(45)
        mats = [shuffle_columns(rng, A)
                for A in random_collection(45, 40, 6, 4)]
        for _ in range(3):
            spkadd(revalue(mats, rng))
        assert plans.plan_hits == 1
        # Same arrays, same indptr, one row moved within its column.
        A = mats[2]
        col = int(np.flatnonzero(np.diff(A.indptr))[0])
        lo, hi = int(A.indptr[col]), int(A.indptr[col + 1])
        free = np.setdiff1d(np.arange(40), A.indices[lo:hi])
        A.indices[lo] = free[0]
        step = revalue(mats, rng)
        got = spkadd(step)
        kernel, numpy_loop = kernel_only(monkeypatch, step)
        assert_same_result(got, kernel, "after mutation")
        assert_same_result(got, numpy_loop, "after mutation")
        assert (plans.plan_hits, plans.plan_rejects) == (1, 1)
        assert all(p.plan is None for p in plans.patterns)
        # The mutated pattern counts as seen once: the next call builds
        # its plan and the one after replays it.
        spkadd(revalue(mats, rng))
        spkadd(revalue(mats, rng))
        assert (plans.plan_builds, plans.plan_hits) == (2, 2)

    def test_indptr_mutated_in_place(self, monkeypatch, plans):
        rng = np.random.default_rng(46)
        mats = random_collection(46, 40, 6, 4)
        for A in mats:
            A.sort_indices()
        for _ in range(3):
            spkadd(revalue(mats, rng))
        assert plans.plan_hits == 1
        # Move the last entry of a nonempty column into the next one.
        A = mats[1]
        col = int(np.flatnonzero(np.diff(A.indptr[:-1]))[0])
        A.indptr[col + 1] -= 1
        A.sort_indices()
        step = revalue(mats, rng)
        got = spkadd(step)
        kernel, numpy_loop = kernel_only(monkeypatch, step)
        assert_same_result(got, kernel, "after mutation")
        assert_same_result(got, numpy_loop, "after mutation")
        assert plans.plan_hits == 1
        fresh = native._lookup(plans.patterns[-1].key,
                               [np.require(B.indptr, np.int64) for B in mats])
        assert fresh is not None and fresh.plan is None

    def test_value_dtype_gets_its_own_plan(self, plans):
        mats = random_collection(47, 30, 5, 3)
        as32 = [A.astype(np.float32) for A in mats]
        for coll in (mats, mats, as32, mats, as32, as32):
            spkadd(coll)
        assert (plans.plan_builds, plans.plan_hits) == (2, 2)
        dtypes = sorted(str(p.key[1]) for p in plans.patterns)
        assert dtypes == ["float32", "float64"]
        assert all(p.plan is not None for p in plans.patterns)

    def test_byte_bound_evicts(self, monkeypatch, plans):
        # Tall and sparse, so rows rarely repeat and two plans of about
        # the same size do not fit in one and a half.
        first = random_collection(48, 10**6, 10, 4)
        second = random_collection(49, 10**6, 10, 4)
        for _ in range(2):
            spkadd(first)
        (plan,) = plans.patterns
        monkeypatch.setattr(native, "PLAN_CACHE_BYTES", 3 * plan.nbytes // 2)
        # ``first`` goes unfound for twice the entry bound of lookups,
        # so ``second``'s plan may evict it.
        for _ in range(2 * native.PLAN_CACHE_ENTRIES):
            spkadd(second)
        assert plans.plan_builds == 2
        assert len(plans.patterns) == 1
        assert plans.patterns[0] is not plan
        spkadd(first)
        assert plans.plan_hits == 0

    def test_recent_plan_is_not_evicted_for_a_new_one(self, monkeypatch,
                                                      plans):
        # Two patterns whose plans do not fit together, called in turn:
        # the first keeps its plan and the second builds none, where
        # plain LRU would build one and evict the other on every call.
        first = random_collection(48, 10**6, 10, 4)
        second = random_collection(49, 10**6, 10, 4)
        for _ in range(2):
            spkadd(first)
        (plan,) = plans.patterns
        monkeypatch.setattr(native, "PLAN_CACHE_BYTES", 3 * plan.nbytes // 2)
        for _ in range(4):
            spkadd(second)
            spkadd(first)
        assert (plans.plan_builds, plans.plan_hits) == (1, 4)
        assert [p.plan is not None for p in plans.patterns] == [False, True]

    def test_entry_bound_evicts(self, plans):
        colls = [random_collection(50 + i, 20, 4, 2)
                 for i in range(native.PLAN_CACHE_ENTRIES + 1)]
        for coll in colls:
            spkadd(coll)
        assert len(plans.patterns) == native.PLAN_CACHE_ENTRIES
        spkadd(colls[0])  # evicted: a first sighting again
        assert plans.plan_builds == 0

    def test_hypersparse_pattern_is_not_cached(self, plans):
        # More indptr entries than stored entries: snapshots would cost
        # more than replays save.
        mats = [A.embed_columns(400, 20 * i)
                for i, A in enumerate(random_collection(51, 30, 20, 4))]
        assert len(mats) * 401 > sum(A.nnz for A in mats)
        for _ in range(3):
            spkadd(mats)
        assert plans.patterns == [] and plans.plan_builds == 0

    def test_threads_replay_concurrently(self, monkeypatch, plans):
        # More threads than cores and a short switch interval, over two
        # cached plans: a lost counter update or a torn cache update
        # breaks the hit count or an answer.
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(60)
        colls = [random_collection(60 + i, 400, 30, 8) for i in range(2)]
        for mats in colls:
            for _ in range(2):
                spkadd(revalue(mats, rng))
        steps = [revalue(colls[i % 2], rng) for i in range(32)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                got = list(pool.map(lambda s: spkadd(s).matrix, steps,
                                    timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert (plans.plan_hits, plans.plan_builds) == (32, 2)
        for step, res in zip(steps, got):
            _, numpy_loop = kernel_only(monkeypatch, step)
            assert res.data.tobytes() == numpy_loop.matrix.data.tobytes()
            assert res.indices.tobytes() == numpy_loop.matrix.indices.tobytes()

    @pytest.mark.parametrize("executor", ["thread", "shm"])
    def test_repeated_parallel_calls(self, monkeypatch, plans, executor):
        mats = random_collection(61, 200, 24, 6)
        rng = np.random.default_rng(61)
        for _ in range(4):
            step = revalue(mats, rng)
            got = spkadd(step, threads=2, executor=executor).matrix
            _, numpy_loop = kernel_only(monkeypatch, step)
            for name in ("indptr", "indices", "data"):
                assert (getattr(got, name).tobytes()
                        == getattr(numpy_loop.matrix, name).tobytes())
        if executor == "thread":
            assert plans.plan_hits > 0

    def test_results_are_private(self, plans):
        mats = random_collection(62, 30, 5, 3)
        first = [spkadd(mats).matrix for _ in range(3)]
        again = spkadd(mats).matrix
        for res in first:
            res.indptr[:] = 0
            res.indices[:] = 0
            res.data[:] = 0
        assert spkadd(mats).matrix.data.tobytes() == again.data.tobytes()
        assert np.array_equal(spkadd(mats).matrix.indices, again.indices)


def test_numpy_loop_builds_no_plan(native_mode, monkeypatch):
    monkeypatch.setattr(native, "_STATE", native._State())
    mats = random_collection(63, 30, 5, 3)
    for _ in range(3):
        spkadd(mats)
    state = native._STATE
    if native_mode == "numpy":
        assert state.patterns == [] and state.plan_builds == 0
    else:
        assert (state.plan_builds, state.plan_hits) == (1, 1)


# ---------------------------------------------------------------------------
# Loader robustness.
# ---------------------------------------------------------------------------


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """A loader with no history (as in a new process) whose cache is a
    private temporary directory."""
    monkeypatch.setattr(native, "_STATE", native._State())
    cache = tmp_path / "cache"
    monkeypatch.setattr(native, "cache_dirs", lambda: [str(cache)])
    return cache


def fake_compiler(tmp_path, compile_ok):
    """A ``cc`` that reports a version and then fails (or copies the
    system compiler's real output) when asked to compile."""
    script = tmp_path / "fake-cc"
    real = native.compiler()
    body = (f'exec {real} "$@"' if compile_ok
            else 'echo "fake-cc: error: cannot compile" >&2; exit 1')
    script.write_text(textwrap.dedent(f"""\
        #!/bin/sh
        if [ "$1" = "--version" ]; then echo "fake-cc 1.0"; exit 0; fi
        {body}
    """))
    script.chmod(0o755)
    return str(script)


def leftover_temporaries(cache):
    return [p for p in cache.rglob("*") if p.name.endswith(".tmp")]


def fast_call_falls_back_once():
    """Two fast calls: right answer, exactly one native warning."""
    mats = random_collection(21, 80, 9, 4)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        first = spkadd(mats, backend="fast")
        second = spkadd(mats, backend="fast")
    inst = spkadd(mats, backend="instrumented").matrix
    for res in (first, second):
        assert res.matrix.data.tobytes() == inst.data.tobytes()
        assert res.matrix.indices.tobytes() == inst.indices.tobytes()
    ours = [w for w in caught if "native SpKAdd kernel" in str(w.message)]
    assert len(ours) == 1, [str(w.message) for w in caught]
    assert native.library() is None
    return str(ours[0].message)


class TestLoaderFallback:
    def test_no_compiler(self, fresh_loader, monkeypatch):
        monkeypatch.setattr(native, "compiler", lambda: None)
        message = fast_call_falls_back_once()
        assert "no C compiler" in message
        assert "no C compiler" in native.fallback_reason()
        assert not fresh_loader.exists() or not any(fresh_loader.iterdir())

    def test_compile_error(self, fresh_loader, monkeypatch, tmp_path):
        cc = fake_compiler(tmp_path, compile_ok=False)
        monkeypatch.setattr(native, "compiler", lambda: cc)
        message = fast_call_falls_back_once()
        assert "cannot compile" in message
        assert list(fresh_loader.iterdir()) == []

    def test_unwritable_cache_dir(self, fresh_loader, monkeypatch, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        monkeypatch.setattr(native, "cache_dirs",
                            lambda: [str(blocker / "repro")])
        fast_call_falls_back_once()
        assert "not a private writable directory" in native.fallback_reason()

    def test_corrupt_cached_library_is_rebuilt(self, fresh_loader):
        if native.compiler() is None:
            pytest.skip("no C compiler")
        path = native.library_path()
        assert path is not None and path.startswith(str(fresh_loader))
        # A new inode: this process still maps the built file, and
        # truncating a mapped library in place would fault it.
        os.unlink(path)
        with open(path, "wb") as fh:
            fh.write(b"not an ELF file")
        native._STATE = native._State()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert native.library_path() == path
        mats = random_collection(22, 50, 5, 3)
        inst = spkadd(mats, backend="instrumented").matrix
        assert spkadd(mats).matrix.data.tobytes() == inst.data.tobytes()
        assert leftover_temporaries(fresh_loader) == []

    def test_corrupt_cached_library_without_compiler(
        self, fresh_loader, monkeypatch, tmp_path
    ):
        cc = fake_compiler(tmp_path, compile_ok=False)
        monkeypatch.setattr(native, "compiler", lambda: cc)
        fresh_loader.mkdir(mode=0o700)
        planted = fresh_loader / f"spkadd-{native._cache_key(cc)}.so"
        planted.write_bytes(b"\x7fELF truncated")
        fast_call_falls_back_once()
        assert leftover_temporaries(fresh_loader) == []

    def test_unsupported_dtypes_fall_back(self, monkeypatch):
        if native.library() is None:
            pytest.skip("no native kernel")
        monkeypatch.setattr(native, "_STATE", native._State())
        mats = random_collection(23, 40, 5, 3)
        cplx = [A.astype(np.complex128) for A in mats]
        uns = [A.astype(np.uint64) for A in random_collection(24, 40, 5, 3)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for coll in (cplx, cplx, uns):
                got = spkadd(coll).matrix
                ref = spkadd(coll, backend="instrumented").matrix
                assert got.data.tobytes() == ref.data.tobytes()
        ours = [w for w in caught if "native SpKAdd kernel" in str(w.message)]
        assert len(ours) == 1
        assert "complex128" in str(ours[0].message)
        assert "uint64" in native.fallback_reason()
        # the library itself stays loaded for supported calls
        assert native.library() is not None

    def test_instrumented_is_unaffected(self, fresh_loader, monkeypatch):
        monkeypatch.setattr(native, "compiler", lambda: None)
        mats = random_collection(25, 60, 6, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spkadd(mats, backend="instrumented")
            spkadd(mats, backend="instrumented", threads=2, executor="shm")
        assert native._STATE.resolved is False


def test_two_processes_build_at_once(tmp_path):
    if native.compiler() is None:
        pytest.skip("no C compiler")
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(native.__file__))]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    code = (
        "from repro.kernels import native; "
        "print(native.library_path(), native.fallback_reason())"
    )
    procs = [
        subprocess.Popen([sys.executable, "-c", code], env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True)
        for _ in range(2)
    ]
    outputs = [p.communicate(timeout=300) for p in procs]
    assert all(p.returncode == 0 for p in procs), outputs
    paths = {out.split()[0] for out, _ in outputs}
    assert len(paths) == 1
    (path,) = paths
    assert path.startswith(str(tmp_path / "repro"))
    assert all(out.split()[1] == "None" for out, _ in outputs)
    assert sorted(p.name for p in (tmp_path / "repro").iterdir()) == [
        os.path.basename(path)
    ]


def _worker_loader_state():
    return native._STATE.path, native._STATE.lib is not None


def test_shm_workers_load_the_parents_library():
    from repro.parallel.pools import get_pool

    path = native.library_path()
    if path is None:
        pytest.skip("no native kernel")
    mats = random_collection(26, 100, 12, 4)
    spkadd(mats, threads=2, executor="shm")
    pool = get_pool(2)
    states = {pool.submit(_worker_loader_state).result(timeout=60)
              for _ in range(4)}
    # A worker that ran a chunk of that call holds the parent's library;
    # none ever loaded another one.
    assert (path, True) in states
    assert all(p == path for p, loaded in states if loaded)
