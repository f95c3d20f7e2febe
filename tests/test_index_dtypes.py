"""Index-dtype-generic pipeline: formats -> kernels -> executors.

ISSUE-4 regression suite, the index-side mirror of ``test_dtypes.py``.
The contract: one index width per call — int32 whenever the matrix
dimensions and the summed input nnz fit, int64 otherwise
(``repro.kernels.resolve_index_dtype``) — emitted identically by every
method, backend, and executor; format constructors and scipy round
trips preserve integer index dtypes; and outputs whose bounds overflow
int32 transparently promote to int64 instead of wrapping, including
through the shm engine's symbolic sizing.

The suite is environment-robust: expected widths are computed through
the resolution rule itself, so the CI legs pinning
``REPRO_INDEX_DTYPE=int64`` run the same assertions at the wide width.
"""

import numpy as np
import pytest
import scipy.sparse as sp

import repro.formats.compressed as fc
from repro.core.api import spkadd
from repro.core.streaming import StreamingAccumulator, spkadd_streaming
from repro.core.symbolic import chunk_output_layout, exact_output_col_nnz
from repro.formats.compressed import (
    INDEX_DTYPE_ENV_VAR,
    build_indptr,
    min_index_dtype,
    resolve_index_dtype,
)
from repro.formats.convert import from_scipy, to_scipy
from repro.formats.coo import COOMatrix
from repro.formats.csc import CSCMatrix
from repro.formats.csr import CSRMatrix
from tests.conftest import assert_bit_identical

EXECUTORS = ("serial", "thread", "shm")
PARALLEL_EXECUTORS = ("thread", "shm")


def run(mats, executor, *, method="hash", threads=3, **kw):
    if executor == "serial":
        return spkadd(mats, method=method, threads=1, **kw)
    return spkadd(mats, method=method, threads=threads, executor=executor, **kw)


def index_collection(input_dtypes, seed=31, shape=(70, 11)):
    """One matrix per entry of ``input_dtypes``, indices stored in it."""
    rng = np.random.default_rng(seed)
    mats = []
    for dt in input_dtypes:
        nnz = int(rng.integers(25, 90))
        mats.append(
            CSCMatrix.from_arrays(
                shape,
                rng.integers(0, shape[0], nnz).astype(dt),
                rng.integers(0, shape[1], nnz).astype(dt),
                rng.normal(size=nnz),
            )
        )
    return mats


class TestResolveIndexDtype:
    @pytest.fixture(autouse=True)
    def _unpinned(self, monkeypatch):
        """These tests check the pure rule; drop any CI-leg env pin."""
        monkeypatch.delenv(INDEX_DTYPE_ENV_VAR, raising=False)

    def test_default_rule_small_is_int32(self):
        mats = index_collection([np.int64, np.int32])
        assert resolve_index_dtype(mats) == np.int32
        assert resolve_index_dtype(shape=(100, 10), nnz=50) == np.int32

    def test_default_rule_widens_on_bounds(self):
        cap = fc.INT32_INDEX_CAPACITY
        assert resolve_index_dtype(nnz=cap) == np.int32
        assert resolve_index_dtype(nnz=cap + 1) == np.int64
        assert resolve_index_dtype(shape=(cap + 1, 1)) == np.int64
        assert resolve_index_dtype(shape=(1, cap + 1)) == np.int64

    def test_override_pins_and_widens_narrow_requests(self):
        mats = index_collection([np.int32])
        assert resolve_index_dtype(mats, "int64") == np.int64
        assert resolve_index_dtype(mats, np.int32) == np.int32
        # narrower requests widen to the narrowest supported width
        assert resolve_index_dtype(mats, np.int16) == np.int32

    def test_safe_widening_guard_beats_override(self):
        assert resolve_index_dtype((), "int32", nnz=2**31) == np.int64
        assert (
            resolve_index_dtype((), "int32", shape=(2**31 + 5, 2))
            == np.int64
        )

    def test_rejects_non_signed_integer(self):
        with pytest.raises(TypeError):
            resolve_index_dtype((), np.float64)
        with pytest.raises(TypeError):
            resolve_index_dtype((), np.uint32)

    def test_env_pin_and_explicit_beats_env(self, monkeypatch):
        mats = index_collection([np.int32])
        monkeypatch.setenv(INDEX_DTYPE_ENV_VAR, "int64")
        assert resolve_index_dtype(mats) == np.int64
        assert resolve_index_dtype(mats, "int32") == np.int32
        monkeypatch.setenv(INDEX_DTYPE_ENV_VAR, "int32")
        assert resolve_index_dtype(mats) == np.int32
        # the guard applies to the env pin too
        assert resolve_index_dtype((), nnz=2**31) == np.int64

    def test_min_index_dtype(self):
        assert min_index_dtype(0) == np.int32
        assert min_index_dtype(fc.INT32_INDEX_CAPACITY) == np.int32
        assert min_index_dtype(fc.INT32_INDEX_CAPACITY + 1) == np.int64


class TestFormatPreservation:
    def test_from_arrays_preserves_integer_index_dtypes(self):
        for dt in (np.int32, np.int64):
            m = CSCMatrix.from_arrays(
                (40, 6),
                np.array([0, 5, 39], dtype=dt),
                np.array([1, 1, 5], dtype=dt),
                [1.0, 2.0, 3.0],
            )
            assert m.indices.dtype == dt
            assert m.indptr.dtype == dt
            r = CSRMatrix.from_arrays(
                (40, 6),
                np.array([0, 5, 39], dtype=dt),
                np.array([1, 1, 5], dtype=dt),
                [1.0, 2.0, 3.0],
            )
            assert r.indices.dtype == dt
            assert r.indptr.dtype == dt

    def test_from_arrays_python_lists_default_int64(self):
        m = CSCMatrix.from_arrays((4, 4), [0, 1], [2, 3], [1.0, 2.0])
        assert m.indices.dtype == np.int64

    def test_from_arrays_explicit_cast(self):
        m = CSCMatrix.from_arrays(
            (4, 4), [0, 1], [2, 3], [1.0, 2.0], index_dtype=np.int32
        )
        assert m.indices.dtype == np.int32
        assert m.indptr.dtype == np.int32

    def test_from_columns_infers_and_casts(self):
        cols = [
            (np.array([0, 2], dtype=np.int32), np.array([1.0, 2.0])),
            (np.array([], dtype=np.int32), np.array([])),
        ]
        m = CSCMatrix.from_columns((4, 2), cols)
        assert m.indices.dtype == np.int32
        mixed = CSCMatrix.from_columns(
            (4, 2),
            [
                (np.array([0], dtype=np.int32), np.array([1.0])),
                (np.array([1], dtype=np.int64), np.array([1.0])),
            ],
        )
        assert mixed.indices.dtype == np.int64  # result_type of the columns
        empty = CSCMatrix.from_columns(
            (4, 1), [(np.array([], dtype=np.float64), np.array([]))]
        )
        assert empty.indices.dtype == np.int64  # all-empty fallback

    def test_coo_preserves(self):
        coo = COOMatrix(
            (9, 9),
            np.array([1, 1, 2], dtype=np.int32),
            np.array([3, 3, 0], dtype=np.int32),
            [1.0, 2.0, 3.0],
        )
        assert coo.rows.dtype == np.int32
        assert coo.cols.dtype == np.int32
        dedup = coo.sum_duplicates()
        assert dedup.rows.dtype == np.int32

    def test_with_index_dtype_casts_and_checks(self):
        m = CSCMatrix.from_arrays((300, 3), [0, 299], [0, 2], [1.0, 2.0])
        assert m.with_index_dtype(np.int64) is m  # already int64
        narrow = m.with_index_dtype(np.int32)
        assert narrow.indices.dtype == np.int32
        assert narrow.indptr.dtype == np.int32
        assert np.array_equal(narrow.indices, m.indices)
        assert narrow.data is m.data  # values shared
        with pytest.raises(OverflowError):
            m.with_index_dtype(np.int8)  # row id 299 does not fit
        with pytest.raises(TypeError):
            m.with_index_dtype(np.float32)

    def test_build_indptr_width(self):
        ids = np.array([0, 1, 1, 2], dtype=np.int32)
        assert build_indptr(ids, 3).dtype == np.int64  # historical default
        p = build_indptr(ids, 3, index_dtype=np.int32)
        assert p.dtype == np.int32
        assert list(p) == [0, 1, 3, 4]

    def test_zeros_index_dtype(self):
        z = CSCMatrix.zeros((5, 5), index_dtype=np.int32)
        assert z.indices.dtype == np.int32
        assert z.indptr.dtype == np.int32


class TestScipyRoundTrip:
    @pytest.mark.parametrize("fmt,cls", [("csc", CSCMatrix), ("csr", CSRMatrix)])
    def test_int32_preserved_both_ways(self, fmt, cls):
        """scipy stores int32 indices for small matrices; the old
        converter widened them to int64, doubling index bytes."""
        s = sp.random(50, 20, density=0.2, random_state=3, format=fmt)
        assert s.indices.dtype == np.int32  # scipy's own width choice
        ours = from_scipy(s, fmt)
        assert isinstance(ours, cls)
        assert ours.indices.dtype == np.int32
        assert ours.indptr.dtype == np.int32
        back = to_scipy(ours)
        assert back.indices.dtype == np.int32
        assert (abs(back - (s.tocsc() if fmt == "csc" else s.tocsr()))).nnz == 0

    def test_int64_scipy_preserved(self):
        s = sp.random(30, 10, density=0.2, random_state=4, format="csc")
        s.indices = s.indices.astype(np.int64)
        s.indptr = s.indptr.astype(np.int64)
        ours = from_scipy(s, "csc")
        assert ours.indices.dtype == np.int64


@pytest.mark.usefixtures("native_mode")
class TestConformance:
    #: index-dtype axis: the width the *inputs* are stored in.  The
    #: emitted width is bounds-resolved (identical across the axis),
    #: which is exactly what the cross-axis bit-identity check proves.
    INDEX_AXIS = {
        "int32": [np.int32] * 5,
        "int64": [np.int64] * 5,
        "mixed": [np.int32, np.int64, np.int32, np.int64, np.int32],
    }

    @pytest.mark.parametrize("backend", ["fast", "instrumented"])
    @pytest.mark.parametrize("axis", sorted(INDEX_AXIS))
    def test_index_axis_bit_identical_across_executors(self, axis, backend):
        mats = index_collection(self.INDEX_AXIS[axis])
        expect = resolve_index_dtype(mats)
        ref = run(mats, "serial", backend=backend)
        assert ref.matrix.indices.dtype == expect, axis
        assert ref.matrix.indptr.dtype == expect, axis
        for executor in PARALLEL_EXECUTORS:
            got = run(mats, executor, backend=backend)
            assert_bit_identical(ref.matrix, got.matrix, f"{axis}/{executor}")

    def test_axis_choices_agree_with_each_other(self):
        """Storing the same logical inputs at different widths must not
        change a single output bit (dtype included)."""
        base = index_collection(self.INDEX_AXIS["int64"])
        as32 = [A.with_index_dtype(np.int32) for A in base]
        r64 = run(base, "serial")
        r32 = run(as32, "serial")
        assert_bit_identical(r64.matrix, r32.matrix)

    @pytest.mark.parametrize(
        "method", ["hash", "sliding_hash", "spa", "heap", "2way_tree",
                   "scipy_tree"]
    )
    def test_methods_share_one_width(self, method):
        mats = index_collection(self.INDEX_AXIS["mixed"], seed=77)
        expect = resolve_index_dtype(mats)
        ref = run(mats, "serial", method=method)
        assert ref.matrix.indices.dtype == expect, method
        assert ref.matrix.indptr.dtype == expect, method
        for executor in PARALLEL_EXECUTORS:
            got = run(mats, executor, method=method)
            assert_bit_identical(ref.matrix, got.matrix, f"{method}/{executor}")

    def test_unsorted_inputs_conform(self):
        rng = np.random.default_rng(8)
        mats = []
        for A in index_collection(self.INDEX_AXIS["int32"], seed=9):
            indices = A.indices.copy()
            data = A.data.copy()
            for j in range(A.shape[1]):
                lo, hi = int(A.indptr[j]), int(A.indptr[j + 1])
                perm = rng.permutation(hi - lo)
                indices[lo:hi] = indices[lo:hi][perm]
                data[lo:hi] = data[lo:hi][perm]
            mats.append(
                CSCMatrix(A.shape, A.indptr.copy(), indices, data,
                          sorted=False, check=False)
            )
        assert mats[0].indices.dtype == np.int32
        ref = run(mats, "serial")
        assert ref.matrix.indices.dtype == resolve_index_dtype(mats)
        for executor in PARALLEL_EXECUTORS:
            assert_bit_identical(ref.matrix, run(mats, executor).matrix)


@pytest.mark.usefixtures("native_mode")
class TestOverride:
    def test_override_applies_to_every_method(self):
        mats = index_collection([np.int32] * 3, seed=5)
        for method in ("hash", "sliding_hash", "heap", "spa", "2way_tree",
                       "2way_incremental", "scipy_tree", "scipy_incremental"):
            res = spkadd(mats, method=method, index_dtype="int64")
            assert res.matrix.indices.dtype == np.int64, method
            assert res.matrix.indptr.dtype == np.int64, method

    def test_override_with_threads_bit_identical(self):
        mats = index_collection([np.int32] * 4, seed=6)
        ref = spkadd(mats, method="hash", index_dtype="int64")
        assert ref.matrix.indices.dtype == np.int64
        for executor in PARALLEL_EXECUTORS:
            got = spkadd(mats, method="hash", threads=3, executor=executor,
                         index_dtype="int64")
            assert_bit_identical(ref.matrix, got.matrix, executor)

    def test_streaming_override(self):
        mats = index_collection([np.int64] * 5, seed=7)
        got = spkadd_streaming(mats, batch_size=2, index_dtype="int64")
        assert got.indices.dtype == np.int64
        acc = StreamingAccumulator(batch_size=2, index_dtype="int64")
        for m in mats:
            acc.push(m)
        res = acc.result()
        assert res.indices.dtype == np.int64
        assert np.array_equal(res.indices, got.indices)
        assert np.array_equal(res.data, got.data)

    def test_streaming_default_resolves(self, monkeypatch):
        monkeypatch.delenv(INDEX_DTYPE_ENV_VAR, raising=False)
        mats = index_collection([np.int64] * 3, seed=11)
        got = spkadd_streaming(mats, batch_size=2)
        assert got.indices.dtype == np.int32  # small bounds resolve narrow

    def test_cli_index_dtype_flag(self, capsys):
        from repro.__main__ import main

        rc = main([
            "demo", "--m", "64", "--n", "8", "--k", "3", "--d", "2",
            "--index-dtype", "int64",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "index_dtype=int64" in out
        assert "idx=int64" in out


@pytest.mark.usefixtures("native_mode")
class TestOverflowPromotion:
    """The int32 -> int64 safe-widening guard, exercised two ways: at
    the real 2**31 boundary on the layout arithmetic (cheap — only the
    counts are large), and end-to-end through every executor with the
    module's int32 capacity lowered so promotion triggers without
    materializing 2**31 entries."""

    def test_layout_promotes_at_real_boundary(self):
        col_nnz = np.array([2**30, 2**30, 2**30, 2**30], dtype=np.int64)
        indptr, offsets = chunk_output_layout(
            col_nnz, [(0, 2), (2, 4)], index_dtype=np.int32
        )
        assert indptr.dtype == np.int64  # promoted, not wrapped
        assert int(indptr[-1]) == 2**32
        assert offsets == [(0, 2**31), (2**31, 2**32)]
        narrow, _ = chunk_output_layout(
            np.array([5, 5], dtype=np.int64), [(0, 2)], index_dtype=np.int32
        )
        assert narrow.dtype == np.int32

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_promotes_on_every_executor(self, executor, monkeypatch):
        mats = index_collection([np.int32] * 4, seed=13)
        total_in = sum(A.nnz for A in mats)
        ref = run(mats, executor, index_dtype="int32")
        # Lower the capacity below this call's bound: the same int32
        # request must now transparently promote.
        monkeypatch.setattr(fc, "INT32_INDEX_CAPACITY", total_in - 1)
        got = run(mats, executor, index_dtype="int32")
        assert got.matrix.indices.dtype == np.int64, executor
        assert got.matrix.indptr.dtype == np.int64, executor
        assert np.array_equal(got.matrix.indices, ref.matrix.indices)
        assert np.array_equal(got.matrix.indptr, ref.matrix.indptr)
        assert np.array_equal(got.matrix.data, ref.matrix.data)

    def test_shm_symbolic_sizing_promotes(self, monkeypatch):
        """The shm engine's preallocated output layout (symbolic
        sizing) must come out in the promoted width and still predict
        the exact per-column counts."""
        mats = index_collection([np.int32] * 4, seed=17)
        exact = exact_output_col_nnz(mats)
        monkeypatch.setattr(
            fc, "INT32_INDEX_CAPACITY", sum(A.nnz for A in mats) - 1
        )
        out = run(mats, "shm").matrix
        assert out.indptr.dtype == np.int64
        assert out.indices.dtype == np.int64
        assert np.array_equal(np.diff(out.indptr), exact)

    def test_assemble_widens_indptr(self, monkeypatch):
        from repro.core.blocks import assemble_from_block_outputs

        monkeypatch.setattr(fc, "INT32_INDEX_CAPACITY", 3)
        out = assemble_from_block_outputs(
            (10, 2),
            [(0, np.array([0, 0, 1, 1]), np.array([1, 2, 0, 3]),
              np.ones(4))],
            sorted=True,
            index_dtype=np.int32,
        )
        assert out.indptr.dtype == np.int64  # 4 entries > lowered capacity

    @pytest.mark.parametrize("executor", ["thread", "serial"])
    def test_slot_layout_at_int32_layout_boundary(
        self, executor, monkeypatch
    ):
        """The in-process stages lay their chunks out in the
        call-resolved ``indptr`` from per-chunk counts.  Pin the
        capacity to *exactly* the call's bound, so the resolution keeps
        the narrowest width it possibly can and the largest pointer
        entries land right at the top of the layout — the layout must
        cast through the resolved dtype, never wrap."""
        mats = index_collection([np.int32] * 4, seed=23)
        total_in = sum(A.nnz for A in mats)
        ref = run(mats, executor)
        monkeypatch.setattr(fc, "INT32_INDEX_CAPACITY", total_in)
        expect = resolve_index_dtype(mats)
        got = run(mats, executor)
        assert got.matrix.indptr.dtype == expect, executor
        assert got.matrix.indices.dtype == expect, executor
        assert int(got.matrix.indptr[-1]) == got.matrix.nnz
        assert np.array_equal(got.matrix.indptr, ref.matrix.indptr)
        assert np.array_equal(got.matrix.indices, ref.matrix.indices)
        assert np.array_equal(got.matrix.data, ref.matrix.data)
        # One past the boundary the same call must widen instead.
        monkeypatch.setattr(fc, "INT32_INDEX_CAPACITY", total_in - 1)
        wide = run(mats, executor)
        assert wide.matrix.indptr.dtype == np.int64, executor
        assert np.array_equal(wide.matrix.indptr, ref.matrix.indptr)
