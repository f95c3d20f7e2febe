"""Dtype-generic value pipeline: formats -> kernels -> executors.

ISSUE-3 regression suite.  The contract: the dtype of the inputs is the
dtype of the output, end to end — scipy interop preserves the source
dtype (no ``.astype(float64)`` round-trip), COO keeps its values' dtype,
kernels accumulate in the resolved accumulator dtype (integer sums are
exact 64-bit), and the ``value_dtype=`` override on the facade /
streaming layer applies the documented promotion rules.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.api import spkadd
from repro.core.merge2 import merge_sorted_keyed
from repro.core.streaming import StreamingAccumulator, spkadd_streaming
from repro.formats.convert import from_scipy, to_scipy
from repro.formats.coo import COOMatrix
from repro.formats.csc import CSCMatrix
from repro.formats.csr import CSRMatrix
from repro.kernels import resolve_value_dtype

#: 2**53 is where float64 stops representing every integer; values above
#: it detect any float64 round-trip bit-exactly.
BIG = 2**53


def int_collection(k, dtype=np.int64, lo=-50, hi=50, seed=5, shape=(40, 9)):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(k):
        nnz = int(rng.integers(10, 60))
        out.append(
            CSCMatrix.from_arrays(
                shape,
                rng.integers(0, shape[0], nnz),
                rng.integers(0, shape[1], nnz),
                rng.integers(lo, hi, nnz).astype(dtype),
            )
        )
    return out


class TestResolveValueDtype:
    def test_preservation_and_promotion(self):
        assert resolve_value_dtype([np.float64]) == np.float64
        assert resolve_value_dtype([np.float32]) == np.float32
        assert resolve_value_dtype([np.float32, np.float32]) == np.float32
        # integer inputs accumulate in the exact wide integer
        assert resolve_value_dtype([np.int32]) == np.int64
        assert resolve_value_dtype([np.int64, np.int32]) == np.int64
        assert resolve_value_dtype([np.uint32]) == np.uint64
        # mixed int + float promotes to float
        assert resolve_value_dtype([np.int64, np.float64]) == np.float64
        # empty -> the historical default
        assert resolve_value_dtype([]) == np.float64

    def test_override_wins_and_widens(self):
        mats = [np.float64, np.float64]
        assert resolve_value_dtype(mats, np.float32) == np.float32
        assert resolve_value_dtype(mats, "int32") == np.int64
        assert resolve_value_dtype((), np.uint16) == np.uint64

    def test_accepts_matrices_or_dtypes(self):
        m = CSCMatrix.from_arrays(
            (3, 3), [0, 1], [0, 1], np.array([1, 2], dtype=np.int32)
        )
        assert resolve_value_dtype([m]) == np.int64
        assert resolve_value_dtype([m, np.float32]) == np.float64

    def test_rejects_non_numeric(self):
        with pytest.raises(TypeError):
            resolve_value_dtype((), np.dtype("datetime64[s]"))


class TestFormatPreservation:
    def test_from_arrays_preserves(self):
        for dt in (np.float32, np.int32, np.int64):
            m = CSCMatrix.from_arrays(
                (4, 4), [0, 1], [2, 3], np.array([1, 2], dtype=dt)
            )
            assert m.data.dtype == dt
        # explicit cast still available
        m = CSCMatrix.from_arrays(
            (4, 4), [0], [0], np.array([1], dtype=np.int32),
            value_dtype=np.float64,
        )
        assert m.data.dtype == np.float64

    def test_from_arrays_int64_beyond_2_53_exact(self):
        vals = np.array([BIG + 1, BIG + 3, 1], dtype=np.int64)
        m = CSCMatrix.from_arrays((5, 2), [0, 0, 4], [0, 0, 1], vals)
        # duplicates at (0,0) summed exactly in int64
        assert m.data.dtype == np.int64
        assert set(m.data.tolist()) == {2 * BIG + 4, 1}

    def test_from_columns_infers(self):
        cols = [
            (np.array([0, 2]), np.array([1, 2], dtype=np.int64)),
            (np.array([], dtype=np.int64), np.array([], dtype=np.float32)),
        ]
        m = CSCMatrix.from_columns((4, 2), cols)
        assert m.data.dtype == np.int64  # empty columns don't promote
        empty = CSCMatrix.from_columns(
            (4, 1), [(np.array([], dtype=np.int64), np.array([]))]
        )
        assert empty.data.dtype == np.float64  # all-empty fallback

    def test_astype(self):
        m = CSCMatrix.from_arrays((4, 2), [0, 1], [0, 1], [1.5, 2.5])
        same = m.astype(np.float64)
        assert same is m  # no-op returns self
        f32 = m.astype(np.float32)
        assert f32.data.dtype == np.float32
        assert f32.indices is m.indices  # index arrays shared
        assert np.allclose(f32.to_dense(), m.to_dense())
        forced = m.astype(np.float64, copy=True)
        assert forced is not m and forced.data is not m.data

    def test_coo_preserves_and_follows(self):
        vals = np.array([BIG + 1, 1, 2], dtype=np.int64)
        coo = COOMatrix((4, 4), [1, 1, 2], [3, 3, 0], vals)
        assert coo.vals.dtype == np.int64
        dedup = coo.sum_duplicates()
        assert dedup.vals.dtype == np.int64
        assert set(dedup.vals.tolist()) == {BIG + 2, 2}
        dense = dedup.to_dense()
        assert dense.dtype == np.int64
        assert dense[1, 3] == BIG + 2
        f32 = COOMatrix((2, 2), [0], [0], np.array([1.5], dtype=np.float32))
        assert f32.to_dense().dtype == np.float32

    def test_csr_preserves(self):
        m = CSRMatrix.from_arrays(
            (3, 3), [0, 2], [1, 2], np.array([7, 8], dtype=np.int32)
        )
        assert m.data.dtype == np.int32


class TestScipyRoundTrip:
    @pytest.mark.parametrize("fmt,cls", [("csc", CSCMatrix),
                                         ("csr", CSRMatrix)])
    def test_int64_beyond_2_53_roundtrips_exactly(self, fmt, cls):
        """ISSUE satellite: the old ``.astype(np.float64)`` dropped the
        source dtype and corrupted int64 values above 2**53."""
        vals = np.array([BIG + 1, BIG + 3, -7], dtype=np.int64)
        s = sp.coo_matrix(
            (vals, ([0, 3, 4], [1, 2, 0])), shape=(5, 5)
        )
        ours = from_scipy(s, fmt)
        assert isinstance(ours, cls)
        assert ours.data.dtype == np.int64
        assert sorted(ours.data.tolist()) == sorted(vals.tolist())
        back = to_scipy(ours)
        assert back.data.dtype == np.int64
        assert (abs(back - s.tocsc() if fmt == "csc" else back - s.tocsr())
                .nnz == 0)

    @pytest.mark.parametrize("dtype", [np.float32, np.int32, np.uint64])
    def test_other_dtypes_preserved(self, dtype):
        s = sp.random(6, 6, density=0.3, random_state=7, format="csc")
        s = s.astype(dtype)
        assert from_scipy(s, "csc").data.dtype == dtype
        assert from_scipy(s, "coo").vals.dtype == dtype


@pytest.mark.usefixtures("native_mode")
class TestFacadeOverride:
    def test_preservation_default(self):
        mats = int_collection(4, np.int64, lo=BIG, hi=BIG + 10)
        res = spkadd(mats, method="hash")
        assert res.matrix.data.dtype == np.int64
        dense = sum(A.to_dense() for A in mats)
        assert np.array_equal(res.matrix.to_dense(), dense)

    def test_float32_override(self):
        mats = [A.astype(np.float64) for A in int_collection(3)]
        res = spkadd(mats, value_dtype=np.float32)
        assert res.matrix.data.dtype == np.float32

    def test_int_request_widens(self):
        mats = int_collection(3, np.int32)
        res = spkadd(mats, value_dtype="int32")
        assert res.matrix.data.dtype == np.int64

    def test_override_applies_to_every_method(self):
        mats = [A.astype(np.float64) for A in int_collection(3)]
        for method in ("hash", "sliding_hash", "heap", "spa",
                       "2way_tree", "2way_incremental"):
            res = spkadd(mats, method=method, value_dtype=np.float32)
            assert res.matrix.data.dtype == np.float32, method

    def test_override_with_threads(self):
        mats = [A.astype(np.float64) for A in int_collection(4, seed=9)]
        ref = spkadd(mats, value_dtype=np.float32)
        for executor in ("thread", "shm"):
            got = spkadd(
                mats, threads=3, executor=executor, value_dtype=np.float32
            )
            assert got.matrix.data.dtype == np.float32
            assert np.array_equal(
                ref.matrix.data.view(np.uint8),
                got.matrix.data.view(np.uint8),
            ), executor

    def test_mixed_collection_promotes(self):
        a = int_collection(1, np.int64)[0]
        b = a.astype(np.float32)
        res = spkadd([a, b])
        assert res.matrix.data.dtype == np.float64

    def test_k1_add_free_paths_resolve_dtype(self):
        """k=1 collections take add-free short-circuits (no merge ever
        runs); they must still emit the resolved dtype so executors
        agree — the shm scratch is sized from it."""
        m = int_collection(1, np.int32)[0]
        for method in ("2way_incremental", "2way_tree", "scipy_tree",
                       "scipy_incremental", "hash", "heap", "spa"):
            res = spkadd([m], method=method)
            assert res.matrix.data.dtype == np.int64, method
        for executor in ("thread", "shm"):
            got = spkadd([m], method="2way_tree", threads=2,
                         executor=executor)
            assert got.matrix.data.dtype == np.int64, executor

    @pytest.mark.parametrize("method", ["scipy_tree", "scipy_incremental"])
    def test_scipy_baseline_resolved_dtype_and_exact(self, method):
        """The MKL-role baselines accumulate in the resolved dtype too:
        int32 inputs widen to exact int64 (scipy's raw + would wrap past
        2**31) and the output dtype matches every executor."""
        half = 2**30 * 3 // 2  # 2 * half overflows int32
        mats = [
            CSCMatrix.from_arrays(
                (8, 4), [0, 5], [1, 2], np.array([half, -7], dtype=np.int32)
            )
            for _ in range(2)
        ]
        ref = spkadd(mats, method=method)
        assert ref.matrix.data.dtype == np.int64
        assert set(ref.matrix.data.tolist()) == {2 * half, -14}
        if method == "scipy_tree":  # registry method usable in parallel
            for executor in ("thread", "shm"):
                got = spkadd(mats, method=method, threads=2,
                             executor=executor)
                assert got.matrix.data.dtype == np.int64, executor
                assert np.array_equal(ref.matrix.data, got.matrix.data)


class TestPairwiseAndStreaming:
    def test_merge_widens_integer_sums(self):
        ka = np.array([1, 5], dtype=np.int64)
        va = np.array([BIG, 3], dtype=np.int64)
        kb = np.array([1, 7], dtype=np.int64)
        vb = np.array([1, 2], dtype=np.int32)
        keys, vals = merge_sorted_keyed(ka, va, kb, vb)
        assert vals.dtype == np.int64
        assert dict(zip(keys.tolist(), vals.tolist())) == {
            1: BIG + 1, 5: 3, 7: 2
        }
        # empty side still lands on the accumulator dtype
        _, v = merge_sorted_keyed(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int32), kb, vb
        )
        assert v.dtype == np.int64

    def test_streaming_preserves_int64_exact(self):
        mats = int_collection(7, np.int64, lo=BIG, hi=BIG + 10, seed=13)
        got = spkadd_streaming(mats, batch_size=3)
        assert got.data.dtype == np.int64
        assert np.array_equal(
            got.to_dense(), sum(A.to_dense() for A in mats)
        )

    def test_streaming_k1_resolves_like_facade(self):
        """A length-1 stream takes the add-free batch path; its output
        dtype must still match the facade's resolved dtype."""
        m = int_collection(1, np.int32)[0]
        got = spkadd_streaming([m])
        assert got.data.dtype == np.int64
        assert np.array_equal(got.to_dense(), m.to_dense())
        acc = StreamingAccumulator()
        acc.push(m)
        assert acc.result().data.dtype == np.int64

    def test_streaming_override_and_accumulator(self):
        mats = [A.astype(np.float64) for A in int_collection(5, seed=17)]
        got = spkadd_streaming(mats, batch_size=2, value_dtype=np.float32)
        assert got.data.dtype == np.float32
        acc = StreamingAccumulator(batch_size=2, value_dtype=np.float32)
        for m in mats:
            acc.push(m)
        res = acc.result()
        assert res.data.dtype == np.float32
        assert np.array_equal(
            res.data.view(np.uint8), got.data.view(np.uint8)
        )


class TestHeapImplIdentity:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64,
                                       np.int32, np.int64])
    def test_merge_and_heapq_bit_identical(self, dtype):
        """The vectorized merge and the literal heapq loop accumulate
        strictly left to right in the resolved dtype, so they agree to
        the last bit on every dtype — reduceat's unspecified inner
        association used to leak ulp differences into duplicate-heavy
        float columns."""
        from repro.core.heap_add import spkadd_heap

        for seed in range(10):
            rng = np.random.default_rng(seed)
            mats = []
            for _ in range(4):
                nnz = int(rng.integers(5, 60))
                mats.append(CSCMatrix.from_arrays(
                    (20, 5),
                    rng.integers(0, 20, nnz), rng.integers(0, 5, nnz),
                    (rng.normal(size=nnz) * 20).astype(dtype),
                ))
            a = spkadd_heap(mats, impl="merge")
            b = spkadd_heap(mats, impl="heapq")
            assert a.data.dtype == b.data.dtype
            assert np.array_equal(a.indptr, b.indptr)
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(
                a.data.view(np.uint8), b.data.view(np.uint8)
            ), (dtype, seed)


class TestCLI:
    def test_demo_value_dtype_flag(self, capsys):
        from repro.__main__ import main

        rc = main([
            "demo", "--m", "64", "--n", "8", "--k", "3", "--d", "2",
            "--value-dtype", "float32",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "value_dtype=float32" in out
        assert "dtype=float32" in out
