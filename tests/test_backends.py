"""Cross-backend equivalence: the fast engine must match the paper one.

The ``fast`` sort/reduce backend claims *bit-identical* matrices to the
``instrumented`` probing hash table — not merely close: both reduce
duplicates of a key in first-occurrence order, so even float sums agree
exactly.  These tests assert that across methods, sortedness, thread
counts, executors, and generated + property-based workloads, plus the
registry/resolution rules themselves.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.api import spkadd
from repro.core.hash_add import hash_symbolic, spkadd_hash
from repro.core.sliding_hash import spkadd_sliding_hash
from repro.core.stats import KernelStats
from repro.formats.convert import transpose_csc
from repro.formats.ops import matrices_equal
from repro.generators import erdos_renyi_collection, rmat_collection
from repro.distributed.spgemm_local import LocalSpGEMMStats, local_spgemm
from repro.kernels import available_backends, resolve_backend, sort_reduce
from repro.parallel.executor import parallel_spkadd
from tests.conftest import random_collection
from tests.test_property_based import COMMON, matrix_collection


def canon(mat):
    out = mat.copy()
    out.sort_indices()
    return out


def assert_bit_identical(a, b, context=""):
    a, b = canon(a), canon(b)
    assert a.shape == b.shape, context
    assert np.array_equal(a.indptr, b.indptr), context
    assert np.array_equal(a.indices, b.indices), context
    # exact — not allclose: the backends must agree to the last bit
    assert np.array_equal(a.data, b.data), context


class TestRegistry:
    def test_available(self):
        assert available_backends() == ("fast", "instrumented")

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("quantum")

    def test_resolution_defaults(self):
        assert resolve_backend(None) == "fast"
        assert resolve_backend("auto") == "fast"
        assert resolve_backend("fast") == "fast"
        assert resolve_backend("instrumented") == "instrumented"

    def test_direct_calls_default_to_fast(self, small_collection):
        """Every hash-family entry point, not only the facade, runs the
        fast engine when no backend is named: its stats carry no slot
        operations."""
        res = parallel_spkadd(small_collection, threads=1, executor="thread")
        assert res.stats.ops == 0 and res.stats.probes == 0
        st = KernelStats()
        spkadd_hash(small_collection, stats=st)
        assert st.ops == 0 and st.probes == 0
        A = small_collection[0]
        mst = LocalSpGEMMStats()
        local_spgemm(A, transpose_csc(A), stats=mst)
        assert mst.flops > 0
        assert mst.hash_ops == 0 and mst.probes == 0

    def test_stale_backend_env_is_ignored(self, small_collection,
                                          monkeypatch):
        """``REPRO_BACKEND`` is no knob any more: a pin left in the
        environment cannot swap the engine under any entry point."""
        from repro.env import KNOBS

        assert "REPRO_BACKEND" not in KNOBS
        monkeypatch.setenv("REPRO_BACKEND", "instrumented")
        assert resolve_backend(None) == "fast"
        assert spkadd(small_collection, method="hash").stats.ops == 0
        st = KernelStats()
        spkadd_hash(small_collection, stats=st)
        assert st.ops == 0

    def test_sliding_and_symbolic_default_to_fast(self, small_collection):
        """The sliding-hash and symbolic entry points, too, run the fast
        engine when no backend is named."""
        st = KernelStats()
        spkadd_sliding_hash(small_collection, stats=st)
        assert st.ops == 0 and st.probes == 0
        st_sym = KernelStats()
        hash_symbolic(small_collection, stats=st_sym)
        assert st_sym.ops == 0 and st_sym.probes == 0
        # ... where the instrumented engine meters slot operations.
        inst, inst_sym = KernelStats(), KernelStats()
        spkadd_sliding_hash(small_collection, stats=inst,
                            backend="instrumented")
        hash_symbolic(small_collection, stats=inst_sym,
                      backend="instrumented")
        assert inst.ops > 0 and inst_sym.ops > 0

    def test_trace_forces_instrumented(self):
        assert resolve_backend(None, need_trace=True) == "instrumented"
        with pytest.raises(ValueError, match="trace"):
            resolve_backend("fast", need_trace=True)

    @pytest.mark.parametrize("kernel", [spkadd_hash, spkadd_sliding_hash])
    def test_fast_rejects_trace_capture(self, kernel, small_collection):
        with pytest.raises(ValueError, match="trace"):
            kernel(small_collection, backend="fast", trace_sink=[])

    def test_facade_rejects_backend_for_non_hash(self, small_collection):
        with pytest.raises(ValueError, match="backend"):
            spkadd(small_collection, method="heap", backend="fast")


class TestSortReduce:
    def test_duplicates_first_occurrence_order(self):
        keys = np.array([7, 7, 2, 7], dtype=np.int64)
        vals = np.array([1.0, 10.0, 5.0, 100.0])
        k, v = sort_reduce(keys, vals)
        assert list(k) == [2, 7]
        assert list(v) == [5.0, 111.0]

    def test_empty(self):
        k, v = sort_reduce(np.empty(0, dtype=np.int64), np.empty(0))
        assert k.size == 0 and v.size == 0

    def test_integer_dtype_preserved(self):
        k, v = sort_reduce(
            np.array([3, 3], dtype=np.int64), np.array([1, 2], dtype=np.int32)
        )
        assert v.dtype == np.int64
        assert list(v) == [3]

    def test_mismatched_shapes(self):
        with pytest.raises(ValueError):
            sort_reduce(np.array([1, 2], dtype=np.int64), np.array([1.0]))


WORKLOADS = [
    ("er", lambda: erdos_renyi_collection(1 << 10, 24, d=8.0, k=8, seed=3)),
    ("rmat", lambda: rmat_collection(1 << 10, 32, d=8.0, k=8, seed=4)),
]


@pytest.mark.usefixtures("native_mode")
class TestCrossBackendEquivalence:
    """fast == instrumented on ER/RMAT inputs for all hash-family
    methods x sorted_output x threads, with the compiled kernel loaded
    and with it forced off."""

    @pytest.mark.parametrize("pattern", [w[0] for w in WORKLOADS])
    @pytest.mark.parametrize("method", ["hash", "sliding_hash"])
    @pytest.mark.parametrize("sorted_output", [True, False])
    @pytest.mark.parametrize("threads", [1, 4])
    def test_generated_workloads(self, pattern, method, sorted_output, threads):
        mats = dict(WORKLOADS)[pattern]()
        results = {}
        for backend in ("instrumented", "fast"):
            res = spkadd(
                mats, method=method, threads=threads,
                sorted_output=sorted_output, backend=backend,
            )
            results[backend] = res.matrix
            assert res.stats.input_nnz == sum(A.nnz for A in mats)
            assert res.stats.output_nnz == res.matrix.nnz
        assert_bit_identical(
            results["fast"], results["instrumented"],
            f"{pattern}/{method}/sorted={sorted_output}/T={threads}",
        )

    @pytest.mark.parametrize("method", ["hash", "sliding_hash"])
    def test_shm_executor_matches(self, method):
        mats = random_collection(31, 400, 19, 6)
        thread = spkadd(
            mats, method=method, threads=3, backend="fast",
            executor="thread",
        )
        shm = spkadd(
            mats, method=method, threads=3, backend="fast",
            executor="shm",
        )
        assert_bit_identical(thread.matrix, shm.matrix, method)
        assert thread.stats.input_nnz == shm.stats.input_nnz

    def test_direct_kernel_backends_match(self):
        mats = random_collection(32, 500, 13, 9)
        assert_bit_identical(
            spkadd_hash(mats, backend="fast"),
            spkadd_hash(mats, backend="instrumented"),
        )
        assert_bit_identical(
            spkadd_sliding_hash(mats, table_entries=32, backend="fast"),
            spkadd_sliding_hash(mats, table_entries=32, backend="instrumented"),
        )

    def test_fast_symbolic_counts_match(self):
        mats = random_collection(33, 300, 11, 5)
        assert np.array_equal(
            hash_symbolic(mats, backend="fast"),
            hash_symbolic(mats, backend="instrumented"),
        )

    def test_fused_fills_two_phase_stats(self, small_collection):
        res = spkadd(small_collection, method="hash", backend="fast")
        sym = res.stats_symbolic
        assert sym is not None
        assert sym.output_nnz == res.matrix.nnz
        assert sym.input_nnz == sum(A.nnz for A in small_collection)
        assert np.array_equal(sym.col_out_nnz, res.stats.col_out_nnz)

    def test_fast_precomputed_symbolic(self, small_collection):
        nnz = hash_symbolic(small_collection)
        got = spkadd_hash(small_collection, col_out_nnz=nnz, backend="fast")
        assert_bit_identical(
            got, spkadd_hash(small_collection, backend="instrumented")
        )


@settings(**COMMON)
@given(matrix_collection(), st.booleans(), st.integers(1, 4))
def test_property_cross_backend(native_mode, mats, sorted_output, threads):
    """Property: every random collection sums bit-identically on both
    backends, any sortedness, any thread count."""
    fast = spkadd(
        mats, method="hash", threads=threads,
        sorted_output=sorted_output, backend="fast",
    ).matrix
    inst = spkadd(
        mats, method="hash", threads=threads,
        sorted_output=sorted_output, backend="instrumented",
    ).matrix
    assert_bit_identical(fast, inst)


@settings(**COMMON)
@given(matrix_collection())
def test_property_sliding_cross_backend(mats):
    fast = spkadd_sliding_hash(mats, table_entries=16, backend="fast")
    inst = spkadd_sliding_hash(mats, table_entries=16, backend="instrumented")
    assert_bit_identical(fast, inst)
