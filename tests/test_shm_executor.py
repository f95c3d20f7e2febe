"""Cross-executor conformance suite + shm engine lifecycle tests.

The contract under test: for every SpKAdd method, both kernel backends,
sorted and unsorted outputs, and the full value-dtype axis
(float32/float64/int32/int64 plus a mixed collection), the serial path
and the thread / process / shm executors produce **bit-identical** CSC
arrays (indptr, indices, values) — not merely numerically close — in
the dtype the pipeline resolves for the inputs (dtypes are preserved;
integer sums are exact 64-bit, never a float64 round-trip).  Plus the
shm engine's lifecycle guarantees: no ``/dev/shm`` segment survives a
normal run, a worker exception, or engine reuse, and the engine works
under the ``spawn`` start method.
"""

import multiprocessing

import numpy as np
import pytest

from repro.core.api import spkadd
from repro.core.symbolic import chunk_output_layout
from repro.formats.csc import CSCMatrix
from repro.parallel.executor import (
    EXECUTOR_ENV_VAR,
    _total_col_nnz,
    parallel_spkadd,
    resolve_executor,
)
from repro.parallel.partition import split_weighted
from repro.parallel.shm import (
    SegmentRegistry,
    SharedMemoryPool,
    shm_parallel_run,
)
from tests.conftest import (
    assert_bit_identical,
    own_segments,
    random_collection,
    shuffle_columns,
)

EXECUTORS = ("serial", "thread", "shm")
PARALLEL_EXECUTORS = ("thread", "shm")


def run(mats, executor, *, method="hash", threads=3, **kw):
    if executor == "serial":
        return spkadd(mats, method=method, threads=1, **kw)
    return spkadd(mats, method=method, threads=threads, executor=executor, **kw)


def canonical(mat: CSCMatrix) -> CSCMatrix:
    out = mat.copy()
    out.sort_indices()
    return out


@pytest.mark.usefixtures("native_mode")
class TestConformance:
    @pytest.mark.parametrize(
        "method", ["hash", "sliding_hash", "spa", "heap", "2way_tree",
                   "scipy_tree"]
    )
    def test_methods_bit_identical_across_executors(self, method):
        mats = random_collection(31, 250, 19, 6)
        ref = run(mats, "serial", method=method)
        for executor in PARALLEL_EXECUTORS:
            got = run(mats, executor, method=method)
            assert_bit_identical(ref.matrix, got.matrix, f"{method}/{executor}")
            assert ref.matrix.sorted == got.matrix.sorted
            assert ref.stats.input_nnz == got.stats.input_nnz
            assert ref.stats.output_nnz == got.stats.output_nnz

    @pytest.mark.parametrize("backend", ["fast", "instrumented"])
    @pytest.mark.parametrize("sorted_output", [True, False])
    def test_hash_backends_and_sortedness(self, backend, sorted_output):
        mats = random_collection(32, 220, 17, 5)
        results = {
            executor: run(
                mats, executor, backend=backend, sorted_output=sorted_output
            ).matrix
            for executor in EXECUTORS
        }
        # The pools chunk columns identically, so they must agree bit
        # for bit in every configuration.
        assert_bit_identical(
            results["thread"], results["shm"],
            f"{backend}/sorted={sorted_output}/shm",
        )
        if sorted_output or backend == "fast":
            # Sorted columns are canonical: serial agrees exactly too.
            assert_bit_identical(results["serial"], results["thread"])
        else:
            # Instrumented unsorted output orders a column by table
            # slot, which depends on the (chunk-local) table size — the
            # entry *sets* still match serial bitwise after sorting.
            assert_bit_identical(
                canonical(results["serial"]), canonical(results["thread"])
            )

    #: value-dtype axis -> the dtype the whole pipeline must emit for
    #: it ("mixed" is one int64 + one float32 + float64 addends, which
    #: promotes to float64 per np.result_type).
    DTYPE_AXIS = {
        "float32": ([np.float32] * 5, np.float32),
        "float64": ([np.float64] * 5, np.float64),
        "int32": ([np.int32] * 5, np.int64),
        "int64": ([np.int64] * 5, np.int64),
        "mixed": (
            [np.int64, np.float32, np.float64, np.float64, np.int32],
            np.float64,
        ),
    }

    @staticmethod
    def dtype_collection(input_dtypes, seed=77):
        rng = np.random.default_rng(seed)
        mats = []
        for dt in input_dtypes:
            nnz = int(rng.integers(20, 90))
            mats.append(
                CSCMatrix.from_arrays(
                    (60, 12),
                    rng.integers(0, 60, nnz),
                    rng.integers(0, 12, nnz),
                    rng.integers(-50, 50, nnz),
                    value_dtype=dt,
                )
            )
        return mats

    @pytest.mark.parametrize("backend", ["fast", "instrumented"])
    @pytest.mark.parametrize("axis", sorted(DTYPE_AXIS))
    def test_value_dtypes(self, axis, backend):
        """Inputs' dtype is the output's dtype, bit-identically across
        serial x thread x process x shm on both kernel backends."""
        input_dtypes, expect = self.DTYPE_AXIS[axis]
        mats = self.dtype_collection(input_dtypes)
        ref = run(mats, "serial", backend=backend)
        assert ref.matrix.data.dtype == np.dtype(expect), axis
        for executor in PARALLEL_EXECUTORS:
            got = run(mats, executor, backend=backend)
            assert got.matrix.data.dtype == np.dtype(expect), axis
            assert_bit_identical(ref.matrix, got.matrix, f"{axis}/{executor}")

    @pytest.mark.parametrize("method", ["hash", "sliding_hash", "spa",
                                        "heap", "2way_tree", "scipy_tree"])
    def test_int64_exact_beyond_2_53(self, method):
        """ISSUE acceptance: int64 values above 2**53 (where float64
        loses integers) sum exactly on every method and executor."""
        big = 2**53
        a = CSCMatrix.from_arrays(
            (30, 6),
            np.arange(12) % 30, np.arange(12) % 6,
            np.full(12, big, dtype=np.int64),
        )
        b = CSCMatrix.from_arrays(
            (30, 6),
            np.arange(12) % 30, np.arange(12) % 6,
            np.ones(12, dtype=np.int64),
        )
        mats = [a, b]
        expect = big + 1  # not representable in float64 (rounds to 2**53)
        ref = run(mats, "serial", method=method)
        assert ref.matrix.data.dtype == np.int64
        assert np.all(ref.matrix.data == expect)
        for executor in PARALLEL_EXECUTORS:
            got = run(mats, executor, method=method)
            assert got.matrix.data.dtype == np.int64
            assert np.all(got.matrix.data == expect), f"{method}/{executor}"
            assert_bit_identical(ref.matrix, got.matrix)

    def test_unsorted_inputs(self, rng):
        mats = [
            shuffle_columns(rng, m) for m in random_collection(33, 150, 11, 4)
        ]
        ref = run(mats, "serial")
        for executor in PARALLEL_EXECUTORS:
            assert_bit_identical(ref.matrix, run(mats, executor).matrix)

    def test_ragged_edges(self):
        # k=1, a single column, more chunks than columns, empty addends,
        # and exact cancellation (explicit zeros must be kept as
        # structural nonzeros by every executor).
        rng = np.random.default_rng(5)
        single = [
            CSCMatrix.from_arrays(
                (40, 1), rng.integers(0, 40, 15), np.zeros(15, dtype=np.int64),
                rng.normal(size=15),
            )
        ]
        a = random_collection(34, 90, 7, 1)[0]
        cancel = [a, a.scaled(-1.0)]
        empty_heavy = [a, CSCMatrix.zeros(a.shape), CSCMatrix.zeros(a.shape)]
        for mats in (single, cancel, empty_heavy):
            ref = run(mats, "serial")
            for executor in PARALLEL_EXECUTORS:
                got = run(mats, executor, threads=5)
                assert_bit_identical(ref.matrix, got.matrix)
        assert run(cancel, "shm").matrix.nnz == a.nnz  # zeros kept

    @staticmethod
    def sparse_columns_collection(seed=43):
        """Entries only in columns 0-3 and 12-13 of 20: the weighted
        split gives the trailing columns an all-empty chunk range."""
        rng = np.random.default_rng(seed)
        return [
            CSCMatrix.from_arrays(
                (90, 20), rng.integers(0, 90, 60),
                rng.choice([0, 1, 2, 3, 12, 13], 60), rng.normal(size=60),
            )
            for _ in range(4)
        ]

    #: inputs of the shm engine's in-place compaction: each chunk writes
    #: into a slot sized by its input nnz and moves down to its exact
    #: offset after the wave.
    COMPACTION_CASES = {
        "random": lambda: random_collection(41, 210, 15, 5),
        # m=128 and many draws per column: chunk 0 outputs fewer entries
        # than its input nnz, so every later chunk moves.
        "high_cf": lambda: random_collection(42, 128, 12, 8, 700, 900),
        "empty_chunk_range": sparse_columns_collection,
        "all_empty": lambda: [CSCMatrix.zeros((50, 9))] * 3,
    }

    @pytest.mark.parametrize("case", sorted(COMPACTION_CASES))
    @pytest.mark.parametrize("backend", ["fast", "instrumented"])
    def test_zero_copy_equals_materialized(self, backend, case):
        """ISSUE-5 acceptance: shm zero-copy results are bit-identical
        to their materialized copies (and to serial and the thread pool)
        on both kernel backends, and hold exactly ``nnz`` entries, not
        the upper bound their segment was sized by."""
        mats = self.COMPACTION_CASES[case]()
        zc = run(mats, "shm", backend=backend)
        mz = zc.matrix.materialize()
        assert zc.matrix.buffer_owner is not None
        assert mz.buffer_owner is None
        nnz = int(zc.matrix.indptr[-1])
        assert zc.matrix.indices.size == zc.matrix.data.size == nnz
        assert_bit_identical(zc.matrix, mz, f"{backend}/materialize")
        for executor in ("serial", "thread"):
            assert_bit_identical(
                zc.matrix, run(mats, executor, backend=backend).matrix,
                f"{backend}/{case}/{executor}",
            )

    @pytest.mark.parametrize("materialize", [True, False])
    def test_engine_ranges_in_any_order(self, materialize):
        """The engine takes chunk ranges in any order; compaction still
        moves every chunk to its exact offset, and a private copy taken
        with ``materialize()`` holds the same matrix."""
        mats = self.COMPACTION_CASES["high_cf"]()
        ref = run(mats, "serial").matrix
        for ranges in ([(8, 12), (4, 8), (0, 4)], [(4, 8), (0, 4), (8, 12)]):
            out, _ = shm_parallel_run(
                mats, "hash", ranges, sorted_output=True, kwargs={},
                threads=2,
            )
            if materialize:
                out = out.materialize()
                assert out.buffer_owner is None
            assert_bit_identical(out, ref, str(ranges))


class TestShmLifecycle:
    def test_no_segments_after_result_collected(self):
        """Zero-copy results pin their output segment while referenced;
        once the result is garbage-collected /dev/shm is empty again."""
        import gc

        mats = random_collection(35, 200, 13, 5)
        before = own_segments()
        res = run(mats, "shm")
        del res
        gc.collect()
        assert own_segments() == before

    def test_non_float64_runs_clean_no_worker_error(self):
        """float32 (and exact int64) through the shm engine: the old
        worker-side dtype-mismatch RuntimeError is gone — the scratch
        and output segments are sized from the resolved value dtype —
        and the run leaks no segments once the result is collected."""
        import gc

        for dtype in (np.float32, np.int64):
            mats = TestConformance.dtype_collection([dtype] * 4, seed=91)
            before = own_segments()
            got = run(mats, "shm")  # previously raised RuntimeError
            assert got.matrix.data.dtype == np.dtype(dtype)
            assert_bit_identical(got.matrix, run(mats, "thread").matrix)
            del got
            gc.collect()
            assert own_segments() == before

    def test_no_segments_after_worker_exception(self):
        mats = random_collection(36, 200, 13, 5)
        before = own_segments()
        with pytest.raises(TypeError):
            # An unknown kernel kwarg raises inside the worker, after
            # the engine has created its segments.
            spkadd(mats, method="hash", threads=2, executor="shm",
                   definitely_not_a_kwarg=1)
        assert own_segments() == before
        # The engine (and its persistent pool) must stay usable.
        res = run(mats, "shm")
        assert_bit_identical(res.matrix, run(mats, "thread").matrix)

    def test_registry_context_manager_unlinks(self):
        before = own_segments()
        with SegmentRegistry() as reg:
            specs = reg.publish([np.arange(10), np.ones(3)])
            assert len(own_segments()) == len(before) + 1
            assert np.array_equal(reg.view(specs[0]), np.arange(10))
        assert own_segments() == before

    def test_spawn_start_method(self):
        # Spec handles travel by name+offset only, so the engine must
        # work where fork is unavailable (Windows/macOS default).
        mats = random_collection(37, 120, 9, 4)
        ranges = [
            (j0, j1)
            for j0, j1 in split_weighted(_total_col_nnz(mats), 4)
            if j1 > j0
        ]
        engine = SharedMemoryPool(
            mp_context=multiprocessing.get_context("spawn")
        )
        try:
            out, stat_items = engine.run(
                mats, "hash", ranges,
                sorted_output=True, kwargs={"backend": "fast"}, threads=2,
            )
        finally:
            # The spawn context makes this pool de-facto private to the
            # engine; discard it rather than leave its workers in an
            # LRU slot of the shared registry.
            engine.shutdown(discard=True)
        assert_bit_identical(out, run(mats, "thread").matrix)
        assert len(stat_items) == len(ranges)
        # Only the zero-copy result still pins a segment.
        import gc

        del out
        gc.collect()
        assert own_segments() == []


class TestExecutorSelection:
    def test_trace_sink_rejected_by_all_multiprocess_executors(self):
        # The shm engine's worker processes cannot append to the
        # caller's list: rejected before any worker is spawned.
        mats = random_collection(38, 100, 7, 3)
        with pytest.raises(ValueError, match="trace_sink"):
            parallel_spkadd(
                mats, "hash", threads=2, executor="shm",
                backend="instrumented", trace_sink=[],
            )
        # The thread pool still supports traces.
        sink = []
        parallel_spkadd(
            mats, "hash", threads=2, executor="thread",
            backend="instrumented", trace_sink=sink,
        )
        assert sink

    def test_resolve_executor(self, monkeypatch):
        monkeypatch.delenv(EXECUTOR_ENV_VAR, raising=False)
        assert resolve_executor(None) == "thread"
        assert resolve_executor("auto") == "thread"
        assert resolve_executor("shm") == "shm"
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "shm")
        assert resolve_executor(None) == "shm"
        assert resolve_executor("thread") == "thread"  # explicit wins
        with pytest.raises(ValueError, match="unknown executor"):
            resolve_executor("rocketship")

    def test_resolve_executor_error_names_source(self, monkeypatch):
        """A bad name is blamed on where it came from: the kwarg or the
        REPRO_EXECUTOR environment variable (satellite regression — the
        two used to raise indistinguishable messages)."""
        monkeypatch.delenv(EXECUTOR_ENV_VAR, raising=False)
        for bad in ("rocketship", "process"):
            with pytest.raises(ValueError, match="executor argument"):
                resolve_executor(bad)
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "process")
        with pytest.raises(
            ValueError, match=f"{EXECUTOR_ENV_VAR} environment variable"
        ):
            resolve_executor(None)
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "warp-drive")
        with pytest.raises(
            ValueError, match=f"{EXECUTOR_ENV_VAR} environment variable"
        ):
            resolve_executor(None)
        with pytest.raises(
            ValueError, match=f"{EXECUTOR_ENV_VAR} environment variable"
        ):
            resolve_executor("auto")
        # An explicit bad argument is blamed on the argument even while
        # the environment variable is also bad.
        with pytest.raises(ValueError, match="executor argument"):
            resolve_executor("rocketship")

    def test_env_override_routes_spkadd(self, monkeypatch):
        mats = random_collection(39, 150, 11, 4)
        ref = spkadd(mats, method="hash", threads=2, executor="thread")
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "shm")
        got = spkadd(mats, method="hash", threads=2)
        assert_bit_identical(ref.matrix, got.matrix)
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "warp-drive")
        with pytest.raises(ValueError, match="unknown executor"):
            spkadd(mats, method="hash", threads=2)


class TestSymbolicSizing:
    def test_shm_layout_matches_exact_nnz(self):
        """The exact-nnz oracle predicts the shm executor's compacted
        layout exactly."""
        from repro.core.symbolic import exact_output_col_nnz

        mats = random_collection(40, 120, 9, 4)
        exact = exact_output_col_nnz(mats)
        out = run(mats, "shm").matrix
        assert np.array_equal(np.diff(out.indptr), exact)


class TestChunkOutputLayout:
    def test_layout_matches_counts(self):
        col_nnz = np.array([3, 0, 2, 5, 0, 1], dtype=np.int64)
        ranges = [(0, 2), (2, 5), (5, 6)]
        indptr, offsets = chunk_output_layout(col_nnz, ranges)
        assert list(indptr) == [0, 3, 3, 5, 10, 10, 11]
        assert offsets == [(0, 3), (3, 10), (10, 11)]

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            chunk_output_layout(np.ones(4, dtype=np.int64), [(0, 9)])
