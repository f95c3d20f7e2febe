"""Tests for the spkadd facade, reference transcriptions and streaming."""

import numpy as np
import pytest

import repro
from repro.core.api import SpKAddResult, available_methods, spkadd
from repro.core.reference import (
    col_add_2way,
    hash_add_ref,
    hash_symbolic_ref,
    heap_add_ref,
    sliding_hash_add_ref,
    sliding_hash_symbolic_ref,
    spa_add_ref,
    spkadd_2way_incremental_ref,
    spkadd_kway_ref,
)
from repro.core.scipy_baseline import spkadd_scipy_incremental, spkadd_scipy_tree
from repro.core.streaming import StreamingAccumulator, spkadd_streaming
from repro.formats.ops import matrices_equal, sum_with_scipy
from tests.conftest import random_collection


class TestApi:
    def test_all_methods_registered(self):
        expected = {
            "2way_incremental", "2way_tree", "scipy_incremental",
            "scipy_tree", "heap", "spa", "hash", "sliding_hash",
        }
        assert set(available_methods()) == expected

    @pytest.mark.parametrize("method", [
        "2way_incremental", "2way_tree", "scipy_incremental", "scipy_tree",
        "heap", "spa", "hash", "sliding_hash",
    ])
    def test_every_method_matches_oracle(self, small_collection, method):
        res = spkadd(small_collection, method=method)
        got = res.matrix.copy()
        got.sort_indices()
        assert matrices_equal(got, sum_with_scipy(small_collection))
        assert isinstance(res, SpKAddResult)
        assert res.method == method

    def test_unknown_method(self, small_collection):
        with pytest.raises(ValueError, match="unknown method"):
            spkadd(small_collection, method="quantum")

    def test_two_phase_stats_present(self, small_collection):
        res = spkadd(small_collection, method="hash")
        assert res.stats_symbolic is not None
        res = spkadd(small_collection, method="heap")
        assert res.stats_symbolic is None

    def test_threads_parallel_equivalence(self, small_collection):
        ref = sum_with_scipy(small_collection)
        for method in ("hash", "spa", "heap"):
            res = spkadd(small_collection, method=method, threads=3)
            got = res.matrix.copy()
            got.sort_indices()
            assert matrices_equal(got, ref), method

    def test_machine_sets_sliding_cache(self, small_collection):
        from repro.machine.spec import INTEL_SKYLAKE_8160

        tiny = INTEL_SKYLAKE_8160.scaled(100_000)
        res = spkadd(
            small_collection, method="sliding_hash",
            machine=tiny, threads=8,
        )
        assert res.stats.parts > 1

    def test_top_level_reexports(self):
        assert repro.spkadd is spkadd
        assert "hash" in repro.available_methods()

    def test_compression_factor(self, small_collection):
        res = spkadd(small_collection, method="hash")
        cf = res.compression_factor
        total = sum(m.nnz for m in small_collection)
        assert cf == pytest.approx(total / res.matrix.nnz)


class TestScipyBaseline:
    def test_incremental(self, small_collection):
        got = spkadd_scipy_incremental(small_collection)
        assert matrices_equal(got, sum_with_scipy(small_collection))

    def test_tree(self, small_collection):
        got = spkadd_scipy_tree(small_collection)
        assert matrices_equal(got, sum_with_scipy(small_collection))

    def test_stats_model_incremental_heavier(self, small_collection):
        from repro.core.stats import KernelStats

        st_i, st_t = KernelStats(), KernelStats()
        spkadd_scipy_incremental(small_collection, stats=st_i)
        spkadd_scipy_tree(small_collection, stats=st_t)
        assert st_i.ops > st_t.ops


class TestReference:
    def test_col_add_2way(self):
        out_r, out_v = col_add_2way(
            ([0, 2, 5], [1.0, 2.0, 3.0]), ([2, 7], [10.0, 20.0])
        )
        assert out_r == [0, 2, 5, 7]
        assert out_v == [1.0, 12.0, 3.0, 20.0]

    def test_heap_add_ref_sorted_output(self):
        cols = [([3, 9], [1.0, 1.0]), ([1, 3], [2.0, 2.0]), ([9], [5.0])]
        r, v = heap_add_ref(cols)
        assert r == [1, 3, 9]
        assert v == [2.0, 3.0, 6.0]

    def test_spa_add_ref(self):
        cols = [([0, 4], [1.0, 1.0]), ([4, 2], [1.0, 7.0])]
        r, v = spa_add_ref(cols, 6)
        assert r == [0, 2, 4]
        assert v == [1.0, 7.0, 2.0]

    def test_hash_symbolic_ref_counts(self):
        cols = [([1, 2], [1.0, 1.0]), ([2, 3], [1.0, 1.0])]
        assert hash_symbolic_ref(cols) == 3

    def test_sliding_refs_match_plain(self):
        rng = np.random.default_rng(1)
        cols = []
        for _ in range(4):
            r = np.unique(rng.integers(0, 40, 12))
            cols.append((r.tolist(), [1.0] * len(r)))
        plain_r, plain_v = hash_add_ref(cols)
        slid_r, slid_v = sliding_hash_add_ref(
            cols, 40, threads=4, cache_bytes=64
        )
        assert slid_r == plain_r
        assert slid_v == plain_v
        assert sliding_hash_symbolic_ref(
            cols, 40, threads=4, cache_bytes=64
        ) == len(plain_r)

    @pytest.mark.parametrize("method", ["heap", "spa", "hash", "sliding_hash"])
    def test_kway_refs_match_oracle(self, tiny_collection, method):
        got = spkadd_kway_ref(
            tiny_collection, method, threads=2, cache_bytes=512
        )
        assert matrices_equal(got, sum_with_scipy(tiny_collection))

    def test_2way_ref_matches_oracle(self, tiny_collection):
        got = spkadd_2way_incremental_ref(tiny_collection)
        assert matrices_equal(got, sum_with_scipy(tiny_collection))

    def test_kway_ref_unknown(self, tiny_collection):
        with pytest.raises(ValueError):
            spkadd_kway_ref(tiny_collection, "nope")


class TestStreaming:
    def test_matches_oracle(self, small_collection):
        got = spkadd_streaming(small_collection, batch_size=3)
        assert matrices_equal(got, sum_with_scipy(small_collection))

    def test_batch_of_one(self, small_collection):
        got = spkadd_streaming(small_collection, batch_size=1)
        assert matrices_equal(got, sum_with_scipy(small_collection))

    def test_batch_larger_than_stream(self, small_collection):
        got = spkadd_streaming(small_collection, batch_size=100)
        assert matrices_equal(got, sum_with_scipy(small_collection))

    def test_empty_stream_raises(self):
        with pytest.raises(ValueError):
            spkadd_streaming([], batch_size=2)

    def test_bad_batch_size(self, small_collection):
        with pytest.raises(ValueError):
            spkadd_streaming(small_collection, batch_size=0)

    def test_accumulator_incremental_reads(self, small_collection):
        acc = StreamingAccumulator(batch_size=4)
        partial_after_5 = None
        for i, m in enumerate(small_collection):
            acc.push(m)
            if i == 4:
                partial_after_5 = acc.result()
        assert partial_after_5 is not None
        assert matrices_equal(
            partial_after_5, sum_with_scipy(small_collection[:5])
        )
        final = acc.result()
        assert matrices_equal(final, sum_with_scipy(small_collection))
        assert acc.pushed == len(small_collection)

    def test_accumulator_empty_raises(self):
        with pytest.raises(ValueError):
            StreamingAccumulator().result()

    @pytest.mark.parametrize("backend", ["fast", "instrumented"])
    def test_backend_kwarg_results_identical(self, small_collection, backend):
        got = spkadd_streaming(
            small_collection, batch_size=3, backend=backend
        )
        assert matrices_equal(got, sum_with_scipy(small_collection))
        acc = StreamingAccumulator(batch_size=3, backend=backend)
        for m in small_collection:
            acc.push(m)
        assert matrices_equal(acc.result(), sum_with_scipy(small_collection))

    def test_default_backend_is_fast(self, small_collection):
        """Streaming defaults to the registry's fast engine (ROADMAP):
        no slot ops are metered, unlike an instrumented run."""
        acc = StreamingAccumulator(batch_size=100)
        for m in small_collection:
            acc.push(m)
        acc.result()
        assert acc.stats.ops == 0
        inst = StreamingAccumulator(batch_size=100, backend="instrumented")
        for m in small_collection:
            inst.push(m)
        inst.result()
        assert inst.stats.ops > 0

    def test_kernel_and_backend_conflict(self):
        with pytest.raises(ValueError, match="kernel= or backend="):
            StreamingAccumulator(
                kernel=lambda ms, **kw: ms[0], backend="fast"
            )
        with pytest.raises(ValueError, match="kernel= or backend="):
            spkadd_streaming(
                [], kernel=lambda ms, **kw: ms[0], backend="fast"
            )
