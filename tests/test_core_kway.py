"""Tests for the k-way kernels: heap, SPA, hash, sliding hash."""

import numpy as np
import pytest

from repro.core.hash_add import hash_symbolic, spkadd_hash
from repro.core.heap_add import spkadd_heap
from repro.core.sliding_hash import sliding_hash_symbolic, sliding_parts, spkadd_sliding_hash
from repro.core.spa_add import spkadd_sliding_spa, spkadd_spa
from repro.core.stats import KernelStats
from repro.core.symbolic import exact_output_col_nnz
from repro.formats.csc import CSCMatrix
from repro.formats.ops import matrices_equal, sum_with_scipy
from tests.conftest import random_collection, shuffle_columns


@pytest.fixture(params=[1, 3, None], ids=["bc1", "bc3", "bc_auto"])
def block_cols(request):
    return request.param


class TestHeap:
    def test_merge_matches_oracle(self, small_collection, block_cols):
        got = spkadd_heap(small_collection, block_cols=block_cols)
        assert matrices_equal(got, sum_with_scipy(small_collection))

    def test_heapq_matches_oracle(self, small_collection):
        got = spkadd_heap(small_collection, impl="heapq")
        assert matrices_equal(got, sum_with_scipy(small_collection))

    def test_impls_agree_exactly(self, small_collection):
        a = spkadd_heap(small_collection, impl="merge")
        b = spkadd_heap(small_collection, impl="heapq")
        assert matrices_equal(a, b)

    def test_impls_charge_same_ops(self, small_collection):
        st_m, st_h = KernelStats(), KernelStats()
        spkadd_heap(small_collection, impl="merge", stats=st_m)
        spkadd_heap(small_collection, impl="heapq", stats=st_h)
        assert st_m.ops == st_h.ops
        assert st_m.heap_ops == st_h.heap_ops

    def test_output_sorted(self, small_collection):
        out = spkadd_heap(small_collection)
        assert out.sorted and out._check_sorted()

    def test_rejects_unsorted(self, rng):
        from tests.conftest import random_csc

        mats = [shuffle_columns(rng, random_csc(rng, 30, 5, 25))]
        with pytest.raises(ValueError, match="sorted"):
            spkadd_heap(mats)

    def test_lgk_work_scaling(self):
        """Heap ops per entry grow like ceil(lg k) (Table I)."""
        st4, st16 = KernelStats(), KernelStats()
        m4 = random_collection(5, 500, 8, 4, nnz_lo=50, nnz_hi=51)
        m16 = random_collection(5, 500, 8, 16, nnz_lo=50, nnz_hi=51)
        spkadd_heap(m4, stats=st4)
        spkadd_heap(m16, stats=st16)
        assert st4.ops / st4.input_nnz == 2   # lg 4
        assert st16.ops / st16.input_nnz == 4  # lg 16


class TestSpa:
    def test_matches_oracle(self, small_collection, block_cols):
        got = spkadd_spa(small_collection, block_cols=block_cols)
        assert matrices_equal(got, sum_with_scipy(small_collection))

    def test_accepts_unsorted(self, rng):
        from tests.conftest import random_csc

        mats = [
            shuffle_columns(rng, random_csc(rng, 60, 7, 50)) for _ in range(4)
        ]
        got = spkadd_spa(mats)
        ref = sum_with_scipy(mats)
        assert matrices_equal(got, ref)

    def test_ds_memory_is_m_proportional(self, small_collection):
        st = KernelStats()
        spkadd_spa(small_collection, stats=st)
        m = small_collection[0].shape[0]
        assert st.ds_bytes_peak == m * 12

    def test_work_linear_in_input(self, small_collection):
        st = KernelStats()
        out = spkadd_spa(small_collection, stats=st)
        assert st.ops == st.input_nnz + out.nnz

    def test_sliding_spa_matches(self, small_collection):
        for parts in (1, 2, 5):
            got = spkadd_sliding_spa(small_collection, parts=parts)
            assert matrices_equal(got, sum_with_scipy(small_collection))

    def test_sliding_spa_smaller_structure(self, small_collection):
        st1, st4 = KernelStats(), KernelStats()
        spkadd_sliding_spa(small_collection, parts=1, stats=st1)
        spkadd_sliding_spa(small_collection, parts=4, stats=st4)
        assert st4.ds_bytes_peak < st1.ds_bytes_peak

    def test_sliding_spa_rejects_bad_parts(self, small_collection):
        with pytest.raises(ValueError):
            spkadd_sliding_spa(small_collection, parts=0)


class TestHashSymbolic:
    def test_matches_exact(self, small_collection, block_cols):
        got = hash_symbolic(small_collection, block_cols=block_cols)
        assert np.array_equal(got, exact_output_col_nnz(small_collection))

    def test_stats_have_probe_histogram(self, small_collection):
        st = KernelStats()
        hash_symbolic(small_collection, stats=st, backend="instrumented")
        assert st.ops >= st.input_nnz
        assert st.total_table_accesses == st.ops


class TestHash:
    def test_matches_oracle(self, small_collection, block_cols):
        got = spkadd_hash(small_collection, block_cols=block_cols)
        assert matrices_equal(got, sum_with_scipy(small_collection))

    def test_unsorted_output_same_content(self, small_collection):
        got = spkadd_hash(
            small_collection, sorted_output=False, backend="instrumented"
        )
        assert not got.sorted
        canon = got.copy()
        canon.sort_indices()
        assert matrices_equal(canon, sum_with_scipy(small_collection))

    def test_accepts_unsorted_inputs(self, rng):
        from tests.conftest import random_csc

        mats = [
            shuffle_columns(rng, random_csc(rng, 60, 7, 50)) for _ in range(4)
        ]
        got = spkadd_hash(mats)
        assert matrices_equal(got, sum_with_scipy(mats))

    def test_precomputed_symbolic(self, small_collection):
        nnz = hash_symbolic(small_collection)
        got = spkadd_hash(small_collection, col_out_nnz=nnz)
        assert matrices_equal(got, sum_with_scipy(small_collection))

    def test_two_phase_stats(self, small_collection):
        st, st_sym = KernelStats(), KernelStats()
        spkadd_hash(small_collection, stats=st, stats_symbolic=st_sym)
        assert st_sym.algorithm.startswith("hash_symbolic")
        assert st.input_nnz == st_sym.input_nnz

    def test_work_linear_in_k(self):
        """Hash work is O(knd): ops/input ratio constant in k (Table I)."""
        ratios = []
        for k in (4, 16, 64):
            mats = random_collection(9, 2000, 8, k, nnz_lo=60, nnz_hi=61)
            st = KernelStats()
            spkadd_hash(mats, stats=st, block_cols=1, backend="instrumented")
            ratios.append(st.ops / st.input_nnz)
        assert max(ratios) / min(ratios) < 1.6  # probes vary mildly


class TestSlidingHash:
    def test_matches_oracle_cache_rule(self, small_collection):
        got = spkadd_sliding_hash(
            small_collection, threads=4, cache_bytes=2048
        )
        assert matrices_equal(got, sum_with_scipy(small_collection))

    def test_matches_oracle_forced_size(self, small_collection):
        for entries in (8, 32, 256):
            got = spkadd_sliding_hash(small_collection, table_entries=entries)
            assert matrices_equal(got, sum_with_scipy(small_collection))

    def test_degenerates_to_hash(self, small_collection):
        """No cache limit -> one partition -> plain Algorithm 5."""
        st = KernelStats()
        got = spkadd_sliding_hash(small_collection, stats=st)
        assert st.parts == 1
        assert matrices_equal(got, sum_with_scipy(small_collection))

    def test_small_cache_forces_partitions(self, small_collection):
        st = KernelStats()
        spkadd_sliding_hash(
            small_collection, threads=8, cache_bytes=256, stats=st
        )
        assert st.parts > 1

    def test_symbolic_matches_exact(self, small_collection):
        got = sliding_hash_symbolic(
            small_collection, threads=4, cache_bytes=1024
        )
        assert np.array_equal(got, exact_output_col_nnz(small_collection))

    def test_sorted_output(self, small_collection):
        got = spkadd_sliding_hash(small_collection, table_entries=16)
        assert got._check_sorted()

    def test_unsorted_output(self, small_collection):
        got = spkadd_sliding_hash(
            small_collection, table_entries=16, sorted_output=False
        )
        canon = got.copy()
        canon.sort_indices()
        assert matrices_equal(canon, sum_with_scipy(small_collection))

    def test_smaller_tables_than_hash(self, small_collection):
        st_h, st_s = KernelStats(), KernelStats()
        spkadd_hash(
            small_collection, stats=st_h, block_cols=1,
            backend="instrumented",
        )
        spkadd_sliding_hash(
            small_collection, stats=st_s, table_entries=16, block_cols=1,
            backend="instrumented",
        )
        assert max(st_s.table_traffic) <= max(st_h.table_traffic)


class TestSlidingParts:
    def test_paper_rule(self):
        # parts = ceil(entries * b * T / M)
        assert sliding_parts(1000, 8, threads=4, cache_bytes=16000) == 2
        assert sliding_parts(1000, 8, threads=1, cache_bytes=1 << 30) == 1

    def test_forced_entries(self):
        assert sliding_parts(1_000_000, 8, table_entries=16384) == 62  # ceil
        assert sliding_parts(100, 8, table_entries=1024) == 1

    def test_no_limit(self):
        assert sliding_parts(1e9, 8) == 1
