"""Ablations of the design choices DESIGN.md calls out.

1. Symbolic-phase data structure (hash vs exact-sort vs SPA-based).
2. Load balancing: static vs dynamic-by-nnz scheduling on skewed input.
3. Hash function: multiplicative masking vs alternative multipliers.
4. Sorted vs unsorted outputs (the cost of Algorithm 5 line 15).
5. Row-partitioned (sliding) SPA — the paper's suggested extension.
"""

import numpy as np
import pytest

from repro.core.hash_add import hash_symbolic, spkadd_hash
from repro.core.spa_add import spkadd_sliding_spa, spkadd_spa
from repro.core.stats import KernelStats
from repro.core.symbolic import exact_output_col_nnz, symbolic_nnz
from repro.generators import erdos_renyi_collection, rmat_collection
from repro.parallel.executor import simulate_parallel_time
from repro.util.hashing import hash_indices

M, N, D, K = 1 << 15, 64, 32, 32


@pytest.fixture(scope="module")
def er_mats():
    return erdos_renyi_collection(M, N, d=D, k=K, seed=5)


@pytest.fixture(scope="module")
def rmat_mats():
    return rmat_collection(1 << 15, 128, d=16, k=16, seed=6)


# ------------------------------------------------------- 1. symbolic phase
@pytest.mark.parametrize("method", ["hash", "exact", "spa"])
def test_ablation_symbolic(benchmark, er_mats, method):
    benchmark.group = "ablation-symbolic"
    counts = benchmark(lambda: symbolic_nnz(er_mats, method))
    assert np.array_equal(counts, exact_output_col_nnz(er_mats))


# ------------------------------------------------------ 2. load balancing
def test_ablation_scheduling(benchmark, rmat_mats):
    benchmark.group = "ablation-scheduling"

    def measure():
        st = KernelStats()
        spkadd_hash(
            rmat_mats, stats=st, block_cols=1, backend="instrumented"
        )
        costs = st.col_ops
        return (
            simulate_parallel_time(costs, 16, policy="static"),
            simulate_parallel_time(costs, 16, policy="dynamic", chunk=1),
        )

    static, dynamic = benchmark.pedantic(measure, rounds=1, iterations=1)
    print(f"\nRMAT makespan on 16 threads: static={static:.0f} "
          f"dynamic={dynamic:.0f} ops (ratio {static / dynamic:.2f}x)")
    # the paper's claim: dynamic-by-nnz balances skewed columns
    assert static >= dynamic


# -------------------------------------------------------- 3. hash function
@pytest.mark.parametrize("prime", [2_654_435_761, 0x9E3779B1, 11400714819323198485])
def test_ablation_hash_multiplier(benchmark, prime):
    benchmark.group = "ablation-hashfn"
    keys = np.random.default_rng(0).integers(0, 1 << 30, 200_000)

    def spread():
        h = hash_indices(keys, 1 << 16, prime=prime & ~1 | 1)
        return len(np.unique(h))

    distinct = benchmark(spread)
    # all multipliers spread well (> 90% of slots hit)
    assert distinct > 0.9 * (1 << 16)


# -------------------------------------------------- 4. sorted vs unsorted
@pytest.mark.parametrize("sorted_output", [True, False])
def test_ablation_sorted_output(benchmark, er_mats, sorted_output):
    benchmark.group = "ablation-sorted"
    out = benchmark(
        lambda: spkadd_hash(
            er_mats, sorted_output=sorted_output, backend="instrumented"
        )
    )
    assert out.sorted == sorted_output


# ----------------------------------------------------- 5. sliding SPA
@pytest.mark.parametrize("parts", [1, 4, 16])
def test_ablation_sliding_spa(benchmark, er_mats, parts):
    benchmark.group = "ablation-sliding-spa"
    st = KernelStats()
    out = benchmark.pedantic(
        spkadd_sliding_spa,
        args=(er_mats,), kwargs={"parts": parts, "stats": st},
        rounds=1, iterations=1,
    )
    # partitioning shrinks the accumulator exactly like sliding hash
    assert st.ds_bytes_peak <= (M // parts + 1) * 12
    assert out.nnz == spkadd_spa(er_mats).nnz
