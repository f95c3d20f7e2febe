"""Real wall-clock benchmarks of the SpKAdd kernels (pytest-benchmark).

These measure OUR implementations' operational speed (vectorized NumPy),
complementing the simulated paper-scale numbers: the relative ordering
of the work-efficient kernels (hash/SPA vs pairwise at large k) is
visible in real time as well.  Hash-family methods run once per
accumulation backend (``fast`` sort/reduce vs ``instrumented`` probing
table) so the backend speedup is part of every benchmark report.
"""

import pytest

from repro.core.api import spkadd
from repro.generators import erdos_renyi_collection, rmat_collection

M, N, D, K = 1 << 15, 64, 32, 32


@pytest.fixture(scope="module")
def er_mats():
    return erdos_renyi_collection(M, N, d=D, k=K, seed=1)


@pytest.fixture(scope="module")
def rmat_mats():
    return rmat_collection(1 << 15, 64, d=16, k=16, seed=2)


@pytest.mark.parametrize("method,backend", [
    ("hash", "fast"), ("hash", "instrumented"),
    ("sliding_hash", "fast"), ("sliding_hash", "instrumented"),
    ("spa", None), ("heap", None), ("2way_tree", None),
    ("2way_incremental", None), ("scipy_tree", None),
    ("scipy_incremental", None),
])
def test_spkadd_er(benchmark, er_mats, method, backend):
    benchmark.group = "spkadd-ER"
    kwargs = {"backend": backend} if backend else {}
    result = benchmark(lambda: spkadd(er_mats, method=method, **kwargs))
    assert result.matrix.nnz > 0


@pytest.mark.parametrize("method,backend", [
    ("hash", "fast"), ("hash", "instrumented"),
    ("spa", None), ("2way_tree", None),
])
def test_spkadd_rmat(benchmark, rmat_mats, method, backend):
    benchmark.group = "spkadd-RMAT"
    kwargs = {"backend": backend} if backend else {}
    result = benchmark(lambda: spkadd(rmat_mats, method=method, **kwargs))
    assert result.matrix.nnz > 0


def test_hash_unsorted_faster_than_sorted(benchmark, er_mats):
    benchmark.group = "spkadd-ER"
    benchmark.extra_info["note"] = "unsorted output skips the final sort"
    result = benchmark(
        lambda: spkadd(
            er_mats, method="hash", sorted_output=False,
            backend="instrumented",
        )
    )
    assert not result.matrix.sorted


@pytest.mark.parametrize("executor", ["thread", "shm"])
def test_parallel_hash(benchmark, er_mats, executor):
    benchmark.group = "spkadd-ER"
    result = benchmark(
        lambda: spkadd(
            er_mats, method="hash", threads=4, executor=executor
        )
    )
    assert result.matrix.nnz > 0
