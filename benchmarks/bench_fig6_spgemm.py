"""Fig 6 (and Fig 5's SUMMA): SpKAdd inside distributed SpGEMM.

Three configurations per dataset: heap SpKAdd, sorted-hash and
unsorted-hash.  Shape targets from the paper: hash SpKAdd an order of
magnitude cheaper than heap; skipping the intermediate sort saves
~20% of local multiply; computation >= 2x faster overall with hash.

``test_promoted_summa`` covers the production path the refactor adds:
the same SUMMA dataflow on ``ExecutionPlan.production()`` (fast
kernels, merges on the resolved executor, rank concurrency + overlap),
asserted bit-identical to the serial paper plan.  The figure
benchmarks above stay pinned to the paper plan inside
:func:`run_fig6`.
"""

import pytest

from repro.distributed import ExecutionPlan, ProcessGrid, summa_spgemm
from repro.experiments.fig6 import run_fig6
from repro.generators import rmat


@pytest.mark.parametrize("dataset", ["isolates", "metaclust50"])
def test_fig6(benchmark, scale, dataset):
    benchmark.group = "paper-figures"
    res = benchmark.pedantic(
        run_fig6,
        kwargs={"dataset": dataset, "scale": scale, "m": 8192, "d": 8.0,
                "grid_side": 2},
        rounds=1, iterations=1,
    )
    print()
    print(res.to_text())
    print(f"spkadd speedup vs heap: {res.spkadd_speedup_vs_heap:.1f}x; "
          f"multiply saved by unsorted: "
          f"{res.multiply_saving_unsorted * 100:.1f}%")
    # heap SpKAdd is several times slower than hash (paper: ~10x)
    assert res.spkadd_speedup_vs_heap > 3.0
    # unsorted intermediates save local-multiply time
    assert 0.0 < res.multiply_saving_unsorted < 0.6
    # overall computation with unsorted hash beats heap by >= 1.5x
    heap_total = res.phase_times["heap"].computation
    hash_total = res.phase_times["unsorted_hash"].computation
    assert heap_total / hash_total > 1.5


def test_promoted_summa(benchmark, scale):
    benchmark.group = "spgemm-workload"
    A = rmat(4096, 4096, d=8.0, seed=23)
    grid = ProcessGrid(2, 2)
    ref = summa_spgemm(
        A, A, grid=grid, stages=16, sorted_intermediates=False
    ).assemble()

    def promoted():
        return summa_spgemm(
            A, A, grid=grid, stages=16, sorted_intermediates=False,
            plan=ExecutionPlan.production(),
        ).assemble()

    got = benchmark.pedantic(promoted, rounds=3, iterations=1, warmup_rounds=1)
    assert got.indptr.tobytes() == ref.indptr.tobytes()
    assert got.indices.tobytes() == ref.indices.tobytes()
    assert got.data.tobytes() == ref.data.tobytes()


if __name__ == "__main__":
    for ds in ("isolates", "metaclust50"):
        print(run_fig6(ds, m=8192, d=8.0, grid_side=2).to_text())
