"""Tests for the distributed substrate: grids, local SpGEMM, SUMMA."""

import numpy as np
import pytest

from repro.distributed.comm import CommLog
from repro.distributed.grid import BlockDistribution, ProcessGrid, block_bounds
from repro.distributed.spgemm_local import LocalSpGEMMStats, local_spgemm
from repro.distributed.summa import ExecutionPlan, summa_spgemm
from repro.distributed.timing import spgemm_phase_times
from repro.formats.convert import from_scipy, to_scipy
from repro.formats.csc import CSCMatrix
from repro.formats.ops import matrices_equal
from repro.generators import erdos_renyi, rmat
from repro.machine.spec import CORI_KNL


def spgemm_oracle(A, B):
    return from_scipy((to_scipy(A) @ to_scipy(B)).tocsc(), "csc")


def assert_bit_identical(a, b, label=""):
    """The promotion contract: same dtypes, same index arrays, values
    compared bitwise (catches sign-of-zero / last-ulp drift that
    allclose-style checks would wave through)."""
    assert a.shape == b.shape, label
    assert a.indptr.dtype == b.indptr.dtype, label
    assert a.indices.dtype == b.indices.dtype, label
    assert a.data.dtype == b.data.dtype, label
    assert np.array_equal(a.indptr, b.indptr), label
    assert np.array_equal(a.indices, b.indices), label
    assert np.array_equal(a.data.view(np.uint8), b.data.view(np.uint8)), label


class TestGrid:
    def test_rank_coords_roundtrip(self):
        g = ProcessGrid(3, 5)
        for i in range(3):
            for j in range(5):
                assert g.coords(g.rank(i, j)) == (i, j)

    def test_bounds_checks(self):
        g = ProcessGrid(2, 2)
        with pytest.raises(IndexError):
            g.rank(2, 0)
        with pytest.raises(IndexError):
            g.coords(4)

    def test_block_bounds(self):
        assert list(block_bounds(10, 3)) == [0, 3, 6, 10]


class TestBlockDistribution:
    def test_roundtrip(self):
        mat = erdos_renyi(100, 60, d=5, seed=0)
        for br, bc in [(1, 1), (2, 3), (4, 4), (7, 2)]:
            dist = BlockDistribution.distribute(mat, br, bc)
            assert matrices_equal(dist.reassemble(), mat)

    def test_block_shapes(self):
        mat = erdos_renyi(100, 60, d=5, seed=0)
        dist = BlockDistribution.distribute(mat, 2, 3)
        assert dist.block(0, 0).shape == (50, 20)
        assert dist.block(1, 2).shape == (50, 20)

    def test_nnz_conserved(self):
        mat = erdos_renyi(64, 64, d=4, seed=1)
        dist = BlockDistribution.distribute(mat, 3, 3)
        total = sum(
            dist.block(i, j).nnz for i in range(3) for j in range(3)
        )
        assert total == mat.nnz


class TestLocalSpGEMM:
    @pytest.mark.parametrize("acc", ["hash", "sort"])
    @pytest.mark.parametrize("sorted_output", [True, False])
    def test_matches_scipy(self, acc, sorted_output):
        A = rmat(128, 128, d=6, seed=1)
        B = rmat(128, 128, d=6, seed=2)
        C = local_spgemm(A, B, accumulator=acc, sorted_output=sorted_output)
        got = C.copy()
        got.sort_indices()
        assert matrices_equal(got, spgemm_oracle(A, B), atol=1e-9)

    def test_rectangular(self):
        A = erdos_renyi(64, 32, d=4, seed=3)
        B = erdos_renyi(32, 16, d=4, seed=4)
        C = local_spgemm(A, B)
        got = C.copy()
        got.sort_indices()
        assert matrices_equal(got, spgemm_oracle(A, B), atol=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            local_spgemm(CSCMatrix.zeros((4, 4)), CSCMatrix.zeros((5, 4)))

    def test_empty_result(self):
        C = local_spgemm(CSCMatrix.zeros((4, 3)), CSCMatrix.zeros((3, 2)))
        assert C.nnz == 0 and C.shape == (4, 2)

    def test_flop_count(self):
        A = erdos_renyi(64, 32, d=4, seed=5)
        B = erdos_renyi(32, 16, d=4, seed=6)
        st = LocalSpGEMMStats()
        local_spgemm(A, B, stats=st)
        expected = int(np.sum(A.col_nnz()[B.indices]))
        assert st.flops == expected

    def test_sort_charged_only_when_sorted(self):
        A = rmat(64, 64, d=4, seed=7)
        st_sorted, st_unsorted = LocalSpGEMMStats(), LocalSpGEMMStats()
        for st, sort in ((st_sorted, True), (st_unsorted, False)):
            local_spgemm(
                A, A, sorted_output=sort, stats=st, backend="instrumented"
            )
        assert st_sorted.sort_entries > 0
        assert st_unsorted.sort_entries == 0

    def test_unknown_accumulator(self):
        A = CSCMatrix.zeros((4, 4))
        with pytest.raises(ValueError):
            local_spgemm(A, A, accumulator="tree")


class TestSumma:
    @pytest.mark.parametrize("method,sorted_im", [
        ("hash", None), ("hash", True), ("heap", None), ("spa", None),
    ])
    def test_matches_direct_spgemm(self, method, sorted_im):
        A = rmat(128, 128, d=5, seed=8)
        B = rmat(128, 128, d=5, seed=9)
        res = summa_spgemm(
            A, B, grid=ProcessGrid(2, 2), stages=4,
            spkadd_method=method, sorted_intermediates=sorted_im,
        )
        got = res.assemble()
        got.sort_indices()
        assert matrices_equal(got, spgemm_oracle(A, B), atol=1e-9)

    def test_heap_requires_sorted(self):
        A = rmat(64, 64, d=4, seed=10)
        with pytest.raises(ValueError, match="sorted"):
            summa_spgemm(
                A, A, grid=ProcessGrid(2, 2),
                spkadd_method="heap", sorted_intermediates=False,
            )

    def test_stage_count_is_spkadd_k(self):
        A = rmat(64, 64, d=4, seed=11)
        res = summa_spgemm(A, A, grid=ProcessGrid(2, 2), stages=6)
        assert res.stages == 6
        assert all(r.spkadd_stats.k == 6 for r in res.ranks)

    def test_comm_log_counts_broadcasts(self):
        A = rmat(64, 64, d=4, seed=12)
        log = CommLog()
        summa_spgemm(A, A, grid=ProcessGrid(2, 2), stages=4, comm=log)
        # per stage: 2 row bcasts (A) + 2 col bcasts (B)
        assert len(log.events) == 4 * 4
        assert log.total_bytes > 0
        assert log.estimated_seconds > 0

    def test_unsorted_multiply_cheaper(self):
        A = rmat(128, 128, d=6, seed=13)
        r_sorted = summa_spgemm(
            A, A, grid=ProcessGrid(2, 2), stages=4,
            spkadd_method="hash", sorted_intermediates=True,
        )
        r_unsorted = summa_spgemm(
            A, A, grid=ProcessGrid(2, 2), stages=4,
            spkadd_method="hash", sorted_intermediates=False,
        )
        t_s = spgemm_phase_times(r_sorted, CORI_KNL)
        t_u = spgemm_phase_times(r_unsorted, CORI_KNL)
        assert t_u.local_multiply < t_s.local_multiply
        # results identical either way
        a = r_sorted.assemble(); a.sort_indices()
        b = r_unsorted.assemble(); b.sort_indices()
        assert matrices_equal(a, b, atol=1e-9)

    def test_phase_totals(self):
        A = rmat(64, 64, d=4, seed=14)
        res = summa_spgemm(A, A, grid=ProcessGrid(2, 2), stages=4)
        totals = res.phase_totals()
        assert totals["flops_total"] > 0
        assert totals["spkadd_ops_total"] > 0


def _operands(value_dtype):
    """The conformance workload: a skewed square times its transpose-ish
    partner, cast to the requested value dtype."""
    A = rmat(128, 128, d=5, seed=31)
    B = rmat(128, 128, d=5, seed=32)
    if value_dtype == np.int64:
        # Exact integer payloads: bit-identity must hold trivially, and
        # the promoted path must keep the resolved int64 accumulation.
        cast = lambda M: CSCMatrix(
            M.shape, M.indptr, M.indices,
            np.rint(M.data * 8).astype(np.int64), sorted=M.sorted, check=False,
        )
    else:
        cast = lambda M: CSCMatrix(
            M.shape, M.indptr, M.indices,
            M.data.astype(value_dtype), sorted=M.sorted, check=False,
        )
    return cast(A), cast(B)


class TestPromotedConformance:
    """The promoted SUMMA path is *bit-identical* to the serial paper
    reference — same indptr/indices bytes, same value bytes — across
    kernel backends, merge executors, value dtypes, and intermediate
    sortedness.  This is the contract that lets production runs use the
    fast/shm stack while the figures stay pinned to the paper plan."""

    GRID = (2, 2)
    STAGES = 6

    def _reference(self, value_dtype):
        A, B = _operands(value_dtype)
        res = summa_spgemm(
            A, B, grid=ProcessGrid(*self.GRID), stages=self.STAGES
        )
        return res.assemble()

    @pytest.mark.parametrize("backend", ["fast", "instrumented"])
    @pytest.mark.parametrize("executor", ["serial", "thread", "shm"])
    @pytest.mark.parametrize(
        "value_dtype", [np.float32, np.float64, np.int64],
        ids=["f32", "f64", "i64"],
    )
    @pytest.mark.parametrize("sorted_im", [True, False],
                             ids=["sorted", "unsorted"])
    def test_bit_identical_to_serial_reference(
        self, backend, executor, value_dtype, sorted_im
    ):
        A, B = _operands(value_dtype)
        plan = ExecutionPlan(
            backend=backend, executor=executor,
            threads=1 if executor == "serial" else 2,
            rank_parallelism=2, overlap=True,
        )
        res = summa_spgemm(
            A, B, grid=ProcessGrid(*self.GRID), stages=self.STAGES,
            plan=plan, sorted_intermediates=sorted_im,
        )
        assert res.plan is plan
        assert_bit_identical(
            res.assemble(), self._reference(value_dtype),
            f"{backend}/{executor}/{np.dtype(value_dtype)}/"
            f"{'sorted' if sorted_im else 'unsorted'}",
        )

    @pytest.mark.parametrize("executor", ["thread", "shm"])
    def test_float_pool_merge_bit_identical_to_serial(self, executor):
        """The numerical contract through the SUMMA merge: A carries the
        adversarial :data:`tests.test_native.FLOAT_POOL` values, so the
        intermediates the merge adds hold NaN, inf, signed zeros and
        subnormals; the promoted plan's parallel merges must give the
        serial plan's bytes."""
        from tests.test_native import FLOAT_POOL

        rng = np.random.default_rng(41)
        A, B = _operands(np.float64)
        A = CSCMatrix(A.shape, A.indptr, A.indices,
                      rng.choice(np.array(FLOAT_POOL), A.nnz),
                      sorted=A.sorted, check=False)
        B = CSCMatrix(B.shape, B.indptr, B.indices,
                      rng.choice(np.array([1.0, -1.0, 0.5, 2.0]), B.nnz),
                      sorted=B.sorted, check=False)
        grid = ProcessGrid(*self.GRID)
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            ref = summa_spgemm(A, B, grid=grid, stages=self.STAGES)
            got = summa_spgemm(
                A, B, grid=grid, stages=self.STAGES,
                plan=ExecutionPlan.production(executor=executor,
                                              threads=2),
            )
        assert np.isnan(ref.assemble().data).any()
        assert_bit_identical(got.assemble(), ref.assemble(), executor)

    def test_production_default_merges_in_process(self, monkeypatch):
        """With ``REPRO_EXECUTOR`` unset the production plan's merges
        run in process: the run boots no worker pool and gives the
        serial bytes."""
        from repro.parallel.pools import active_pools, shutdown_pools

        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        shutdown_pools()
        A, B = _operands(np.float64)
        res = summa_spgemm(
            A, B, grid=ProcessGrid(*self.GRID), stages=self.STAGES,
            plan=ExecutionPlan.production(threads=2, rank_parallelism=2),
        )
        assert active_pools() == {}
        assert_bit_identical(
            res.assemble(), self._reference(np.float64), "in process"
        )

    def test_loose_kwargs_build_promoted_plan(self):
        from repro.parallel.executor import split_budget

        A, B = _operands(np.float64)
        res = summa_spgemm(
            A, B, grid=ProcessGrid(*self.GRID), stages=self.STAGES,
            backend="fast", executor="thread",
        )
        outer, inner = split_budget(ProcessGrid(*self.GRID).size)
        assert res.plan.overlap and res.plan.executor == "thread"
        assert (res.plan.rank_parallelism, res.plan.threads) == (
            outer, inner)
        assert_bit_identical(
            res.assemble(), self._reference(np.float64), "loose kwargs"
        )

    def test_default_plan_meters_instrumented_stats(self):
        # Figure runs pin backend="instrumented" in the paper plan, so
        # the fast default of the kernels cannot zero the stats.
        A, B = _operands(np.float64)
        res = summa_spgemm(
            A, B, grid=ProcessGrid(*self.GRID), stages=self.STAGES
        )
        assert all(r.multiply.hash_ops > 0 for r in res.ranks)
        assert all(r.spkadd_stats.ops > 0 for r in res.ranks)

    def test_deadline_exceeded_raises(self):
        from repro.parallel.resilience import DeadlineExceeded

        A, B = _operands(np.float64)
        with pytest.raises(DeadlineExceeded):
            summa_spgemm(
                A, B, grid=ProcessGrid(*self.GRID), stages=self.STAGES,
                plan=ExecutionPlan(deadline=1e-9),
            )


class TestPromotedChaos:
    def test_worker_kill_mid_merge_recovers_bit_identically(self):
        # A worker killed on its first merge chunk must be retried by
        # the resilience layer and the run must still produce the exact
        # serial-reference bytes.  The plan names shm so the kill hits
        # a worker process (in process it is an injected exception).
        from tests.conftest import inject_fired

        A, B = _operands(np.float64)
        ref = summa_spgemm(
            A, B, grid=ProcessGrid(2, 2), stages=6
        ).assemble()
        with inject_fired(kill_chunk=0):
            res = summa_spgemm(
                A, B, grid=ProcessGrid(2, 2), stages=6,
                plan=ExecutionPlan.production(
                    executor="shm", threads=2, rank_parallelism=2
                ),
                sorted_intermediates=False,
            )
        assert_bit_identical(res.assemble(), ref, "chaos recovery")


class TestValidation:
    def test_grid_rejects_nonpositive_extents(self):
        with pytest.raises(ValueError, match="rows"):
            ProcessGrid(0, 2)
        with pytest.raises(ValueError, match="cols"):
            ProcessGrid(2, -1)

    def test_stages_validated(self):
        A = rmat(64, 64, d=4, seed=15)
        with pytest.raises(ValueError, match="stages"):
            summa_spgemm(A, A, grid=ProcessGrid(2, 2), stages=0)
        with pytest.raises(ValueError, match="stages"):
            summa_spgemm(A, A, grid=ProcessGrid(2, 2), stages=65)

    def test_plan_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="threads"):
            ExecutionPlan(threads=0)
        with pytest.raises(ValueError, match="rank_parallelism"):
            ExecutionPlan(rank_parallelism=-1)
        with pytest.raises(ValueError, match="executor"):
            ExecutionPlan(executor="bogus")
        with pytest.raises(ValueError, match="backend"):
            ExecutionPlan(backend="bogus")

    def test_plan_and_loose_kwargs_conflict(self):
        A = rmat(64, 64, d=4, seed=16)
        with pytest.raises(ValueError, match="plan"):
            summa_spgemm(
                A, A, grid=ProcessGrid(2, 2),
                plan=ExecutionPlan.paper(), backend="fast",
            )


class TestCommDtypeAccounting:
    def test_narrow_dtypes_halve_broadcast_volume(self):
        # The comm log accounts blocks at their *actual* dtype widths:
        # the same sparsity pattern in float32 values moves fewer bytes
        # than in float64, and the events record the itemsizes.
        A64 = rmat(128, 128, d=5, seed=17)
        A32 = CSCMatrix(
            A64.shape, A64.indptr, A64.indices,
            A64.data.astype(np.float32), sorted=A64.sorted, check=False,
        )
        logs = {}
        for name, A in (("f64", A64), ("f32", A32)):
            log = CommLog()
            summa_spgemm(A, A, grid=ProcessGrid(2, 2), stages=4, comm=log)
            logs[name] = log
        assert logs["f32"].total_bytes < logs["f64"].total_bytes
        ev32 = logs["f32"].events[0]
        assert ev32.value_itemsize == 4
        assert ev32.index_itemsize in (4, 8)
        assert all(e.entries >= 0 for e in logs["f32"].events)
        # identical sparsity => identical entry counts, byte delta is
        # exactly the value-width delta (indices are int32 both ways).
        for e64, e32 in zip(logs["f64"].events, logs["f32"].events):
            assert e64.entries == e32.entries
            assert e64.bytes - e32.bytes == 4 * e64.entries
