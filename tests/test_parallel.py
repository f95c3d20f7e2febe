"""Tests for partitioning, scheduling and the parallel executor."""

import numpy as np
import pytest

from repro.parallel.partition import row_partition_bounds, split_even, split_weighted
from repro.parallel.scheduler import (
    dynamic_schedule,
    schedule_makespan,
    static_schedule,
)
from repro.parallel import executor as executor_mod
from repro.parallel.executor import parallel_spkadd, simulate_parallel_time
from repro.formats.ops import matrices_equal, sum_with_scipy
from tests.conftest import random_collection


class TestPartition:
    def test_row_bounds_cover(self):
        b = row_partition_bounds(100, 7)
        assert b[0] == 0 and b[-1] == 100
        assert np.all(np.diff(b) >= 1)

    def test_row_bounds_paper_formula(self):
        # r1 = i*m/parts
        b = row_partition_bounds(10, 3)
        assert list(b) == [0, 3, 6, 10]

    def test_row_bounds_single(self):
        assert list(row_partition_bounds(5, 1)) == [0, 5]

    def test_row_bounds_invalid(self):
        with pytest.raises(ValueError):
            row_partition_bounds(5, 0)

    def test_split_even_covers_disjoint(self):
        pieces = split_even(17, 4)
        assert pieces[0][0] == 0 and pieces[-1][1] == 17
        for (a0, a1), (b0, b1) in zip(pieces, pieces[1:]):
            assert a1 == b0

    def test_split_weighted_balances(self):
        w = np.array([100, 1, 1, 1, 1, 1, 1, 100], dtype=float)
        pieces = split_weighted(w, 2)
        loads = [w[a:b].sum() for a, b in pieces]
        assert max(loads) <= 0.75 * w.sum()

    def test_split_weighted_zero_weights(self):
        pieces = split_weighted(np.zeros(10), 3)
        assert pieces[-1][1] == 10

    def test_split_weighted_contiguous(self):
        w = np.random.default_rng(0).random(50)
        pieces = split_weighted(w, 7)
        assert pieces[0][0] == 0 and pieces[-1][1] == 50
        for (a0, a1), (b0, b1) in zip(pieces, pieces[1:]):
            assert a1 == b0


class TestScheduler:
    def test_static_one_chunk_per_thread(self):
        s = static_schedule(100, 4)
        assert len(s.assignments) == 4
        assert all(len(chunks) == 1 for chunks in s.assignments)

    def test_static_imbalance_on_skew(self):
        # all the cost in the first quarter: static gives one thread all
        costs = np.zeros(100)
        costs[:25] = 1.0
        s = static_schedule(100, 4)
        assert s.imbalance(costs) == pytest.approx(4.0)

    def test_dynamic_fixes_skew(self):
        costs = np.zeros(100)
        costs[:25] = 1.0
        d = dynamic_schedule(costs, 4, chunk=1)
        assert d.imbalance(costs) < 1.5

    def test_dynamic_covers_all_columns(self):
        costs = np.random.default_rng(0).random(37)
        d = dynamic_schedule(costs, 5, chunk=3)
        covered = sorted(
            (j0, j1) for chunks in d.assignments for j0, j1 in chunks
        )
        assert covered[0][0] == 0 and covered[-1][1] == 37
        total = sum(j1 - j0 for j0, j1 in covered)
        assert total == 37

    def test_makespan_at_least_average(self):
        costs = np.random.default_rng(1).random(64)
        for policy in ("static", "dynamic"):
            ms = schedule_makespan(costs, 4, policy=policy)
            assert ms >= costs.sum() / 4 - 1e-12

    def test_makespan_single_thread(self):
        costs = np.ones(10)
        assert schedule_makespan(costs, 1) == pytest.approx(10.0)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            dynamic_schedule(np.ones(4), 0)
        with pytest.raises(ValueError):
            dynamic_schedule(np.ones(4), 2, chunk=0)
        with pytest.raises(ValueError):
            schedule_makespan(np.ones(4), 2, policy="magic")


class TestExecutor:
    @pytest.mark.parametrize("method", ["hash", "spa", "heap", "sliding_hash"])
    def test_parallel_matches_sequential(self, method):
        mats = random_collection(21, 300, 23, 7)
        ref = sum_with_scipy(mats)
        res = parallel_spkadd(mats, method, threads=4)
        got = res.matrix.copy()
        got.sort_indices()
        assert matrices_equal(got, ref)

    def test_parallel_2way(self):
        mats = random_collection(22, 200, 11, 5)
        res = parallel_spkadd(mats, "2way_tree", threads=3)
        assert matrices_equal(res.matrix, sum_with_scipy(mats))

    def test_stats_merged(self):
        mats = random_collection(23, 300, 23, 7)
        seq = parallel_spkadd(mats, "hash", threads=1)
        par = parallel_spkadd(mats, "hash", threads=4)
        assert par.stats.input_nnz == seq.stats.input_nnz
        assert par.stats.output_nnz == seq.stats.output_nnz
        assert par.stats.col_out_nnz is not None
        assert int(par.stats.col_out_nnz.sum()) == par.matrix.nnz

    def test_more_threads_than_columns(self):
        mats = random_collection(24, 100, 3, 4)
        res = parallel_spkadd(mats, "hash", threads=8)
        assert matrices_equal(res.matrix, sum_with_scipy(mats))

    @pytest.mark.parametrize("threads, n", [(1, 64), (2, 64), (3, 64),
                                            (8, 5)])
    def test_fixed_chunk_count(self, monkeypatch, threads, n):
        """Columns split into one chunk per worker, ``min(threads, n)``,
        never more than there are columns (empty pieces are dropped)."""
        seen = []
        stage = executor_mod._execute_stage

        def recording_stage(stage_name, mats, method, ranges, **kw):
            seen.append(list(ranges))
            return stage(stage_name, mats, method, ranges, **kw)

        monkeypatch.setattr(executor_mod, "_execute_stage", recording_stage)
        mats = random_collection(25, 200, n, 4, nnz_lo=n, nnz_hi=4 * n)
        res = parallel_spkadd(mats, "hash", threads=threads,
                              executor="serial")
        want = min(threads, n)
        assert len(seen) == 1
        if want <= n // 4:
            assert len(seen[0]) == want
        else:
            assert 1 <= len(seen[0]) <= want
        assert all(j1 > j0 for j0, j1 in seen[0])
        assert seen[0][0][0] == 0 and seen[0][-1][1] == n
        assert matrices_equal(res.matrix, sum_with_scipy(mats))

    @pytest.mark.parametrize("cpus, plan, gateway", [
        (1, (1, 1), 1),
        (2, (1, 2), 1),
        (8, (2, 4), 4),
    ])
    def test_width_rule(self, monkeypatch, cpus, plan, gateway):
        """One CPU budget split across two levels: ``outer = min(units,
        budget)``, ``inner = max(1, budget // outer)``.  A 2x2 SUMMA grid
        has 4 rank pipelines, the gateway 2 compute slots; explicit
        widths are kept."""
        import repro
        from repro.distributed import ProcessGrid
        from repro.generators.rmat import rmat
        from repro.serve import GatewayConfig

        monkeypatch.setattr(executor_mod, "cpu_budget", lambda: cpus)
        A = rmat(64, 64, d=4, seed=3)
        grid = ProcessGrid(2, 2)

        def widths(**kw):
            res = repro.summa_spgemm(A, A, grid=grid, stages=2, **kw)
            return res.plan.threads, res.plan.rank_parallelism

        assert widths(plan=repro.ExecutionPlan.production()) == plan
        assert widths(executor="thread") == plan
        assert widths(plan=repro.ExecutionPlan.production(
            threads=2, rank_parallelism=2)) == (2, 2)
        assert widths(executor="thread", threads=3) == (3, plan[1])
        assert widths(plan=repro.ExecutionPlan.production(
            rank_parallelism=1)) == (cpus, 1)
        assert GatewayConfig().threads == gateway
        assert GatewayConfig(threads=2).threads == 2
        assert GatewayConfig(parallel_calls=1).threads == cpus

    def test_simulate_parallel_time_monotone(self):
        costs = np.random.default_rng(2).random(256)
        times = [
            simulate_parallel_time(costs, t, policy="dynamic")
            for t in (1, 2, 4, 8)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(times, times[1:]))

    def test_simulate_static_worse_on_skew(self):
        costs = np.zeros(128)
        costs[:16] = 1.0
        st = simulate_parallel_time(costs, 8, policy="static")
        dy = simulate_parallel_time(costs, 8, policy="dynamic", chunk=1)
        assert st > dy
