"""Pool lifecycle + zero-copy result suite (ISSUE-5).

Three contracts under test:

* **Persistent pools** — the shm engine draws workers from the
  :mod:`repro.parallel.pools` registry: repeated calls reuse one
  warm pool (no child-process / fd / ``/dev/shm`` growth across a soak
  loop), a broken pool is rebuilt on the next call, and
  ``shutdown_pools()`` / the registry context manager release workers
  deterministically.
* **Fail-fast chunk errors** — the first poisoned chunk cancels the
  chunks still queued and propagates immediately on both the thread
  and shm paths, instead of waiting out every healthy sibling
  (regression drivers run in a child interpreter under a hard timeout,
  with ``REPRO_MP_START=fork`` so the parent-side poison patch is
  inherited by the workers).
* **Zero-copy result lifetime** — a shm result's segment stays alive
  exactly as long as some view of it does: present while the matrix (or
  any NumPy view derived from its arrays) is referenced, unlinked from
  ``/dev/shm`` when the last reference dies; ``materialize=True`` /
  ``REPRO_SHM_RESULTS`` restore the private-copy contract.
"""

import gc
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.api import spkadd
from repro.parallel.pools import (
    PoolRegistry,
    active_pools,
    discard_pool,
    get_pool,
    shutdown_pools,
)
from repro.parallel.shm import (
    SHM_RESULTS_ENV_VAR,
    list_live_segments,
    resolve_shm_results,
)
from tests.conftest import assert_bit_identical, random_collection

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


# ---------------------------------------------------------------------------
# Persistent pool registry.
# ---------------------------------------------------------------------------


class TestPoolRegistry:
    def test_same_key_reuses_pool(self):
        a = get_pool(2)
        b = get_pool(2)
        assert a is b

    def test_threads_and_context_key_separately(self):
        base = get_pool(2)
        assert get_pool(3) is not base
        assert get_pool(2) is base  # still resident (cap 2)
        spawn = multiprocessing.get_context("spawn")
        other = get_pool(2, spawn)
        try:
            assert other is not base
        finally:
            discard_pool(other)

    def test_lru_eviction_bounds_residency(self):
        from repro.parallel.pools import DEFAULT_MAX_POOLS

        shutdown_pools()
        widths = (2, 3, 4)
        pools = [get_pool(t) for t in widths]
        keys = sorted(active_pools())
        assert len(keys) == DEFAULT_MAX_POOLS
        # The least-recently-used width was evicted, the newest survive.
        assert {k[0] for k in keys} == set(widths[-DEFAULT_MAX_POOLS:])
        with pytest.raises(RuntimeError):  # evicted pool was shut down
            pools[0].submit(int, "1")
        assert pools[-1].submit(int, "7").result() == 7

    def test_leased_pool_survives_eviction_pressure(self):
        """A pool checked out with lease_pool() must not be LRU-evicted
        mid-call, however many other widths are acquired meanwhile."""
        from repro.parallel.pools import lease_pool

        shutdown_pools()
        with lease_pool(2) as leased:
            for t in (3, 4, 5):  # enough churn to evict every unleased pool
                get_pool(t)
            # Still registered and still accepting work mid-lease.
            assert any(k[0] == 2 for k in active_pools())
            assert leased.submit(int, "7").result() == 7
        # Once released it becomes an ordinary eviction candidate.
        for t in (3, 4):
            get_pool(t)
        assert not any(k[0] == 2 for k in active_pools())

    def test_executor_shm_reuses_registry_pool(self):
        mats = random_collection(50, 150, 11, 4)
        ref = spkadd(mats, method="hash", threads=2, executor="thread")
        got1 = spkadd(mats, method="hash", threads=2, executor="shm")
        pool = active_pools().get((2, "forkserver"))
        got2 = spkadd(mats, method="hash", threads=2, executor="shm")
        if pool is not None:  # forkserver platforms: the pool survived
            assert active_pools().get((2, "forkserver")) is pool
        assert_bit_identical(ref.matrix, got1.matrix)
        assert_bit_identical(ref.matrix, got2.matrix)

    def test_discard_replaces_pool(self):
        pool = get_pool(2)
        discard_pool(pool)
        fresh = get_pool(2)
        assert fresh is not pool
        assert fresh.submit(int, "7").result() == 7

    def test_broken_pool_rebuilt_and_executor_recovers(self):
        mats = random_collection(51, 150, 11, 4)
        ref = spkadd(mats, method="hash", threads=2, executor="thread")
        pool = get_pool(2)
        with pytest.raises(BrokenProcessPool):
            # Kill a worker mid-task: the executor is now poisoned.
            pool.submit(os._exit, 13).result()
        # Health rebuild: the registry never hands out the corpse.
        fresh = get_pool(2)
        assert fresh is not pool
        # And the public executor path works end to end again.
        got = spkadd(mats, method="hash", threads=2, executor="shm")
        assert_bit_identical(ref.matrix, got.matrix)

    def test_shutdown_pools_defers_leased_pool(self):
        """shutdown_pools() arriving while a call is in flight must not
        cancel it: the leased pool keeps accepting the call's work and
        is closed when the lease releases."""
        from repro.parallel.pools import lease_pool

        shutdown_pools()
        with lease_pool(2) as pool:
            shutdown_pools()
            assert active_pools() == {}
            # Mid-call submits still succeed (a retried wave's case).
            assert pool.submit(int, "7").result() == 7
        with pytest.raises(RuntimeError):  # closed once the call ended
            pool.submit(int, "1")

    def test_discard_defers_while_leased(self):
        """discard_pool() on a pool another call has leased must not
        cancel that call; the pool closes when the lease releases."""
        from repro.parallel.pools import lease_pool

        shutdown_pools()
        with lease_pool(2) as pool:
            discard_pool(pool)
            assert not any(k[0] == 2 for k in active_pools())
            assert pool.submit(int, "7").result() == 7  # still serving
        with pytest.raises(RuntimeError):  # closed at lease release
            pool.submit(int, "1")

    def test_engine_shutdown_discard_releases_private_pool(self):
        """shutdown(discard=True) is the targeted teardown for engines
        whose context makes the pool de-facto private."""
        from repro.parallel.executor import _total_col_nnz
        from repro.parallel.partition import split_weighted
        from repro.parallel.shm import SharedMemoryPool

        before = list_live_segments()
        spawn = multiprocessing.get_context("spawn")
        engine = SharedMemoryPool(mp_context=spawn)
        mats = random_collection(67, 100, 9, 3)
        ranges = [
            (j0, j1)
            for j0, j1 in split_weighted(_total_col_nnz(mats), 3)
            if j1 > j0
        ]
        out, _ = engine.run(
            mats, "hash", ranges,
            sorted_output=True, kwargs={"backend": "fast"}, threads=2,
        )
        assert (2, "spawn") in active_pools()
        engine.shutdown(discard=True)
        assert (2, "spawn") not in active_pools()
        del out
        gc.collect()
        assert list_live_segments() == before

    def test_private_registry_context_manager(self):
        with PoolRegistry() as reg:
            pool = reg.get(2)
            assert pool.submit(int, "5").result() == 5
            assert reg.active()
        # __exit__ shut the pool down; it accepts no further work.
        with pytest.raises(RuntimeError):
            pool.submit(int, "5")
        assert reg.active() == {}

    def test_shutdown_then_spkadd_rebuilds(self):
        mats = random_collection(52, 120, 9, 3)
        ref = spkadd(mats, method="hash", threads=2, executor="thread")
        shutdown_pools()
        got = spkadd(mats, method="hash", threads=2, executor="shm")
        assert_bit_identical(ref.matrix, got.matrix)


# ---------------------------------------------------------------------------
# Fail-fast chunk errors (satellite regression).
#
# The drivers run in a child interpreter with REPRO_MP_START=fork: fork
# workers inherit the parent's patched ``_run_chunk`` (task functions
# are pickled by reference and resolved against the child's module
# state), which lets the test poison one chunk and slow another without
# test seams in production code.  The old collection loop waited on the
# slow chunk's future before surfacing the poisoned one.
# ---------------------------------------------------------------------------

FAILFAST_SCRIPT = """\
import multiprocessing
import os
import sys
import time

import repro.parallel.executor as ex
from repro.generators import erdos_renyi_collection
from repro.parallel.shm import list_live_segments

SLEEP_S = 8.0


def poisoned_run_chunk(method, j0, views, sorted_output, kwargs):
    if j0 == 0:
        time.sleep(SLEEP_S)  # a healthy-but-slow sibling chunk
    raise RuntimeError(f"poisoned chunk at column {j0}")


def main(executor):
    ex._run_chunk = poisoned_run_chunk
    mats = erdos_renyi_collection(3000, 64, d=4.0, k=4, seed=3)
    t0 = time.perf_counter()
    try:
        ex.parallel_spkadd(mats, "hash", threads=2, executor=executor)
    except RuntimeError as err:
        elapsed = time.perf_counter() - t0
        assert "poisoned chunk" in str(err), err
        assert elapsed < SLEEP_S / 2.0, (
            f"poisoned-chunk error took {elapsed:.1f}s to propagate — "
            "the executor drained the slow sibling before raising"
        )
        assert list_live_segments() == []
        print(f"FAILFAST-OK {elapsed:.2f}s")
        sys.stdout.flush()
        # Skip interpreter teardown: the deliberately-slow chunk is
        # still running in a worker and a normal exit would join it —
        # and kill the workers first, or the orphans would keep the
        # captured stdout/stderr pipes open until the sleep finishes.
        for child in multiprocessing.active_children():
            child.terminate()
        os._exit(0)
    raise SystemExit("poisoned chunk did not raise")


if __name__ == "__main__":
    main(sys.argv[1])
"""

FAILFAST_TIMEOUT_S = 120


@pytest.mark.stress
@pytest.mark.parametrize("executor", ["thread", "shm"])
def test_poisoned_chunk_fails_fast(executor, tmp_path):
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method unavailable")
    script = tmp_path / "failfast_driver.py"
    script.write_text(FAILFAST_SCRIPT)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_MP_START"] = "fork"
    try:
        proc = subprocess.run(
            [sys.executable, str(script), executor],
            timeout=FAILFAST_TIMEOUT_S,
            capture_output=True,
            text=True,
            env=env,
        )
    except subprocess.TimeoutExpired:
        pytest.fail(
            f"{executor} fail-fast driver did not finish within "
            f"{FAILFAST_TIMEOUT_S}s"
        )
    assert proc.returncode == 0, proc.stderr
    assert "FAILFAST-OK" in proc.stdout, proc.stdout + proc.stderr


def test_worker_error_keeps_engines_usable():
    """In-process companion to the drivers: a failing chunk (unknown
    kernel kwarg) propagates as the worker's error, leaks nothing, and
    leaves the persistent engine serving the next call."""
    mats = random_collection(53, 150, 11, 4)
    ref = spkadd(mats, method="hash", threads=2, executor="thread")
    before = list_live_segments()
    with pytest.raises(TypeError):
        spkadd(mats, method="hash", threads=2, executor="shm",
               definitely_not_a_kwarg=1)
    assert list_live_segments() == before
    got = spkadd(mats, method="hash", threads=2, executor="shm")
    assert_bit_identical(ref.matrix, got.matrix)


# ---------------------------------------------------------------------------
# Soak: repeated calls, no resource growth.
# ---------------------------------------------------------------------------


def _fd_count() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.stress
@pytest.mark.parametrize("executor", ["thread", "shm"])
def test_soak_no_resource_growth(executor):
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("/proc not available")
    mats = random_collection(54, 400, 23, 5)
    for _ in range(3):  # warm: registry pool built, forkserver up
        spkadd(mats, method="hash", threads=2, executor=executor)
    gc.collect()
    children = len(multiprocessing.active_children())
    fds = _fd_count()
    segments = list_live_segments()
    for _ in range(10):
        res = spkadd(mats, method="hash", threads=2, executor=executor)
        del res
    gc.collect()
    assert len(multiprocessing.active_children()) <= children, (
        "worker process count grew across repeated calls"
    )
    assert _fd_count() <= fds, "open fd count grew across repeated calls"
    assert list_live_segments() == segments, "/dev/shm entries leaked"


# ---------------------------------------------------------------------------
# Zero-copy result lifetime.
# ---------------------------------------------------------------------------


class TestZeroCopyLifetime:
    def run_shm(self, mats, **kw):
        return spkadd(mats, method="hash", threads=3, executor="shm", **kw)

    def test_result_is_segment_backed_and_bit_identical(self):
        mats = random_collection(55, 200, 13, 5)
        before = set(list_live_segments())
        res = self.run_shm(mats)
        assert res.matrix.buffer_owner is not None
        assert res.matrix.is_shm_backed
        live = set(list_live_segments()) - before
        assert live == {res.matrix.buffer_owner.segment_name}
        ref = spkadd(mats, method="hash", threads=3, executor="thread")
        assert_bit_identical(ref.matrix, res.matrix)

    def test_segment_unlinks_when_last_reference_dies(self):
        mats = random_collection(56, 200, 13, 5)
        before = set(list_live_segments())
        res = self.run_shm(mats)
        name = res.matrix.buffer_owner.segment_name
        assert name in list_live_segments()
        # A derived NumPy view (not the matrix, not the base array)
        # must keep the segment alive on its own.
        tail = res.matrix.indices[5:]
        expect = res.matrix.indices[5:].copy()
        del res
        gc.collect()
        assert name in list_live_segments(), "segment died under a live view"
        assert np.array_equal(tail, expect)  # still readable
        del tail
        gc.collect()
        assert name not in list_live_segments(), "segment outlived its views"

    def test_col_view_marks_shared_backing(self):
        mats = random_collection(57, 150, 12, 4)
        res = self.run_shm(mats)
        view = res.matrix.col_view(2, 7)
        assert view.buffer_owner is res.matrix.buffer_owner

    def test_materialize_kwarg_returns_private_copy(self):
        mats = random_collection(58, 180, 13, 4)
        before = list_live_segments()
        zc = self.run_shm(mats)
        mz = self.run_shm(mats, materialize=True)
        assert mz.matrix.buffer_owner is None
        assert not mz.matrix.is_shm_backed
        assert_bit_identical(zc.matrix, mz.matrix)
        del zc
        gc.collect()
        # The materialized result holds no segment.
        assert list_live_segments() == before

    def test_matrix_materialize_method(self):
        mats = random_collection(59, 150, 11, 4)
        res = self.run_shm(mats)
        name = res.matrix.buffer_owner.segment_name
        private = res.matrix.materialize()
        assert private.buffer_owner is None
        assert_bit_identical(res.matrix, private)
        assert private.materialize() is private  # already private: no-op
        del res
        gc.collect()
        assert name not in list_live_segments()
        assert private.nnz >= 0  # still fully usable after the segment died

    def test_env_pin_materializes(self, monkeypatch):
        mats = random_collection(60, 150, 11, 4)
        monkeypatch.setenv(SHM_RESULTS_ENV_VAR, "materialize")
        res = self.run_shm(mats)
        assert res.matrix.buffer_owner is None
        # Explicit argument beats the pin.
        res = self.run_shm(mats, materialize=False)
        assert res.matrix.buffer_owner is not None

    def test_env_invalid_value_names_source(self, monkeypatch):
        mats = random_collection(61, 100, 9, 3)
        monkeypatch.setenv(SHM_RESULTS_ENV_VAR, "teleport")
        before = list_live_segments()
        with pytest.raises(ValueError, match=SHM_RESULTS_ENV_VAR):
            self.run_shm(mats)
        assert list_live_segments() == before  # failed before any segment

    def test_zero_copy_result_pickles_as_private(self):
        """Pickling a segment-backed matrix must transport the array
        values and drop the (segment-bound, unpicklable) owner — the
        round trip is a private, fully-usable matrix."""
        import pickle

        mats = random_collection(62, 150, 11, 4)
        res = self.run_shm(mats)
        assert res.matrix.is_shm_backed
        clone = pickle.loads(pickle.dumps(res.matrix))
        assert clone.buffer_owner is None
        assert_bit_identical(res.matrix, clone)
        name = res.matrix.buffer_owner.segment_name
        del res
        gc.collect()
        assert name not in list_live_segments()
        assert clone.nnz >= 0  # private copy survives the segment

    def test_sort_indices_drops_shared_backing(self):
        """Sorting an unsorted zero-copy result rebuilds its arrays in
        private memory; the stale owner marker must go with them (the
        dropped arrays' finalizers release the segment)."""
        mats = random_collection(66, 150, 11, 4)
        res = spkadd(mats, method="hash", threads=3, executor="shm",
                     backend="instrumented", sorted_output=False)
        m = res.matrix
        assert m.is_shm_backed and not m.sorted
        m.sort_indices()
        assert m.sorted
        assert not m.is_shm_backed  # arrays are private copies now
        gc.collect()
        ref = spkadd(mats, method="hash", threads=3, executor="thread")
        assert np.array_equal(m.indptr, ref.matrix.indptr)
        assert np.array_equal(m.indices, ref.matrix.indices)

    def test_zero_copy_result_copy_protocol(self):
        """copy.copy shares the segment-backed arrays and must keep the
        shared-backing marker; copy.deepcopy duplicates into private
        memory and must drop it."""
        import copy as copy_mod

        mats = random_collection(65, 150, 11, 4)
        res = self.run_shm(mats)
        shallow = copy_mod.copy(res.matrix)
        assert shallow.indices is res.matrix.indices  # shared arrays
        assert shallow.is_shm_backed
        assert shallow.buffer_owner is res.matrix.buffer_owner
        deep = copy_mod.deepcopy(res.matrix)
        assert deep.indices is not res.matrix.indices
        assert not deep.is_shm_backed
        assert_bit_identical(res.matrix, deep)

    def test_zero_copy_result_feeds_shm_executor(self):
        """A zero-copy shm result used as an *input* to the shm
        executor is published like any other addend (its views carry
        the buffer_owner marker) — it must feed the next call cleanly."""
        mats = random_collection(63, 150, 11, 4)
        partial = self.run_shm(mats[:2]).matrix
        assert partial.is_shm_backed
        ref = spkadd([partial] + mats[2:], method="hash", threads=2,
                     executor="thread")
        got = spkadd([partial] + mats[2:], method="hash", threads=2,
                     executor="shm")
        assert_bit_identical(ref.matrix, got.matrix)

    def test_engine_shutdown_leaves_shared_healthy_pool(self):
        """SharedMemoryPool.shutdown() must not tear a healthy pool out
        from under other engines sharing the registry key; only broken
        pools are discarded."""
        from repro.parallel.shm import SharedMemoryPool

        mats = random_collection(64, 150, 11, 4)
        ref = spkadd(mats, method="hash", threads=2, executor="thread")
        first = spkadd(mats, method="hash", threads=2, executor="shm")
        assert_bit_identical(ref.matrix, first.matrix)
        pool = active_pools().get((2, "forkserver"))
        other = SharedMemoryPool()
        other._pool = pool  # simulate a second engine on the same key
        other.shutdown()
        if pool is not None:
            assert active_pools().get((2, "forkserver")) is pool
        # The default engine keeps working on the (still live) pool.
        again = spkadd(mats, method="hash", threads=2, executor="shm")
        assert_bit_identical(ref.matrix, again.matrix)

    def test_resolve_shm_results_rules(self, monkeypatch):
        monkeypatch.delenv(SHM_RESULTS_ENV_VAR, raising=False)
        assert resolve_shm_results(None) is False
        assert resolve_shm_results(True) is True
        assert resolve_shm_results(False) is False
        for raw, expect in [
            ("zero-copy", False), ("zero_copy", False), ("ZeroCopy", False),
            ("materialize", True), ("copy", True),
        ]:
            monkeypatch.setenv(SHM_RESULTS_ENV_VAR, raw)
            assert resolve_shm_results(None) is expect, raw
        monkeypatch.setenv(SHM_RESULTS_ENV_VAR, "materialize")
        assert resolve_shm_results(False) is False  # argument wins
