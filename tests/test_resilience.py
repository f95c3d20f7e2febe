"""Chaos suite for the resilient execution layer.

Drives the injection points in :mod:`repro.parallel.faults` against the
real executors and asserts the resilience contract of
:mod:`repro.parallel.resilience`:

* a worker killed mid-call is recovered by chunk retry and the result
  stays **bit-identical** to the serial answer (shm and thread
  executors, both kernel backends);
* a per-call deadline is honoured within 2x the requested bound, raises
  the typed ``DeadlineExceeded``, and leaks nothing;
* an executor found unusable (retries exhausted, injected ENOSPC, boot
  timeout) degrades down the fallback chain to a correct answer with a
  one-shot warning, or fails typed when fallback is off;
* deterministic chunk errors keep PR 5's fail-fast contract — they are
  never retried and never degraded around;
* after every recovery, ``/dev/shm``, the child-process set, and the fd
  table return to baseline (no leaks);
* ``sweep_orphans`` unlinks dead-owner segments and leaves live-owner
  segments alone;
* the one retry loop, ``run_wave``, treats a submit that fails on a
  broken pool as transient, whatever the exception.
"""

import contextlib
import gc
import multiprocessing
import os
import subprocess
import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.api import spkadd
from repro.parallel import executor as executor_mod
from repro.parallel import faults
from repro.parallel.pools import PoolRegistry, pool_is_broken
from repro.parallel.resilience import (
    DEADLINE_ENV_VAR,
    FALLBACK_ENV_VAR,
    MAX_RETRIES_ENV_VAR,
    Deadline,
    DeadlineExceeded,
    ExecutorUnusable,
    PoolBootTimeout,
    ResiliencePolicy,
    RetriesExhausted,
    resolve_policy,
    run_wave,
)
from repro.parallel.shm import (
    SEGMENT_PREFIX,
    list_live_segments,
    sweep_orphans,
)
from tests.conftest import assert_bit_identical, random_collection


def baseline_result(mats, **kw):
    return spkadd(mats, method="hash", threads=1, **kw)


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.fixture
def mats():
    return random_collection(seed=31, m=512, n=48, k=6)


@pytest.fixture
def no_warn_flag(monkeypatch):
    """Reset the process-wide one-shot fallback warning for this test."""
    monkeypatch.setattr(executor_mod, "_FALLBACK_WARNED", False)


# ---------------------------------------------------------------------------
# Policy / deadline / fault-plan resolution.
# ---------------------------------------------------------------------------


class TestPolicyResolution:
    def test_defaults(self, monkeypatch):
        for var in (MAX_RETRIES_ENV_VAR, DEADLINE_ENV_VAR, FALLBACK_ENV_VAR):
            monkeypatch.delenv(var, raising=False)
        p = resolve_policy()
        assert p.max_retries == 2
        assert p.deadline_s is None
        assert p.fallback is None

    def test_env_knobs(self, monkeypatch):
        monkeypatch.setenv(MAX_RETRIES_ENV_VAR, "5")
        monkeypatch.setenv(DEADLINE_ENV_VAR, "12.5")
        monkeypatch.setenv(FALLBACK_ENV_VAR, "thread,serial")
        p = resolve_policy()
        assert p.max_retries == 5
        assert p.deadline_s == 12.5
        assert p.fallback == ("thread", "serial")

    def test_explicit_deadline_overrides_env(self, monkeypatch):
        monkeypatch.setenv(DEADLINE_ENV_VAR, "12.5")
        assert resolve_policy(deadline=3.0).deadline_s == 3.0

    @pytest.mark.parametrize("raw,expect", [("auto", None), ("off", ())])
    def test_fallback_modes(self, monkeypatch, raw, expect):
        monkeypatch.setenv(FALLBACK_ENV_VAR, raw)
        assert resolve_policy().fallback == expect

    def test_bad_env_names_source(self, monkeypatch):
        monkeypatch.setenv(MAX_RETRIES_ENV_VAR, "many")
        with pytest.raises(ValueError, match=MAX_RETRIES_ENV_VAR):
            resolve_policy()
        monkeypatch.delenv(MAX_RETRIES_ENV_VAR)
        for bad in ("gpu", "process"):
            monkeypatch.setenv(FALLBACK_ENV_VAR, bad)
            with pytest.raises(ValueError, match=FALLBACK_ENV_VAR):
                resolve_policy()

    def test_chain_semantics(self):
        p = ResiliencePolicy()
        assert p.chain_for("shm") == ("shm", "thread", "serial")
        assert p.chain_for("thread") == ("thread", "serial")
        assert p.chain_for("serial") == ("serial",)
        restricted = ResiliencePolicy(fallback=("serial",))
        assert restricted.chain_for("shm") == ("shm", "serial")
        disabled = ResiliencePolicy(fallback=())
        assert disabled.chain_for("shm") == ("shm",)

    def test_validation(self):
        with pytest.raises(ValueError):
            ResiliencePolicy(max_retries=-1)
        with pytest.raises(ValueError):
            ResiliencePolicy(deadline_s=0)
        with pytest.raises(ValueError):
            ResiliencePolicy(fallback=("gpu",))

    def test_backoff_bounded(self):
        p = ResiliencePolicy(backoff_base_s=0.05, backoff_cap_s=0.2,
                             backoff_jitter=0.25)
        for attempt in range(1, 10):
            assert 0.0 <= p.backoff_s(attempt) <= 0.2 * 1.25

    def test_deadline_object(self):
        d = Deadline(0.05)
        assert d.remaining() <= 0.05
        time.sleep(0.06)
        assert d.expired
        with pytest.raises(DeadlineExceeded, match="during assembly"):
            d.check("assembly")
        with pytest.raises(DeadlineExceeded):
            d.sleep(0.01)
        unlimited = Deadline(None)
        assert unlimited.remaining() is None
        unlimited.check("anything")  # never raises

    def test_fault_plan_grammar(self):
        p = faults.parse_plan("kill_chunk=1:3,delay_chunk=0:0.25,"
                              "enospc,boot_hang=1.5")
        assert p.kill_chunk == 1 and p._kill_left == 3
        assert p.delay_chunk == 0 and p.delay_s == 0.25
        assert p._enospc_left == 1
        assert p.boot_hang_s == 1.5
        # A plan naming a removed fault kind (scatter_raise) must fail
        # loudly, not inject nothing.
        for stale in ("explode=1", "scatter_raise", "scatter_raise=2"):
            with pytest.raises(ValueError, match=faults.FAULTS_ENV_VAR):
                faults.parse_plan(stale)

    def test_fault_counters_consumed(self):
        p = faults.FaultPlan(kill_chunk=2)
        assert p.take_chunk_fault(1, can_kill=True) is None
        assert p.take_chunk_fault(2, can_kill=True) == {"kill": True}
        assert p.take_chunk_fault(2, can_kill=True) is None  # spent
        degraded = faults.FaultPlan(kill_chunk=0).take_chunk_fault(
            0, can_kill=False
        )
        assert "raise" in degraded and "kill" not in degraded


# ---------------------------------------------------------------------------
# Worker-crash chunk retry: bit-identical recovery, no leaks.
# ---------------------------------------------------------------------------


class TestKillRetry:
    @pytest.mark.parametrize("executor", ["thread", "shm"])
    @pytest.mark.parametrize("backend", ["fast", "instrumented"])
    def test_single_kill_recovers_bit_identical(
        self, mats, executor, backend
    ):
        base = baseline_result(mats, backend=backend)
        seg_before = list_live_segments()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # recovery must not degrade
            with faults.inject(kill_chunk=1):
                res = spkadd(
                    mats, method="hash", threads=2, executor=executor,
                    backend=backend, materialize=True,
                )
        assert_bit_identical(
            res.matrix, base.matrix, f"{executor}/{backend} kill-retry"
        )
        del res
        gc.collect()
        assert list_live_segments() == seg_before

    def test_kill_leaves_no_children_fds_segments(self, mats):
        base = baseline_result(mats)
        # Warm the pool so the baseline counts include resident workers.
        spkadd(mats, method="hash", threads=2, executor="shm",
               materialize=True)
        children = len(multiprocessing.active_children())
        fds = open_fds()
        seg_before = list_live_segments()
        for trial in range(3):
            with faults.inject(kill_chunk=trial % 2):
                res = spkadd(mats, method="hash", threads=2,
                             executor="shm", materialize=True)
            assert_bit_identical(res.matrix, base.matrix, f"trial {trial}")
        del res
        gc.collect()
        assert list_live_segments() == seg_before
        assert len(multiprocessing.active_children()) <= children
        # A couple of fds of slack: the pool rebuild may settle its pipes
        # lazily, but repeated recoveries must not accumulate.
        assert open_fds() <= fds + 4

    def test_worker_sigkill_shm_baseline_regression(self, mats):
        """Satellite regression: a SIGKILLed worker mid-scatter must not
        leak the output segment — ``/dev/shm`` returns to baseline."""
        base = baseline_result(mats)
        seg_before = list_live_segments()
        with faults.inject(kill_chunk=0, delay_chunk=0, delay_s=0.05):
            res = spkadd(mats, method="hash", threads=2, executor="shm",
                         materialize=True)
        assert_bit_identical(res.matrix, base.matrix, "post-SIGKILL")
        del res
        gc.collect()
        assert list_live_segments() == seg_before

    def test_thread_injected_transient_retried(self, mats):
        base = baseline_result(mats)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with faults.inject(kill_chunk=2):  # degrades to a raise
                res = spkadd(mats, method="hash", threads=2,
                             executor="thread")
        assert_bit_identical(res.matrix, base.matrix, "thread retry")

    def test_serial_injected_transient_retried(self, mats):
        base = baseline_result(mats)
        with faults.inject(kill_chunk=0):
            res = spkadd(mats, method="hash", threads=2, executor="serial")
        assert_bit_identical(res.matrix, base.matrix, "serial retry")

    @pytest.mark.parametrize("materialize", [True, False])
    def test_stale_writer_dead_before_compaction(
        self, mats, materialize, monkeypatch
    ):
        """Chunk 1's worker dies while chunk 0's worker still sleeps, so
        the broken pool holds a writer of this call's output segment.
        The shm engine compacts that segment in place after the retried
        wave; every worker of the broken pool must be dead before the
        layout (and the compaction right after it) starts.  The pool's
        manager thread is slowed down between failing the futures and
        terminating the survivors, so the retry would outrun it unless
        the broken pool is joined."""
        from multiprocessing.process import BaseProcess

        from repro.core import symbolic
        from repro.parallel import shm

        terminate = BaseProcess.terminate

        def slow_terminate(proc):
            time.sleep(0.5)
            terminate(proc)

        monkeypatch.setattr(BaseProcess, "terminate", slow_terminate)

        base = baseline_result(mats)
        seg_before = list_live_segments()
        engine = shm._DEFAULT_ENGINE
        lease_pool = engine._lease_pool
        broken_pids = set()

        @contextlib.contextmanager
        def recording_lease(threads, deadline=None):
            with lease_pool(threads, deadline=deadline) as pool:
                try:
                    yield pool
                finally:
                    if pool_is_broken(pool):
                        broken_pids.update(tuple(pool._processes or ()))

        layout = symbolic.chunk_output_layout
        alive_at_layout = []

        def checked_layout(*args, **kwargs):
            alive_at_layout.extend(
                pid for pid in broken_pids if shm._pid_alive(pid)
            )
            return layout(*args, **kwargs)

        monkeypatch.setattr(engine, "_lease_pool", recording_lease)
        monkeypatch.setattr(symbolic, "chunk_output_layout", checked_layout)
        with faults.inject(kill_chunk=1, delay_chunk=0, delay_s=0.2):
            res = spkadd(mats, method="hash", threads=2, executor="shm",
                         materialize=materialize)
        assert broken_pids, "the injected kill did not break the pool"
        assert alive_at_layout == []
        assert [p for p in broken_pids if shm._pid_alive(p)] == []
        assert res.matrix.is_shm_backed is not materialize
        assert_bit_identical(res.matrix, base.matrix, "stale writer")
        del res
        gc.collect()
        assert list_live_segments() == seg_before

    def test_env_fault_plan_fresh_per_call(self, mats, monkeypatch):
        base = baseline_result(mats)
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "kill_chunk=0")
        for call in range(2):  # fresh counters: both calls are faulted
            res = spkadd(mats, method="hash", threads=2, executor="shm")
            assert_bit_identical(res.matrix, base.matrix, f"env call {call}")

    def test_deterministic_errors_not_retried(self, mats):
        """PR 5 fail-fast contract: a deterministic chunk error is never
        retried and never degraded around."""
        calls = []
        original = executor_mod._run_chunk

        def counting(method, j0, views, sorted_output, kwargs):
            calls.append(j0)
            raise TypeError("deterministic kernel bug")

        try:
            executor_mod._run_chunk = counting
            with pytest.raises(TypeError, match="deterministic"):
                spkadd(mats, method="hash", threads=2, executor="thread")
        finally:
            executor_mod._run_chunk = original
        # Fail-fast: at most one submission wave, no per-chunk retries.
        assert len(calls) <= 8


# ---------------------------------------------------------------------------
# Deadlines.
# ---------------------------------------------------------------------------


class TestDeadline:
    @pytest.mark.parametrize("executor", ["thread", "shm"])
    def test_delayed_chunk_deadline(self, mats, executor):
        # Warm pools first so the measured window is the wait, not a boot.
        spkadd(mats, method="hash", threads=2, executor=executor,
               materialize=True)
        seg_before = list_live_segments()
        t0 = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            with faults.inject(delay_chunk=0, delay_s=3.0):
                spkadd(mats, method="hash", threads=2, executor=executor,
                       deadline=0.5, materialize=True)
        elapsed = time.monotonic() - t0
        assert elapsed < 1.0, f"deadline held {elapsed:.2f}s (2x bound)"
        gc.collect()
        assert list_live_segments() == seg_before

    def test_deadline_env_var(self, mats, monkeypatch):
        monkeypatch.setenv(DEADLINE_ENV_VAR, "0.4")
        with pytest.raises(DeadlineExceeded):
            with faults.inject(delay_chunk=0, delay_s=3.0):
                spkadd(mats, method="hash", threads=2, executor="thread")

    def test_deadline_not_swallowed_by_fallback(self, mats):
        """An expired budget fails the call — it must not trigger a
        (slower) fallback stage."""
        with pytest.raises(DeadlineExceeded):
            with faults.inject(delay_chunk=0, delay_s=3.0):
                spkadd(mats, method="hash", threads=2, executor="thread",
                       deadline=0.3)

    def test_generous_deadline_is_invisible(self, mats):
        base = baseline_result(mats)
        res = spkadd(mats, method="hash", threads=2, executor="thread",
                     deadline=300.0)
        assert_bit_identical(res.matrix, base.matrix, "live deadline")


# ---------------------------------------------------------------------------
# Fallback chain.
# ---------------------------------------------------------------------------


class TestFallback:
    def test_exhausted_retries_degrade_to_serial(self, mats, no_warn_flag):
        """kill_count=2 with max_retries=0: the shm stage dies once
        and gives up, the thread stage eats the second (degraded) kill
        and gives up, and the serial floor — fault budget spent — must
        produce the correct answer."""
        base = baseline_result(mats)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with faults.inject(kill_chunk=0, kill_count=2):
                res = spkadd(
                    mats, method="hash", threads=2, executor="shm",
                    resilience=ResiliencePolicy(max_retries=0),
                )
        assert_bit_identical(res.matrix, base.matrix, "serial floor")
        messages = [str(w.message) for w in caught
                    if issubclass(w.category, RuntimeWarning)]
        assert any("unusable" in m for m in messages), messages
        # One-shot: the warning fires once per process, not per hop.
        assert sum("unusable" in m for m in messages) == 1

    def test_fallback_off_raises_typed(self, mats):
        with faults.inject(kill_chunk=0, kill_count=10):
            with pytest.raises(RetriesExhausted) as exc:
                spkadd(
                    mats, method="hash", threads=2, executor="shm",
                    resilience=ResiliencePolicy(max_retries=1, fallback=()),
                )
        assert exc.value.executor == "shm"
        assert isinstance(exc.value, ExecutorUnusable)

    def test_fallback_env_off(self, mats, monkeypatch):
        monkeypatch.setenv(FALLBACK_ENV_VAR, "off")
        monkeypatch.setenv(MAX_RETRIES_ENV_VAR, "0")
        with faults.inject(kill_chunk=0, kill_count=10):
            with pytest.raises(RetriesExhausted):
                spkadd(mats, method="hash", threads=2, executor="shm")

    def test_enospc_falls_back_clean(self, mats, no_warn_flag):
        base = baseline_result(mats)
        seg_before = list_live_segments()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with faults.inject(enospc=1):
                res = spkadd(mats, method="hash", threads=2, executor="shm")
        assert_bit_identical(res.matrix, base.matrix, "post-ENOSPC")
        assert any("unusable" in str(w.message) for w in caught)
        del res
        gc.collect()
        assert list_live_segments() == seg_before

    def test_boot_timeout_typed(self, monkeypatch):
        monkeypatch.setattr(executor_mod, "_FORKSERVER_BOOTED", False)
        monkeypatch.setenv("REPRO_BOOT_TIMEOUT", "0.2")
        with faults.inject(boot_hang_s=1.0):
            with pytest.raises(PoolBootTimeout) as exc:
                executor_mod._ensure_forkserver_running()
        assert exc.value.executor == "shm"
        assert isinstance(exc.value, (ExecutorUnusable, TimeoutError))
        # Let the hung boot thread finish before the next test uses the
        # fork server (it completes the real boot after the hang).
        time.sleep(1.2)

    def test_boot_timeout_degrades_to_thread(
        self, mats, monkeypatch, no_warn_flag
    ):
        import repro

        base = baseline_result(mats)
        # Drop warm pools so the shm stage must re-acquire one (and so
        # hit the bounded forkserver boot).
        repro.shutdown_pools()
        monkeypatch.setattr(executor_mod, "_FORKSERVER_BOOTED", False)
        monkeypatch.setenv("REPRO_BOOT_TIMEOUT", "0.2")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with faults.inject(boot_hang_s=1.0):
                res = spkadd(mats, method="hash", threads=2,
                             executor="shm")
        assert_bit_identical(res.matrix, base.matrix, "post-boot-timeout")
        assert any("unusable" in str(w.message) for w in caught)
        time.sleep(1.2)  # drain the hung boot thread

    def test_serial_executor_explicit(self, mats):
        base = baseline_result(mats)
        res = spkadd(mats, method="hash", threads=4, executor="serial")
        assert_bit_identical(res.matrix, base.matrix, "explicit serial")


# ---------------------------------------------------------------------------
# Orphan sweeper.
# ---------------------------------------------------------------------------


@pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="needs a /dev/shm filesystem"
)
class TestSweeper:
    def test_dead_owner_swept_live_owner_kept(self):
        # A segment "created" by a process that no longer exists…
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        dead_name = f"{SEGMENT_PREFIX}{proc.pid:x}_deadbeef0000"
        # …and one owned by this live process.
        live_name = f"{SEGMENT_PREFIX}{os.getpid():x}_cafebabe0000"
        for name in (dead_name, live_name):
            with open(os.path.join("/dev/shm", name), "wb") as fh:
                fh.write(b"\0" * 16)
        try:
            swept = sweep_orphans()
            assert dead_name in swept
            assert live_name not in swept
            assert not os.path.exists(os.path.join("/dev/shm", dead_name))
            assert os.path.exists(os.path.join("/dev/shm", live_name))
        finally:
            for name in (dead_name, live_name):
                try:
                    os.unlink(os.path.join("/dev/shm", name))
                except FileNotFoundError:
                    pass

    def test_malformed_names_ignored(self):
        name = f"{SEGMENT_PREFIX}notahexpid"
        path = os.path.join("/dev/shm", name)
        with open(path, "wb") as fh:
            fh.write(b"\0")
        try:
            assert name not in sweep_orphans()
            assert os.path.exists(path)
        finally:
            os.unlink(path)

    def test_sweeper_exported_at_top_level(self):
        import repro

        assert repro.sweep_orphans is sweep_orphans


# ---------------------------------------------------------------------------
# Teardown race: a pool whose worker just died.
# ---------------------------------------------------------------------------


class _TornDownPool:
    """A pool caught mid-teardown after a worker died: CPython 3.11's
    manager thread closes its pipes on its own schedule, so ``submit``
    and ``shutdown`` can fail with ``OSError`` instead of
    ``BrokenProcessPool``."""

    _broken = "A child process terminated abruptly"

    def __init__(self):
        self.submits = 0
        self.shutdowns = 0

    def submit(self, fn, *args):
        self.submits += 1
        raise OSError("handle is closed")

    def shutdown(self, wait=True, *, cancel_futures=False):
        self.shutdowns += 1
        raise OSError("handle is closed")


class TestTeardownRace:
    def test_submit_oserror_on_broken_pool_is_retried(self):
        dead = _TornDownPool()
        registry = PoolRegistry()
        handed = iter([dead, ThreadPoolExecutor(max_workers=2)])
        leased = []

        @contextlib.contextmanager
        def lease():
            pool = next(handed)
            leased.append(pool)
            try:
                yield pool
            finally:
                if pool_is_broken(pool):
                    registry.discard(pool)
                else:
                    pool.shutdown()

        got = run_wave(
            lease, abs, lambda i: -i, 5,
            policy=ResiliencePolicy(max_retries=1, backoff_base_s=0.0),
            deadline=Deadline(30.0), label="shm compute",
        )
        assert got == [0, 1, 2, 3, 4]
        assert leased[0] is dead and len(leased) == 2
        assert dead.submits == 1 and dead.shutdowns == 1

    def test_submit_oserror_on_healthy_pool_propagates(self):
        class Flaky(_TornDownPool):
            _broken = False

        with pytest.raises(OSError, match="handle is closed"):
            run_wave(
                lambda: contextlib.nullcontext(Flaky()), abs,
                lambda i: -i, 2, policy=ResiliencePolicy(),
                deadline=Deadline(), label="shm compute",
            )

    def test_close_terminates_workers_the_manager_missed(self):
        """CPython 3.11's manager thread can miss a worker whose spawn
        raced its teardown and then join it forever; closing a broken
        pool must terminate every worker the pool still lists."""
        missed = multiprocessing.get_context("spawn").Process(
            target=time.sleep, args=(60,)
        )
        missed.start()

        class Missed(_TornDownPool):
            _processes = {missed.pid: missed}

            def shutdown(self, wait=True, *, cancel_futures=False):
                missed.join(timeout=10)  # the manager thread's join

        try:
            PoolRegistry().discard(Missed(), wait=True)
            assert not missed.is_alive()
        finally:
            missed.kill()
            missed.join()

    def test_registry_closes_broken_pool_quietly(self):
        spawn = multiprocessing.get_context("spawn")
        with PoolRegistry() as registry:
            dead = _TornDownPool()
            registry.discard(dead)  # absorbed, not raised
            assert dead.shutdowns == 1
            # Health rebuild: the corpse is replaced (its OSError
            # absorbed) and a fresh pool is handed out.
            dead = _TornDownPool()
            registry._pools[(2, "spawn")] = dead
            fresh = registry.get(2, spawn)
            assert fresh is not dead and dead.shutdowns == 1
            assert not pool_is_broken(fresh)


# ---------------------------------------------------------------------------
# Recovery soak: repeated chaos leaves nothing behind.
# ---------------------------------------------------------------------------


@pytest.mark.slow
class TestChaosSoak:
    def test_mixed_faults_no_growth(self, mats):
        base = baseline_result(mats)
        spkadd(mats, method="hash", threads=2, executor="shm",
               materialize=True)  # warm
        children = len(multiprocessing.active_children())
        fds = open_fds()
        seg_before = list_live_segments()
        plans = [
            dict(kill_chunk=0),
            dict(kill_chunk=1, delay_chunk=0, delay_s=0.2),
            dict(delay_chunk=1, delay_s=0.01),
            dict(kill_chunk=3, delay_chunk=0, delay_s=0.01),
        ]
        for trial, plan in enumerate(plans * 2):
            with faults.inject(**plan):
                res = spkadd(mats, method="hash", threads=2,
                             executor="shm", materialize=True)
            assert_bit_identical(res.matrix, base.matrix, f"soak {trial}")
        del res
        gc.collect()
        assert list_live_segments() == seg_before
        assert len(multiprocessing.active_children()) <= children
        assert open_fds() <= fds + 4
