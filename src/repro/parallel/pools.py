"""Persistent worker-pool lifecycle service.

The shm engine (:class:`repro.parallel.shm.SharedMemoryPool`) keeps its
workers alive across calls: a per-call pool spawn would dominate small
and medium calls, and it is exactly the cost CombBLAS-style systems
amortize by keeping worker state resident.  This module is the registry
of those **persistent process pools, keyed by ``(threads,
start-method)``**:

* ``threads`` is the worker count — pools of different widths coexist;
* the start method (``fork``/``forkserver``/``spawn``) comes from the
  multiprocessing context the consumer resolves, so an engine pinned to
  ``spawn`` never collides with the forkserver default.

Lifecycle guarantees:

* **Reuse** — :func:`get_pool` returns the same executor for the same
  key until it is discarded, so repeated calls pay the pool spawn once.
* **Health** — a pool observed broken (a worker died), or one whose
  lease ended on :class:`~repro.parallel.resilience.DeadlineExceeded`
  with chunks still running, is discarded when that lease ends (the
  abandoned chunks' workers are terminated first), and
  :meth:`PoolRegistry.get` also drops
  any pool that is already marked broken, so the next call always
  receives a working pool instead of a poisoned one.  Closing a broken
  pool never raises: CPython 3.11 can report the dead pool's half-closed
  pipes as ``OSError``, which the registry absorbs.
* **Teardown** — :func:`shutdown_pools` releases every registered pool;
  the module registers it with ``atexit`` so embedders who never call it
  still exit cleanly, and :class:`PoolRegistry` doubles as a context
  manager for scoped private lifecycles (``with PoolRegistry() as reg:
  ...``).
"""

from __future__ import annotations

import atexit
import contextlib
import threading
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Tuple

from repro.parallel.resilience import DeadlineExceeded

#: registry key: (worker count, multiprocessing start method).
PoolKey = Tuple[int, str]


def pool_is_broken(pool: ProcessPoolExecutor) -> bool:
    """Whether a pool has been poisoned by a dead worker.

    CPython marks this via the private ``_broken`` attribute; every
    health check in the package goes through this one helper so the
    private-API dependency is localized (and greppable) if the
    attribute ever changes.
    """
    return bool(getattr(pool, "_broken", False))


def _close(
    pool: ProcessPoolExecutor,
    *,
    wait: bool = False,
    cancel_futures: bool,
    terminate: bool = False,
) -> None:
    """Shut ``pool`` down, absorbing the ``OSError`` a broken pool's
    teardown can raise.

    On CPython 3.11 the manager thread of a pool whose worker died
    closes the pool's wakeup pipe on its own schedule; a ``shutdown``
    that races it can fail with ``OSError("handle is closed")``.  The
    pool is dead either way, so for a broken pool the error means
    nothing; a healthy pool's errors still propagate.

    A broken pool's workers are terminated first: the manager thread
    misses a worker whose spawn a concurrent ``submit`` had under way and
    then joins it forever (hanging a ``wait=True`` close, or exit).
    ``terminate=True`` does the same to a healthy pool whose running
    work nobody waits for any more, which the close would otherwise
    wait out.
    """
    kill = terminate or pool_is_broken(pool)
    if kill:
        for proc in list((getattr(pool, "_processes", None) or {}).values()):
            if proc.exitcode is None:
                proc.terminate()
    try:
        pool.shutdown(wait=wait, cancel_futures=cancel_futures)
    except OSError:
        if not kill:
            raise


#: default cap on resident pools: a sweep over worker counts
#: (autotuning, the test suite's thread axes) must not leave one idle
#: pool per width alive until exit.  Least-recently-used pools beyond
#: the cap are released; their already-queued work is left to drain.
DEFAULT_MAX_POOLS = 2


class PoolRegistry:
    """Registry of persistent :class:`ProcessPoolExecutor` instances.

    Thread-safe; one registry instance owns its pools exclusively.  The
    module-level default registry (reached through :func:`get_pool`)
    serves the shm engine; embedders who want an isolated lifecycle can
    instantiate their own and use it as a context manager.  Residency
    is bounded: at most ``max_pools`` pools stay resident, evicted
    least-recently-used.
    """

    def __init__(self, max_pools: int = DEFAULT_MAX_POOLS) -> None:
        # dict order doubles as the LRU order: re-inserted on access.
        self._pools: Dict[PoolKey, ProcessPoolExecutor] = {}
        # live lease count per pool object: a leased pool is mid-call
        # and must never be evicted (its caller will submit more work).
        self._leases: Dict[ProcessPoolExecutor, int] = {}
        # pools removed by shutdown() while leased: closed gracefully by
        # the releasing lease instead of cancelled mid-call.
        self._doomed: set = set()
        self._lock = threading.Lock()
        self._max_pools = max(int(max_pools), 1)

    def get(
        self, threads: int, mp_context=None, *, deadline=None
    ) -> ProcessPoolExecutor:
        """The persistent pool for ``(threads, start-method)``, created
        on first use and reused until discarded or evicted.

        ``mp_context=None`` resolves the repo default
        (:func:`repro.parallel.executor.mp_context` — forkserver where
        available; ``deadline`` bounds its first-call boot).  A pool
        found already broken is replaced with a fresh one before being
        handed out.  Callers that submit work in multiple waves should
        prefer :meth:`lease`, which additionally pins the pool against
        LRU eviction for the duration.
        """
        return self._acquire(
            threads, mp_context, leased=False, deadline=deadline
        )

    @contextlib.contextmanager
    def lease(self, threads: int, mp_context=None, *, deadline=None):
        """Context manager checking the pool out for one call.

        While leased, the pool cannot be LRU-evicted by concurrent
        acquisitions of other widths — without this, a caller could see
        its pool shut down between two submit waves and fail with
        ``RuntimeError`` despite healthy workers.  A pool that broke
        while leased is discarded on exit, so the next lease forks a
        clean one, and closed with ``wait=True``, so none of its workers
        still writes into the caller's shared segments once the lease
        ends (the shm engine compacts its output in place after a wave).
        A lease left by :class:`~repro.parallel.resilience.DeadlineExceeded`
        stopped waiting on chunks that are still running; their workers
        are terminated and the pool is discarded the same way, so later
        calls (and interpreter exit) do not queue behind them.
        """
        pool = self._acquire(
            threads, mp_context, leased=True, deadline=deadline
        )
        abandoned = False
        try:
            yield pool
        except DeadlineExceeded:
            abandoned = True
            raise
        finally:
            # If shutdown() arrived mid-call the releasing lease closes
            # the doomed pool now that the call is over.
            self._release_lease(pool)
            if abandoned or pool_is_broken(pool):
                self.discard(pool, wait=True, terminate=abandoned)

    def _acquire(
        self, threads, mp_context, *, leased: bool, deadline=None
    ) -> ProcessPoolExecutor:
        if mp_context is None:
            # Deferred: executor imports this module.
            from repro.parallel.executor import mp_context as default_context

            mp_context = default_context(deadline=deadline)
        key = (int(threads), mp_context.get_start_method())
        evicted = []
        rebuilt = False
        with self._lock:
            pool = self._pools.pop(key, None)
            if pool is not None and pool_is_broken(pool):
                # Health rebuild: a crashed worker poisons the whole
                # executor; hand out a fresh pool, never the corpse.
                _close(pool, cancel_futures=True)
                self._leases.pop(pool, None)
                pool = None
                rebuilt = True
            if pool is None:
                pool = ProcessPoolExecutor(
                    max_workers=int(threads), mp_context=mp_context
                )
            self._pools[key] = pool  # (re-)insert at the LRU tail
            if leased:
                self._leases[pool] = self._leases.get(pool, 0) + 1
            excess = len(self._pools) - self._max_pools
            # Oldest first; `key` is the tail.
            for old_key in list(self._pools):
                if excess <= 0:
                    break
                old = self._pools[old_key]
                if old_key == key or self._leases.get(old, 0):
                    continue  # never evict the caller's or a leased pool
                evicted.append(self._pools.pop(old_key))
                excess -= 1
        for old in evicted:
            # No cancel: futures already submitted to an evicted pool
            # complete — the workers drain the queue and then exit.
            _close(old, cancel_futures=False)
        if rebuilt:
            # A worker died hard; it may have orphaned shared segments
            # (e.g. the shm engine's output mid-write).  Sweep outside
            # the registry lock — unlinking is slow-path filesystem work.
            from repro.parallel.shm import sweep_orphans

            sweep_orphans()
        return pool

    def _release_lease(self, pool: ProcessPoolExecutor) -> None:
        """Drop one lease count taken by :meth:`lease`."""
        to_close = None
        with self._lock:
            n = self._leases.get(pool, 0)
            if n <= 1:
                self._leases.pop(pool, None)
                if pool in self._doomed:
                    self._doomed.discard(pool)
                    to_close = pool
            else:
                self._leases[pool] = n - 1
        if to_close is not None:
            _close(to_close, cancel_futures=False)

    def discard(
        self,
        pool: ProcessPoolExecutor,
        *,
        wait: bool = False,
        terminate: bool = False,
    ) -> None:
        """Drop ``pool`` from the registry and shut it down.

        Used for pools observed broken; the next :meth:`get` for the
        key builds a clean replacement.  Safe to call with a pool the
        registry no longer holds (already replaced).  Lease-aware like
        :meth:`shutdown`: while another call still holds a lease on a
        healthy pool, it is only unregistered here and closed by the
        releasing lease — a healthy concurrent call is never cancelled
        from under its caller.  A broken pool serves no caller, so it
        is closed at once, and so is a pool discarded with
        ``terminate=True``, whose workers are killed first (a
        concurrent call sees a broken pool and retries its chunks).
        """
        with self._lock:
            for key, p in list(self._pools.items()):
                if p is pool:
                    del self._pools[key]
            if (
                self._leases.get(pool, 0)
                and not terminate
                and not pool_is_broken(pool)
            ):
                self._doomed.add(pool)
                return
            self._doomed.discard(pool)
        _close(pool, wait=wait, cancel_futures=True, terminate=terminate)

    def shutdown(self, *, wait: bool = True) -> None:
        """Release every registered pool.

        Graceful: a pool currently leased by an in-flight call is only
        *unregistered* here — the releasing lease closes it when the
        call completes, so concurrent SpKAdd calls are never cancelled
        out from under their caller (``wait=True`` therefore does not
        wait for leased pools).  Subsequent :meth:`get` calls rebuild
        pools on demand, so this is safe at any point — embedders
        should call the module-level :func:`shutdown_pools` before
        forking their own processes or at service shutdown.
        """
        with self._lock:
            removed = list(self._pools.values())
            self._pools.clear()
            immediate = []
            for pool in removed:
                if self._leases.get(pool, 0):
                    self._doomed.add(pool)
                else:
                    immediate.append(pool)
        for pool in immediate:
            _close(pool, wait=wait, cancel_futures=True)

    def active(self) -> Dict[PoolKey, ProcessPoolExecutor]:
        """Snapshot of the live pools (introspection / soak tests)."""
        with self._lock:
            return dict(self._pools)

    def __enter__(self) -> "PoolRegistry":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


#: the default registry serving the shm engine.
_DEFAULT_REGISTRY = PoolRegistry()


def get_pool(
    threads: int, mp_context=None, *, deadline=None
) -> ProcessPoolExecutor:
    """Persistent pool from the default registry (see :class:`PoolRegistry`)."""
    return _DEFAULT_REGISTRY.get(threads, mp_context, deadline=deadline)


def lease_pool(threads: int, mp_context=None, *, deadline=None):
    """Check a persistent pool out of the default registry for one call
    (context manager; pins the pool against LRU eviction and discards
    it on exit if it broke — see :meth:`PoolRegistry.lease`)."""
    return _DEFAULT_REGISTRY.lease(threads, mp_context, deadline=deadline)


def discard_pool(pool: ProcessPoolExecutor, *, wait: bool = False) -> None:
    """Drop a (typically broken) pool from the default registry."""
    _DEFAULT_REGISTRY.discard(pool, wait=wait)


def shutdown_pools(*, wait: bool = True) -> None:
    """Release the default registry's pools.

    The public teardown API: embedders call this at service shutdown,
    before ``os.fork``, or to reclaim idle workers; the next SpKAdd call
    transparently rebuilds what it needs.  Registered with ``atexit``.
    """
    _DEFAULT_REGISTRY.shutdown(wait=wait)


def active_pools() -> Dict[PoolKey, ProcessPoolExecutor]:
    """Snapshot of the default registry's live pools."""
    return _DEFAULT_REGISTRY.active()


atexit.register(shutdown_pools)
