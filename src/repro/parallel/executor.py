"""Executors: thread/shm column parallelism + simulated scaling.

``parallel_spkadd`` runs any SpKAdd method over column chunks on a
worker pool — the paper's synchronization-free scheme (each worker gets
column views of every addend and a private accumulator).  Three
executors:

``executor="thread"``
    ``ThreadPoolExecutor`` over zero-copy column views (CSC keeps
    columns contiguous).  NumPy kernels release the GIL for large array
    operations, so real (if modest, in Python) speedups are observed.

``executor="shm"``
    The zero-copy shared-memory engine (:mod:`repro.parallel.shm`):
    inputs are published to ``multiprocessing.shared_memory`` segments
    once, workers write their chunks into disjoint slots of one shared
    output buffer sized by input nnz, in one wave, and the parent
    compacts the buffer in place to the exact layout the chunks'
    symbolic counts give — no per-chunk pickling, no gather
    concatenate.  Its
    worker processes sidestep the GIL (which matters for the
    instrumented backend, whose probing rounds are Python-bound) and
    are **persistent**: they come from the registry in
    :mod:`repro.parallel.pools`, so repeated calls reuse warm forkserver
    workers (:func:`repro.parallel.pools.shutdown_pools` releases them).

``executor="serial"``
    The degenerate pool: chunks run in a plain in-process loop.  Exists
    as the floor of the resilience layer's fallback chain (nothing can
    crash but the caller), and as an explicit choice for debugging.

``executor=None`` (or ``"auto"``) consults the ``REPRO_EXECUTOR``
environment variable, then defaults to ``"thread"``.

Resilience (:mod:`repro.parallel.resilience`): every parallel call runs
under a :class:`~repro.parallel.resilience.ResiliencePolicy` — chunks
whose worker dies are retried on a rebuilt pool (bounded, with
backoff), a per-call ``deadline=`` / ``REPRO_DEADLINE`` bounds the
whole call, and an executor found *unusable* (boot timeout, retry
budget exhausted, ``/dev/shm`` full) degrades down the chain
``shm → thread → serial`` with a one-shot warning (``REPRO_FALLBACK``
controls the chain).  Every stage runs its tasks through the one retry
loop, :func:`~repro.parallel.resilience.run_wave`.

The *shape* of scaling behaviour at paper fidelity comes from
``simulate_parallel_time``, which the machine cost model uses for Fig 3.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import threading
import time
import warnings
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Optional, Sequence, Tuple

import numpy as np

from repro import env
from repro.core.stats import KernelStats
from repro.formats.csc import CSCMatrix
from repro.parallel.partition import split_weighted
from repro.parallel.scheduler import dynamic_schedule, static_schedule

_TWO_PHASE = {"hash", "sliding_hash"}

#: environment variable overriding the default executor choice.
EXECUTOR_ENV_VAR = "REPRO_EXECUTOR"

#: names accepted by ``executor=``.
EXECUTORS = ("thread", "shm", "serial")

#: environment variable overriding the multiprocessing start method of
#: the shm engine's worker pools (``fork`` / ``forkserver`` / ``spawn``).
MP_START_ENV_VAR = "REPRO_MP_START"


#: serializes the fork-server boot's PYTHONPATH patch-and-restore.
_FORKSERVER_BOOT_LOCK = threading.Lock()

#: set once the fork server has been booted with the preload landed;
#: later pool acquisitions skip the boot (and its brief env mutation)
#: entirely.
_FORKSERVER_BOOTED = False


def _package_root() -> str:
    """Directory containing the ``repro`` package (the ``src`` dir of a
    checkout, or ``site-packages`` of an install)."""
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _ensure_forkserver_running(deadline=None) -> None:
    """Boot the fork server with this package importable, bounded.

    CPython's fork server is launched as a bare ``python -c`` process:
    it receives the parent's ``sys.path`` but (through 3.11) never
    applies it before importing the preload modules, and the import
    error is swallowed.  So when the repo is reached via runtime
    ``sys.path`` manipulation — a source checkout, exactly how the
    benchmark driver and CI run — the preload silently failed and every
    fresh worker re-imported numpy + the repro stack at fork time
    (~1s per pool spawn, observed; ~100ms with the preload landed).
    Prepending the package root to ``PYTHONPATH`` just while the server
    boots makes the preload land in every deployment mode.  The boot
    runs **once per process**: the patch-and-restore is serialized by a
    module lock (concurrent acquisitions cannot interleave their
    snapshots and corrupt the real ``PYTHONPATH``) and a booted flag
    keeps later pool acquisitions off this path entirely.  (If the
    server is later killed, multiprocessing's own lazy
    ``ensure_running`` revives it — without the preload, slower forks,
    but correct.)

    The boot is **bounded**: it runs on a helper thread joined with a
    timeout (``REPRO_BOOT_TIMEOUT``, further clipped by the call's
    deadline).  A wedged fork server used to hang ``get_pool`` forever;
    now it raises a typed
    :class:`~repro.parallel.resilience.PoolBootTimeout`, which the
    fallback chain turns into a thread- or serial-stage answer.
    """
    global _FORKSERVER_BOOTED
    if _FORKSERVER_BOOTED:
        return
    from repro.parallel import faults
    from repro.parallel.resilience import (
        Deadline,
        PoolBootTimeout,
        resolve_boot_timeout,
    )

    deadline = Deadline.resolve(deadline)
    timeout = resolve_boot_timeout()
    rem = deadline.remaining()
    bounded = timeout if rem is None else min(timeout, rem)
    plan = faults.plan_for_call()
    hang_s = plan.take_boot_hang() if plan is not None else 0.0
    done = threading.Event()
    boot_error: list = []

    def boot() -> None:
        global _FORKSERVER_BOOTED
        try:
            from multiprocessing import forkserver

            if hang_s:
                time.sleep(hang_s)
            with _FORKSERVER_BOOT_LOCK:
                if not _FORKSERVER_BOOTED:
                    old = os.environ.get("PYTHONPATH")
                    os.environ["PYTHONPATH"] = os.pathsep.join(
                        [_package_root()] + ([old] if old else [])
                    )
                    try:
                        forkserver.ensure_running()
                    finally:
                        if old is None:
                            del os.environ["PYTHONPATH"]
                        else:
                            os.environ["PYTHONPATH"] = old
                    _FORKSERVER_BOOTED = True
        except BaseException as err:  # surfaced to the waiting caller
            boot_error.append(err)
        finally:
            done.set()

    thread = threading.Thread(
        target=boot, name="repro-forkserver-boot", daemon=True
    )
    thread.start()
    if not done.wait(bounded):
        # The boot thread keeps running; if it eventually succeeds the
        # booted flag spares future calls.  This call gives up now.
        deadline.check("forkserver boot")
        raise PoolBootTimeout(
            f"fork server did not boot within {bounded:.1f}s "
            f"({BOOT_TIMEOUT_HINT})",
            executor="shm",
        )
    if boot_error:
        raise boot_error[0]


#: referenced from the boot-timeout message without importing resilience
#: at module scope.
BOOT_TIMEOUT_HINT = "REPRO_BOOT_TIMEOUT overrides the bound"


def mp_context(deadline=None):
    """Multiprocessing context for the shm engine's worker pools.

    Defaults to ``forkserver`` where available: a bare ``fork`` from a
    process that also runs thread pools (exactly what a mixed
    thread/shm SpKAdd workload does) can fork while another thread
    holds a lock, deadlocking the child — the rare CI hang observed in
    PR 3.  The fork server is single-threaded, so its forks are safe;
    workers still share pages with it (cheap startup), unlike ``spawn``.
    ``REPRO_MP_START`` overrides (e.g. ``fork`` to recover the old
    behaviour, ``spawn`` to mimic Windows/macOS).  ``deadline`` bounds
    the (first-call-only) forkserver boot.
    """
    name = env.get(MP_START_ENV_VAR)
    if not name:
        methods = multiprocessing.get_all_start_methods()
        name = "forkserver" if "forkserver" in methods else None
    ctx = multiprocessing.get_context(name)
    if name == "forkserver":
        # Preload this module (transitively numpy + the repro core) in
        # the fork server, so each worker forks from a warm interpreter
        # instead of re-importing the stack — without this, every fresh
        # pool pays ~1s of import per worker.
        ctx.set_forkserver_preload(["repro.parallel.executor"])
        _ensure_forkserver_running(deadline)
    return ctx


def resolve_executor(name: Optional[str] = None) -> str:
    """Resolve an executor name: explicit argument > ``REPRO_EXECUTOR``
    environment variable > ``"thread"``.

    An unknown name is rejected with an error that says *where* the bad
    name came from — a misconfigured ``REPRO_EXECUTOR`` on a CI leg
    reads differently from a typo at the call site.

    >>> resolve_executor("shm")
    'shm'
    """
    source = "executor argument"
    if name is None or name == "auto":
        configured = env.get(EXECUTOR_ENV_VAR)
        if configured:
            name = configured
            source = f"{EXECUTOR_ENV_VAR} environment variable"
        else:
            name = "thread"
    if name not in EXECUTORS:
        raise ValueError(
            f"unknown executor {name!r} (from the {source}); "
            f"choose from {EXECUTORS}"
        )
    return name


def _total_col_nnz(mats: Sequence[CSCMatrix]) -> np.ndarray:
    out = mats[0].col_nnz().astype(np.int64)
    for A in mats[1:]:
        out = out + A.col_nnz()
    return out


def _concat_results(mats, parts, index_dtype=None):
    """Stitch per-chunk result matrices (disjoint column ranges) back
    into one CSC matrix.

    The layout comes from the chunks' column counts through
    :func:`~repro.core.symbolic.chunk_output_layout`, the rule the shm
    engine uses, at the index width resolved over the full call (plus
    the caller's override): chunk kernels resolve their width from
    *chunk* bounds and may come back narrower, but every executor emits
    one dtype.
    """
    from repro.core.symbolic import chunk_output_layout
    from repro.kernels import resolve_index_dtype, resolve_value_dtype

    m, n = mats[0].shape
    chunks = sorted(parts, key=lambda p: p[0])
    ranges = [(j0, j0 + sub.shape[1]) for j0, sub in chunks]
    col_nnz = np.zeros(n, dtype=np.int64)
    for (j0, j1), (_, sub) in zip(ranges, chunks):
        col_nnz[j0:j1] = np.diff(sub.indptr)
    indptr, offsets = chunk_output_layout(
        col_nnz, ranges, index_dtype=resolve_index_dtype(mats, index_dtype)
    )
    indices = np.empty(int(indptr[-1]), dtype=indptr.dtype)
    data = np.empty(int(indptr[-1]), dtype=resolve_value_dtype(mats))
    for (lo, hi), (_, sub) in zip(offsets, chunks):
        indices[lo:hi] = sub.indices
        data[lo:hi] = sub.data
    return CSCMatrix(
        (m, n),
        indptr,
        indices,
        data,
        sorted=all(s.sorted for _, s in chunks),
        check=False,
    )


def _run_chunk(
    method: str,
    j0: int,
    views: Sequence[CSCMatrix],
    sorted_output: bool,
    kwargs: dict,
) -> Tuple[int, CSCMatrix, KernelStats, Optional[KernelStats]]:
    """Execute one column chunk (every stage's kernel entry point; the
    shm workers call it on their attached views)."""
    from repro.core.api import _REGISTRY

    runner = _REGISTRY[method]
    st = KernelStats()
    if method in _TWO_PHASE:
        out, st, st_sym = runner(
            views, sorted_output=sorted_output, stats=st, **kwargs
        )
        return j0, out, st, st_sym
    out = runner(views, stats=st, **kwargs)
    return j0, out, st, None


def _chunk(task):
    """A thread/serial stage task: apply the fault the plan shipped
    with it, then run :func:`_run_chunk`."""
    from repro.parallel.faults import apply_chunk_fault

    fault, method, j0, views, sorted_output, kwargs = task
    apply_chunk_fault(fault)
    return _run_chunk(method, j0, views, sorted_output, kwargs)


#: set once the first executor fallback of the process has been
#: reported; later degradations are silent (the warning is a heads-up,
#: not a per-call log channel).
_FALLBACK_WARNED = False


def _warn_fallback(from_stage: str, to_stage: str, err) -> None:
    global _FALLBACK_WARNED
    if _FALLBACK_WARNED:
        return
    _FALLBACK_WARNED = True
    warnings.warn(
        f"executor {from_stage!r} is unusable ({err}); falling back to "
        f"{to_stage!r} for this and future affected calls (set "
        "REPRO_FALLBACK=off to fail instead; this warning is shown once "
        "per process)",
        RuntimeWarning,
        stacklevel=3,
    )


class _InlineSubmitter:
    """The serial floor's pool: ``submit`` runs the task on the
    caller's thread and returns an already-resolved future, so the
    floor needs no threads.  The deadline is checked before every task
    (a running kernel cannot be interrupted), and once a task fails the
    rest of the attempt comes back cancelled, as a real pool cancels
    the queued siblings of a failed chunk."""

    def __init__(self, deadline) -> None:
        self._deadline = deadline
        self._failed = False

    def submit(self, fn, task) -> Future:
        fut: Future = Future()
        if self._failed:
            fut.cancel()
            fut.set_running_or_notify_cancel()
            return fut
        self._deadline.check("serial chunk execution")
        try:
            fut.set_result(fn(task))
        except Exception as err:
            self._failed = True
            fut.set_exception(err)
        return fut


@contextlib.contextmanager
def _thread_pool(threads: int):
    """A per-call thread pool.  On error it is shut down without
    joining: a delayed chunk must not hold a DeadlineExceeded past the
    deadline; chunks still running finish on their own and are
    discarded."""
    pool = ThreadPoolExecutor(max_workers=threads)
    try:
        yield pool
    except BaseException:
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown(wait=True)


def _execute_stage(stage, mats, method, ranges, *, sorted_output, kwargs,
                   threads, index_dtype, materialize, policy, deadline,
                   plan):
    """Run the call on one fallback stage; returns ``(out,
    stat_items)``.  The shm engine assembles its own output matrix; the
    thread and serial stages stitch their chunk matrices with
    :func:`_concat_results`.
    """
    if stage == "shm":
        from repro.parallel.shm import shm_parallel_run

        out, stat_items = shm_parallel_run(
            mats, method, ranges,
            sorted_output=sorted_output, kwargs=kwargs, threads=threads,
            index_dtype=index_dtype, materialize=materialize,
            policy=policy, deadline=deadline, fault_plan=plan,
        )
        return out, stat_items
    from repro.parallel.resilience import run_wave

    def make_task(i):
        # Thread and serial chunks run in the caller's process, where a
        # kill directive degrades to an in-chunk InjectedFault and a
        # delay ends soon after the call's deadline.
        j0, j1 = ranges[i]
        fault = (
            plan.take_chunk_fault(i, can_kill=False, deadline=deadline)
            if plan is not None else None
        )
        views = [A.col_view(j0, j1) for A in mats]
        return fault, method, j0, views, sorted_output, kwargs

    def wave(lease, label):
        return run_wave(
            lease, _chunk, make_task, len(ranges),
            policy=policy, deadline=deadline, label=label,
        )

    if stage == "thread":
        with _thread_pool(threads) as pool:
            results = wave(lambda: contextlib.nullcontext(pool),
                           "thread chunk")
    else:
        results = wave(
            lambda: contextlib.nullcontext(_InlineSubmitter(deadline)),
            "serial chunk",
        )
    out = _concat_results(
        mats, [(j0, sub) for j0, sub, _, _ in results], index_dtype
    )
    return out, [(j0, st, st_sym) for j0, _, st, st_sym in results]


def parallel_spkadd(
    mats: Sequence[CSCMatrix],
    method: str = "hash",
    *,
    threads: int = 2,
    sorted_output: bool = True,
    chunks_per_thread: int = 4,
    executor: Optional[str] = None,
    index_dtype=None,
    materialize: Optional[bool] = None,
    deadline=None,
    resilience=None,
    **kwargs,
):
    """Column-parallel SpKAdd (paper Section III-A).

    Columns are divided into ``threads * chunks_per_thread`` contiguous
    chunks of near-equal *input nnz* (the dynamic-balancing weight) and
    executed on a thread, shared-memory, or serial pool
    (``executor=``; ``None``/``"auto"`` consults ``REPRO_EXECUTOR`` then
    uses ``"thread"``).  Per-chunk stats are merged; the result is
    bit-identical to the sequential method.  ``index_dtype`` pins the
    output index width (default: the call-level int32-when-it-fits
    rule, identical to the serial kernels').  ``materialize`` controls
    shm result placement (see :func:`repro.parallel.shm.resolve_shm_results`);
    the thread and serial executors always return private arrays.

    The call runs under a :class:`~repro.parallel.resilience.ResiliencePolicy`
    (``resilience=``, default resolved from the environment): chunks
    whose worker dies are retried on a rebuilt pool, ``deadline=`` (or
    ``REPRO_DEADLINE``) bounds the whole call with a typed
    :class:`~repro.parallel.resilience.DeadlineExceeded`, and an
    executor found unusable degrades down the fallback chain
    ``shm → thread → serial`` with a one-shot warning.
    *Deterministic* chunk errors keep PR 5's fail-fast contract: the
    first one cancels everything still queued and propagates
    immediately, on every stage.
    """
    # Deferred: repro.core.api imports this module's caller chain.
    from repro.core.api import BACKEND_AWARE_METHODS, SpKAddResult, _REGISTRY
    from repro.parallel import faults
    from repro.parallel.resilience import (
        Deadline,
        ExecutorUnusable,
        resolve_policy,
    )

    if method not in _REGISTRY:
        raise ValueError(f"unknown method {method!r}")
    # Reject malformed worker counts loudly instead of silently clamping
    # to one chunk: a gateway forwarding client-supplied knobs relies on
    # this to turn a bad request into a typed rejection, not a serial
    # call that quietly ignores what was asked.
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if chunks_per_thread < 1:
        raise ValueError(
            f"chunks_per_thread must be >= 1, got {chunks_per_thread}"
        )
    executor = resolve_executor(executor)
    if executor == "shm" and kwargs.get("trace_sink") is not None:
        raise ValueError(
            f"trace_sink is not supported with executor={executor!r}: traces "
            "appended in worker processes never reach the caller's list; "
            "use executor='thread'"
        )
    if method not in BACKEND_AWARE_METHODS:
        kwargs.pop("backend", None)
    elif index_dtype is not None:
        # Hash-family chunk kernels accept the override directly; other
        # methods' chunks self-resolve and the concatenation / shm
        # output buffer enforces the call-level width.
        kwargs.setdefault("index_dtype", index_dtype)
    if method == "sliding_hash" and "cache_bytes" in kwargs:
        # The sliding cache-budget rule needs the worker count.
        kwargs.setdefault("threads", threads)
    n = mats[0].shape[1]
    weights = _total_col_nnz(mats)
    n_chunks = max(min(threads * chunks_per_thread, n), 1)
    ranges = [
        (j0, j1) for j0, j1 in split_weighted(weights, n_chunks) if j1 > j0
    ]

    policy = resolve_policy(resilience, deadline=deadline)
    dl = Deadline(policy.deadline_s)
    plan = faults.plan_for_call()
    chain = policy.chain_for(executor)

    out: Optional[CSCMatrix] = None
    stat_items = None
    for pos, stage in enumerate(chain):
        dl.check(f"start of {stage!r} executor stage")
        try:
            out, stat_items = _execute_stage(
                stage, mats, method, ranges,
                sorted_output=sorted_output, kwargs=kwargs,
                threads=threads, index_dtype=index_dtype,
                materialize=materialize, policy=policy, deadline=dl,
                plan=plan,
            )
            break
        except ExecutorUnusable as err:
            # DeadlineExceeded is NOT caught: an expired budget fails
            # the call; only a broken *stage* falls through to the next.
            if pos + 1 >= len(chain):
                raise
            _warn_fallback(stage, chain[pos + 1], err)

    dl.check("result assembly")
    merged = KernelStats(algorithm=f"{method}[T={threads}]")
    merged_sym: Optional[KernelStats] = (
        KernelStats(algorithm=f"{method}_symbolic[T={threads}]")
        if method in _TWO_PHASE
        else None
    )

    def splice(target: KernelStats, j0: int, chunk: KernelStats) -> None:
        """Chunk col-arrays cover [j0, j0+width); place them into the
        full-length arrays before scalar merging."""
        for name in ("col_in_nnz", "col_out_nnz", "col_ops"):
            part = getattr(chunk, name)
            if part is None:
                continue
            full = getattr(target, name)
            if full is None:
                full = np.zeros(n, dtype=np.asarray(part).dtype)
                setattr(target, name, full)
            full[j0 : j0 + len(part)] = part
            setattr(chunk, name, None)

    for j0, st, st_sym in stat_items:
        splice(merged, j0, st)
        merged.merge(st)
        if merged_sym is not None and st_sym is not None:
            splice(merged_sym, j0, st_sym)
            merged_sym.merge(st_sym)
    merged.k = len(mats)
    merged.n_cols = n
    return SpKAddResult(out, merged, merged_sym, method=method)


# ---------------------------------------------------------------------------
# Asynchronous submission (the overlap seam).
# ---------------------------------------------------------------------------

_SUBMIT_POOL: Optional[ThreadPoolExecutor] = None
_SUBMIT_POOL_LOCK = threading.Lock()


def _submit_pool() -> ThreadPoolExecutor:
    global _SUBMIT_POOL
    with _SUBMIT_POOL_LOCK:
        if _SUBMIT_POOL is None:
            _SUBMIT_POOL = ThreadPoolExecutor(
                max_workers=min(32, (os.cpu_count() or 4) * 2),
                thread_name_prefix="spkadd-submit",
            )
        return _SUBMIT_POOL


def submit_spkadd(mats: Sequence[CSCMatrix], method: str = "hash", **kwargs):
    """Run :func:`repro.spkadd` asynchronously; returns a ``Future``.

    The public overlap seam: the call is driven by a small shared
    daemon of submitter threads, so the caller is not blocked on chunk
    execution *or* result assembly — ``future.result()`` yields the
    finished :class:`~repro.core.api.SpKAddResult`.  The promoted SUMMA
    pipeline uses this to keep local multiplies running while merges
    are in flight on the worker pools; any pipeline that wants to
    overlap a merge with its own compute can do the same.

    Accepts exactly the keyword surface of :func:`repro.spkadd`
    (``threads=``, ``executor=``, ``backend=``, ``deadline=``,
    ``resilience=``, ...).  Because the kernel work of a parallel call
    happens in pool workers (which release or sidestep the GIL), the
    submitter thread spends its life waiting, not computing; the pool
    is shared, bounded, and created lazily.  Submitted tasks are
    independent — a queued task never waits on another queued task, so
    the bounded pool cannot deadlock.
    """
    from repro.core.api import spkadd

    return _submit_pool().submit(spkadd, mats, method, **kwargs)


def simulate_parallel_time(
    col_costs: np.ndarray,
    threads: int,
    *,
    policy: str = "dynamic",
    chunk: int = 8,
) -> float:
    """Makespan (cost units) of scheduling per-column costs on T threads.

    ``policy="static"`` reproduces the load imbalance the paper blames
    for poor RMAT scaling; ``"dynamic"`` reproduces its fix.
    """
    costs = np.asarray(col_costs, dtype=np.float64)
    if threads <= 1:
        return float(costs.sum())
    if policy == "static":
        return static_schedule(costs.shape[0], threads).makespan(costs)
    return dynamic_schedule(costs, threads, chunk=chunk).makespan(costs)
