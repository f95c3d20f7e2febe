"""Executors: thread/shm column parallelism + simulated scaling.

``parallel_spkadd`` runs any SpKAdd method over column chunks on a
worker pool — the paper's synchronization-free scheme (Section III-A):
each worker gets column views of every addend and a private
accumulator, and writes its columns into its own disjoint slice of one
preallocated output.  Every stage runs that one output path: chunk
``[j0, j1)`` owns slot ``[ub[j0], ub[j1])`` of an output of ``ub[-1]``
entries (``ub``, the prefix sum of per-column input nnz, bounds the
output), :func:`_write_slot` runs it there, the chunks' counts give the
exact layout (:func:`_chunk_layout`), and the output is compacted in
place.  Three executors:

``executor="thread"``
    ``ThreadPoolExecutor`` over zero-copy column views (CSC keeps
    columns contiguous); the compiled kernel and NumPy's large array
    operations release the GIL.  The output is compacted in process.

``executor="shm"``
    The zero-copy shared-memory engine (:mod:`repro.parallel.shm`):
    inputs are published to shared segments once, the output is a
    shared segment the parent compacts — no per-chunk pickling.  Its
    worker processes sidestep the GIL and are **persistent**
    (:mod:`repro.parallel.pools`; ``shutdown_pools`` releases them).

``executor="serial"``
    The degenerate pool: chunks run in a plain in-process loop.  Exists
    as the floor of the resilience layer's fallback chain (nothing can
    crash but the caller), and as an explicit choice for debugging.

``executor=None`` (or ``"auto"``) consults the ``REPRO_EXECUTOR``
environment variable, then defaults to ``"thread"``.

Resilience (:mod:`repro.parallel.resilience`): chunks whose worker
dies are retried on a rebuilt pool, ``deadline=`` bounds the whole
call, and an *unusable* executor degrades down ``shm → thread →
serial`` with a one-shot warning.  Every stage runs its tasks through
one retry loop, :func:`~repro.parallel.resilience.run_wave`; a retry
rewrites its chunk's slot only after the failed attempt is joined.

A call at ``threads=T`` runs ``min(T, n)`` chunks, one per worker;
callers that nest parallelism split one CPU budget with
:func:`split_budget`.  ``simulate_parallel_time`` models schedule
makespans for the ablation benchmark (the cost model calls
:mod:`repro.parallel.scheduler` directly).
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


def cpu_budget() -> int:
    """CPUs this process may run on (the package's one CPU-count read)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def split_budget(units: int) -> Tuple[int, int]:
    """``(outer, inner)`` widths for ``units`` outer tasks (rank
    pipelines, gateway slots) sharing the CPU budget across two levels
    (Azad et al., arXiv 1510.00844)."""
    budget = cpu_budget()
    outer = max(1, min(units, budget))
    return outer, max(1, budget // outer)


def _total_col_nnz(mats: Sequence[CSCMatrix]) -> np.ndarray:
    out = mats[0].col_nnz().astype(np.int64)
    for A in mats[1:]:
        out = out + A.col_nnz()
    return out


def _slot_bounds(mats: Sequence[CSCMatrix]) -> np.ndarray:
    """``ub[j]``: the summed input nnz of columns ``[0, j)``.  Chunk
    ``[j0, j1)`` owns output slot ``[ub[j0], ub[j1])``: SpKAdd output
    is the structural union of its inputs, so the slot holds it."""
    ub = np.zeros(mats[0].shape[1] + 1, dtype=np.int64)
    np.cumsum(_total_col_nnz(mats), out=ub[1:])
    return ub


def _run_chunk(method, j0, views, sorted_output, kwargs):
    """Execute one column chunk through the facade's dispatch: every
    stage's kernel entry point, reached through :func:`_write_slot`.
    Returns ``(j0, matrix, stats, stats_symbolic)``."""
    from repro.core.api import _run_method

    out, st, st_sym = _run_method(method, views, sorted_output, kwargs)
    return j0, out, st, st_sym


def _write_slot(method, j0, views, sorted_output, kwargs, slot):
    """Run chunk ``[j0, j1)`` into its output slot ``(indices, data)``:
    every stage's chunk writer.  Hash-family chunks get the slot as
    ``out=``, so the compiled kernel and its plan replay write straight
    into it; a private chunk (the NumPy loop, the instrumented engine,
    other methods) is checked and copied in.  Returns ``(j0, counts,
    sorted, stats, stats_symbolic)``; a retry rewrites the same bytes.
    """
    from repro.core.api import BACKEND_AWARE_METHODS
    from repro.parallel.resilience import ChunkInvariantError

    idx_slot, dat_slot = slot
    if method in BACKEND_AWARE_METHODS:
        kwargs = {**kwargs, "out": slot}
    _, sub, st, st_sym = _run_chunk(method, j0, views, sorted_output, kwargs)
    where = f"chunk [{j0}, {j0 + sub.shape[1]})"
    if sub.nnz > idx_slot.size:
        raise ChunkInvariantError(
            f"{where} produced {sub.nnz} entries, more than its input-nnz "
            f"bound {idx_slot.size}: the kernel broke the structural union"
        )
    # The slot holds the call-level dtypes the kernels emit in.  A
    # widening cast is fine (a private chunk resolves its index width
    # from its own, smaller bounds); a lossy one would round or wrap.
    for got, slot_arr, what, loss in (
        (sub.data, dat_slot, "values", "lose precision"),
        (sub.indices, idx_slot, "indices", "wrap indices"),
    ):
        if not np.can_cast(got.dtype, slot_arr.dtype, casting="safe"):
            raise ChunkInvariantError(
                f"{where} emitted {got.dtype} {what} into a "
                f"{slot_arr.dtype} output: writing would {loss}"
            )
    if not np.may_share_memory(sub.data, dat_slot):
        idx_slot[: sub.nnz] = sub.indices
        dat_slot[: sub.nnz] = sub.data
    return j0, np.diff(sub.indptr), bool(sub.sorted), st, st_sym


def _chunk_layout(results, ranges, ub, index_dtype):
    """``(indptr, moves, stat_items, sorted)`` from the slot writers'
    returns (every stage's one ``symbolic.chunk_output_layout`` call);
    ``moves``: ``((lo, hi), slot start)`` per chunk, ascending."""
    import repro.core.symbolic as symbolic

    col_nnz = np.zeros(len(ub) - 1, dtype=np.int64)
    stat_items = []
    is_sorted = True
    for j0, counts, chunk_sorted, st, st_sym in results:
        col_nnz[j0 : j0 + counts.size] = counts
        stat_items.append((j0, st, st_sym))
        is_sorted = is_sorted and chunk_sorted
    # index_dtype holds the summed input nnz, so the exact layout comes
    # back in the same width.
    indptr, offsets = symbolic.chunk_output_layout(
        col_nnz, ranges, index_dtype=index_dtype
    )
    moves = sorted(zip(offsets, (int(ub[j0]) for j0, _ in ranges)))
    return indptr, moves, stat_items, is_sorted


def _chunk(task):
    """A thread/serial stage task: apply the fault the plan shipped
    with it, then run :func:`_write_slot` under the caller's
    floating-point error state (``np.errstate`` is thread-local, so a
    pool thread would otherwise warn where the serial call stays
    silent)."""
    from repro.parallel.faults import apply_chunk_fault

    fault, errstate, method, j0, views, sorted_output, kwargs, slot = task
    apply_chunk_fault(fault)
    with np.errstate(**errstate):
        return _write_slot(method, j0, views, sorted_output, kwargs, slot)


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
    """A thread pool for one wave attempt.  On error it is shut down
    without joining: a delayed chunk must not hold a DeadlineExceeded
    past the deadline; chunks still running finish on their own and
    are discarded."""
    pool = ThreadPoolExecutor(max_workers=threads)
    try:
        yield pool
    except BaseException:
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown(wait=True)


def _execute_stage(stage, mats, method, ranges, *, ub, sorted_output,
                   kwargs, threads, index_dtype, policy, deadline, plan):
    """Run the call on one fallback stage (the module docstring's one
    output path); returns ``(out, stat_items)``."""
    if stage == "shm":
        from repro.parallel import shm

        return shm.shm_parallel_run(
            mats, method, ranges,
            sorted_output=sorted_output, kwargs=kwargs, threads=threads,
            index_dtype=index_dtype, policy=policy, deadline=deadline,
            fault_plan=plan, ub=ub,
        )
    from repro.kernels import resolve_index_dtype, resolve_value_dtype
    from repro.parallel.resilience import run_wave

    idx_dtype = resolve_index_dtype(mats, index_dtype)
    indices = np.empty(int(ub[-1]), dtype=idx_dtype)
    data = np.empty(int(ub[-1]), dtype=resolve_value_dtype(mats))
    errstate = np.geterr()

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
        slot = (indices[ub[j0]:ub[j1]], data[ub[j0]:ub[j1]])
        return fault, errstate, method, j0, views, sorted_output, kwargs, slot

    # A thread pool per attempt: a clean lease exit joins the attempt's
    # running chunks, so no stale writer overlaps a retry of its slot or
    # outlives the wave into the compaction.
    results = run_wave(
        (lambda: _thread_pool(threads)) if stage == "thread"
        else (lambda: contextlib.nullcontext(_InlineSubmitter(deadline))),
        _chunk, make_task, len(ranges),
        policy=policy, deadline=deadline, label=f"{stage} chunk",
    )
    indptr, moves, stat_items, is_sorted = _chunk_layout(
        results, ranges, ub, idx_dtype
    )
    for (lo, hi), src in moves:
        if lo != src:
            indices[lo:hi] = indices[src : src + hi - lo]
            data[lo:hi] = data[src : src + hi - lo]
    # Realloc down to nnz(B); no view of the upper-bound arrays is left.
    indices.resize(int(indptr[-1]), refcheck=False)
    data.resize(int(indptr[-1]), refcheck=False)
    return CSCMatrix(
        mats[0].shape, indptr, indices, data, sorted=is_sorted, check=False
    ), stat_items


def parallel_spkadd(
    mats: Sequence[CSCMatrix],
    method: str = "hash",
    *,
    threads: int = 2,
    sorted_output: bool = True,
    executor: Optional[str] = None,
    index_dtype=None,
    deadline=None,
    resilience=None,
    **kwargs,
):
    """Column-parallel SpKAdd (paper Section III-A).

    Columns are divided into ``min(threads, n)`` contiguous chunks of
    near-equal *input nnz*, one per worker, and executed on a thread,
    shared-memory, or serial pool
    (``executor=``; ``None``/``"auto"`` consults ``REPRO_EXECUTOR`` then
    uses ``"thread"``).  Hash-family methods run the ``fast`` backend
    unless ``backend="instrumented"`` is passed.  Per-chunk stats are
    merged; the result is bit-identical to the sequential method.
    ``index_dtype`` pins the output index width (default: the
    call-level int32-when-it-fits rule, identical to the serial
    kernels').  shm results are zero-copy views into the engine's
    shared segment (``result.matrix.materialize()`` copies them out);
    the thread and serial executors return private arrays.

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
        # methods' chunks self-resolve and their output slot enforces
        # the call-level width.
        kwargs.setdefault("index_dtype", index_dtype)
    if method == "sliding_hash" and "cache_bytes" in kwargs:
        # The sliding cache-budget rule needs the worker count.
        kwargs.setdefault("threads", threads)
    n = mats[0].shape[1]
    ub = _slot_bounds(mats)
    ranges = [(j0, j1) for j0, j1 in
              split_weighted(np.diff(ub), max(min(threads, n), 1)) if j1 > j0]

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
                stage, mats, method, ranges, ub=ub,
                sorted_output=sorted_output, kwargs=kwargs,
                threads=threads, index_dtype=index_dtype,
                policy=policy, deadline=dl, plan=plan,
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
        if method in BACKEND_AWARE_METHODS
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
                max_workers=min(32, cpu_budget() * 2),
                thread_name_prefix="spkadd-submit",
            )
        return _SUBMIT_POOL


def submit_spkadd(mats: Sequence[CSCMatrix], method: str = "hash", **kwargs):
    """Run :func:`repro.spkadd` (same keywords) asynchronously on a
    small shared pool of submitter threads; returns a ``Future`` of the
    :class:`~repro.core.api.SpKAddResult`.  The public overlap seam: the
    promoted SUMMA pipeline keeps its local multiplies running while
    merges are in flight.  The pool is bounded and created lazily; a
    queued task never waits on another, so it cannot deadlock.
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
