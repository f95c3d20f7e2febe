"""Zero-copy shared-memory process engine for ``parallel_spkadd``.

Pickling column chunks to worker processes copies every chunk view in
and every chunk result back — pure copy overhead for a bandwidth-bound
kernel.  This engine moves the data through
``multiprocessing.shared_memory`` instead, on a persistent worker pool,
in **one wave** (the paper's Section III-A scheme: chunks own disjoint
output slices, so nothing synchronizes):

1. the parent **publishes** the k input CSC arrays into one named
   shared segment *once* per call, and allocates the call's upper-bound
   output (``ub[-1]`` entries, see :mod:`repro.parallel.executor`) as
   one output segment;
2. workers **attach** and run their chunks on zero-copy views of the
   inputs through the executors' one slot writer
   (:func:`repro.parallel.executor._write_slot`), returning only the
   per-column output counts — the **symbolic sizing** of the result;
3. the parent turns the counts into the exact layout and **compacts in
   place** (:meth:`SegmentRegistry.compact`).

The thread and serial stages run the same writer and layout in
process, so the result (and the merged stats) are bit-identical across
all executors and both kernel backends.

Engine lifecycle (:class:`SharedMemoryPool`): workers come from the
persistent pool registry (:mod:`repro.parallel.pools`) and are **reused
across calls** (a ``forkserver`` spawn by default — see
:func:`repro.parallel.executor.mp_context`).  Workers key their cached
attachments by a per-call session id and drop the previous session's
mappings when a new one arrives, so steady-state worker memory is
bounded by one call's segments.  A broken pool (crashed worker) is
discarded from the registry and rebuilt on the next call.

Segment lifecycle: every segment is created by the *parent* and tracked
in a :class:`SegmentRegistry` that unlinks it in a ``finally``.
Workers only ever attach by name — handles travel as picklable
:class:`SharedArraySpec` tuples, which keeps the engine safe under the
``spawn`` start method as well as ``fork``.

Results are **zero-copy**: the compacted arrays are views into the
output segment, kept alive by a :class:`SharedResultOwner` whose
finalizer unlinks the segment when the last view dies.  A caller that
needs private memory calls ``result.matrix.materialize()``.

Resilience: the wave runs through
:func:`~repro.parallel.resilience.run_wave`, which retries transiently
failed chunks on a rebuilt pool — safe because a retried chunk rewrites
its own slot bit-identically.  Compaction is not idempotent, so it must
not overlap a stale writer: the wave's only transient failure is a
broken pool, and a lease whose pool broke closes it with ``wait=True``
(:meth:`repro.parallel.pools.PoolRegistry.lease`), joining its workers
before the retry.  Segment names embed the creating PID, so
:func:`sweep_orphans` can unlink segments whose creator died without
running its ``finally``; the sweep runs on pool rebuild, before
retries, and at interpreter exit.
"""

from __future__ import annotations

import atexit
import contextlib
import errno
import mmap
import os
import secrets
import sys
import threading
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.formats.csc import CSCMatrix

#: every segment this engine creates is named with this prefix, so leak
#: checks (and humans inspecting /dev/shm) can attribute them.
SEGMENT_PREFIX = "repro_shm_"

#: byte alignment of packed arrays inside a segment (>= any dtype's
#: itemsize here; keeps every view naturally aligned for NumPy).
_ALIGN = 16

#: bounce-buffer size of :meth:`SegmentRegistry.compact`.
_MOVE_BLOCK = 1 << 20


@dataclass(frozen=True)
class SharedArraySpec:
    """Picklable handle to a 1-D array living in a named shared segment.

    Only metadata travels between processes — the receiving side attaches
    to the segment by ``name`` and wraps the bytes at ``offset`` in an
    ndarray of ``size`` elements of ``dtype``.  Many arrays share one
    segment (packing keeps the number of ``shm_open``/``mmap`` calls — the
    dominant fixed cost — independent of k and the chunk count).
    ``writable`` marks output buffers; input attachments are mapped
    read-only.
    """

    name: str
    dtype: str
    size: int
    offset: int = 0
    writable: bool = False

    def as_array(self, buf) -> np.ndarray:
        return np.ndarray(
            (self.size,),
            dtype=np.dtype(self.dtype),
            buffer=buf,
            offset=self.offset,
        )


def _new_segment_name() -> str:
    return f"{SEGMENT_PREFIX}{os.getpid():x}_{secrets.token_hex(6)}"


def list_live_segments() -> List[str]:
    """Names of engine-owned segments currently present in ``/dev/shm``.

    POSIX-only diagnostic used by the leak tests; returns ``[]`` where
    shared memory is not exposed as a filesystem.
    """
    root = "/dev/shm"
    if not os.path.isdir(root):
        return []
    return sorted(f for f in os.listdir(root) if f.startswith(SEGMENT_PREFIX))


def _segment_owner_pid(name: str) -> Optional[int]:
    """The PID baked into an engine segment name, or ``None`` if the
    name does not follow the ``repro_shm_<pidhex>_<token>`` scheme."""
    if not name.startswith(SEGMENT_PREFIX):
        return None
    pid_hex, _, token = name[len(SEGMENT_PREFIX):].partition("_")
    if not pid_hex or not token:
        return None
    try:
        return int(pid_hex, 16)
    except ValueError:
        return None


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, not ours
        return True
    return True


def sweep_orphans() -> List[str]:
    """Unlink engine segments in ``/dev/shm`` whose creator is dead.

    Segment names embed the creating PID
    (``repro_shm_<pidhex>_<token>``), so orphans — segments whose owner
    was SIGKILLed between ``shm_open`` and its ``finally`` — are
    identifiable without any shared bookkeeping.  This process's own
    live segments are never touched, and a PID that merely got recycled
    costs nothing worse than skipping a sweep (the check errs toward
    "alive").  Returns the names unlinked.

    Runs on broken-pool rebuild, before retry waves, and at interpreter
    exit; also public API for embedders supervising worker fleets.
    """
    own = os.getpid()
    swept = []
    for name in list_live_segments():
        pid = _segment_owner_pid(name)
        if pid is None or pid == own or _pid_alive(pid):
            continue
        try:
            os.unlink(os.path.join("/dev/shm", name))
        except (FileNotFoundError, PermissionError):
            continue  # raced with another sweeper, or not ours to clean
        swept.append(name)
    return swept


# Registered *after* module import completes; runs before (LIFO) the
# pool registry's atexit shutdown, which is harmless — the sweep only
# touches dead-owner segments, never this process's own.
atexit.register(sweep_orphans)


class SegmentRegistry:
    """Parent-side owner of shared segments.

    Centralizes creation so cleanup is a single idempotent
    :meth:`unlink` — called in a ``finally`` by the engine, and again by
    ``__exit__`` when used as a context manager, covering worker-crash
    and mid-setup error paths.  ``fault_plan`` lets the chaos harness
    fail allocations; a real or injected ``ENOSPC`` surfaces as the
    typed :class:`~repro.parallel.resilience.ShmAllocationError` that
    sends the call down the fallback chain.
    """

    def __init__(self, fault_plan=None) -> None:
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._views: Dict[SharedArraySpec, np.ndarray] = {}
        self._fault_plan = fault_plan

    # ------------------------------------------------------------ create
    def _create(self, nbytes: int) -> shared_memory.SharedMemory:
        from repro.parallel.resilience import ShmAllocationError

        if self._fault_plan is not None and self._fault_plan.take_enospc():
            raise ShmAllocationError(
                "injected ENOSPC: shared segment allocation failed",
                executor="shm",
            )
        try:
            seg = shared_memory.SharedMemory(
                create=True, name=_new_segment_name(), size=max(int(nbytes), 1)
            )
        except OSError as err:
            if err.errno == errno.ENOSPC:
                raise ShmAllocationError(
                    f"/dev/shm cannot hold a {nbytes}-byte segment: {err}",
                    executor="shm",
                ) from err
            raise
        self._segments[seg.name.lstrip("/")] = seg
        return seg

    def _pack(
        self, layouts: Sequence[Tuple[int, np.dtype]], *, writable: bool
    ) -> List[SharedArraySpec]:
        """One segment holding all ``(size, dtype)`` arrays, aligned."""
        offsets = []
        cursor = 0
        for size, dtype in layouts:
            offsets.append(cursor)
            cursor += -(-(int(size) * dtype.itemsize) // _ALIGN) * _ALIGN
        seg = self._create(cursor)
        name = seg.name.lstrip("/")
        specs = []
        for (size, dtype), offset in zip(layouts, offsets):
            spec = SharedArraySpec(
                name, dtype.str, int(size), offset, writable=writable
            )
            self._views[spec] = spec.as_array(seg.buf)
            specs.append(spec)
        return specs

    def publish(self, arrays: Sequence[np.ndarray]) -> List[SharedArraySpec]:
        """Copy ``arrays`` into one new read-only segment; returns the
        per-array attach handles."""
        arrays = [np.ascontiguousarray(a) for a in arrays]
        specs = self._pack(
            [(a.size, a.dtype) for a in arrays], writable=False
        )
        for spec, arr in zip(specs, arrays):
            self._views[spec][...] = arr
        return specs

    def allocate(
        self, layouts: Sequence[Tuple[int, np.dtype]]
    ) -> List[SharedArraySpec]:
        """One new writable segment holding a ``(size, dtype)`` array per
        entry of ``layouts``."""
        return self._pack(
            [(size, np.dtype(dtype)) for size, dtype in layouts],
            writable=True,
        )

    # ------------------------------------------------------------ access
    def view(self, spec: SharedArraySpec) -> np.ndarray:
        return self._views[spec]

    def detach(self, name: str) -> shared_memory.SharedMemory:
        """Transfer ownership of segment ``name`` out of the registry.

        The registry forgets the segment (and drops its parent-side
        views), so :meth:`unlink` will no longer touch it — the caller
        becomes responsible for its lifetime, normally by wrapping it in
        a :class:`SharedResultOwner`.
        """
        seg = self._segments.pop(name)
        for spec in [s for s in self._views if s.name == name]:
            del self._views[spec]
        return seg

    def compact(self, specs: Sequence[SharedArraySpec], moves) -> None:
        """Apply ``moves`` (``((lo, hi), src)`` in ascending order, from
        :func:`repro.parallel.executor._chunk_layout`) to every array in
        ``specs`` (one segment): entries ``[src, src + hi - lo)`` move
        down to ``[lo, hi)`` in place, and the pages past the compacted
        prefix are released.

        Ascending order means no move overwrites a source that has not
        moved yet, and a forward block copy reads each block before a
        later write can reach it.  The copy goes
        through the segment's file descriptor, not the parent's mapping:
        mapping the sources would raise the parent's resident set by the
        slack between the upper bound and the exact size.
        """
        seg = self._segments[specs[0].name]
        total = moves[-1][0][1] if moves else 0
        itemsizes = [np.dtype(spec.dtype).itemsize for spec in specs]
        buf = memoryview(bytearray(min(total * max(itemsizes), _MOVE_BLOCK)))
        for spec, itemsize in zip(specs, itemsizes):
            for (lo, hi), slot in moves:
                if lo == slot:
                    continue
                src = spec.offset + slot * itemsize
                dst = spec.offset + lo * itemsize
                nbytes = (hi - lo) * itemsize
                for done in range(0, nbytes, _MOVE_BLOCK):
                    block = buf[: min(_MOVE_BLOCK, nbytes - done)]
                    if (
                        os.preadv(seg._fd, [block], src + done) != len(block)
                        or os.pwrite(seg._fd, block, dst + done) != len(block)
                    ):
                        raise OSError(
                            errno.EIO, f"short copy compacting {spec.name}"
                        )
            start = -(-(spec.offset + total * itemsize) // mmap.PAGESIZE)
            end = (spec.offset + spec.size * itemsize) // mmap.PAGESIZE
            if end > start and hasattr(mmap, "MADV_REMOVE"):
                seg._mmap.madvise(
                    mmap.MADV_REMOVE,
                    start * mmap.PAGESIZE,
                    (end - start) * mmap.PAGESIZE,
                )

    # ----------------------------------------------------------- cleanup
    def unlink(self) -> None:
        """Drop views, close and unlink every owned segment (idempotent)."""
        self._views.clear()
        segments, self._segments = self._segments, {}
        for seg in segments.values():
            try:
                seg.close()
            except BufferError:  # pragma: no cover - a leaked external view
                pass
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "SegmentRegistry":
        return self

    def __exit__(self, *exc) -> None:
        self.unlink()


class SharedResultOwner:
    """Keep-alive owner of a detached result segment (zero-copy results).

    The engine :meth:`adopt`\\ s the output ``indices``/``data`` arrays
    from the segment; each adopted array registers a ``weakref.finalize``
    back to this owner, and the finalize machinery in turn holds the
    owner alive for as long as any adopted array (or any NumPy view
    derived from one — views keep their base array alive) exists.  When
    the **last** adopted array is torn down, the segment is unlinked —
    the ``/dev/shm`` entry disappears — and its mapping closed.

    Ordering is safe by construction: the finalizer runs during the last
    array's deallocation, when nothing can read the buffer any more, and
    ``weakref.finalize`` also fires at interpreter exit, where only the
    unlink is performed (the OS reclaims mappings at process death, and
    closing under live late-shutdown references would dangle them).

    ``release()`` exists for explicit teardown in error paths and tests;
    it must only be called once no adopted view can be dereferenced
    again — closing a segment unmaps it even under live views.
    """

    def __init__(self, seg: shared_memory.SharedMemory) -> None:
        self._seg = seg
        self._lock = threading.Lock()
        self._outstanding = 0
        self._released = False

    @property
    def segment_name(self) -> str:
        """The ``/dev/shm`` entry this owner keeps alive."""
        return self._seg.name.lstrip("/")

    def adopt(self, spec: SharedArraySpec) -> np.ndarray:
        """Segment-backed array for ``spec``, tied to this owner's life."""
        arr = spec.as_array(self._seg.buf)
        with self._lock:
            self._outstanding += 1
        weakref.finalize(arr, self._drop)
        return arr

    def _drop(self) -> None:
        with self._lock:
            self._outstanding -= 1
            if self._outstanding > 0 or self._released:
                return
            self._released = True
        self._release_segment()

    def release(self) -> None:
        """Unlink and close now (idempotent); see the class docstring
        for when this is safe."""
        with self._lock:
            if self._released:
                return
            self._released = True
        self._release_segment()

    def _release_segment(self) -> None:
        try:
            self._seg.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        if sys.is_finalizing():
            # Interpreter shutdown: a late atexit handler could still
            # touch an adopted array; leave the mapping to the OS.
            return
        try:
            self._seg.close()
        except BufferError:  # pragma: no cover - an un-adopted export
            pass


class SegmentAttachments:
    """Worker-side cache of attached segments (spec -> ndarray view).

    Each worker process attaches to a given segment at most once; input
    views are mapped with ``writeable=False`` so a buggy kernel cannot
    corrupt the shared addends.
    """

    def __init__(self) -> None:
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._views: Dict[SharedArraySpec, np.ndarray] = {}

    def attach(self, spec: SharedArraySpec) -> np.ndarray:
        view = self._views.get(spec)
        if view is None:
            seg = self._segments.get(spec.name)
            if seg is None:
                seg = shared_memory.SharedMemory(name=spec.name)
                self._segments[spec.name] = seg
            view = spec.as_array(seg.buf)
            if not spec.writable:
                view.flags.writeable = False
            self._views[spec] = view
        return view

    def close(self) -> None:
        """Release every mapping (view refs must be dropped first)."""
        self._views.clear()
        segments, self._segments = self._segments, {}
        for seg in segments.values():
            try:
                seg.close()
            except BufferError:  # pragma: no cover - view still referenced
                pass


# --------------------------------------------------------------------------
# Worker side.  Tasks carry a per-call *session* (input handles + kernel
# arguments, a few KB of pickled metadata); workers cache the attachments
# and reconstructed matrices for the session and drop them when a task
# from a newer session arrives.  Shipping the session with the task
# rather than via a pool initializer is what lets one long-lived pool
# serve many calls.
# --------------------------------------------------------------------------

_WORKER_SESSION: dict = {"id": None, "attach": None, "mats": None, "meta": None}


def _ensure_session(session: dict) -> dict:
    state = _WORKER_SESSION
    if state["id"] != session["id"]:
        from repro.kernels import native

        state["mats"] = None  # drop matrix views before closing mappings
        if state["attach"] is not None:
            state["attach"].close()
        state["id"] = session["id"]
        state["attach"] = SegmentAttachments()
        state["meta"] = session
        # The parent built (or failed to build) the compiled kernel;
        # workers load what it resolved and never run the compiler.
        native.adopt(session["native_library"])
    return state


def _worker_mats(state: dict) -> Sequence[CSCMatrix]:
    if state["mats"] is None:
        att = state["attach"]
        state["mats"] = [
            CSCMatrix(
                info["shape"],
                att.attach(info["indptr"]),
                att.attach(info["indices"]),
                att.attach(info["data"]),
                sorted=info["sorted"],
                check=False,
            )
            for info in state["meta"]["mats"]
        ]
    return state["mats"]


def _compute_chunk(task) -> tuple:
    """Run columns ``[j0, j1)`` of the shared inputs into this chunk's
    slot ``[lo, hi)`` of the output segment through
    :func:`repro.parallel.executor._write_slot`; only its counts and
    stats cross the pipe, and a retried task rewrites the same bytes."""
    session, j0, j1, lo, hi, fault = task
    state = _ensure_session(session)
    if fault:
        from repro.parallel.faults import apply_chunk_fault

        apply_chunk_fault(fault)
    # Deferred: executor imports this module.
    from repro.parallel.executor import _write_slot

    att = state["attach"]
    out_indices, out_data = session["out"]
    views = [A.col_view(j0, j1) for A in _worker_mats(state)]
    slot = (att.attach(out_indices)[lo:hi], att.attach(out_data)[lo:hi])
    return _write_slot(
        session["method"], j0, views, session["sorted_output"],
        session["kwargs"], slot,
    )


# --------------------------------------------------------------------------
# Parent side.
# --------------------------------------------------------------------------


class SharedMemoryPool:
    """Persistent process pool + per-call segment sessions.

    Workers come from the pool registry (:mod:`repro.parallel.pools`),
    so they survive across :meth:`run` calls —
    and across engine instances sharing a worker count and start method
    — amortizing process startup.  Calls on one engine are serialized
    by an internal lock, so the single default engine (every
    ``executor="shm"`` spkadd call) keeps the workers' attachment
    caches warm call after call.  Distinct engine *instances* sharing a
    registry key may interleave sessions on one pool: correct (workers
    re-key attachments by session id) but each switch re-attaches, so
    embedders wanting concurrent engines should give them distinct
    worker counts or contexts.  Because the pool may be shared,
    :meth:`shutdown` only drops this engine's reference (discarding the
    pool from the registry when it is broken); real teardown is
    :func:`repro.parallel.pools.shutdown_pools`, and the module-level
    default engine keeps its workers until that call or interpreter
    exit.
    """

    def __init__(self, mp_context=None) -> None:
        # None = the fork-safe repo default (forkserver where available):
        # this engine routinely coexists with thread pools in one
        # process, where a bare fork can inherit a locked mutex and
        # deadlock the worker.  The registry resolves the default.
        self._mp_context = mp_context
        self._pool: Optional[ProcessPoolExecutor] = None
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def _lease_pool(self, threads: int, deadline=None):
        """The registry pool for this engine, checked out
        (eviction-pinned) for one wave attempt.  Re-leasing after a
        break hands back a freshly rebuilt pool; workers attach to the
        call's segments by name, so a fresh pool resumes the session
        transparently."""
        from repro.parallel.pools import lease_pool

        with lease_pool(threads, self._mp_context, deadline=deadline) as pool:
            self._pool = pool
            yield pool

    def shutdown(self, *, discard: bool = False) -> None:
        """Release this engine's pool reference.

        A broken pool is always discarded from the registry (the next
        :meth:`run` gets a clean one).  A healthy pool is by default
        left registered — other engines sharing the
        ``(threads, start-method)`` key may have work in flight
        on it, and cancelling that from an unrelated engine's teardown
        would be action at a distance.  ``discard=True`` discards it
        anyway: the targeted teardown for an engine whose context makes
        the pool de-facto private (e.g. a dedicated ``spawn`` engine),
        where leaving the workers registered would waste an LRU slot
        until :func:`repro.parallel.pools.shutdown_pools`.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            from repro.parallel.pools import discard_pool, pool_is_broken

            if discard or pool_is_broken(pool):
                discard_pool(pool)

    def run(
        self,
        mats: Sequence[CSCMatrix],
        method: str,
        ranges: Sequence[Tuple[int, int]],
        *,
        sorted_output: bool,
        kwargs: dict,
        threads: int,
        index_dtype=None,
        policy=None,
        deadline=None,
        fault_plan=None,
        ub=None,
    ):
        """Execute ``method`` over ``ranges`` on the shared-memory pool.

        Returns ``(matrix, stat_items)`` with ``stat_items`` a list of
        ``(j0, stats, stats_symbolic)`` per chunk, chunk-identical to
        what the thread and serial executors produce.  The matrix's
        arrays are zero-copy views into the output segment.  ``ub``:
        the call's slot bounds (``executor._slot_bounds`` when omitted).

        ``policy``/``deadline`` bound the call
        (:mod:`repro.parallel.resilience`; both default to the
        environment-resolved policy): chunks whose worker dies are
        retried on a rebuilt pool, and every wait honours the deadline.
        ``fault_plan`` injects chaos-harness faults.
        """
        from repro.parallel.resilience import Deadline, resolve_policy

        if policy is None:
            policy = resolve_policy(deadline=deadline)
        deadline = Deadline.resolve(
            deadline if deadline is not None else policy.deadline_s
        )
        with self._lock:
            return self._run_locked(
                mats, method, ranges,
                sorted_output=sorted_output, kwargs=kwargs,
                threads=threads, index_dtype=index_dtype,
                policy=policy, deadline=deadline, fault_plan=fault_plan,
                ub=ub,
            )

    def _run_locked(
        self, mats, method, ranges, *, sorted_output, kwargs, threads,
        index_dtype=None, policy=None, deadline=None, fault_plan=None,
        ub=None,
    ):
        from repro.kernels import resolve_index_dtype, resolve_value_dtype
        from repro.parallel.executor import _chunk_layout, _slot_bounds
        from repro.parallel.resilience import run_wave

        m, n = mats[0].shape
        # The kernels accumulate (and emit) in the dtypes these rules
        # resolve over the k addends; the output segment is sized from
        # them, so float32 collections move half the value bytes of
        # float64, int32-resolved calls move half the index bytes of
        # int64, and int64 sums land exactly.
        value_dtype = resolve_value_dtype(mats)
        idx_dtype = resolve_index_dtype(mats, index_dtype)
        if ub is None:
            ub = _slot_bounds(mats)
        registry = SegmentRegistry(fault_plan=fault_plan)
        try:
            deadline.check("shm input publish")
            input_specs = registry.publish(
                [arr for A in mats for arr in (A.indptr, A.indices, A.data)]
            )
            out_indices, out_data = registry.allocate(
                [(ub[-1], idx_dtype), (ub[-1], value_dtype)]
            )
            session = {
                "id": secrets.token_hex(8),
                "mats": [
                    {
                        "shape": A.shape,
                        "sorted": A.sorted,
                        "indptr": input_specs[3 * i],
                        "indices": input_specs[3 * i + 1],
                        "data": input_specs[3 * i + 2],
                    }
                    for i, A in enumerate(mats)
                ],
                "out": (out_indices, out_data),
                "method": method,
                "sorted_output": sorted_output,
                "kwargs": kwargs,
                "native_library": _native_library(method, kwargs),
            }

            def compute_task(i):
                j0, j1 = ranges[i]
                fault = (
                    fault_plan.take_chunk_fault(i, can_kill=True)
                    if fault_plan is not None else None
                )
                return (session, j0, j1, int(ub[j0]), int(ub[j1]), fault)

            results = run_wave(
                lambda: self._lease_pool(threads, deadline=deadline),
                _compute_chunk, compute_task, len(ranges),
                policy=policy, deadline=deadline, label="shm compute",
            )
            indptr, moves, stat_items, is_sorted = _chunk_layout(
                results, ranges, ub, idx_dtype
            )
            registry.compact((out_indices, out_data), moves)
            total = int(indptr[-1])
            deadline.check("shm result assembly")
            # Zero-copy: hand the output segment to a keep-alive owner
            # and return views of its compacted prefix — no final
            # memcpy, and the segment unlinks when the last view is
            # garbage-collected.  (indices and data share one packed
            # segment, so one detach covers both.)
            owner = SharedResultOwner(registry.detach(out_indices.name))
            out = CSCMatrix(
                (m, n),
                indptr,
                owner.adopt(replace(out_indices, size=total)),
                owner.adopt(replace(out_data, size=total)),
                sorted=is_sorted,
                check=False,
            )
            out.buffer_owner = owner
        finally:
            registry.unlink()
        return out, stat_items


def _native_library(method: str, kwargs: dict) -> Optional[str]:
    """Path of the compiled SpKAdd kernel for a call whose chunks run
    the fast fused hash, ``hash`` or ``sliding_hash`` (resolved here, in
    the parent, so workers only load it); ``None`` for every other
    call."""
    from repro.core.api import BACKEND_AWARE_METHODS
    from repro.kernels import native, resolve_backend

    if method not in BACKEND_AWARE_METHODS:
        return None
    if resolve_backend(kwargs.get("backend")) != "fast":
        return None
    return native.library_path()


#: default engine used by ``executor="shm"`` — its workers persist
#: across calls (fork cost paid once per process / worker count).
_DEFAULT_ENGINE = SharedMemoryPool()


def shm_parallel_run(
    mats: Sequence[CSCMatrix],
    method: str,
    ranges: Sequence[Tuple[int, int]],
    *,
    sorted_output: bool,
    kwargs: dict,
    threads: int,
    index_dtype=None,
    policy=None,
    deadline=None,
    fault_plan=None,
    ub=None,
):
    """Run on the module's default :class:`SharedMemoryPool` engine."""
    return _DEFAULT_ENGINE.run(
        mats, method, ranges,
        sorted_output=sorted_output, kwargs=kwargs, threads=threads,
        index_dtype=index_dtype, policy=policy, deadline=deadline,
        fault_plan=fault_plan, ub=ub,
    )
