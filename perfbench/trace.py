"""Span and counter recording around the public entry points of each layer.

Nothing under ``src/`` is changed: the ``install_*`` functions replace module
attributes with thin wrappers that time the call and count its work.
Spans stay in memory (one list append per call) and are written out
once, when the benchmark ends.

A span records its name, start and end (``perf_counter_ns``), the span
that was open on the same thread when it started (its parent), and the
id of the unit of work it belongs to (one SpKAdd call, one gateway
request, one SpGEMM).  A span's *self time* is its duration minus the
time of its children on the same thread.  Work handed to another thread
(SUMMA rank threads, the merge submitter) starts a new root there; it
keeps the unit id of the unit that was current when it started.

Only the calling process is traced.  Work inside pool workers shows up
as the waiting time of the parent-side spans around it (the wave span of
the shared-memory engine).
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import json
import threading
import time
from collections import Counter
from typing import Callable, List, Optional

_now = time.perf_counter_ns


class Tracer:
    """In-memory spans and counters; ``enabled`` switches recording."""

    def __init__(self) -> None:
        self.enabled = True
        self.unit: Optional[int] = None
        self.spans: List[list] = []
        self.counters: Counter = Counter()
        self._open: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_open_span", default=None
        )
        self._lock = threading.Lock()
        self._seen_pools: set = set()

    # ------------------------------------------------------------ spans
    def _enter(self, name: str):
        parent = self._open.get()
        # [name, start, end, child_ns, parent, unit]
        rec = [name, _now(), 0, 0, parent, self.unit]
        return rec, self._open.set(rec)

    def _exit(self, rec, token) -> None:
        rec[2] = _now()
        self._open.reset(token)
        parent = rec[4]
        if parent is not None:
            parent[3] += rec[2] - rec[1]
        self.spans.append(rec)

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec, token = self._enter(name)
        try:
            yield
        finally:
            self._exit(rec, token)

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None):
        """``fn`` timed as span ``name``; ``after(args, kwargs, result)``
        records counts from a successful call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            rec, token = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(rec, token)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # --------------------------------------------------------- counters
    def count(self, name: str, n: float = 1) -> None:
        if self.enabled:
            with self._lock:
                self.counters[name] += n

    def record(self, name: str, start_ns: int, end_ns: int) -> None:
        """A finished span with no parent, for a wait that no call
        brackets (a request waiting for its kernel call)."""
        if self.enabled:
            self.spans.append([name, start_ns, end_ns, 0, None, self.unit])

    def note_pool(self, pool) -> None:
        """Count a pool object the first time it is handed out, recording
        or not (so a pool booted during set-up is not counted later)."""
        if id(pool) not in self._seen_pools:
            self._seen_pools.add(id(pool))
            self.count("parallel.pool_boots")

    # ------------------------------------------------------------ export
    def export(self) -> dict:
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        return {
            "spans": [
                {
                    "name": name, "start_ns": t0, "end_ns": t1,
                    "self_ns": (t1 - t0) - child,
                    "parent": index.get(id(parent)) if parent else None,
                    "unit": unit,
                }
                for name, t0, t1, child, parent, unit in self.spans
            ],
            "counters": dict(self.counters),
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.export(), fh)


# ---------------------------------------------------------------------------
# Installation: one function per layer (module of the repo).
# ---------------------------------------------------------------------------


def _patch(tracer: Tracer, obj, attr: str, name: str, after=None) -> None:
    setattr(obj, attr, tracer.wrap(name, getattr(obj, attr), after))


def install_kernels(tracer: Tracer) -> None:
    """``repro.kernels.sort_reduce``: the accumulation every fast-backend
    caller reaches (``FastBackend.accumulate`` and the fused serial
    SpKAdd both call it)."""
    import repro.kernels
    import repro.kernels.fast

    def after(args, kwargs, result):
        keys, vals = args[0], args[1]
        out_keys, out_vals = result
        tracer.count("kernels.sort_reduce.keys", keys.size)
        # Computed, not measured: compulsory reads of keys and values
        # plus writes of the deduplicated keys and sums.
        tracer.count(
            "kernels.bytes_computed",
            keys.nbytes + vals.nbytes + out_keys.nbytes + out_vals.nbytes,
        )

    wrapped = tracer.wrap("kernels.sort_reduce", repro.kernels.fast.sort_reduce,
                          after)
    repro.kernels.fast.sort_reduce = wrapped
    repro.kernels.sort_reduce = wrapped


def install_core(tracer: Tracer) -> None:
    """Block gather, key packing, assembly and the symbolic phase, as the
    hash kernel and the local SpGEMM import them."""
    import repro.core.hash_add as hash_add
    import repro.core.symbolic as symbolic
    import repro.distributed.spgemm_local as spgemm_local

    _patch(tracer, hash_add, "gather_block", "core.gather")
    for mod in (hash_add, spgemm_local):
        _patch(tracer, mod, "composite_keys", "core.keys")
        _patch(tracer, mod, "split_keys", "core.keys")
    _patch(tracer, hash_add, "assemble_from_block_outputs", "core.assemble")
    _patch(tracer, hash_add, "hash_symbolic", "core.symbolic")
    _patch(tracer, symbolic, "symbolic_nnz", "core.symbolic")
    _patch(tracer, symbolic, "exact_output_col_nnz", "core.symbolic")


def install_parallel(tracer: Tracer) -> None:
    """Partition, segment publish/allocate, output layout, the engine's
    waves, pool leases, retries, fallbacks and orphan sweeps."""
    import repro.core.symbolic as symbolic
    import repro.parallel.executor as executor
    import repro.parallel.pools as pools
    import repro.parallel.resilience as resilience
    import repro.parallel.shm as shm

    def after_partition(args, kwargs, ranges):
        tracer.count("parallel.chunks", sum(1 for j0, j1 in ranges if j1 > j0))

    def after_publish(args, kwargs, specs):
        tracer.count(
            "parallel.publish.bytes", sum(a.nbytes for a in args[1])
        )

    def after_create(args, kwargs, seg):
        tracer.count("parallel.segments_created")

    def after_collect(args, kwargs, result):
        pending = result[1]
        if pending:
            tracer.count("parallel.retries", len(pending))

    _patch(tracer, executor, "split_weighted", "parallel.partition",
           after_partition)
    reg = shm.SegmentRegistry
    _patch(tracer, reg, "publish", "parallel.publish", after_publish)
    _patch(tracer, reg, "allocate", "parallel.alloc")
    reg._create = _counted(reg._create, after_create)
    _patch(tracer, symbolic, "chunk_output_layout", "parallel.layout")
    # shm_parallel_run waits for the engine lock, then runs the locked
    # body (publish, compute wave, layout, scatter wave, assembly).
    _patch(tracer, shm, "shm_parallel_run", "parallel.engine_lock")
    _patch(tracer, shm.SharedMemoryPool, "_run_locked", "parallel.waves")
    resilience.collect_resilient = _counted(
        resilience.collect_resilient, after_collect
    )
    executor._warn_fallback = _counter_only(
        tracer, executor._warn_fallback, "parallel.fallbacks"
    )
    shm.sweep_orphans = _counter_only(
        tracer, shm.sweep_orphans, "parallel.orphan_sweeps"
    )
    lease = pools.lease_pool

    @contextlib.contextmanager
    def traced_lease(*args, **kwargs):
        with contextlib.ExitStack() as stack:
            with tracer.span("parallel.pool_lease"):
                pool = stack.enter_context(lease(*args, **kwargs))
            tracer.note_pool(pool)
            yield pool

    pools.lease_pool = traced_lease


def _counted(fn: Callable, after: Callable) -> Callable:
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(args, kwargs, result)
        return result

    return counted


def _counter_only(tracer: Tracer, fn: Callable, name: str) -> Callable:
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)

    return counted


def install_distributed(tracer: Tracer) -> None:
    """Block distribution, local multiplies and the asynchronous merge
    submissions of the SUMMA pipeline."""
    import repro.core.api as api
    import repro.distributed.summa as summa
    import repro.parallel.executor as executor

    dist = summa.BlockDistribution
    dist.distribute = classmethod(
        tracer.wrap("distributed.distribute", dist.distribute.__func__)
    )
    _patch(tracer, summa, "local_spgemm", "distributed.multiply")
    submit_pool = executor._submit_pool

    def traced_submit(mats, method="hash", **kwargs):
        # The same pool and call as ``submit_spkadd``; the wrapper only
        # notes how long the merge waited for a submitter thread.
        t_submit = _now()

        def merge():
            tracer.record("distributed.submit_wait", t_submit, _now())
            with tracer.span("distributed.merge"):
                return api.spkadd(mats, method, **kwargs)

        return submit_pool().submit(merge)

    executor.submit_spkadd = traced_submit


def install_serve(tracer: Tracer) -> None:
    """Server side of the gateway: request decode, the wait from
    admission to the start of the request's kernel call (batch window
    and compute queue), fuse, the kernel call, split and response
    encode."""
    import repro
    import repro.serve.protocol as protocol
    import repro.serve.server as server

    _patch(tracer, protocol, "unpack_matrices", "serve.decode")
    _patch(tracer, server, "fuse_requests", "serve.fuse")
    _patch(tracer, server, "split_result", "serve.split")
    _patch(tracer, server, "pack_result", "serve.encode")
    _patch(tracer, repro, "spkadd", "serve.call")
    gateway = server.GatewayServer
    parse = gateway._parse_sum

    def traced_parse(self, *args, **kwargs):
        req = parse(self, *args, **kwargs)
        req.perfbench_t_admit = _now()
        return req

    def waited(requests) -> None:
        t = _now()
        for r in requests:
            t_admit = getattr(r, "perfbench_t_admit", None)
            if t_admit is not None:
                tracer.record("serve.batch_wait", t_admit, t)

    compute_fused = gateway._compute_fused
    compute_solo = gateway._compute_solo

    def traced_fused(self, key, requests):
        waited(requests)
        tracer.count("serve.fused_calls")
        tracer.count("serve.fused_k", sum(len(r.mats) for r in requests))
        return compute_fused(self, key, requests)

    def traced_solo(self, req):
        waited([req])
        return compute_solo(self, req)

    gateway._parse_sum = traced_parse
    gateway._compute_fused = traced_fused
    gateway._compute_solo = traced_solo


def install_all(tracer: Tracer) -> None:
    install_kernels(tracer)
    install_core(tracer)
    install_parallel(tracer)
    install_distributed(tracer)


def make_tracer(trace: bool) -> Optional[Tracer]:
    """A tracer wrapping every in-process layer, recording off; ``None``
    for an untraced run, which installs no wrappers at all."""
    if not trace:
        return None
    tracer = Tracer()
    install_all(tracer)
    tracer.enabled = False
    return tracer
