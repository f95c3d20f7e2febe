"""The SpKAdd gateway: an asyncio front door over the SpKAdd kernels.

``GatewayServer`` accepts concurrent sum requests on a local unix
socket, runs admission control (:mod:`repro.serve.admission`), fuses
small requests into high-k kernel calls (:mod:`repro.serve.batcher`),
sends large requests solo, and maps the resilience layer's typed
failures straight onto typed response frames:

========================  =============================================
library failure           wire response
========================  =============================================
``DeadlineExceeded``      ``code="deadline"`` — the request's budget,
                          enforced across queueing, batching, pool
                          boot, chunk retry, and assembly
``ExecutorUnusable``      ``code="unusable"`` — the whole degradation
                          chain (:data:`repro.parallel.resilience.FALLBACK_STAGES`)
                          gave up; shed-or-degrade already happened
queue full                ``code="shed"`` — admission refused; retry
                          with backoff
``ValueError`` et al.     ``code="invalid"`` — malformed request
                          (bad arrays, ``threads=0``, unknown method)
========================  =============================================

Execution happens on a small thread pool (``parallel_calls`` wide) so
the event loop never blocks on a kernel.  The kernel calls pick their
executor the way :func:`repro.spkadd` does — ``REPRO_EXECUTOR``, else
``"thread"`` — so by default they run in this process; set
``REPRO_EXECUTOR=shm`` to run them on the persistent worker pools.
A fused batch that fails as a whole is re-run request by request, so
one poisoned (or deadline-expired) request cannot take its batch
siblings down with it.
"""

from __future__ import annotations

import asyncio
import functools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.parallel.executor import resolve_executor, split_budget
from repro.parallel.resilience import (
    Deadline,
    DeadlineExceeded,
    resolve_policy,
)
from repro.serve import protocol
from repro.serve.admission import AdmissionController
from repro.serve.batcher import BatchKey, MicroBatcher, fuse_requests, split_result
from repro.serve.protocol import (
    AttachedSegments,
    RequestInvalid,
    error_code_for,
    pack_result,
)

#: default unix-socket path (``python -m repro serve`` and the client
#: agree on it); override per server via :class:`GatewayConfig`.
DEFAULT_SOCKET = "/tmp/repro-gateway.sock"


@dataclass
class GatewayConfig:
    """Knobs of one gateway instance.

    ``small_nnz`` splits the lanes: requests whose summed input nnz is
    at or under it are micro-batched, larger ones run solo.
    ``batch_window_s`` is the latency spent waiting for batch-mates;
    ``batch_max`` caps a fused call's request count.
    ``max_queue`` bounds requests in flight (admitted, queued, or
    running) — beyond it the gateway sheds.  ``deadline_s`` is the
    default per-request budget (requests may carry their own);
    ``None`` = unbounded.  ``parallel_calls`` is how many kernel calls
    may run concurrently on the compute thread pool; ``threads`` (per
    call) defaults to their share of the CPU budget.
    """

    socket_path: str = DEFAULT_SOCKET
    threads: Optional[int] = None
    small_nnz: int = 1 << 15
    batch_window_s: float = 0.002
    batch_max: int = 16
    max_queue: int = 64
    deadline_s: Optional[float] = None
    parallel_calls: int = 2
    resilience: object = None  # Optional[ResiliencePolicy]; None = env

    def __post_init__(self) -> None:
        if self.parallel_calls < 1:
            raise ValueError(
                f"parallel_calls must be >= 1, got {self.parallel_calls}"
            )
        if self.threads is None:
            self.threads = split_budget(self.parallel_calls)[1]
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(
                f"deadline_s must be positive, got {self.deadline_s}"
            )


@dataclass
class _SumRequest:
    """One admitted sum request, parsed and bound to its connection."""

    id: object
    mats: List
    method: str
    backend: Optional[str]
    sorted_output: bool
    threads: Optional[int]
    index_dtype: Optional[str]
    value_dtype: Optional[str]
    deadline: Deadline
    response_mode: str
    respond: object        # async (header, payload) -> None
    leases: Dict           # the connection's shm-result lease store
    attachments: Optional[AttachedSegments] = None
    done: bool = field(default=False, init=False)
    k: int = field(init=False)

    def __post_init__(self) -> None:
        self.k = len(self.mats)

    def close_attachments(self) -> None:
        if self.attachments is not None:
            self.attachments.close()
            self.attachments = None


class GatewayServer:
    """See the module docstring; construct, :meth:`start`, then await
    :meth:`serve_until_stopped` (or use :func:`start_in_thread`)."""

    def __init__(self, config: GatewayConfig) -> None:
        from concurrent.futures import ThreadPoolExecutor

        self.config = config
        # Reported by ``stats`` and the ``serve`` banner; the kernel
        # calls resolve it again themselves, the same way.
        self.executor = resolve_executor()
        # Resolved once (bad REPRO_* knobs fail at startup); passing it
        # keeps threads=1 calls under their deadline, on the executor.
        self.policy = resolve_policy(config.resilience)
        self.admission = AdmissionController(config.max_queue)
        self.batcher = MicroBatcher(
            window_s=config.batch_window_s,
            max_batch=config.batch_max,
            run_batch=self._run_batch,
        )
        self._compute = ThreadPoolExecutor(
            max_workers=config.parallel_calls,
            thread_name_prefix="repro-serve",
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._tasks: set = set()
        self._conn_tasks: set = set()
        self._conn_writers: set = set()
        self._lease_tokens = iter(range(1, 1 << 62))
        self._t_started = None

    # ------------------------------------------------------------ lifecycle
    async def start(self) -> None:
        path = self.config.socket_path
        if os.path.exists(path):
            # A stale socket from a crashed server blocks bind(); a live
            # server would still be flock-free — last-one-wins is the
            # local-socket convention.
            os.unlink(path)
        self._stop_event = asyncio.Event()
        self._server = await asyncio.start_unix_server(
            self._serve_connection, path=path
        )
        self._t_started = time.monotonic()

    async def serve_until_stopped(self) -> None:
        await self._stop_event.wait()
        await self.aclose()

    def request_stop(self) -> None:
        if self._stop_event is not None:
            self._stop_event.set()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Close established connections and let their handler tasks run
        # to completion — cancelling them at loop teardown instead would
        # leak their shm leases and spam CancelledError tracebacks.
        for writer in list(self._conn_writers):
            writer.close()
        if self._conn_tasks:
            await asyncio.gather(
                *list(self._conn_tasks), return_exceptions=True
            )
        self.batcher.flush_all()
        if self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
        self._compute.shutdown(wait=True)
        if os.path.exists(self.config.socket_path):
            try:
                os.unlink(self.config.socket_path)
            except OSError:  # pragma: no cover - raced with a new server
                pass

    def _spawn(self, coro) -> None:
        task = asyncio.get_running_loop().create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    # ----------------------------------------------------------- connection
    async def _serve_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self._conn_writers.add(writer)
        write_lock = asyncio.Lock()
        leases: Dict = {}

        async def respond(header: Dict, payload: bytes = b"") -> None:
            frame = protocol.encode_frame(header, payload)
            async with write_lock:
                writer.write(frame)
                await writer.drain()

        try:
            while True:
                try:
                    header, payload = await protocol.read_frame(reader)
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    break
                except (ValueError, protocol.GatewayError):
                    # Oversized or undecodable frame: the stream is no
                    # longer in sync, so the only safe answer is to drop
                    # the connection (the client reconnects cleanly).
                    break
                await self._dispatch(header, payload, respond, leases)
        finally:
            self._conn_tasks.discard(task)
            self._conn_writers.discard(writer)
            for owner in leases.values():
                owner.release()
            leases.clear()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _dispatch(self, header, payload, respond, leases) -> None:
        op = header.get("op")
        req_id = header.get("id")
        if op == "sum":
            await self._handle_sum(header, payload, respond, leases)
        elif op == "ping":
            await respond({
                "op": "pong", "id": req_id, "status": "ok",
                "version": protocol.PROTOCOL_VERSION,
            })
        elif op == "stats":
            await respond({
                "op": "stats", "id": req_id, "status": "ok",
                "stats": self.admission.snapshot({
                    "pending_batches": self.batcher.pending(),
                    "uptime_s": (
                        round(time.monotonic() - self._t_started, 3)
                        if self._t_started is not None else 0.0
                    ),
                    "executor": self.executor,
                    "threads": self.config.threads,
                }),
            })
        elif op == "release":
            owner = leases.pop(header.get("token"), None)
            if owner is not None:
                owner.release()
                self.admission.released_leases += 1
        elif op == "shutdown":
            await respond({"op": "bye", "id": req_id, "status": "ok"})
            self.request_stop()
        else:
            await respond({
                "op": "error", "id": req_id, "status": "error",
                "code": "invalid", "message": f"unknown op {op!r}",
            })

    # ------------------------------------------------------------- requests
    async def _handle_sum(self, header, payload, respond, leases) -> None:
        req_id = header.get("id")
        if not self.admission.try_admit():
            await respond({
                "op": "error", "id": req_id, "status": "error",
                "code": "shed",
                "message": (
                    f"gateway at capacity ({self.admission.max_queue} "
                    "requests in flight); retry with backoff"
                ),
            })
            return
        attachments = AttachedSegments()
        try:
            req = self._parse_sum(header, payload, respond, leases,
                                  attachments)
        except Exception as err:
            attachments.close()
            self.admission.release()
            self.admission.errored += 1
            await respond({
                "op": "error", "id": req_id, "status": "error",
                "code": error_code_for(err), "message": str(err),
            })
            return
        total_nnz = sum(A.nnz for A in req.mats)
        batchable = (
            total_nnz <= self.config.small_nnz
            and req.threads is None
            and req.value_dtype is None
        )
        if batchable:
            self.batcher.add(
                BatchKey.for_request(
                    req.mats, req.method, req.backend or "",
                    req.sorted_output,
                ),
                req,
            )
        else:
            self._spawn(self._finish_solo(req))

    def _parse_sum(self, header, payload, respond, leases,
                   attachments) -> _SumRequest:
        shape = header.get("shape")
        entries = header.get("mats")
        if (not isinstance(shape, (list, tuple)) or len(shape) != 2
                or not entries):
            raise RequestInvalid(
                "sum request needs a 2-entry shape and >= 1 matrices"
            )
        threads = header.get("threads")
        if threads is not None and int(threads) < 1:
            # The kernels reject this too (PR 7's validation); doing it
            # at parse keeps a malformed count out of the batch lane,
            # where the server's own thread count would mask it.
            raise RequestInvalid(f"threads must be >= 1, got {threads}")
        deadline_s = header.get("deadline_s", self.config.deadline_s)
        if deadline_s is not None and float(deadline_s) <= 0:
            raise RequestInvalid(
                f"deadline_s must be positive, got {deadline_s}"
            )
        response_mode = header.get("response", "inline")
        if response_mode not in ("inline", "shm"):
            raise RequestInvalid(
                f"unknown response mode {response_mode!r}; "
                "choose 'inline' or 'shm'"
            )
        mats = protocol.unpack_matrices(shape, entries, payload, attachments)
        return _SumRequest(
            id=header.get("id"),
            mats=mats,
            method=header.get("method", "hash"),
            backend=header.get("backend") or None,
            sorted_output=bool(header.get("sorted_output", True)),
            threads=None if threads is None else int(threads),
            index_dtype=header.get("index_dtype") or None,
            value_dtype=header.get("value_dtype") or None,
            deadline=Deadline(
                None if deadline_s is None else float(deadline_s)
            ),
            response_mode=response_mode,
            respond=respond,
            leases=leases,
            # The request owns its segment attachments: they must stay
            # mapped until the kernel has consumed the arrays (GC of an
            # orphaned attachment unmaps under live views -> SIGSEGV).
            attachments=attachments,
        )

    # ------------------------------------------------------------ execution
    def _spkadd_kwargs(self, *, deadline_rem) -> Dict:
        return {"threads": self.config.threads, "deadline": deadline_rem,
                "resilience": self.policy}

    def _compute_solo(self, req: _SumRequest):
        import repro

        rem = req.deadline.remaining()
        req.deadline.check("gateway queue wait")
        kwargs = self._spkadd_kwargs(deadline_rem=rem)
        if req.threads is not None:
            kwargs["threads"] = req.threads
        self.admission.solo_calls += 1
        res = repro.spkadd(
            req.mats,
            method=req.method,
            backend=req.backend,
            sorted_output=req.sorted_output,
            index_dtype=req.index_dtype,
            value_dtype=req.value_dtype,
            **kwargs,
        )
        return res.matrix

    def _compute_fused(self, key: BatchKey, requests: List[_SumRequest]):
        import repro

        fused, spans = fuse_requests(requests)
        rems = [r.deadline.remaining() for r in requests]
        bounded = [r for r in rems if r is not None]
        # The fused call honours the *tightest* member budget; if that
        # expires, _run_batch re-runs the survivors solo on their own
        # budgets, so a tight deadline never drags its batch-mates down.
        rem = min(bounded) if bounded else None
        for r in requests:
            r.deadline.check("gateway batch window")
        res = repro.spkadd(
            fused,
            method=key.method,
            backend=key.backend or None,
            sorted_output=key.sorted_output,
            **self._spkadd_kwargs(deadline_rem=rem),
        )
        return len(fused), split_result(res.matrix, requests, spans)

    async def _run_batch(self, key: BatchKey, requests: List) -> None:
        ready = []
        for req in requests:
            if req.deadline.expired:
                # Deadline-aware backpressure: the client has given up —
                # answering without running is the cheapest shed there is.
                await self._send_error(
                    req,
                    DeadlineExceeded(
                        f"deadline of {req.deadline.seconds}s expired in "
                        "the gateway batch window"
                    ),
                )
            else:
                ready.append(req)
        if not ready:
            return
        if len(ready) == 1:
            await self._finish_solo(ready[0])
            return
        loop = asyncio.get_running_loop()
        try:
            fused_k, outs = await loop.run_in_executor(
                self._compute,
                functools.partial(self._compute_fused, key, ready),
            )
        except Exception:
            # The fused call failed as a whole (tightest deadline hit, a
            # poisoned request, executor unusable).  Re-run the members
            # individually: each gets its own budget and its own typed
            # answer, so one bad request cannot fail its batch-mates.
            await asyncio.gather(
                *(self._finish_solo(req) for req in ready)
            )
            return
        self.admission.record_batch(fused_k, len(ready))
        for req, out in zip(ready, outs):
            await self._send_result(req, out)

    async def _finish_solo(self, req: _SumRequest) -> None:
        loop = asyncio.get_running_loop()
        try:
            out = await loop.run_in_executor(
                self._compute, functools.partial(self._compute_solo, req)
            )
        except Exception as err:
            await self._send_error(req, err)
            return
        await self._send_result(req, out)

    # ------------------------------------------------------------ responses
    def _retire(self, req: _SumRequest) -> None:
        """Account a request exactly once, however its turn ended."""
        if not req.done:
            req.done = True
            req.close_attachments()
            self.admission.release()

    async def _send_result(self, req: _SumRequest, matrix) -> None:
        try:
            if req.response_mode == "shm":
                header, payload = self._shm_response(req, matrix)
            else:
                result, payload = pack_result(matrix)
                header = {
                    "op": "result", "id": req.id, "status": "ok",
                    "result": result,
                }
        except Exception as err:
            await self._send_error(req, err)
            return
        try:
            await req.respond(header, payload)
            self.admission.completed += 1
        except (ConnectionResetError, BrokenPipeError):
            pass  # the client is gone; the result dies with the frame
        finally:
            self._retire(req)

    def _shm_response(self, req: _SumRequest, matrix):
        """Publish the result's indices/data to a fresh segment and
        lease the handle to the connection (released by a ``release``
        frame, or when the connection closes)."""
        from repro.parallel.shm import SegmentRegistry, SharedResultOwner

        registry = SegmentRegistry()
        try:
            idx_spec, dat_spec = registry.publish(
                [matrix.indices, matrix.data]
            )
        except BaseException:
            registry.unlink()
            raise
        owner = SharedResultOwner(registry.detach(idx_spec.name))
        token = next(self._lease_tokens)
        req.leases[token] = owner
        indptr = matrix.indptr
        header = {
            "op": "result", "id": req.id, "status": "ok",
            "shm": {
                "token": token,
                "shape": [int(matrix.shape[0]), int(matrix.shape[1])],
                "sorted": bool(matrix.sorted),
                "indptr": {
                    "dtype": indptr.dtype.str, "size": int(indptr.size),
                    "offset": 0,
                },
                "indices": {
                    "name": idx_spec.name, "dtype": idx_spec.dtype,
                    "size": idx_spec.size, "offset": idx_spec.offset,
                },
                "data": {
                    "name": dat_spec.name, "dtype": dat_spec.dtype,
                    "size": dat_spec.size, "offset": dat_spec.offset,
                },
            },
        }
        return header, indptr.tobytes()

    async def _send_error(self, req: _SumRequest, err: BaseException) -> None:
        code = error_code_for(err)
        if code == "deadline":
            self.admission.deadline_expired += 1
        else:
            self.admission.errored += 1
        try:
            await req.respond({
                "op": "error", "id": req.id, "status": "error",
                "code": code, "message": str(err),
            })
        except (ConnectionResetError, BrokenPipeError):
            pass  # the client is gone; nothing to tell it
        finally:
            self._retire(req)


# ---------------------------------------------------------------------------
# Embedding helpers: run a gateway on a background thread.
# ---------------------------------------------------------------------------


class GatewayHandle:
    """A gateway running on its own event-loop thread (tests, benches,
    the CLI self-test).  ``stop()`` is idempotent and joins the thread."""

    def __init__(self, config: GatewayConfig) -> None:
        self.config = config
        self.server: Optional[GatewayServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = threading.Event()
        self._error: List[BaseException] = []
        self._thread = threading.Thread(
            target=self._run, name="repro-gateway", daemon=True
        )

    def _run(self) -> None:
        async def main() -> None:
            try:
                self.server = GatewayServer(self.config)
                await self.server.start()
                self._loop = asyncio.get_running_loop()
            except BaseException as err:
                self._error.append(err)
                raise
            finally:
                self._started.set()
            await self.server.serve_until_stopped()

        try:
            asyncio.run(main())
        except BaseException as err:  # surfaced via start()/stop()
            if not self._error:
                self._error.append(err)

    def start(self, timeout: float = 30.0) -> "GatewayHandle":
        if self._thread.ident is None:  # idempotent: with start_in_thread(...)
            self._thread.start()
        if not self._started.wait(timeout):
            raise TimeoutError("gateway did not start in time")
        if self._error:
            raise self._error[0]
        return self

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is not None and self.server is not None:
            try:
                self._loop.call_soon_threadsafe(self.server.request_stop)
            except RuntimeError:  # pragma: no cover - loop already dead
                pass
        self._thread.join(timeout)

    def __enter__(self) -> "GatewayHandle":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def start_in_thread(config: GatewayConfig) -> GatewayHandle:
    """Start a gateway on a daemon thread; returns the joined handle."""
    return GatewayHandle(config).start()


__all__ = [
    "DEFAULT_SOCKET",
    "GatewayConfig",
    "GatewayHandle",
    "GatewayServer",
    "start_in_thread",
]
