"""The ``gateway_open`` workload: an open loop into ``python -m repro serve``.

One asyncio client sends distinct requests over two connections, each at
the moment it is due.  Small requests (k=8, about 2k nnz) go to the
batch lane; every ``LARGE_EVERY``-th request is large (about 64k nnz)
and goes to the solo lane.  A steady phase below the knee is followed by
an overload phase above it.  Each latency is timed from the request's
due time, so a stall also delays every request due behind it.

A shed is the gateway's typed refusal under overload: it is counted as
a goodput miss and in ``serve.shed``, not as a failure.  A wrong result,
any other error, or a request never answered is a failure.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from typing import Dict, List

import numpy as np

from perfbench import common, layers

SMALL = dict(m=1024, n=64, d=4, k=8)        # 2048 nnz: batch lane
LARGE = dict(m=1024, n=2048, d=4, k=8)      # 65536 nnz: solo lane
LARGE_EVERY = 20
LARGE_NNZ = 1 << 15                         # the server's small_nnz cut
N_BASES = 24                                # distinct small base requests
N_LARGE_BASES = 3

STEADY_RPS = 20.0
OVERLOAD_RPS = 150.0
STEADY_SHARE = 0.5                          # of the run's seconds
WARMUP_S = 2.0
#: goodput counts ``ok`` responses within this latency of their due time;
#: it exceeds a full admission queue's wait even on a slowed machine, so
#: in overload goodput is the gateway's capacity and every shed is a miss
GOODPUT_LIMIT_MS = 3000.0
#: the run is invalid when the generator's p99 lateness exceeds this
LATE_BOUND_MS = 50.0
#: answers still missing this long after the last send are failures
DRAIN_S = 20.0

SERVER_ARGS = ["serve", "--threads", "2"]


class Server:
    """One gateway subprocess, started from the checkout root."""

    def __init__(self, root: str, socket_path: str, trace_out: str = None):
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        args = SERVER_ARGS + ["--socket", socket_path]
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro"] + args
        else:
            cmd = [sys.executable, os.path.join("perfbench", "gateway_launch.py"),
                   trace_out] + args
        self.socket_path = socket_path
        self._log = open(socket_path + ".log", "ab")
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=self._log, stderr=subprocess.STDOUT
        )

    def wait_ready(self, timeout: float = 60.0) -> None:
        from repro import GatewayClient

        t_end = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"gateway exited with {self.proc.returncode}")
            if os.path.exists(self.socket_path):
                try:
                    with GatewayClient(self.socket_path, timeout=5) as client:
                        client.ping()
                    return
                except (OSError, ConnectionError):
                    pass
            if time.monotonic() > t_end:
                raise RuntimeError("gateway did not answer a ping in time")
            time.sleep(0.02)

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the gateway process (``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in the gateway's /proc status")

    def stop(self) -> None:
        """Shut the server down and wait for it and every process it
        started (its fork server and pool workers) to exit."""
        from repro import GatewayClient

        if self.proc.poll() is None:
            helpers = common.descendants(self.proc.pid)
            try:
                with GatewayClient(self.socket_path, timeout=10) as client:
                    client.shutdown_server()
            except (OSError, ConnectionError):
                self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            t_end = time.monotonic() + 10
            while helpers and time.monotonic() < t_end:
                helpers = [p for p in helpers if os.path.exists(f"/proc/{p}")]
                time.sleep(0.02)
            for pid in helpers:
                os.kill(pid, signal.SIGKILL)
        self._log.close()


def _collection(shape: dict, seed):
    from repro.generators import erdos_renyi_collection

    return erdos_renyi_collection(
        shape["m"], shape["n"], d=shape["d"], k=shape["k"], seed=seed
    )


def _schedule(rate: float, seconds: float, start: float) -> List[float]:
    return list(start + np.arange(int(rate * seconds)) / rate)


async def _open_loop(socket_path, requests, dues, tracer_on_at, server_pid):
    """Send ``requests[i]`` at ``dues[i]`` (perf_counter seconds) over two
    connections; returns one record per request."""
    from repro.serve import protocol

    conns = [await asyncio.open_unix_connection(socket_path) for _ in range(2)]
    records: List[Dict] = [None] * len(requests)
    done = asyncio.Event()
    remaining = len(requests)

    async def receive(reader):
        nonlocal remaining
        while remaining:
            try:
                header, payload = await protocol.read_frame(reader)
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            t = time.perf_counter()
            rec = records[header["id"]]
            rec["lat_ms"] = common.ms(t - rec["due"])
            if header.get("status") == "ok":
                t0 = time.perf_counter()
                rec["result"] = protocol.unpack_result(header["result"], payload)
                rec["decode_ms"] = common.ms(time.perf_counter() - t0)
                rec["ok"] = True
            else:
                rec["error"] = header.get("code", "internal")
            remaining -= 1
            if not remaining:
                done.set()

    readers = [asyncio.ensure_future(receive(r)) for r, _ in conns]
    try:
        for i, (mats, due) in enumerate(zip(requests, dues)):
            if tracer_on_at is not None and due >= tracer_on_at:
                os.kill(server_pid, signal.SIGUSR1)
                tracer_on_at = None
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            t_send = time.perf_counter()
            entries, payload = protocol.pack_matrices(mats)
            frame = protocol.encode_frame({
                "op": "sum", "id": i, "shape": list(mats[0].shape),
                "method": "hash", "mats": entries,
            }, payload)
            t_encoded = time.perf_counter()
            records[i] = {
                "due": due, "late_ms": common.ms(t_send - due),
                "encode_ms": common.ms(t_encoded - t_send),
                "nnz": sum(A.nnz for A in mats),
            }
            writer = conns[i % 2][1]
            writer.write(frame)
            if writer.transport.get_write_buffer_size() > (1 << 20):
                await writer.drain()
        try:
            await asyncio.wait_for(done.wait(), DRAIN_S)
        except asyncio.TimeoutError:
            pass
    finally:
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
        for _, writer in conns:
            writer.close()
            await writer.wait_closed()
    return records


def run(seed: int, seconds: float, trace: bool, root: str) -> dict:
    import repro
    from repro import GatewayClient

    os.makedirs(os.path.join(root, common.RUN_DIR), exist_ok=True)
    socket_path = os.path.join(common.RUN_DIR, f"gw-{os.getpid()}.sock")
    trace_out = (
        os.path.join(root, common.RUN_DIR, f"gw-{os.getpid()}-trace.json")
        if trace else None
    )

    def setup():
        rng = np.random.default_rng(seed)
        seeds = rng.integers(0, 2**31, N_BASES + N_LARGE_BASES)
        bases = [_collection(SMALL, s) for s in seeds[:N_BASES]]
        bases += [_collection(LARGE, s) for s in seeds[N_BASES:]]
        refs = [repro.spkadd(mats).matrix for mats in bases]
        server = Server(root, socket_path, trace_out)
        server.wait_ready()
        with GatewayClient(socket_path, timeout=30) as client:
            for mats, ref in zip(bases, refs):
                if not common.same_bytes(client.submit(mats), ref):
                    raise RuntimeError("gateway warm-up result is wrong")
        return server, bases, refs

    setup_s, (server, bases, refs) = common.timed_setups(
        setup, lambda state: state[0].stop()
    )
    try:
        return _measure(seed, seconds, trace, server, bases, refs, setup_s,
                        trace_out)
    finally:
        server.stop()
        if os.path.exists(socket_path):
            raise RuntimeError("gateway socket left behind")


def _measure(seed, seconds, trace, server, bases, refs, setup_s, trace_out):
    from repro import GatewayClient

    rng = np.random.default_rng(seed + 1)
    steady_s = seconds * STEADY_SHARE
    overload_s = seconds - steady_s
    # Send times relative to the start.  A warm-up at the steady rate
    # comes first: the gateway's first seconds of traffic after idling
    # run slower.  It is checked but not measured.
    offsets = _schedule(STEADY_RPS, WARMUP_S, 0.0)
    n_warm = len(offsets)
    offsets += _schedule(STEADY_RPS, steady_s, WARMUP_S)
    n_steady = len(offsets) - n_warm
    offsets += _schedule(OVERLOAD_RPS, overload_s, WARMUP_S + steady_s)
    # Inputs are made before the loop starts: request i is a fresh
    # column permutation of one base request.
    plan = []
    requests = []
    for i in range(len(offsets)):
        if i % LARGE_EVERY == LARGE_EVERY - 1:
            b = N_BASES + int(rng.integers(N_LARGE_BASES))
        else:
            b = int(rng.integers(N_BASES))
        q = rng.permutation(bases[b][0].shape[1])
        plan.append((b, q))
        requests.append([common.permute_columns(A, q) for A in bases[b]])
    with GatewayClient(server.socket_path, timeout=30) as client:
        before = client.stats()
    t0 = time.perf_counter() + 0.2 + WARMUP_S      # start of the steady phase
    dues = [t0 - WARMUP_S + o for o in offsets]
    # In trace mode the second half of the steady phase and the overload
    # phase are traced; the first half is the untraced comparison.
    trace_on = t0 + steady_s / 2 if trace else None
    records = asyncio.run(_open_loop(
        server.socket_path, requests, dues, trace_on, server.proc.pid
    ))
    with GatewayClient(server.socket_path, timeout=30) as client:
        after = client.stats()
    del requests

    failed = 0
    ok_nnz = 0          # measured phases only
    last = t0
    for i, (rec, (b, q)) in enumerate(zip(records, plan)):
        if rec.get("ok"):
            if i >= n_warm:
                ok_nnz += rec["nnz"]
                last = max(last, rec["due"] + rec["lat_ms"] / 1e3)
            if not common.same_bytes(rec.pop("result"),
                                     common.permute_columns(refs[b], q)):
                failed += 1
        elif rec.get("error") != "shed":
            failed += 1
    steady = [r for r in records[n_warm:n_warm + n_steady] if r.get("ok")]
    for lane, pick in (("batch", lambda r: r["nnz"] < LARGE_NNZ),
                       ("solo", lambda r: r["nnz"] >= LARGE_NNZ)):
        xs = [r["lat_ms"] for r in steady if pick(r)]
        print(f"  steady {lane} lane: n={len(xs)} p50={common.median(xs):.2f} "
              f"p90={np.percentile(xs, 90) if xs else 0:.2f} ms")
    if trace:
        # untraced first half of the steady phase, traced second half
        lat = [r["lat_ms"] for r in steady if r["due"] < trace_on]
        traced = [r["lat_ms"] for r in steady if r["due"] >= trace_on]
    else:
        lat = [r["lat_ms"] for r in steady]
    overload = records[n_warm + n_steady:]
    good = sum(
        1 for r in overload if r.get("ok") and r["lat_ms"] <= GOODPUT_LIMIT_MS
    )
    late_p99 = float(np.percentile([r["late_ms"] for r in records], 99))
    label, value = common.tail(lat)
    delta = {k: v - before[k] for k, v in after.items() if isinstance(v, int)}
    print(f"steady samples={len(lat)} lat_tail={label} late_p99_ms={late_p99:.2f} "
          f"shed={delta['shed']} ok_overload={good}/{len(overload)}")
    out = {
        "attempted": len(records),
        "failed": failed,
        "valid": late_p99 <= LATE_BOUND_MS,
        "e2e": {
            "setup_s": setup_s,
            "lat_p50_ms": common.median(lat),
            "lat_tail_ms": value,
            "throughput_mnnz_s": ok_nnz / (last - t0) / 1e6,
            "goodput_rps": good / overload_s,
            "peak_rss_mb": server.peak_rss_mb(),
        },
    }
    if trace:
        server.stop()
        window = (int(trace_on * 1e9), int((t0 + steady_s) * 1e9))
        out["layers"] = _layers(
            trace_out, window, [r for r in steady if r["due"] >= trace_on],
            delta, late_p99, bases[:N_BASES], lat, traced,
        )
    return out


def _layers(trace_out, window, steady_traced, delta, late_p99, small,
            untraced, traced):
    """Per-layer metrics of the traced part of the run.  The per-step
    times of a request are medians over the traced steady window; counts
    and the parallel layer's per-call metrics cover the whole traced
    part, overload included."""
    import json

    import repro

    with open(trace_out, encoding="utf-8") as fh:
        data = json.load(fh)
    spans = data["spans"]
    counters = Counter(data["counters"])
    # One unit per kernel call: attribute each span to its serve.call root.
    for s in spans:
        node = s
        while node["parent"] is not None:
            node = spans[node["parent"]]
        s["unit"] = id(node) if node["name"] == "serve.call" else None
    units = sorted({s["unit"] for s in spans if s["unit"] is not None})
    steady = [s for s in spans if window[0] <= s["start_ns"] < window[1]]

    def step_ms(name: str) -> float:
        return common.median(layers.durations_ms(steady, name))

    serial_ms = common.median(
        [common.timed_median_ms(lambda: repro.spkadd(m), 5) for m in small]
    )
    p50 = common.median(untraced)
    steps = {
        "serve.client_encode_ms": common.median(
            [r["encode_ms"] for r in steady_traced]
        ),
        "serve.decode_ms": step_ms("serve.decode"),
        "serve.batch_wait_ms": step_ms("serve.batch_wait"),
        "serve.fuse_ms": step_ms("serve.fuse"),
        "serve.call_ms": step_ms("serve.call"),
        "serve.split_ms": step_ms("serve.split"),
        "serve.encode_ms": step_ms("serve.encode"),
        "serve.client_decode_ms": common.median(
            [r["decode_ms"] for r in steady_traced]
        ),
    }
    calls = delta["batches"] + delta["solo_calls"]
    return {
        **layers.kernel_core(spans, units, counters, [], []),
        **layers.parallel(spans, units, counters, serial_ms / p50),
        **steps,
        "serve.requests_per_call": (
            (delta["batched_requests"] + delta["solo_calls"]) / calls if calls else 0.0
        ),
        "serve.fused_k_mean": (
            counters["serve.fused_k"] / counters["serve.fused_calls"]
            if counters["serve.fused_calls"] else 0.0
        ),
        "serve.solo_calls": delta["solo_calls"],
        "serve.shed": delta["shed"],
        "serve.deadline_expired": delta["deadline_expired"],
        "loadgen.late_p99_ms": late_p99,
        "baseline.scipy_fold_ms": common.median(
            [common.scipy_fold_ms(m) for m in small]
        ),
        "baseline.serial_fast_ms": serial_ms,
        "trace.unattributed_ms": layers.unit_median(spans, units, "serve.call"),
        "trace.blocking_path_ms": sum(steps.values()),
        "trace.overhead_frac": common.median(traced) / p50 - 1,
    }
