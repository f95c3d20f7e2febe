"""Gateway tests: fusion bit-identity, shedding, deadlines, recovery.

The server runs on a background event-loop thread inside the test
process (``start_in_thread``), which keeps the suite hermetic *and*
lets ``faults.inject`` reach the gateway's kernel calls — the chaos
legs drive real worker faults through the service path.
"""

import os
import threading
import time
import uuid

import numpy as np
import pytest

import repro
from repro.serve import (
    GatewayClient,
    GatewayConfig,
    RequestInvalid,
    ShedError,
    start_in_thread,
)
from repro.serve.batcher import BatchKey, fuse_requests, split_result
from tests.conftest import (
    assert_bit_identical,
    inject_fired,
    random_collection,
    shm_entries,
)


def _sock() -> str:
    # AF_UNIX paths are capped at ~107 bytes; tmp_path can blow that.
    return f"/tmp/repro-gw-{os.getpid()}-{uuid.uuid4().hex[:8]}.sock"


@pytest.fixture(autouse=True)
def _in_process(monkeypatch):
    """Keep the gateway's kernel calls in process (hermetic and fast)
    even on suite runs that set ``REPRO_EXECUTOR=shm``."""
    monkeypatch.delenv("REPRO_EXECUTOR", raising=False)


def _config(**kw) -> GatewayConfig:
    kw.setdefault("socket_path", _sock())
    kw.setdefault("threads", 2)
    kw.setdefault("batch_window_s", 0.05)
    return GatewayConfig(**kw)


# ---------------------------------------------------------------------------
# Fusion unit tests (no server).
# ---------------------------------------------------------------------------


class _Req:
    def __init__(self, mats, index_dtype=None):
        self.mats = mats
        self.index_dtype = index_dtype


def test_fuse_split_bit_identical_to_serial():
    reqs = [_Req(random_collection(seed=s, m=256, n=8 + s, k=3 + s % 3))
            for s in range(5)]
    fused, spans = fuse_requests(reqs)
    assert len(fused) == sum(len(r.mats) for r in reqs)
    assert fused[0].shape[1] == sum(r.mats[0].shape[1] for r in reqs)
    out = repro.spkadd(fused).matrix
    parts = split_result(out, reqs, spans)
    for req, got in zip(reqs, parts):
        assert_bit_identical(got, repro.spkadd(req.mats).matrix, "fused")


def _float_pool_request(seed, dtype):
    """Four 6-row addends of 40 entries each, values drawn from the
    adversarial :data:`tests.test_native.FLOAT_POOL`, many duplicates."""
    from tests.test_native import FLOAT_POOL, column_collection

    rng = np.random.default_rng(seed)
    columns = [
        [(int(rng.integers(0, 6)), int(rng.integers(0, 8 + seed)),
          FLOAT_POOL[int(rng.integers(0, len(FLOAT_POOL)))])
         for _ in range(40)]
        for _ in range(4)
    ]
    return _Req(column_collection(columns, 6, dtype))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("threads, executor", [
    (1, None), (2, "serial"), (2, "thread"), (2, "shm"),
])
def test_fuse_split_float_pool_bit_identical_to_serial(
    dtype, threads, executor
):
    """The numerical contract through the gateway's fuse/split: NaN,
    inf, signed zeros, subnormals and cancellation come back byte for
    byte as each request's own serial call gives them."""
    with np.errstate(over="ignore", invalid="ignore"):
        reqs = [_float_pool_request(s, dtype) for s in range(4)]
        fused, spans = fuse_requests(reqs)
        out = repro.spkadd(fused, threads=threads, executor=executor).matrix
        parts = split_result(out, reqs, spans)
        for i, (req, got) in enumerate(zip(reqs, parts)):
            assert_bit_identical(
                got, repro.spkadd(req.mats).matrix, f"request {i}"
            )


def test_split_recasts_to_solo_index_width(monkeypatch):
    """A request pinned to int64 must come back int64 even when the
    fused call resolves int32."""
    # An ambient int64 pin would widen the fused call too.
    monkeypatch.delenv("REPRO_INDEX_DTYPE", raising=False)
    reqs = [_Req(random_collection(seed=1, m=64, n=8, k=2)),
            _Req(random_collection(seed=2, m=64, n=8, k=2),
                 index_dtype="int64")]
    fused, spans = fuse_requests(reqs)
    out = repro.spkadd(fused).matrix
    assert out.indices.dtype == np.int32  # the fused call stayed narrow
    parts = split_result(out, reqs, spans)
    assert parts[0].indices.dtype == np.int32
    assert parts[1].indices.dtype == np.int64
    assert_bit_identical(
        parts[1],
        repro.spkadd(reqs[1].mats, index_dtype="int64").matrix,
        "widened",
    )


def test_batch_key_separates_value_dtypes():
    f32 = [m.astype(np.float32) for m in random_collection(3, 64, 8, 2)]
    f64 = random_collection(seed=3, m=64, n=8, k=2)
    key32 = BatchKey.for_request(f32, "hash", "", True)
    key64 = BatchKey.for_request(f64, "hash", "", True)
    assert key32 != key64  # mixing would promote the f32 request


# ---------------------------------------------------------------------------
# End-to-end roundtrips.
# ---------------------------------------------------------------------------


def test_roundtrip_bit_identical_to_serial():
    cfg = _config()
    with start_in_thread(cfg), GatewayClient(cfg.socket_path) as gw:
        for seed in range(4):
            mats = random_collection(seed=seed, m=512, n=24, k=4)
            assert_bit_identical(
                gw.submit(mats), repro.spkadd(mats).matrix, f"seed {seed}"
            )


def test_concurrent_clients_fuse_to_higher_k():
    """N concurrent clients each get their exact serial answer, and the
    server's fused k exceeds any single request's k — the paper's
    grows-with-k advantage, manufactured by the batcher."""
    burst, k_each = 8, 3
    cfg = _config(batch_window_s=0.25, batch_max=burst)
    failures = []
    barrier = threading.Barrier(burst)

    def worker(seed):
        try:
            mats = random_collection(seed=seed, m=256, n=16, k=k_each)
            expect = repro.spkadd(mats).matrix
            barrier.wait(timeout=30)
            with GatewayClient(cfg.socket_path) as gw:
                assert_bit_identical(gw.submit(mats), expect, f"seed {seed}")
        except Exception as err:  # noqa: BLE001 - collected for the assert
            failures.append((seed, err))

    with start_in_thread(cfg):
        threads = [threading.Thread(target=worker, args=(s,))
                   for s in range(burst)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        with GatewayClient(cfg.socket_path) as gw:
            stats = gw.stats()
    assert not failures, failures
    assert stats["completed"] == burst
    assert stats["fused_k_max"] > k_each, stats
    assert stats["batched_requests"] >= 2


def test_shm_response_and_release():
    cfg = _config()
    with start_in_thread(cfg), GatewayClient(cfg.socket_path) as gw:
        mats = random_collection(seed=11, m=512, n=24, k=4)
        expect = repro.spkadd(mats).matrix
        res = gw.submit(mats, response="shm")
        seg = shm_entries("repro*")
        assert seg, "shm response should live in a repro segment"
        assert_bit_identical(res.materialize(), expect, "shm response")
        res.release()
        time.sleep(0.2)  # the release frame is fire-and-forget
        stats = gw.stats()
        assert stats["released_leases"] == 1


def test_shm_transport_request():
    cfg = _config()
    with start_in_thread(cfg), GatewayClient(cfg.socket_path) as gw:
        mats = random_collection(seed=12, m=512, n=24, k=4)
        assert_bit_identical(
            gw.submit(mats, transport="shm"),
            repro.spkadd(mats).matrix,
            "shm transport",
        )


def test_large_requests_take_the_solo_lane():
    cfg = _config(small_nnz=64)  # force everything past the batcher
    with start_in_thread(cfg), GatewayClient(cfg.socket_path) as gw:
        mats = random_collection(seed=13, m=512, n=24, k=4,
                                 nnz_lo=40, nnz_hi=80)
        assert_bit_identical(gw.submit(mats), repro.spkadd(mats).matrix,
                             "solo lane")
        stats = gw.stats()
        assert stats["solo_calls"] == 1
        assert stats["batches"] == 0


# ---------------------------------------------------------------------------
# Typed error frames: invalid, shed, deadline.
# ---------------------------------------------------------------------------


def test_invalid_requests_get_typed_error():
    cfg = _config()
    with start_in_thread(cfg), GatewayClient(cfg.socket_path) as gw:
        mats = random_collection(seed=21, m=128, n=8, k=2)
        with pytest.raises(RequestInvalid, match="threads must be >= 1"):
            gw.submit(mats, threads=0)
        with pytest.raises(RequestInvalid, match="deadline_s must be"):
            gw.submit(mats, deadline_s=-1)
        with pytest.raises(ValueError, match="unknown"):
            gw.submit(mats, method="warp9")
        # a mismatched shape must not reinterpret under mats[0]'s
        # shape and sum silently wrong
        tall = random_collection(seed=23, m=256, n=8, k=1)
        with pytest.raises(ValueError, match="share one shape"):
            gw.submit(mats + tall)
        # the connection survives typed errors
        assert_bit_identical(gw.submit(mats), repro.spkadd(mats).matrix,
                             "after errors")


def test_queue_overflow_sheds_with_typed_error():
    cfg = _config(max_queue=1, batch_max=1, parallel_calls=1)
    with start_in_thread(cfg):
        mats = random_collection(seed=22, m=256, n=16, k=3)
        errs, done = [], []

        def slow_submit():
            with GatewayClient(cfg.socket_path) as gw:
                done.append(gw.submit(mats))

        # The plan is process-wide: only the slow request runs a kernel.
        with inject_fired(delay_chunk=0, delay_s=1.5):
            t = threading.Thread(target=slow_submit)
            t.start()
            try:
                with GatewayClient(cfg.socket_path) as gw:
                    deadline = time.monotonic() + 5
                    while time.monotonic() < deadline:
                        if gw.stats()["in_flight"] >= 1:
                            break
                        time.sleep(0.01)
                    else:
                        pytest.fail("first request never became in-flight")
                    with pytest.raises(ShedError, match="capacity"):
                        gw.submit(mats)
                    assert gw.stats()["shed"] == 1
            finally:
                t.join(timeout=30)
        assert len(done) == 1  # the slow request still completed


def test_deadline_expires_with_typed_error_within_2x():
    """A hung worker must not hold a request past its budget: the
    deadline surfaces as the typed error, within 2x the budget."""
    budget = 0.4
    cfg = _config(batch_max=1, batch_window_s=0.0)
    with start_in_thread(cfg), GatewayClient(cfg.socket_path) as gw:
        mats = random_collection(seed=23, m=256, n=16, k=3)
        with inject_fired(delay_chunk=0, delay_s=30.0):
            t0 = time.monotonic()
            with pytest.raises(repro.DeadlineExceeded):
                gw.submit(mats, deadline_s=budget)
            elapsed = time.monotonic() - t0
        assert elapsed < 2 * budget, f"deadline overran: {elapsed:.2f}s"
        assert gw.stats()["deadline_expired"] == 1


@pytest.mark.parametrize("executor", ["thread", "shm"])
def test_default_threads_call_honours_its_deadline(monkeypatch, executor):
    """On a 2-CPU budget ``GatewayConfig()`` runs its kernel calls at
    threads=1; they still run on ``REPRO_EXECUTOR``'s executor and end
    at the request's deadline."""
    from repro.parallel import executor as executor_mod
    from repro.parallel.pools import active_pools, shutdown_pools

    monkeypatch.setattr(executor_mod, "cpu_budget", lambda: 2)
    monkeypatch.setenv("REPRO_EXECUTOR", executor)
    shutdown_pools()
    budget = 0.4
    cfg = GatewayConfig(socket_path=_sock(), batch_max=1, batch_window_s=0.0)
    assert cfg.threads == 1
    mats = random_collection(seed=24, m=256, n=16, k=3)
    with start_in_thread(cfg), GatewayClient(cfg.socket_path) as gw:
        stats = gw.stats()
        assert (stats["executor"], stats["threads"]) == (executor, 1)
        assert_bit_identical(gw.submit(mats), repro.spkadd(mats).matrix,
                             f"default threads on {executor}")
        assert bool(active_pools()) == (executor == "shm")
        with inject_fired(delay_chunk=0, delay_s=30.0):
            t0 = time.monotonic()
            with pytest.raises(repro.DeadlineExceeded):
                gw.submit(mats, deadline_s=budget)
            elapsed = time.monotonic() - t0
        assert elapsed < 2 * budget, f"deadline overran: {elapsed:.2f}s"
        assert gw.stats()["deadline_expired"] == 1
    shutdown_pools()


def test_batch_survives_one_members_tight_deadline():
    """A fused batch whose tightest member expires re-runs the
    survivors solo: batch-mates still get their exact answers."""
    burst = 4
    # batch_max > burst: the flush comes from the 0.3s window, so
    # member 0's 0.05s budget has expired by the time the batch runs.
    cfg = _config(batch_window_s=0.3, batch_max=burst * 2)
    outcomes = {}
    barrier = threading.Barrier(burst)

    def worker(seed):
        mats = random_collection(seed=seed, m=256, n=16, k=3)
        expect = repro.spkadd(mats).matrix
        # member 0's budget expires inside the batch window
        deadline = 0.05 if seed == 0 else None
        barrier.wait(timeout=30)
        try:
            with GatewayClient(cfg.socket_path) as gw:
                got = gw.submit(mats, deadline_s=deadline)
            assert_bit_identical(got, expect, f"seed {seed}")
            outcomes[seed] = "ok"
        except repro.DeadlineExceeded:
            outcomes[seed] = "deadline"
        except Exception as err:  # noqa: BLE001
            outcomes[seed] = err

    with start_in_thread(cfg):
        threads = [threading.Thread(target=worker, args=(s,))
                   for s in range(burst)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert outcomes[0] == "deadline", outcomes
    assert all(outcomes[s] == "ok" for s in range(1, burst)), outcomes


def test_injected_worker_fault_recovers_bit_identical():
    """A killed chunk inside the gateway's kernel call retries into the
    exact serial answer — the resilience chain works through the
    service path."""
    cfg = _config(batch_max=1)
    with start_in_thread(cfg), GatewayClient(cfg.socket_path) as gw:
        mats = random_collection(seed=24, m=256, n=16, k=3)
        with inject_fired(kill_chunk=0):
            got = gw.submit(mats)
        assert_bit_identical(got, repro.spkadd(mats).matrix, "post-fault")


# ---------------------------------------------------------------------------
# Transport resilience + resource hygiene.
# ---------------------------------------------------------------------------


def test_client_reconnects_after_server_restart():
    path = _sock()
    mats = random_collection(seed=31, m=256, n=16, k=3)
    expect = repro.spkadd(mats).matrix
    gw = GatewayClient(path)
    try:
        with start_in_thread(GatewayConfig(socket_path=path)):
            assert_bit_identical(gw.submit(mats), expect, "first server")
        # server gone: the held connection is now dead
        with start_in_thread(GatewayConfig(socket_path=path)):
            assert_bit_identical(gw.submit(mats), expect, "reconnected")
    finally:
        gw.close()


def test_soak_no_fd_shm_or_child_growth():
    """Sustained mixed traffic must not grow file descriptors,
    ``/dev/shm`` entries, or child processes."""
    import multiprocessing

    cfg = _config(batch_max=4, batch_window_s=0.0)
    mats = random_collection(seed=41, m=256, n=16, k=3)
    expect = repro.spkadd(mats).matrix
    with start_in_thread(cfg), GatewayClient(cfg.socket_path) as gw:
        for _ in range(5):  # warm-up: pools, lazy imports, socket
            gw.submit(mats)
        fd0 = len(os.listdir("/proc/self/fd"))
        shm0 = len(shm_entries())
        kids0 = len(multiprocessing.active_children())
        for i in range(60):
            if i % 3 == 2:
                res = gw.submit(mats, response="shm")
                assert_bit_identical(res.materialize(), expect, "soak shm")
                res.release()
            else:
                assert_bit_identical(gw.submit(mats), expect, "soak")
        time.sleep(0.2)  # let fire-and-forget releases land
        assert len(os.listdir("/proc/self/fd")) <= fd0 + 2
        assert len(shm_entries()) <= shm0
        assert len(multiprocessing.active_children()) <= kids0
        stats = gw.stats()
        assert stats["in_flight"] == 0
        assert stats["completed"] == 65


def test_disconnect_releases_shm_leases():
    cfg = _config()
    with start_in_thread(cfg):
        mats = random_collection(seed=42, m=256, n=16, k=3)
        with GatewayClient(cfg.socket_path) as gw:
            res = gw.submit(mats, response="shm")
            name = shm_entries("repro*")
            assert name
            res.matrix = None  # drop views without sending release
            res._attachments.close()
        # connection closed with the lease outstanding
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            if not shm_entries("repro*"):
                break
            time.sleep(0.05)
        assert not shm_entries("repro*"), "lease leaked"


def test_gateway_default_runs_in_process():
    """With ``REPRO_EXECUTOR`` unset, the gateway's solo and fused
    kernel calls run in process: answering both boots no worker pool,
    and both answers are the serial bytes."""
    from repro.parallel.pools import active_pools, shutdown_pools

    shutdown_pools()
    cfg = GatewayConfig(socket_path=_sock(), batch_window_s=0.5,
                        batch_max=2)
    pair = [random_collection(seed=s, m=256, n=16, k=3) for s in (61, 62)]
    big = random_collection(seed=63, m=512, n=24, k=4)
    barrier = threading.Barrier(len(pair))
    got = [None] * len(pair)

    def fused(i):
        barrier.wait(timeout=30)
        with GatewayClient(cfg.socket_path) as gw:
            got[i] = gw.submit(pair[i])

    with start_in_thread(cfg), GatewayClient(cfg.socket_path) as gw:
        threads = [threading.Thread(target=fused, args=(i,))
                   for i in range(len(pair))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        solo = gw.submit(big, threads=2)
        stats = gw.stats()
        assert stats["executor"] == "thread"
        assert stats["batches"] == 1 and stats["solo_calls"] == 1, stats
        assert active_pools() == {}
    for i, mats in enumerate(pair):
        assert_bit_identical(got[i], repro.spkadd(mats).matrix, f"fused {i}")
    assert_bit_identical(solo, repro.spkadd(big).matrix, "solo")


@pytest.mark.slow
def test_gateway_over_shm_executor_end_to_end(monkeypatch):
    """``REPRO_EXECUTOR=shm`` puts the gateway's kernel calls on the
    persistent shm worker pools."""
    monkeypatch.setenv("REPRO_EXECUTOR", "shm")
    cfg = _config(threads=2)
    with start_in_thread(cfg), GatewayClient(cfg.socket_path) as gw:
        assert gw.stats()["executor"] == "shm"
        for seed in (51, 52):
            mats = random_collection(seed=seed, m=512, n=24, k=4)
            assert_bit_identical(
                gw.submit(mats), repro.spkadd(mats).matrix, f"shm {seed}"
            )
