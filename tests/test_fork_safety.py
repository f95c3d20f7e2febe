"""Fork-safety stress test for the mixed thread/shm workload.

ROADMAP (PR 3) recorded a rare CI hang: a fork-based worker pool forked
while another thread held a lock (thread pools and a persistent shm
pool coexisting in one process), deadlocking the child on the inherited
mutex.  The executors now default to the ``forkserver`` start method —
the fork server process is single-threaded, so its forks can't inherit
a held lock — and this test is the regression harness: it interleaves

* thread-pool SpKAdd calls running concurrently on a live
  ``ThreadPoolExecutor`` (threads exist while other pools start),
* a freshly booted shared-memory pool every round (a 3-worker shm
  pool, discarded after each round),
* the persistent shared-memory engine (``executor="shm"``),

for several rounds in one child interpreter, under a **hard subprocess
timeout**: if any interleaving deadlocks, the test fails with the
timeout instead of hanging CI.  Output bit-identity is asserted every
round so the stress doubles as a conformance check.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

#: the interleaving driver, run in its own interpreter so the hard
#: timeout can kill a deadlocked process tree without taking pytest
#: down with it.
STRESS_SCRIPT = """\
import os

import numpy as np
from concurrent.futures import ThreadPoolExecutor

from repro.core.api import spkadd
from repro.generators import erdos_renyi_collection
from repro.parallel.pools import active_pools, discard_pool
from repro.parallel.shm import _segment_owner_pid, list_live_segments


def main():
    mats = erdos_renyi_collection(500, 37, d=4.0, k=4, seed=21)
    ref = spkadd(mats, method="hash").matrix
    for round_no in range(4):
        # Keep a thread pool alive (its workers hold the GIL and
        # arbitrary locks at arbitrary times) WHILE shm pools start and
        # run workers — the historical hazard.
        with ThreadPoolExecutor(max_workers=4) as tp:
            thread_futs = [
                tp.submit(
                    spkadd, mats, method="hash", threads=2,
                    executor="thread",
                )
                for _ in range(2)
            ]
            fresh_shm = spkadd(
                mats, method="hash", threads=3, executor="shm"
            )
            persistent_shm = spkadd(
                mats, method="hash", threads=2, executor="shm"
            )
            results = [f.result() for f in thread_futs]
        results += [fresh_shm, persistent_shm]
        for key, pool in active_pools().items():
            if key[0] == 3:
                discard_pool(pool)  # the next round boots a fresh one
        for res in results:
            assert res.matrix.indices.dtype == ref.indices.dtype
            assert np.array_equal(res.matrix.indptr, ref.indptr)
            assert np.array_equal(res.matrix.indices, ref.indices)
            assert np.array_equal(res.matrix.data, ref.data)
    # Zero-copy shm results pin their output segment while referenced;
    # drop them before checking that nothing leaked.
    import gc

    del results, res, fresh_shm, persistent_shm
    gc.collect()
    assert [n for n in list_live_segments()
            if _segment_owner_pid(n) == os.getpid()] == []
    print("STRESS-OK")


if __name__ == "__main__":
    main()
"""

#: generous wall-clock budget: the full interleave takes a few seconds;
#: a deadlock burns the whole budget and fails loudly.
HARD_TIMEOUT_S = 240


@pytest.mark.stress
def test_interleaved_pools_complete_under_hard_timeout(tmp_path):
    script = tmp_path / "stress_driver.py"
    script.write_text(STRESS_SCRIPT)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # The fix under test is the default start method; make sure a
    # caller's REPRO_MP_START=fork doesn't mask it.
    env.pop("REPRO_MP_START", None)
    try:
        proc = subprocess.run(
            [sys.executable, str(script)],
            timeout=HARD_TIMEOUT_S,
            capture_output=True,
            text=True,
            env=env,
        )
    except subprocess.TimeoutExpired:
        pytest.fail(
            f"mixed thread/process/shm interleave did not finish within "
            f"{HARD_TIMEOUT_S}s — the fork-while-threads-hold-locks hang "
            "is back (see README 'Process pools and fork safety')"
        )
    assert proc.returncode == 0, proc.stderr
    assert "STRESS-OK" in proc.stdout


@pytest.mark.stress
def test_interleave_also_safe_under_explicit_forkserver(tmp_path):
    """Pin REPRO_MP_START=forkserver explicitly (the satellite's exact
    configuration) rather than relying on it being the default."""
    script = tmp_path / "stress_driver_fs.py"
    script.write_text(STRESS_SCRIPT)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_MP_START"] = "forkserver"
    try:
        proc = subprocess.run(
            [sys.executable, str(script)],
            timeout=HARD_TIMEOUT_S,
            capture_output=True,
            text=True,
            env=env,
        )
    except subprocess.TimeoutExpired:
        pytest.fail(
            f"forkserver-pinned interleave did not finish within "
            f"{HARD_TIMEOUT_S}s"
        )
    assert proc.returncode == 0, proc.stderr
    assert "STRESS-OK" in proc.stdout
