"""The executors' one output path: every chunk writes into its slot.

Each stage (``serial``, ``thread``, ``shm``) allocates one output of
``ub[-1]`` entries, runs chunk ``[j0, j1)`` into ``[ub[j0], ub[j1])``
through :func:`repro.parallel.executor._write_slot`, and compacts in
place.  These tests pin the two halves of that writer:

* with the compiled kernel, fast ``hash`` and ``sliding_hash`` chunks
  write straight into their slot (no private chunk output exists), on
  the thread stage and in the shm workers, from the kernel and from a
  replayed plan;
* a private chunk is checked before it is copied in: more entries than
  its input-nnz bound, or a lossy value or index cast, raise the typed
  :class:`~repro.parallel.resilience.ChunkInvariantError` on every
  stage, without a retry or a fallback.

The shm legs run in a child interpreter with ``REPRO_MP_START=fork``,
so the workers inherit the child's patched ``_run_chunk`` (as the
fail-fast drivers of ``tests/test_pool_lifecycle.py`` do).
"""

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.api import spkadd
from repro.core.stats import KernelStats
from repro.formats.csc import CSCMatrix
from repro.kernels import native
from repro.parallel import executor as executor_mod
from repro.parallel.resilience import ChunkInvariantError
from tests.conftest import (
    assert_bit_identical,
    inject_fired,
    own_segments,
    random_collection,
)

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])
REPO_DIR = str(Path(__file__).resolve().parents[1])

#: captured at import, before any test (or child driver) patches it.
_RUN_CHUNK = executor_mod._run_chunk


def _private(method, j0, views, sorted_output, kwargs):
    """The real chunk, run into private arrays (no output slot)."""
    kwargs = {k: v for k, v in kwargs.items() if k != "out"}
    return _RUN_CHUNK(method, j0, views, sorted_output, kwargs)


def _over_bound(method, j0, views, sorted_output, kwargs):
    """A chunk with one entry more than its summed input nnz."""
    m, width = views[0].shape
    nnz = sum(v.nnz for v in views) + 1
    indptr = np.full(width + 1, nnz, dtype=np.int64)
    indptr[0] = 0
    sub = CSCMatrix((m, width), indptr, np.zeros(nnz, dtype=np.int32),
                    np.zeros(nnz), sorted=True, check=False)
    return j0, sub, KernelStats(), None


def _wide_values(method, j0, views, sorted_output, kwargs):
    """The real chunk with its float32 sums widened to float64."""
    j0, sub, st, st_sym = _private(method, j0, views, sorted_output, kwargs)
    sub = CSCMatrix(sub.shape, sub.indptr, sub.indices,
                    sub.data.astype(np.float64), sorted=sub.sorted,
                    check=False)
    return j0, sub, st, st_sym


def _wide_indices(method, j0, views, sorted_output, kwargs):
    """The real chunk with its int32 rows widened to int64."""
    j0, sub, st, st_sym = _private(method, j0, views, sorted_output, kwargs)
    sub = CSCMatrix(sub.shape, sub.indptr, sub.indices.astype(np.int64),
                    sub.data, sorted=sub.sorted, check=False)
    return j0, sub, st, st_sym


def invariant_case(name):
    """``(mats, fake _run_chunk, call kwargs, message fragment)``."""
    mats = random_collection(71, 300, 24, 4)
    if name == "over_bound":
        return mats, _over_bound, {}, "input-nnz bound"
    if name == "lossy_value":
        mats = [A.astype(np.float32) for A in mats]
        return mats, _wide_values, {}, "would lose precision"
    # An explicit int32 request beats a REPRO_INDEX_DTYPE=int64 pin, so
    # the slot stays narrower than the chunk's rows.
    return mats, _wide_indices, {"index_dtype": "int32"}, "would wrap"


INVARIANT_CASES = ("over_bound", "lossy_value", "lossy_index")


@pytest.mark.parametrize("executor", ["serial", "thread"])
@pytest.mark.parametrize("case", INVARIANT_CASES)
def test_chunk_invariant_in_process(executor, case, monkeypatch):
    mats, fake, kw, fragment = invariant_case(case)
    monkeypatch.setattr(executor_mod, "_run_chunk", fake)
    with pytest.raises(ChunkInvariantError, match=fragment):
        spkadd(mats, method="hash", threads=2, executor=executor, **kw)


def _run_driver(script_text, args, tmp_path, marker):
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method unavailable")
    script = tmp_path / "driver.py"
    script.write_text(script_text)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC_DIR, REPO_DIR] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else [])
    )
    env["REPRO_MP_START"] = "fork"
    proc = subprocess.run(
        [sys.executable, str(script), *args],
        timeout=120, capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert marker in proc.stdout, proc.stdout + proc.stderr


INVARIANT_SCRIPT = """\
import sys

import repro.parallel.executor as ex
from repro.parallel.resilience import ChunkInvariantError
from tests.conftest import own_segments
from tests.test_slot_writer import invariant_case


def main(case):
    mats, fake, kw, fragment = invariant_case(case)
    before = own_segments()
    ex._run_chunk = fake
    try:
        ex.parallel_spkadd(mats, "hash", threads=2, executor="shm", **kw)
    except ChunkInvariantError as err:
        assert fragment in str(err), err
        assert own_segments() == before, own_segments()
        print("INVARIANT-OK")
    else:
        raise SystemExit("the shm stage accepted a broken chunk")


if __name__ == "__main__":
    main(sys.argv[1])
"""


@pytest.mark.parametrize("case", INVARIANT_CASES)
def test_chunk_invariant_shm(case, tmp_path):
    _run_driver(INVARIANT_SCRIPT, [case], tmp_path, "INVARIANT-OK")


# ---------------------------------------------------------------------------
# In-place writes.
# ---------------------------------------------------------------------------


def _in_slot(method, j0, views, sorted_output, kwargs):
    """The real chunk, asserting that its arrays are views of the slot
    the writer handed it."""
    res = _RUN_CHUNK(method, j0, views, sorted_output, kwargs)
    idx_slot, dat_slot = kwargs["out"]
    sub = res[1]
    if not (np.shares_memory(sub.indices, idx_slot)
            and np.shares_memory(sub.data, dat_slot)):
        raise AssertionError(f"chunk at column {j0} wrote a private output")
    return res


@pytest.fixture
def kernel():
    if native.library() is None:
        pytest.skip(f"no native kernel: {native.fallback_reason()}")


@pytest.mark.parametrize("method", ["hash", "sliding_hash"])
def test_thread_chunks_write_into_their_slot(kernel, method, monkeypatch):
    """From the kernel and, from the third call on, from a replayed
    plan: every chunk's output is its slot."""
    mats = random_collection(72, 400, 32, 5)
    ref = spkadd(mats, method=method).matrix
    monkeypatch.setattr(executor_mod, "_run_chunk", _in_slot)
    native._clear_plans()
    hits = native._STATE.plan_hits
    for call in range(3):
        got = spkadd(mats, method=method, threads=2, executor="thread")
        assert_bit_identical(got.matrix, ref, f"{method} call {call}")
    assert native._STATE.plan_hits > hits


def test_numpy_loop_chunks_are_copied_in(monkeypatch):
    """Without the kernel a chunk is private, and the writer's copy
    gives the same bytes."""
    mats = random_collection(73, 300, 24, 4)
    ref = spkadd(mats).matrix
    copied = []

    def spy(method, j0, views, sorted_output, kwargs):
        res = _RUN_CHUNK(method, j0, views, sorted_output, kwargs)
        copied.append(not np.may_share_memory(res[1].data, kwargs["out"][1]))
        return res

    monkeypatch.setattr(native, "library", lambda: None)
    monkeypatch.setattr(executor_mod, "_run_chunk", spy)
    for executor in ("serial", "thread"):
        got = spkadd(mats, threads=2, executor=executor).matrix
        assert_bit_identical(got, ref, executor)
    assert copied and all(copied)


INPLACE_SCRIPT = """\
import sys

import repro.parallel.executor as ex
from repro.core.api import spkadd
from repro.kernels import native
from tests.conftest import assert_bit_identical, random_collection
from tests.test_slot_writer import _in_slot


def main(method):
    if native.library() is None:
        print("INPLACE-OK (no kernel)")
        return
    mats = random_collection(74, 400, 32, 5)
    ref = spkadd(mats, method=method).matrix
    ex._run_chunk = _in_slot
    for call in range(3):
        got = spkadd(mats, method=method, threads=2, executor="shm")
        assert_bit_identical(got.matrix, ref, f"shm call {call}")
    print("INPLACE-OK")


if __name__ == "__main__":
    main(sys.argv[1])
"""


@pytest.mark.parametrize("method", ["hash", "sliding_hash"])
def test_shm_chunks_write_into_their_slot(kernel, method, tmp_path):
    _run_driver(INPLACE_SCRIPT, [method], tmp_path, "INPLACE-OK")


def test_thread_retry_joins_stale_writer(monkeypatch):
    """A failed thread attempt's still-running chunk is joined before the
    retry: no chunk finishes after the call returns, where it would
    write its slot over the compacted (or shrunk) output."""
    import time

    mats = random_collection(75, 400, 32, 5)
    ref = spkadd(mats).matrix
    finished = []

    def timed(*args):
        res = _RUN_CHUNK(*args)
        finished.append(time.perf_counter())
        return res

    monkeypatch.setattr(executor_mod, "_run_chunk", timed)
    delay_s = 0.3
    with inject_fired(kill_chunk=0, delay_chunk=1, delay_s=delay_s):
        got = spkadd(mats, threads=2, executor="thread").matrix
    returned = time.perf_counter()
    time.sleep(delay_s)
    assert max(finished) < returned
    assert_bit_identical(got, ref, "thread retry")
