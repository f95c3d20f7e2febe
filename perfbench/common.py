"""Helpers shared by the workloads: statistics, correctness checks,
input variation, baselines, clean-state checks and the machine record."""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import time
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

#: run scratch (gateway socket, server logs, trace files), inside the
#: checkout and ignored by git.
RUN_DIR = ".perfbench"


def ms(seconds: float) -> float:
    return seconds * 1e3


def median(xs: Sequence[float]) -> float:
    return float(statistics.median(xs)) if len(xs) else 0.0


def tail(xs: Sequence[float]) -> Tuple[str, float]:
    """The highest of p99 / p90 with at least ten samples beyond it;
    the median when the sample supports neither."""
    n = len(xs)
    for q, label in ((99, "p99"), (90, "p90")):
        if n * (100 - q) / 100 >= 10:
            return label, float(np.percentile(xs, q))
    return "p50", median(xs)


def same_bytes(got, ref) -> bool:
    """Byte-for-byte equality of two CSC matrices (shape, dtypes,
    ``indptr``, ``indices`` and ``data``)."""
    return (
        tuple(got.shape) == tuple(ref.shape)
        and all(
            getattr(got, a).dtype == getattr(ref, a).dtype
            and getattr(got, a).tobytes() == getattr(ref, a).tobytes()
            for a in ("indptr", "indices", "data")
        )
    )


def permute_columns(A, q: np.ndarray):
    """``A[:, q]`` as a new CSC matrix (row order inside each column is
    kept, so a sorted matrix stays sorted).

    Applying one permutation to every addend and to their sum gives a
    new collection with a new sparsity pattern, the same statistics, and
    a reference answer without another SpKAdd.
    """
    from repro.formats.csc import CSCMatrix

    counts = np.diff(A.indptr)[q]
    indptr = np.zeros(A.indptr.size, dtype=A.indptr.dtype)
    np.cumsum(counts, out=indptr[1:])
    total = int(indptr[-1])
    starts = A.indptr[q].astype(np.int64)
    src = np.repeat(starts - indptr[:-1].astype(np.int64), counts)
    src += np.arange(total, dtype=np.int64)
    return CSCMatrix(
        A.shape, indptr, A.indices[src], A.data[src], sorted=A.sorted,
        check=False,
    )


def scipy_fold_ms(mats, repeats: int = 5) -> float:
    """Median time of a plain ``scipy.sparse`` pairwise fold
    ``((A0 + A1) + A2) + ...`` of ``mats``, converted outside the timing."""
    import scipy.sparse as sp

    sps = [
        sp.csc_matrix((A.data, A.indices, A.indptr), shape=A.shape)
        for A in mats
    ]

    def fold():
        acc = sps[0]
        for B in sps[1:]:
            acc = acc + B
        return acc

    return timed_median_ms(fold, repeats)


def timed_median_ms(fn: Callable, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return ms(median(times))


def timed_setups(setup: Callable, teardown: Callable = None, repeats: int = 3):
    """Run ``setup()`` ``repeats`` times; returns (median seconds, the
    last set-up's state).  ``teardown(state)`` releases each earlier
    state before the next set-up, outside the timing."""
    times = []
    state = None
    for _ in range(repeats):
        if state is not None:
            if teardown is not None:
                teardown(state)
            state = None
            gc.collect()
        t0 = time.perf_counter()
        state = setup()
        times.append(time.perf_counter() - t0)
    return median(times), state


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class ClosedLoop:
    """One caller that waits for each unit of work before the next.

    In trace mode every second unit is traced, so the traced and
    untraced units of one run give the tracing overhead.  A unit that
    raises is counted as failed and the loop goes on.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.lat_ms: List[float] = []        # untraced units
        self.labels: List[str] = []          # input shape of each
        self.traced_ms: List[float] = []
        self.work = 0                        # input nonzeros processed
        self.busy_s = 0.0
        self.attempted = 0
        self.failed = 0

    def traced(self, i: int) -> bool:
        return self.tracer is not None and i % 2 == 1

    def call(self, i: int, fn: Callable, label: str = ""):
        """Run ``fn()`` as unit ``i``; its result, or None if it raised."""
        self.attempted += 1
        traced = self.traced(i)
        if self.tracer is not None:
            self.tracer.enabled = traced
            self.tracer.unit = i
        t0 = time.perf_counter()
        try:
            if traced:
                with self.tracer.span("unit"):
                    res = fn()
            else:
                res = fn()
        except Exception as err:  # a failed unit is counted, not fatal
            self.failed += 1
            print(f"unit {i} failed: {type(err).__name__}: {err}")
            return None
        finally:
            if self.tracer is not None:
                self.tracer.enabled = False
        dt = time.perf_counter() - t0
        self.busy_s += dt
        if traced:
            self.traced_ms.append(ms(dt))
        else:
            self.lat_ms.append(ms(dt))
            self.labels.append(label)
        return res

    def check(self, ok: bool) -> None:
        if not ok:
            self.failed += 1

    def e2e(self, setup_s: float) -> Dict[str, float]:
        lat = self.lat_ms
        label, value = tail(lat)
        print(f"samples={len(lat)} lat_tail={label}")
        for shape in sorted(set(self.labels) - {""}):
            xs = [x for x, s in zip(lat, self.labels) if s == shape]
            print(f"  {shape}: n={len(xs)} p50={median(xs):.2f} ms")
        return {
            "setup_s": setup_s,
            "lat_p50_ms": median(lat),
            "lat_tail_ms": value,
            "throughput_mnnz_s": self.work / self.busy_s / 1e6,
            "goodput_rps": (self.attempted - self.failed) / self.busy_s,
            "peak_rss_mb": peak_rss_mb(),
        }


# ---------------------------------------------------------------------------
# Clean state: segments, processes.
# ---------------------------------------------------------------------------


def descendants(pid: int = None) -> List[int]:
    """PIDs of every live descendant of ``pid`` (default: this process),
    read from ``/proc``."""
    root = os.getpid() if pid is None else pid
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read()
        except OSError:
            continue
        fields = stat[stat.rfind(b")") + 2:].split()
        if fields[0] == b"Z":
            continue
        children.setdefault(int(fields[1]), []).append(int(entry))
    out, todo = [], [root]
    while todo:
        for child in children.get(todo.pop(), []):
            out.append(child)
            todo.append(child)
    return out


def live_segments() -> List[str]:
    from repro.parallel.shm import list_live_segments

    gc.collect()
    return list_live_segments()


def stop_helpers() -> None:
    """Stop every process the multiprocessing machinery started for
    this process (pool workers, fork server, resource tracker) and wait
    for each to exit."""
    import repro
    from multiprocessing import forkserver, resource_tracker

    repro.shutdown_pools(wait=True)
    gc.collect()
    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


# ---------------------------------------------------------------------------
# Machine record.
# ---------------------------------------------------------------------------


def machine_record(seed: int) -> Dict[str, object]:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(base):
        for index in sorted(os.listdir(base)):
            path = os.path.join(base, index)
            try:
                with open(os.path.join(path, "level")) as fh:
                    level = fh.read().strip()
                with open(os.path.join(path, "type")) as fh:
                    kind = fh.read().strip()
                with open(os.path.join(path, "size")) as fh:
                    size = fh.read().strip()
            except OSError:
                continue
            caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = size
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
    }
