"""Column schedules: static vs dynamic (by-nnz) load balancing.

The paper (Section III-A): "for matrices with skewed nonzero
distributions such as RMAT matrices ... a static scheduling of threads
hurts the parallel performance.  In the symbolic phase we use total
input non-zeros per column and in addition phase we use total output
non-zeros per column to balance loads dynamically."

We model OpenMP's behaviour: *static* hands thread t the t-th
contiguous slice of columns; *dynamic* hands out fixed-size chunks in
order to whichever thread finishes first (list scheduling), which with
cost-proportional weights approximates the paper's balancing.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from repro.parallel.partition import split_even


@dataclass
class Schedule:
    """Assignment of contiguous column chunks to threads.

    ``assignments[t]`` is the list of ``(j0, j1)`` chunks given to
    thread ``t``, in execution order.
    """

    threads: int
    assignments: List[List[Tuple[int, int]]] = field(default_factory=list)
    policy: str = "static"

    def makespan(self, col_costs: np.ndarray) -> float:
        """Parallel completion time in cost units = max thread load."""
        prefix = np.concatenate([[0.0], np.cumsum(col_costs)])
        loads = [
            sum(prefix[j1] - prefix[j0] for j0, j1 in chunks)
            for chunks in self.assignments
        ]
        return float(max(loads)) if loads else 0.0

    def imbalance(self, col_costs: np.ndarray) -> float:
        """makespan / (total/threads) — 1.0 is perfect balance."""
        total = float(np.sum(col_costs))
        if total == 0:
            return 1.0
        return self.makespan(col_costs) * self.threads / total


def static_schedule(n_cols: int, threads: int) -> Schedule:
    """OpenMP ``schedule(static)``: one contiguous slice per thread."""
    chunks = split_even(n_cols, threads)
    return Schedule(threads, [[c] for c in chunks], policy="static")


def dynamic_schedule(
    col_costs: np.ndarray,
    threads: int,
    *,
    chunk: int = 1,
) -> Schedule:
    """OpenMP ``schedule(dynamic, chunk)`` driven by per-column costs.

    Chunks of ``chunk`` consecutive columns are dispatched in order to
    the earliest-finishing thread (simulated with a min-heap of thread
    completion times) — the standard work-queue model.
    """
    col_costs = np.asarray(col_costs, dtype=np.float64)
    n = col_costs.shape[0]
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    prefix = np.concatenate([[0.0], np.cumsum(col_costs)])
    assignments: List[List[Tuple[int, int]]] = [[] for _ in range(threads)]
    ready = [(0.0, t) for t in range(threads)]
    heapq.heapify(ready)
    j0 = 0
    while j0 < n:
        j1 = min(j0 + chunk, n)
        t_free, t = heapq.heappop(ready)
        assignments[t].append((j0, j1))
        heapq.heappush(ready, (t_free + float(prefix[j1] - prefix[j0]), t))
        j0 = j1
    return Schedule(threads, assignments, policy=f"dynamic[{chunk}]")


def schedule_makespan(
    col_costs: Sequence[float],
    threads: int,
    *,
    policy: str = "dynamic",
    chunk: int = 1,
) -> float:
    """Convenience: makespan of ``policy`` over ``col_costs``."""
    costs = np.asarray(col_costs, dtype=np.float64)
    if policy == "static":
        sched = static_schedule(costs.shape[0], threads)
    elif policy == "dynamic":
        sched = dynamic_schedule(costs, threads, chunk=chunk)
    else:
        raise ValueError(
            f"unknown policy {policy!r}; choose 'static' or 'dynamic'"
        )
    return sched.makespan(costs)
