"""Shared-memory parallel substrate.

The paper parallelizes SpKAdd over output columns with *no* thread
synchronization: each thread owns a private accumulator (heap / SPA /
hash table) and a disjoint set of columns.  This subpackage provides

* :mod:`~repro.parallel.partition` — row/column partitioning primitives
  (equal ranges, prefix-sum weighted ranges);
* :mod:`~repro.parallel.scheduler` — static and dynamic (by-nnz)
  column schedules, the paper's load-balancing rule (Section III-A:
  input nnz weights the symbolic phase, output nnz the addition phase);
* :mod:`~repro.parallel.executor` — real thread/shared-memory/serial
  executors over column blocks (one block per worker), the CPU-budget
  split for nested parallelism, and a *simulated* executor that turns
  per-column work vectors into per-thread makespans (the scheduling
  ablation);
* :mod:`~repro.parallel.shm` — the ``multiprocessing.shared_memory``
  plumbing behind ``executor="shm"``: segment registry, spawn-safe
  attach handles, the one-wave engine that compacts its output in
  place, and zero-copy result ownership
  (:class:`~repro.parallel.shm.SharedResultOwner`);
* :mod:`~repro.parallel.pools` — the persistent worker-pool registry
  the shm engine draws from
  (:func:`~repro.parallel.pools.shutdown_pools` tears it down);
* :mod:`~repro.parallel.resilience` — the resilient-execution policy
  (chunk retry, per-call deadlines, the ``shm → thread → serial``
  fallback chain) every parallel call runs under, and ``run_wave``,
  the one retry loop every stage submits through;
* :mod:`~repro.parallel.faults` — env/API-driven fault injection
  (worker kills, chunk delays, ENOSPC, boot hangs)
  for the chaos suite and for embedders validating their own
  supervision.
"""

from repro.parallel.partition import (
    row_partition_bounds,
    split_even,
    split_weighted,
)
from repro.parallel.scheduler import (
    Schedule,
    dynamic_schedule,
    schedule_makespan,
    static_schedule,
)
from repro.parallel.executor import (
    EXECUTOR_ENV_VAR,
    EXECUTORS,
    parallel_spkadd,
    resolve_executor,
    simulate_parallel_time,
)
from repro.parallel.pools import (
    PoolRegistry,
    active_pools,
    discard_pool,
    get_pool,
    lease_pool,
    shutdown_pools,
)
from repro.parallel.shm import (
    SegmentRegistry,
    SharedArraySpec,
    SharedResultOwner,
    list_live_segments,
    sweep_orphans,
)
from repro.parallel.resilience import (
    BOOT_TIMEOUT_ENV_VAR,
    DEADLINE_ENV_VAR,
    Deadline,
    DeadlineExceeded,
    ExecutorUnusable,
    FALLBACK_ENV_VAR,
    FALLBACK_STAGES,
    MAX_RETRIES_ENV_VAR,
    PoolBootTimeout,
    ResilienceError,
    ResiliencePolicy,
    RetriesExhausted,
    ShmAllocationError,
    resolve_policy,
)
from repro.parallel import faults
from repro.parallel.faults import FAULTS_ENV_VAR, FaultPlan, InjectedFault

__all__ = [
    "EXECUTOR_ENV_VAR",
    "EXECUTORS",
    "resolve_executor",
    "BOOT_TIMEOUT_ENV_VAR",
    "DEADLINE_ENV_VAR",
    "Deadline",
    "DeadlineExceeded",
    "ExecutorUnusable",
    "FALLBACK_ENV_VAR",
    "FALLBACK_STAGES",
    "FAULTS_ENV_VAR",
    "FaultPlan",
    "InjectedFault",
    "MAX_RETRIES_ENV_VAR",
    "PoolBootTimeout",
    "ResilienceError",
    "ResiliencePolicy",
    "RetriesExhausted",
    "ShmAllocationError",
    "faults",
    "resolve_policy",
    "sweep_orphans",
    "PoolRegistry",
    "active_pools",
    "discard_pool",
    "get_pool",
    "lease_pool",
    "shutdown_pools",
    "SegmentRegistry",
    "SharedArraySpec",
    "SharedResultOwner",
    "list_live_segments",
    "row_partition_bounds",
    "split_even",
    "split_weighted",
    "Schedule",
    "dynamic_schedule",
    "schedule_makespan",
    "static_schedule",
    "parallel_spkadd",
    "simulate_parallel_time",
]
