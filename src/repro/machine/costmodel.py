"""Calibrated cost model: KernelStats -> simulated seconds.

The model converts the *measured* quantities every kernel records into a
runtime prediction for a target :class:`~repro.machine.spec.MachineSpec`
and thread count:

``compute``
    ``ops * cycles_per_op(algorithm)`` — the data-structure work.
``memory latency``
    for each (table_bytes -> accesses) bucket of random table traffic,
    an extra per-access latency chosen by which cache level the per-
    thread working set fits in; spilling sets pay the analytic miss
    fraction times the next level's latency (this term creates the
    Fig 2 hash/sliding-hash boundary and the right side of Fig 4's
    U-curves).
``bandwidth``
    streamed bytes / machine DRAM bandwidth, *not* divided by threads —
    the shared-resource term that saturates 2-way scaling in Fig 3.
``overhead``
    per-partition fixed costs of the sliding algorithms
    (``parts * n_cols * (c_part + k * c_search)``) — the left side of
    Fig 4's U-curves.
``parallel time``
    per-thread compute+latency divided by T, multiplied by the schedule
    imbalance computed from the per-column op vector (static vs
    dynamic, Section III-A), then combined with the bandwidth floor.

Per-algorithm ``cycles_per_op`` constants are *calibrated*: a single
Table III anchor cell per algorithm fixes the constant, all other
cells/figures are model predictions (see
:mod:`repro.experiments.calibration`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.core.stats import KernelStats
from repro.machine.cache import analytic_miss_fraction
from repro.machine.spec import MachineSpec

#: Uncalibrated per-op cycle costs.  These are physically plausible
#: C-code costs used before calibration replaces them (and in tests):
#: a merge step ~ 8 cycles, a hash probe ~ 10, a SPA touch ~ 6, a heap
#: level ~ 12 (compare+swap), scipy/MKL pairwise ~ 20 (library overhead).
DEFAULT_CYCLES_PER_OP: Dict[str, float] = {
    "2way_incremental": 8.0,
    "2way_tree": 8.0,
    "scipy_incremental": 20.0,
    "scipy_tree": 20.0,
    "heap": 12.0,
    "spa": 6.0,
    "hash": 10.0,
    "hash_symbolic": 8.0,
    "sliding_hash": 10.0,
    "sliding_hash_symbolic": 8.0,
    "streaming": 10.0,
    "default": 10.0,
}

#: Fixed overhead charged per (partition x column) by sliding kernels,
#: plus a per-input-matrix binary-search term (Alg 7/8 line 9).
PART_FIXED_CYCLES = 60.0
PART_SEARCH_CYCLES = 25.0

#: SPA initialization: the dense length-m accumulator must be allocated
#: and first-touched by every thread (the O(T*m) memory the paper blames
#: for SPA's behaviour).  Cycles per SPA slot, fitted once to the
#: d=16 column of Table III where SPA's runtime is almost pure init
#: (0.1237s for m=4M at 2.1GHz ~= 65 cycles/slot).
SPA_INIT_CYCLES = 65.0

#: Constant parallel-region launch/teardown per phase (OpenMP fork +
#: barrier), visible only in sub-millisecond cells.
PHASE_LAUNCH_SECONDS = 1.5e-4

#: Extra cycles per byte of freshly *allocated* intermediate output
#: (page faults + zero fill): the hidden cost of the pairwise
#: algorithms, which materialize a new partial-sum matrix per merge.
ALLOC_CYCLES_PER_BYTE = 1.5


def algorithm_family(name: str, table: Optional[Dict[str, float]] = None) -> str:
    """Resolve a stats.algorithm string to a constants key.

    Exact match on the base name (before any ``[...]`` suffix) wins,
    then the longest prefix among known keys, then ``"default"``.
    """
    base = name.split("[")[0]
    keys = table if table is not None else DEFAULT_CYCLES_PER_OP
    if base in keys:
        return base
    best = ""
    for key in keys:
        if key != "default" and base.startswith(key) and len(key) > len(best):
            best = key
    return best or "default"


@dataclass
class SimulatedTime:
    """Decomposed simulated runtime (seconds).

    Components scale differently when a reduced-scale run is
    extrapolated to paper scale: ``compute``/``memory``/``overhead``/
    ``bandwidth`` are *work* terms (scale with total entries);
    ``init`` is a *capacity* term (scales with the data-structure /
    matrix dimension, e.g. SPA's O(m) first touch); ``fixed`` is a
    constant (parallel-region launch).
    """

    compute: float = 0.0
    memory: float = 0.0
    bandwidth: float = 0.0
    overhead: float = 0.0
    init: float = 0.0
    fixed: float = 0.0
    imbalance: float = 1.0

    def extrapolate(self, work_factor: float, capacity_factor: float = 1.0) -> float:
        """Total seconds after scaling each component by its factor.

        Per-thread compute/latency/overhead overlap with the shared
        bandwidth floor (max); init and fixed costs add on top.
        """
        work = max(self.compute + self.memory + self.overhead, self.bandwidth)
        return work * work_factor + self.init * capacity_factor + self.fixed

    @property
    def total(self) -> float:
        """Unscaled total (the reduced-instance prediction)."""
        return self.extrapolate(1.0, 1.0)

    def __add__(self, other: "SimulatedTime") -> "SimulatedTime":
        return SimulatedTime(
            self.compute + other.compute,
            self.memory + other.memory,
            self.bandwidth + other.bandwidth,
            self.overhead + other.overhead,
            self.init + other.init,
            self.fixed + other.fixed,
            max(self.imbalance, other.imbalance),
        )


@dataclass
class CostModel:
    """Runtime predictor for one machine + thread count."""

    machine: MachineSpec
    threads: int = 1
    cycles_per_op: Dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_CYCLES_PER_OP)
    )
    schedule: str = "dynamic"
    schedule_chunk: int = 1

    # ----------------------------------------------------------- internals
    def _access_extra_cycles(self, table_bytes: float, avg_table_bytes: float = None) -> float:
        """Extra *latency* per random access into a structure of
        ``table_bytes``, beyond the L1-hit cost folded into
        cycles_per_op.

        Only in-cache levels contribute latency (out-of-order cores
        overlap ``mlp`` outstanding accesses, so each costs
        latency/mlp).  LLC *misses* are charged as DRAM traffic by
        :meth:`_miss_bytes` instead — a miss consumes a full cache line
        of shared bandwidth, which is what actually throttles
        many-thread runs.
        """
        mc = self.machine
        if table_bytes <= mc.l1_bytes:
            return 0.0
        mlp = max(mc.mlp_random, 1.0)
        if mc.l2_bytes and table_bytes <= mc.l2_bytes:
            return (mc.lat_l2_cycles - mc.lat_l1_cycles) / mlp
        shared_ws = self._shared_ws(table_bytes, avg_table_bytes)
        llc_extra = (mc.lat_llc_cycles - mc.lat_l1_cycles) / mlp
        if shared_ws <= mc.llc_bytes:
            return llc_extra
        miss = analytic_miss_fraction(shared_ws, mc.llc_bytes)
        return llc_extra + miss * (mc.lat_mem_cycles - mc.lat_llc_cycles) / mlp

    def _shared_ws(self, table_bytes: float, avg_table_bytes: float = None) -> float:
        """LLC working set while one thread probes a table of
        ``table_bytes``: the other T-1 threads hold *typical* tables
        (``avg_table_bytes``), not worst-case ones — this matters for
        skewed (RMAT) workloads where the dense columns' big tables are
        rare."""
        other = table_bytes if avg_table_bytes is None else avg_table_bytes
        return table_bytes + other * max(self.threads - 1, 0)

    def _miss_bytes(
        self, table_bytes: float, accesses: float, avg_table_bytes: float = None
    ) -> float:
        """DRAM traffic of LLC misses (each miss moves one cache line);
        contributes to the shared-bandwidth floor on top of the per-
        access latency charged by :meth:`_access_extra_cycles`."""
        mc = self.machine
        shared_ws = self._shared_ws(table_bytes, avg_table_bytes)
        miss = analytic_miss_fraction(shared_ws, mc.llc_bytes)
        return accesses * miss * mc.cacheline_bytes

    def _imbalance(self, stats: KernelStats) -> float:
        if self.threads <= 1 or stats.col_ops is None or stats.col_ops.size == 0:
            return 1.0
        from repro.parallel.scheduler import dynamic_schedule, static_schedule

        costs = np.asarray(stats.col_ops, dtype=np.float64)
        if costs.sum() <= 0:
            return 1.0
        if self.schedule == "static":
            sched = static_schedule(costs.shape[0], self.threads)
        else:
            sched = dynamic_schedule(costs, self.threads, chunk=self.schedule_chunk)
        return max(sched.imbalance(costs), 1.0)

    # ------------------------------------------------------------- public
    def time(self, stats: KernelStats) -> SimulatedTime:
        """Predict the runtime of one kernel phase from its stats."""
        mc = self.machine
        fam = algorithm_family(stats.algorithm, self.cycles_per_op)
        cpo = self.cycles_per_op.get(fam, self.cycles_per_op.get("default", 10.0))

        compute_cycles = stats.ops * cpo
        memory_cycles = 0.0
        miss_bytes = 0.0
        total_acc = sum(stats.table_traffic.values())
        avg_tb = (
            sum(tb * acc for tb, acc in stats.table_traffic.items()) / total_acc
            if total_acc
            else 0.0
        )
        for tb, acc in stats.table_traffic.items():
            memory_cycles += acc * self._access_extra_cycles(tb, avg_tb)
            miss_bytes += self._miss_bytes(tb, acc, avg_tb)
        overhead_cycles = 0.0
        if stats.parts > 1:
            overhead_cycles = (
                stats.parts
                * max(stats.n_cols, 1)
                * (PART_FIXED_CYCLES + stats.k * PART_SEARCH_CYCLES)
            )

        imb = self._imbalance(stats)
        t_eff = max(self.threads, 1)
        sec = 1.0 / mc.clock_hz
        init_seconds = 0.0
        if fam == "spa":
            # Every thread first-touches its private length-m SPA; wall
            # time is one thread's init (they run concurrently).
            slots = stats.ds_bytes_peak / 12.0
            init_seconds = slots * SPA_INIT_CYCLES * sec
        # Parallel-region launches: k-way kernels sweep the columns once
        # per phase; pairwise algorithms fork one region per 2-way merge
        # (k-1 of them) — the overhead that makes them lose even at
        # small k on tiny inputs.  The sliding kernels pay extra
        # bookkeeping passes (the paper's sliding hash trails plain hash
        # 3x on tiny inputs even when parts=1).
        launches = 1
        if fam in ("2way_incremental", "2way_tree", "scipy_incremental", "scipy_tree"):
            launches = max(stats.k - 1, 1)
            # freshly allocated intermediates: page-fault + zero cost
            compute_cycles += (
                stats.intermediate_nnz * 8 * ALLOC_CYCLES_PER_BYTE
            )
        elif fam.startswith("sliding_hash"):
            launches = 2
        return SimulatedTime(
            compute=compute_cycles * sec / t_eff * imb,
            memory=memory_cycles * sec / t_eff * imb,
            bandwidth=(stats.total_bytes + miss_bytes) / mc.bw_at(self.threads),
            overhead=overhead_cycles * sec / t_eff,
            init=init_seconds,
            fixed=PHASE_LAUNCH_SECONDS * launches,
            imbalance=imb,
        )

    def time_two_phase(
        self,
        stats_add: KernelStats,
        stats_symbolic: Optional[KernelStats],
    ) -> SimulatedTime:
        """Total of symbolic + addition phases (hash-family methods)."""
        t = self.time(stats_add)
        if stats_symbolic is not None:
            t = t + self.time(stats_symbolic)
        return t
