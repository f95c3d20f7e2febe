"""Simulated phase times for the distributed SpGEMM (Fig 6).

Converts the per-rank records of a :class:`~repro.distributed.summa.
SummaResult` into simulated seconds on a machine (Cori KNL for the
paper's runs, 8 threads per process).  Fig 6 reports two computation
phases per configuration — **Local Multiply** and **SpKAdd** — with
communication excluded; we do the same and take the maximum over ranks
(the critical path of a bulk-synchronous run).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2

from repro.distributed.summa import SummaResult
from repro.machine.costmodel import CostModel
from repro.machine.spec import MachineSpec

#: cycles per expanded multiply-add in the local SpGEMM (compiled-code
#: scale; the hash-accumulate cost is charged separately through the
#: cost model's hash constant).
FLOP_CYCLES = 4.0
#: cycles per entry per comparison level of the intermediate sort.
SORT_CYCLES = 3.0


@dataclass
class SpGEMMPhaseTimes:
    """Simulated seconds of the two computation phases."""

    local_multiply: float
    spkadd: float
    comm_estimate: float

    @property
    def computation(self) -> float:
        return self.local_multiply + self.spkadd


def spgemm_phase_times(
    result: SummaResult,
    machine: MachineSpec,
    *,
    threads_per_process: int = 8,
    cost_model: CostModel | None = None,
) -> SpGEMMPhaseTimes:
    """Critical-path phase times of a simulated SUMMA run."""
    cm = cost_model or CostModel(machine, threads=threads_per_process)
    sec = 1.0 / machine.clock_hz

    worst_mult = 0.0
    worst_add = 0.0
    for rec in result.ranks:
        ms = rec.multiply
        cycles = ms.flops * FLOP_CYCLES
        cycles += ms.hash_ops * cm.cycles_per_op.get("hash", 10.0)
        for tb, acc in ms.table_traffic.items():
            cycles += acc * cm._access_extra_cycles(tb)
        if ms.sort_entries:
            avg_col = max(ms.out_nnz / max(result.stages, 1), 2.0)
            cycles += ms.sort_entries * SORT_CYCLES * max(log2(avg_col), 1.0)
        worst_mult = max(worst_mult, cycles * sec / max(threads_per_process, 1))

        t_add = cm.time_two_phase(rec.spkadd_stats, rec.spkadd_symbolic)
        worst_add = max(worst_add, t_add.total)

    return SpGEMMPhaseTimes(
        local_multiply=worst_mult,
        spkadd=worst_add,
        comm_estimate=result.comm.estimated_seconds,
    )
