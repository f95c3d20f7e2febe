"""Communication bookkeeping for the simulated SUMMA.

Fig 6 deliberately excludes communication ("we show the runtime of both
computational steps by excluding the communication costs"), so the
simulated communicator only *accounts* broadcast traffic — volumes and
a simple alpha-beta time estimate — without affecting the reported
computation times.

Volumes are computed from each block's **actual** array widths
(``indptr`` + ``indices`` + ``data`` at their stored dtypes), not an
assumed 8-byte-value/8-byte-index layout: a float32/int32 run moves
half the bytes of a float64/int64 one, and the log says so.  Use
:meth:`CommLog.bcast_block` to record a block broadcast; the event
keeps the entry count and per-entry itemsizes for dtype-level audits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, log2
from typing import List


@dataclass
class CommEvent:
    stage: int
    kind: str          # "bcast_A" or "bcast_B"
    root: int
    group_size: int
    bytes: int
    #: nnz of the broadcast block (0 for events logged through the raw
    #: byte-count API).
    entries: int = 0
    #: actual per-entry widths of the block's value/index arrays, so
    #: the volume accounting is auditable per dtype (0 = unknown).
    value_itemsize: int = 0
    index_itemsize: int = 0


@dataclass
class CommLog:
    """Record of all broadcasts in one SUMMA run.

    ``alpha`` (s) and ``beta`` (s/byte) give a classic latency/bandwidth
    estimate with tree broadcasts: each broadcast costs
    ``ceil(lg p) * (alpha + bytes * beta)``.
    """

    alpha: float = 2e-6
    beta: float = 1.0 / 10e9  # 10 GB/s links
    events: List[CommEvent] = field(default_factory=list)

    def bcast_block(self, stage: int, kind: str, root: int, group_size: int, block) -> None:
        """Record the broadcast of one sparse block.

        The volume is the block's actual storage — ``indptr`` +
        ``indices`` + ``data`` at their stored dtypes — so narrow-dtype
        runs (float32 values, int32 indices) are accounted at their
        real widths instead of an assumed 8-byte layout.
        """
        self.events.append(CommEvent(
            stage, kind, root, group_size,
            int(block.indptr.nbytes + block.indices.nbytes + block.data.nbytes),
            entries=int(block.nnz),
            value_itemsize=int(block.data.dtype.itemsize),
            index_itemsize=int(block.indices.dtype.itemsize),
        ))

    @property
    def total_bytes(self) -> int:
        return sum(e.bytes * max(e.group_size - 1, 0) for e in self.events)

    @property
    def estimated_seconds(self) -> float:
        t = 0.0
        for e in self.events:
            if e.group_size <= 1:
                continue
            rounds = ceil(log2(e.group_size))
            t += rounds * (self.alpha + e.bytes * self.beta)
        return t
