"""Fig 4: sliding-hash runtime vs (forced) hash-table size.

Six panels sweep the per-partition table size and plot symbolic /
computation (addition) / total time:

=====  ========  =======================================  ==========
panel  machine   workload                                  paper opt.
=====  ========  =======================================  ==========
(a)    Skylake   ER m=4M n=1024 d=64 k=128, cf~1.001       ~4K (L1)
(b)    Skylake   ER m=4M n=1024 d=8192 k=128, cf=1.12      ~64K (LLC)
(c)    Skylake   RMAT m=4M n=32K d=512 k=128, cf=1.25      ~64K (LLC)
(d)    Skylake   Eukarya m=3M n=50K d=240 k=64, cf=22.6    ~2K-16K
(e)    EPYC      workload of (b)                           < (b)'s
(f)    EPYC      workload of (c)                           < (c)'s
=====  ========  =======================================  ==========

The U-shape: small tables pay per-partition overhead (many partitions,
k binary searches each); large tables spill L1/L2/LLC and pay the
random-access latency.  The optimum sits near (cache bytes)/(entry
bytes x threads) — L1 for tiny workloads, LLC for big ones — and the
EPYC optimum is left of Skylake's because its LLC is 4x smaller.
Table sizes here are *reduced-scale*; multiply by ``scale_m`` to
compare with the paper's x-axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.experiments.calibration import calibrated_cost_model
from repro.experiments.config import PAPER, ReproScale
from repro.experiments.report import format_series
from repro.experiments.runner import run_method
from repro.generators import (
    erdos_renyi_collection,
    rmat_collection,
    spgemm_intermediates_surrogate,
)
from repro.machine.spec import AMD_EPYC_7551, INTEL_SKYLAKE_8160

PANELS = {
    "a": dict(machine="skylake", kind="er", n_paper=PAPER["n_er"], d=64, k=128,
              sweep=(7, 14)),
    "b": dict(machine="skylake", kind="er", n_paper=PAPER["n_er"], d=8192, k=128,
              sweep=(8, 21)),
    "c": dict(machine="skylake", kind="rmat", n_paper=PAPER["n_rmat"], d=512,
              k=128, sweep=(8, 21)),
    "d": dict(machine="skylake", kind="protein", d=240, k=64, cf=22.614,
              sweep=(7, 16)),
    "e": dict(machine="epyc", kind="er", n_paper=PAPER["n_er"], d=8192, k=128,
              sweep=(8, 21)),
    "f": dict(machine="epyc", kind="rmat", n_paper=PAPER["n_rmat"], d=512,
              k=128, sweep=(8, 21)),
}


@dataclass
class HashSizeSweep:
    panel: str
    machine_name: str
    table_entries: List[int]       # reduced-scale entries
    symbolic: List[float]
    computation: List[float]
    total: List[float]

    @property
    def optimum_entries(self) -> int:
        best = min(range(len(self.total)), key=lambda i: self.total[i])
        return self.table_entries[best]

    def to_text(self) -> str:
        return format_series(
            "table_entries",
            self.table_entries,
            {
                "symbolic": self.symbolic,
                "computation": self.computation,
                "total": self.total,
            },
            title=(
                f"Fig 4({self.panel}) on {self.machine_name}: sliding-hash "
                "time vs table size (reduced-scale entries)"
            ),
        )


def _panel_workload(spec: dict, sc: ReproScale, seed: int):
    if spec["kind"] == "er":
        return erdos_renyi_collection(
            sc.m(), sc.n(spec["n_paper"]), d=sc.d(spec["d"]), k=spec["k"],
            seed=seed,
        )
    if spec["kind"] == "rmat":
        return rmat_collection(
            sc.m_pow2(), sc.n(spec["n_paper"]), d=sc.d(spec["d"]),
            k=spec["k"], seed=seed,
        )
    return spgemm_intermediates_surrogate(
        "eukarya",
        scale=sc.scale_m,
        n_cols=max(50_000 // sc.scale_n, 64),
        k=spec["k"],
        cf=spec["cf"],
        d=sc.d(spec["d"]),
        seed=seed,
    )


def run_fig4(
    panel: str = "b",
    *,
    scale: Optional[ReproScale] = None,
    threads: int = PAPER["threads"],
    sizes: Optional[Sequence[int]] = None,
    seed: int = 41,
) -> HashSizeSweep:
    sc = scale or ReproScale.from_env()
    spec = PANELS[panel]
    base = INTEL_SKYLAKE_8160 if spec["machine"] == "skylake" else AMD_EPYC_7551
    machine = sc.machine(base)
    cm = calibrated_cost_model(machine, threads, scale=sc)
    mats = _panel_workload(spec, sc, seed)

    if sizes is None:
        lo, hi = spec["sweep"]
        sizes = [
            sc.table_entries(1 << e) for e in range(lo, hi + 1)
        ]
        sizes = sorted(set(sizes))
    sym_t: List[float] = []
    add_t: List[float] = []
    tot_t: List[float] = []
    for entries in sizes:
        rr = run_method(
            mats, "sliding_hash", cm,
            time_factor=sc.time_factor,
            capacity_factor=sc.scale_m,
            sliding_kwargs={"table_entries": int(entries), "cache_bytes": None,
                            "threads": threads},
        )
        sym = cm.time(rr.stats_symbolic).extrapolate(sc.time_factor, sc.scale_m)
        add = cm.time(rr.stats).extrapolate(sc.time_factor, sc.scale_m)
        sym_t.append(sym)
        add_t.append(add)
        tot_t.append(rr.seconds)
    return HashSizeSweep(
        panel, machine.name, [int(s) for s in sizes], sym_t, add_t, tot_t
    )
