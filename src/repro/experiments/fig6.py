"""Fig 6: SpKAdd's impact inside distributed SpGEMM (and Fig 5's SUMMA).

The paper squares two protein-similarity matrices with sparse SUMMA on
Cori KNL — Metaclust50 on 16,384 processes and Isolates on 4,096 — and
compares three configurations of the computation phases:

* **Heap** — CombBLAS's existing heap SpKAdd; local multiplies must
  sort their intermediate outputs;
* **Sorted Hash** — hash SpKAdd, intermediates still sorted;
* **Unsorted Hash** — hash SpKAdd consuming unsorted intermediates
  (the local multiply skips its final sort, ~20% faster).

Headline numbers to reproduce in shape: hash SpKAdd an order of
magnitude cheaper than heap; skipping the sort saves ~20% of local
multiply; overall computation at least 2x faster with hash.

We run the same SUMMA dataflow on surrogates at reduced scale with a
reduced process grid but the *same stage count k* (k = the SpKAdd fan-
in, which is what the data-structure comparison depends on), then model
phase times on the KNL spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.distributed.grid import ProcessGrid
from repro.distributed.summa import ExecutionPlan, summa_spgemm
from repro.distributed.timing import SpGEMMPhaseTimes, spgemm_phase_times
from repro.experiments.calibration import calibrated_cost_model
from repro.experiments.config import ReproScale
from repro.experiments.paper_values import FIG6_PAPER
from repro.experiments.report import format_table
from repro.generators import rmat
from repro.generators.protein import DATASETS, protein_collection
from repro.machine.spec import CORI_KNL

#: Paper runs: (dataset, processes, grid side, stages=SpKAdd k,
#: threads/process).  Stage count = sqrt(processes) in sparse SUMMA on a
#: square grid.
RUNS = {
    "metaclust50": dict(processes=16384, stages=128, threads=8),
    "isolates": dict(processes=4096, stages=64, threads=8),
}

CONFIGS = {
    "heap": dict(spkadd_method="heap", sorted_intermediates=True),
    "sorted_hash": dict(spkadd_method="hash", sorted_intermediates=True),
    "unsorted_hash": dict(spkadd_method="hash", sorted_intermediates=False),
}


@dataclass
class Fig6Result:
    dataset: str
    phase_times: Dict[str, SpGEMMPhaseTimes]
    paper: Dict[str, Dict[str, float]]

    def to_text(self) -> str:
        rows = []
        for cfg, t in self.phase_times.items():
            p = self.paper.get(cfg, {})
            rows.append([
                cfg,
                t.local_multiply, t.spkadd, t.computation,
                p.get("local_multiply"), p.get("spkadd"),
            ])
        return format_table(
            ["config", "multiply (model s)", "spkadd (model s)",
             "computation (model s)", "multiply (paper s)", "spkadd (paper s)"],
            rows,
            title=(
                f"Fig 6 ({self.dataset}): distributed SpGEMM computation "
                "phases (simulated; compare shape/ratios with paper)"
            ),
        )

    @property
    def spkadd_speedup_vs_heap(self) -> float:
        return (
            self.phase_times["heap"].spkadd
            / max(self.phase_times["unsorted_hash"].spkadd, 1e-12)
        )

    @property
    def multiply_saving_unsorted(self) -> float:
        s = self.phase_times["sorted_hash"].local_multiply
        u = self.phase_times["unsorted_hash"].local_multiply
        return 1.0 - u / max(s, 1e-12)


def run_fig6(
    dataset: str = "isolates",
    *,
    scale: Optional[ReproScale] = None,
    grid_side: int = 4,
    m: int = 16384,
    d: float = 12.0,
    seed: int = 61,
) -> Fig6Result:
    """Simulate one Fig 6 panel.

    ``grid_side`` shrinks the process grid (computation per process is
    what Fig 6 plots, and it depends on the per-process block and stage
    count, not the grid size); ``stages`` is kept at the paper's value
    because it is the SpKAdd fan-in k.
    """
    sc = scale or ReproScale.from_env()
    run = RUNS[dataset]
    ds = DATASETS[dataset]
    # A square protein-similarity surrogate; C = A @ A as in HipMCL's
    # Markov-clustering squaring.
    A = _square_surrogate(m, d, ds.degree_sigma, seed)
    grid = ProcessGrid(grid_side, grid_side)
    machine = CORI_KNL.scaled(sc.scale_m)
    cm = calibrated_cost_model(machine, run["threads"], scale=sc)
    phase_times: Dict[str, SpGEMMPhaseTimes] = {}
    for cfg_name, cfg in CONFIGS.items():
        # Pinned to the paper plan: serial, instrumented, no overlap —
        # the per-rank statistics feeding the timing model stay
        # bit-stable no matter what REPRO_EXECUTOR says.
        res = summa_spgemm(
            A, A, grid=grid, stages=run["stages"],
            plan=ExecutionPlan.paper(),
            spkadd_kwargs={"block_cols": 1} if cfg["spkadd_method"] == "hash" else None,
            **cfg,
        )
        phase_times[cfg_name] = spgemm_phase_times(
            res, machine, threads_per_process=run["threads"], cost_model=cm
        )
    return Fig6Result(dataset, phase_times, FIG6_PAPER[dataset])


def _square_surrogate(m: int, d: float, sigma: float, seed: int):
    """Square similarity-like matrix: R-MAT skew + symmetrized."""
    from repro.formats.convert import csc_to_coo
    from repro.formats.csc import CSCMatrix
    import numpy as np

    base = rmat(m, m, d=d, seed=seed)
    coo = csc_to_coo(base)
    rows = np.concatenate([coo.rows, coo.cols])
    cols = np.concatenate([coo.cols, coo.rows])
    vals = np.concatenate([coo.vals, coo.vals])
    return CSCMatrix.from_arrays((m, m), rows, cols, vals, sum_duplicates=True)
