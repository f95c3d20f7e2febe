"""Stationary-C sparse SUMMA (paper Fig 5) with pluggable SpKAdd.

``C = A @ B`` on a ``pr x pc`` process grid with ``stages`` inner
blocks:

* A is distributed as ``pr x stages`` blocks, B as ``stages x pc``;
* at stage s, A(i, s) is broadcast along grid row i and B(s, j) along
  grid column j;
* process (i, j) computes the local product A(i,s) @ B(s,j) and stores
  it — after all stages it holds ``stages`` intermediate sparse
  matrices;
* the final computation step reduces those intermediates with SpKAdd —
  the operation whose data structure (heap vs hash, sorted vs unsorted)
  is the subject of Fig 6.

The pipeline is split into three explicit stages — **broadcast**
(bookkeeping: the Fig 5 dataflow recorded in the
:class:`~repro.distributed.comm.CommLog` at the blocks' actual dtype
widths), **local multiply** (the Gustavson kernel of
:mod:`~repro.distributed.spgemm_local`, routed through the kernel
registry), and **merge** (one k-way SpKAdd per rank) — and how they
execute is an :class:`ExecutionPlan`:

* :meth:`ExecutionPlan.paper` (the default) runs everything serially
  in-process on the instrumented backend, rank by rank — results are
  exact and the per-rank statistics that feed the Fig 6 timing model
  are bit-stable;
* :meth:`ExecutionPlan.production` (or the loose ``backend=`` /
  ``executor=`` / ``threads=`` / ``deadline=`` / ``resilience=``
  keywords of :func:`summa_spgemm`) promotes the run onto the
  production stack: merges go through ``parallel_spkadd`` on the
  executor :func:`repro.spkadd` would pick (``REPRO_EXECUTOR``, else
  in-process threads), rank pipelines run concurrently, and each rank's
  merge is submitted asynchronously
  (:func:`repro.parallel.executor.submit_spkadd`) so the local
  multiplies of the next ranks overlap the merges in flight.

Results are bit-identical across plans: every accumulation path sums
duplicates of a key strictly left to right in matrix order, so the
promoted pipeline is verified bitwise against the serial reference in
the tests.
"""

from __future__ import annotations

from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

from repro.core.api import BACKEND_AWARE_METHODS, spkadd
from repro.core.stats import KernelStats
from repro.distributed.comm import CommLog
from repro.distributed.grid import BlockDistribution, ProcessGrid
from repro.distributed.spgemm_local import LocalSpGEMMStats, local_spgemm
from repro.formats.csc import CSCMatrix
from repro.parallel.resilience import Deadline

#: SpKAdd methods that require sorted intermediates.
_NEEDS_SORTED = (
    "heap", "2way_incremental", "2way_tree",
    "scipy_incremental", "scipy_tree",
)


@dataclass(frozen=True)
class ExecutionPlan:
    """How one SUMMA run executes: backends, executors, and overlap.

    Parameters
    ----------
    backend:
        Kernel backend for the local multiplies *and* the hash-family
        merges (``"fast"`` / ``"instrumented"``).  ``None`` is
        ``"fast"``; :meth:`paper` names ``"instrumented"``, the
        paper-faithful engine whose statistics feed the timing model.
    executor:
        Merge-stage executor (``"serial"``/``"thread"``/``"shm"``;
        ``None``/``"auto"`` consults ``REPRO_EXECUTOR``).
        Consulted only when ``threads > 1``, like :func:`repro.spkadd`.
    threads:
        Workers per merge call (``parallel_spkadd`` fan-out).
    rank_parallelism:
        Rank pipelines (multiply chain + merge) in flight at once.
        A width left ``None`` is filled where the grid is known: the
        two split one CPU budget over ``grid.size`` ranks
        (:func:`repro.parallel.executor.split_budget`).
    overlap:
        Submit each rank's merge asynchronously
        (:func:`repro.parallel.executor.submit_spkadd`) instead of
        blocking the rank pipeline on it — the local multiplies of the
        following ranks overlap the merges running on the worker pool.
    deadline:
        Whole-run time budget in seconds (or a prebuilt
        :class:`~repro.parallel.resilience.Deadline`); checked between
        stages and threaded into every merge call as its remaining
        budget.
    resilience:
        :class:`~repro.parallel.resilience.ResiliencePolicy` for the
        merge calls (chunk retry, fallback chain); ``None`` resolves
        from the environment per call.

    Merges on an explicit ``executor="shm"`` lease the persistent
    worker pool per merge and return zero-copy segment-backed blocks
    (see :func:`repro.spkadd`).
    """

    backend: Optional[str] = None
    executor: Optional[str] = None
    threads: Optional[int] = 1
    rank_parallelism: Optional[int] = 1
    overlap: bool = False
    deadline: Optional[object] = None
    resilience: Optional[object] = None

    def __post_init__(self) -> None:
        # PR 7 convention: malformed knobs are rejected loudly, naming
        # the argument, instead of silently degrading to serial.
        for name in ("threads", "rank_parallelism"):
            value = getattr(self, name)
            if value is None:
                continue
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(
                    f"ExecutionPlan {name} must be a positive integer, "
                    f"got {value!r}"
                )
        from repro.parallel.executor import EXECUTORS

        if self.executor not in (None, "auto") + EXECUTORS:
            raise ValueError(
                f"ExecutionPlan executor must be one of {EXECUTORS}, "
                f"got {self.executor!r}"
            )
        if self.backend not in (None, "auto"):
            from repro.kernels import resolve_backend

            resolve_backend(self.backend)  # raises ValueError, naming it

    @classmethod
    def paper(cls) -> "ExecutionPlan":
        """The paper-faithful pinning: serial, instrumented, no overlap.

        Figure reproduction (``experiments/fig6.py``) runs under this
        plan so its per-rank statistics — and therefore its modelled
        phase times — are bit-stable regardless of ``REPRO_EXECUTOR``
        in the environment.
        """
        return cls(backend="instrumented", threads=1,
                   rank_parallelism=1, overlap=False)

    @classmethod
    def production(
        cls,
        *,
        backend: str = "fast",
        executor: Optional[str] = None,
        threads: Optional[int] = None,
        rank_parallelism: Optional[int] = None,
        overlap: bool = True,
        deadline=None,
        resilience=None,
    ) -> "ExecutionPlan":
        """The promoted defaults: fast kernels, merges on the resolved
        executor (``REPRO_EXECUTOR``, else ``"thread"``), concurrent
        rank pipelines, overlap on, widths from the CPU budget."""
        return cls(
            backend=backend, executor=executor, threads=threads,
            rank_parallelism=rank_parallelism, overlap=overlap,
            deadline=deadline, resilience=resilience,
        )


@dataclass
class RankRecord:
    """Per-process record of one SUMMA run."""

    rank: int
    coords: tuple
    multiply: LocalSpGEMMStats = field(default_factory=LocalSpGEMMStats)
    spkadd_stats: KernelStats = field(default_factory=KernelStats)
    spkadd_symbolic: Optional[KernelStats] = None
    intermediate_nnz: int = 0
    result_nnz: int = 0


@dataclass
class SummaResult:
    """Output of :func:`summa_spgemm`."""

    grid: ProcessGrid
    stages: int
    spkadd_method: str
    sorted_intermediates: bool
    c_blocks: List[List[CSCMatrix]]
    ranks: List[RankRecord]
    comm: CommLog
    row_bounds: np.ndarray
    col_bounds: np.ndarray
    plan: Optional[ExecutionPlan] = None

    def assemble(self) -> CSCMatrix:
        """Gather the distributed result into one matrix (verification)."""
        dist = BlockDistribution(
            (int(self.row_bounds[-1]), int(self.col_bounds[-1])),
            self.row_bounds,
            self.col_bounds,
            self.c_blocks,
        )
        return dist.reassemble()

    def phase_totals(self) -> Dict[str, float]:
        """Aggregate per-phase op counts across ranks (max = critical
        path; Fig 6 compares computation, so comm is separate)."""
        return {
            "flops_total": float(sum(r.multiply.flops for r in self.ranks)),
            "spkadd_ops_total": float(
                sum(r.spkadd_stats.ops for r in self.ranks)
            ),
            "comm_bytes": float(self.comm.total_bytes),
        }


def _resolve_plan(
    plan: Optional[ExecutionPlan],
    *,
    backend, executor, threads, deadline, resilience,
) -> ExecutionPlan:
    loose = {
        "backend": backend, "executor": executor, "threads": threads,
        "deadline": deadline, "resilience": resilience,
    }
    given = {k: v for k, v in loose.items() if v is not None}
    if plan is not None:
        if given:
            raise ValueError(
                "pass either plan= or the loose execution keywords "
                f"({', '.join(sorted(given))}=), not both"
            )
        return plan
    if not given:
        return ExecutionPlan.paper()
    return ExecutionPlan.production(**given)


def _fill_widths(plan: ExecutionPlan, grid: ProcessGrid) -> ExecutionPlan:
    """``plan`` with its open widths split from the CPU budget: rank
    pipelines are the outer level, each merge's workers the inner."""
    if plan.threads is not None and plan.rank_parallelism is not None:
        return plan
    from repro.parallel.executor import split_budget

    rank_par = plan.rank_parallelism or grid.size
    outer, inner = split_budget(min(grid.size, rank_par))
    return replace(plan, threads=plan.threads or inner,
                   rank_parallelism=plan.rank_parallelism or outer)


def summa_spgemm(
    A: CSCMatrix,
    B: CSCMatrix,
    *,
    grid: ProcessGrid,
    stages: Optional[int] = None,
    spkadd_method: str = "hash",
    sorted_intermediates: Optional[bool] = None,
    comm: Optional[CommLog] = None,
    spkadd_kwargs: Optional[dict] = None,
    plan: Optional[ExecutionPlan] = None,
    backend: Optional[str] = None,
    executor: Optional[str] = None,
    threads: Optional[int] = None,
    deadline=None,
    resilience=None,
) -> SummaResult:
    """Run the sparse SUMMA pipeline.

    Parameters
    ----------
    grid:
        The ``pr x pc`` process grid owning C.
    stages:
        Number of inner-dimension blocks (k of the final SpKAdd).
        Defaults to ``grid.cols`` (square-grid convention where each
        process column contributes one stage).  Must be positive and at
        most the inner dimension (every stage owns a nonempty inner
        block range).
    spkadd_method:
        SpKAdd method for the final reduction: ``"heap"``, ``"hash"``,
        ``"sliding_hash"``, ...  (any :func:`repro.spkadd` method).
    sorted_intermediates:
        Whether local multiplies must sort their outputs.  Defaults to
        the requirement of the chosen SpKAdd method (heap/2-way need
        sorted inputs; hash and SPA do not) — leaving it to default
        reproduces the paper's "unsorted hash" advantage.
    plan:
        An :class:`ExecutionPlan`.  The default is
        :meth:`ExecutionPlan.paper` — serial, instrumented, bit-stable
        statistics.  Alternatively pass the loose keywords below (they
        build a plan; combining them with ``plan=`` is an error).
    backend, executor, threads, deadline, resilience:
        Loose plan keywords: kernel backend for multiply + merge
        (default ``"fast"``), merge executor/fan-out, whole-run
        deadline, and resilience policy.  They build
        :meth:`ExecutionPlan.production` (rank concurrency + overlap);
        the widths not given come from the CPU budget.
    """
    m, l1 = A.shape
    l2, n = B.shape
    if l1 != l2:
        raise ValueError(f"inner dimensions differ: {A.shape} x {B.shape}")
    S = stages if stages is not None else grid.cols
    if not isinstance(S, (int, np.integer)) or S < 1:
        raise ValueError(
            f"stages must be a positive integer, got {stages!r}"
        )
    if S > l1:
        raise ValueError(
            f"stages must be <= the inner dimension ({l1}), got "
            f"stages={S}: every SUMMA stage needs a nonempty inner block"
        )
    plan = _fill_widths(_resolve_plan(
        plan, backend=backend, executor=executor,
        threads=threads, deadline=deadline, resilience=resilience,
    ), grid)
    needs_sorted = spkadd_method in _NEEDS_SORTED
    sort_local = (
        needs_sorted if sorted_intermediates is None else sorted_intermediates
    )
    if needs_sorted and not sort_local:
        raise ValueError(
            f"{spkadd_method} SpKAdd requires sorted intermediates"
        )
    log = comm if comm is not None else CommLog()
    dl = Deadline.resolve(plan.deadline)

    distA = BlockDistribution.distribute(A, grid.rows, S)
    distB = BlockDistribution.distribute(B, S, grid.cols)

    ranks = [
        RankRecord(rank=grid.rank(i, j), coords=(i, j))
        for i in range(grid.rows)
        for j in range(grid.cols)
    ]

    # ---- broadcast stage -------------------------------------------------
    # Pure dataflow bookkeeping (Fig 5): volumes at the blocks' actual
    # value/index dtype widths.
    for s in range(S):
        for i in range(grid.rows):
            # A(i, s) broadcast along grid row i.
            log.bcast_block(s, "bcast_A", grid.rank(i, s % grid.cols),
                            grid.cols, distA.block(i, s))
        for j in range(grid.cols):
            # B(s, j) broadcast along grid column j.
            log.bcast_block(s, "bcast_B", grid.rank(s % grid.rows, j),
                            grid.rows, distB.block(s, j))

    # ---- merge-call construction ----------------------------------------
    merge_kw = dict(spkadd_kwargs or {})
    if spkadd_method in BACKEND_AWARE_METHODS:
        # Hash-family merges run the plan's backend unless
        # spkadd_kwargs picks one.
        merge_kw.setdefault("backend", plan.backend)

    def _multiply(rec: RankRecord) -> List[CSCMatrix]:
        """Local-multiply stage: one rank's S Gustavson products."""
        i, j = rec.coords
        pieces: List[CSCMatrix] = []
        for s in range(S):
            dl.check(f"SUMMA local multiply (rank {rec.rank}, stage {s})")
            prod = local_spgemm(
                distA.block(i, s),
                distB.block(s, j),
                accumulator="hash",
                sorted_output=sort_local,
                stats=rec.multiply,
                backend=plan.backend,
            )
            rec.intermediate_nnz += prod.nnz
            pieces.append(prod)
        return pieces

    def _merge(rec: RankRecord, pieces: List[CSCMatrix]):
        """Merge stage (blocking): one k-way SpKAdd over the rank's
        intermediates, on the plan's executor."""
        dl.check(f"SUMMA merge (rank {rec.rank})")
        return spkadd(
            pieces, method=spkadd_method, threads=plan.threads,
            executor=plan.executor, deadline=dl.remaining(),
            resilience=plan.resilience,
            **merge_kw,
        )

    c_blocks: List[List[CSCMatrix]] = [
        [None] * grid.cols for _ in range(grid.rows)  # type: ignore[list-item]
    ]

    def _finish(rec: RankRecord, result) -> None:
        i, j = rec.coords
        rec.spkadd_stats = result.stats
        rec.spkadd_symbolic = result.stats_symbolic
        rec.result_nnz = result.matrix.nnz
        c_blocks[i][j] = result.matrix

    # ---- local-multiply + merge stages ----------------------------------
    if plan.rank_parallelism == 1 and not plan.overlap:
        # The paper-faithful serial engine: rank by rank, in rank order.
        for rec in ranks:
            _finish(rec, _merge(rec, _multiply(rec)))
    else:
        _run_pipelined(ranks, plan, dl, _multiply, _merge, _finish,
                       spkadd_method, merge_kw)

    return SummaResult(
        grid=grid,
        stages=S,
        spkadd_method=spkadd_method,
        sorted_intermediates=sort_local,
        c_blocks=c_blocks,
        ranks=ranks,
        comm=log,
        row_bounds=distA.row_bounds,
        col_bounds=distB.col_bounds,
        plan=plan,
    )


def _run_pipelined(
    ranks, plan, dl, _multiply, _merge, _finish, spkadd_method, merge_kw
) -> None:
    """The promoted engine: concurrent rank pipelines with overlap.

    ``rank_parallelism`` multiply chains run concurrently on a local
    thread pool (the compiled Gustavson kernel runs through ctypes,
    which releases the GIL, as do the NumPy fallback's big array
    operations).  With ``overlap``, each rank's merge is submitted through
    :func:`~repro.parallel.executor.submit_spkadd` the moment its last
    stage product lands, so the multiplies of the following ranks
    overlap the merges executing on the plan's executor.
    """
    from repro.parallel.executor import submit_spkadd

    with ThreadPoolExecutor(
        max_workers=plan.rank_parallelism, thread_name_prefix="summa-rank",
    ) as rank_pool:
        if not plan.overlap:
            futs = {
                rank_pool.submit(
                    lambda r: _finish(r, _merge(r, _multiply(r))), rec
                ): rec
                for rec in ranks
            }
            _collect(futs)
            return

        merge_futs = {}

        def _chain(rec):
            pieces = _multiply(rec)
            dl.check(f"SUMMA merge submit (rank {rec.rank})")
            # The overlap seam: hand the merge to the submitter pool and
            # return immediately — this rank thread moves on to the next
            # rank's multiplies while the merge runs on the worker pool.
            return submit_spkadd(
                pieces, method=spkadd_method, threads=plan.threads,
                executor=plan.executor, deadline=dl.remaining(),
                resilience=plan.resilience,
                **merge_kw,
            )

        mult_futs = {rank_pool.submit(_chain, rec): rec for rec in ranks}
        try:
            _collect(mult_futs)
            for fut, rec in mult_futs.items():
                merge_futs[fut.result()] = rec
            _collect(merge_futs)
        finally:
            for fut in merge_futs:
                fut.cancel()
        for fut, rec in merge_futs.items():
            _finish(rec, fut.result())


def _collect(futs) -> None:
    """Wait on a future->rank map; first failure cancels the rest."""
    done, not_done = wait(futs, return_when=FIRST_EXCEPTION)
    failed = next((f for f in done if f.exception() is not None), None)
    if failed is not None:
        for f in not_done:
            f.cancel()
        raise failed.exception()
