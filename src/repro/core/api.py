"""Public SpKAdd facade.

    >>> from repro import spkadd
    >>> result = spkadd(list_of_csc_matrices, method="hash")   # doctest: +SKIP
    >>> B, stats = result.matrix, result.stats

``method`` selects the paper's algorithms by name; ``threads`` routes
through the shared-memory executor (columns are partitioned among
threads with the paper's load-balancing rule).  ``backend`` selects the
accumulation engine for the hash-family methods — ``"fast"``
(the compiled per-column hash kernel, or its NumPy sort/reduce
fallback; the production default) or ``"instrumented"`` (the
paper-faithful probing table that produces slot-op/probe/cache stats) —
and ``executor="shm"`` swaps the thread pool for the zero-copy
shared-memory engine (``REPRO_EXECUTOR`` overrides the default).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

from repro.core.hash_add import spkadd_hash
from repro.core.heap_add import spkadd_heap
from repro.core.pairwise import spkadd_2way_incremental, spkadd_2way_tree
from repro.core.scipy_baseline import spkadd_scipy_incremental, spkadd_scipy_tree
from repro.core.sliding_hash import spkadd_sliding_hash
from repro.core.spa_add import spkadd_spa
from repro.core.stats import KernelStats
from repro.formats.csc import CSCMatrix
from repro.util.checks import check_nonempty, check_same_shape


@dataclass
class SpKAddResult:
    """Summed matrix plus the instrumentation of both phases.

    ``stats`` covers the addition phase; ``stats_symbolic`` is filled by
    the two-phase (hash-family) methods and is ``None`` otherwise.
    """

    matrix: CSCMatrix
    stats: KernelStats
    stats_symbolic: Optional[KernelStats] = None
    method: str = ""

    @property
    def compression_factor(self) -> float:
        """cf = sum_i nnz(A_i) / nnz(B) (>= 1)."""
        total_in = self.stats.input_nnz if self.stats.input_nnz else 0
        if self.method in ("2way_incremental", "2way_tree",
                           "scipy_incremental", "scipy_tree"):
            # 2-way stats count re-reads; recover the true input size.
            total_in = None
        if total_in in (None, 0):
            return float("nan")
        return total_in / max(self.matrix.nnz, 1)


_TWO_PHASE = {"hash", "hash_unsorted", "sliding_hash", "sliding_hash_unsorted"}

#: methods that accept a ``backend=`` accumulation-engine kwarg — the
#: single source of truth; the executor, CLI, SUMMA driver and
#: benchmarks all import this set.
BACKEND_AWARE_METHODS = frozenset({"hash", "sliding_hash"})

#: the facade's default engine: production callers who never read the
#: slot-level statistics get the fast sort/reduce path automatically;
#: paper reproductions pass ``backend="instrumented"`` (or call the
#: kernel functions directly, whose default is instrumented).
DEFAULT_FACADE_BACKEND = "fast"


def _run_hash(mats, *, sorted_output, **kw):
    st_sym = KernelStats()
    st = kw.pop("stats")
    out = spkadd_hash(
        mats, sorted_output=sorted_output, stats=st, stats_symbolic=st_sym, **kw
    )
    return out, st, st_sym


def _run_sliding(mats, *, sorted_output, **kw):
    st_sym = KernelStats()
    st = kw.pop("stats")
    out = spkadd_sliding_hash(
        mats, sorted_output=sorted_output, stats=st, stats_symbolic=st_sym, **kw
    )
    return out, st, st_sym


_REGISTRY: Dict[str, Callable] = {}


def _register(name: str, fn: Callable) -> None:
    _REGISTRY[name] = fn


def available_methods() -> Sequence[str]:
    """Names accepted by :func:`spkadd`'s ``method`` argument."""
    return tuple(sorted(_REGISTRY))


def spkadd(
    mats: Sequence[CSCMatrix],
    method: str = "hash",
    *,
    threads: int = 1,
    machine=None,
    sorted_output: bool = True,
    backend: Optional[str] = None,
    executor: Optional[str] = None,
    value_dtype=None,
    index_dtype=None,
    materialize: Optional[bool] = None,
    deadline=None,
    resilience=None,
    **kwargs,
) -> SpKAddResult:
    """Add a collection of sparse matrices: ``B = sum_i A_i``.

    Parameters
    ----------
    mats:
        The addends, all the same shape, CSC format.
    method:
        One of :func:`available_methods`:
        ``"2way_incremental"`` (Algorithm 1), ``"2way_tree"``,
        ``"scipy_incremental"`` / ``"scipy_tree"`` (off-the-shelf
        pairwise baseline, the paper's MKL role), ``"heap"``
        (Algorithm 3), ``"spa"`` (Algorithm 4), ``"hash"``
        (Algorithms 5+6), ``"sliding_hash"`` (Algorithms 7+8).
    threads:
        >1 runs the column-parallel executor (no synchronization; the
        paper's Section III-A scheme) with this many workers.
    machine:
        A :class:`~repro.machine.spec.MachineSpec`; the sliding-hash
        method derives its cache budget from it (LLC bytes).
    sorted_output:
        Hash-family methods can skip the final per-column sort; other
        methods always emit sorted columns.  With the ``fast`` backend
        the output is sorted either way (its kernel sorts each column's
        distinct rows as it emits them), so ``False`` only changes
        behaviour on the instrumented engine.
    backend:
        Accumulation engine for the hash-family methods (see
        :mod:`repro.kernels`): ``"fast"`` — the compiled per-column
        hash kernel (NumPy sort/segmented-reduce without a C compiler),
        bit-identical matrices, no slot-level stats — or
        ``"instrumented"`` — the paper-faithful probing hash table whose
        stats feed the cost model.  ``None`` consults the
        ``REPRO_BACKEND`` environment variable and then defaults to
        ``"fast"``: production callers who don't ask for paper
        statistics get the fast engine automatically.  Non-hash methods
        have no accumulation engine and reject an explicit ``backend``
        with ``ValueError``.
    executor:
        ``"thread"`` (shared-memory pool; NumPy kernels release the GIL),
        ``"shm"`` (worker processes that sidestep the GIL entirely, fed
        by the zero-copy ``multiprocessing.shared_memory`` engine:
        inputs published once, chunks written into one shared output
        buffer and compacted in place — see :mod:`repro.parallel.shm`), or
        ``"serial"`` (an in-process loop, the fallback floor).  ``None``
        (or ``"auto"``) consults the ``REPRO_EXECUTOR`` environment
        variable and then defaults to ``"thread"``.  Only consulted when
        ``threads > 1``.  The shm engine draws persistent workers from
        the pool registry (:mod:`repro.parallel.pools`), so repeated
        calls reuse warm workers; ``repro.shutdown_pools()`` releases
        them.
    value_dtype:
        Optional override of the value dtype the sum is computed (and
        returned) in.  ``None`` preserves the inputs: the output dtype
        is the accumulator dtype of the inputs' common
        ``np.result_type`` — float64 in, float64 out; float32-only
        stays float32; integer collections sum exactly in 64-bit
        integers (no float64 round-trip); mixed int + float promotes to
        float.  An explicit dtype casts the addends up front, so every
        method, backend, and executor computes in it (integer requests
        still widen to the exact 64-bit accumulator; see
        :func:`repro.kernels.resolve_value_dtype`).
    index_dtype:
        Optional override of the width the output's
        ``indices``/``indptr`` are allocated in.  ``None`` applies the
        paper's rule (via :func:`repro.kernels.resolve_index_dtype`,
        overridable with the ``REPRO_INDEX_DTYPE`` environment
        variable): 32-bit indices whenever the matrix dimensions and
        the summed input nnz fit in int32, 64-bit otherwise — halving
        index bytes for every realistically-sized call, the same lever
        float32 values pull on the value side.  An explicit ``"int32"``
        that cannot hold the call's bounds transparently promotes to
        int64 (indices never wrap); the resolved width is identical
        across every method, backend, and executor.
    materialize:
        Result placement for the shared-memory executor.  ``None`` (the
        default) consults the ``REPRO_SHM_RESULTS`` environment variable
        and then returns **zero-copy** results: the output
        ``indices``/``data`` are views into the engine's shared segment,
        kept alive by ``result.matrix.buffer_owner`` — the segment
        unlinks itself when the last view is garbage-collected, so huge
        outputs skip the final copy out of shared memory.  ``True``
        copies the result into private memory before the segment is
        unlinked (the pre-zero-copy contract; ``matrix.materialize()``
        converts after the fact).  Ignored by the serial path and the
        thread executor, whose results are always private.
    deadline:
        Per-call time budget in seconds (parallel calls only).  Expiry
        raises :class:`~repro.parallel.resilience.DeadlineExceeded`,
        cancels outstanding chunks, and releases pool leases and shared
        segments.  ``None`` consults ``REPRO_DEADLINE``.
    resilience:
        A :class:`~repro.parallel.resilience.ResiliencePolicy`
        overriding the retry/backoff/deadline/fallback behaviour of
        parallel calls.  ``None`` resolves from the environment
        (``REPRO_MAX_RETRIES``, ``REPRO_DEADLINE``, ``REPRO_FALLBACK``);
        ``ResiliencePolicy.disabled()`` turns the layer off.

    Returns
    -------
    :class:`SpKAddResult`
    """
    check_nonempty(mats)
    check_same_shape(mats)
    if threads < 1:
        # threads=0 / negative used to fall through to the serial branch
        # (threads > 1 is the parallel gate), silently ignoring the
        # caller's request; malformed counts are rejected on every path.
        raise ValueError(f"threads must be >= 1, got {threads}")
    if value_dtype is not None:
        from repro.kernels import resolve_value_dtype

        vdt = resolve_value_dtype(mats, value_dtype)
        mats = [A.astype(vdt) for A in mats]
    if method not in _REGISTRY:
        raise ValueError(
            f"unknown method {method!r}; choose from {available_methods()}"
        )
    if method in BACKEND_AWARE_METHODS:
        from repro.kernels import resolve_backend

        kwargs["backend"] = resolve_backend(
            backend,
            default=DEFAULT_FACADE_BACKEND,
            need_trace=kwargs.get("trace_sink") is not None,
        ).name
    elif backend not in (None, "auto"):
        raise ValueError(
            f"method {method!r} does not take a backend (hash-family only)"
        )
    if machine is not None and method == "sliding_hash":
        kwargs.setdefault("cache_bytes", machine.llc_bytes)
    if threads > 1:
        from repro.parallel.executor import parallel_spkadd

        return parallel_spkadd(
            mats, method, threads=threads, sorted_output=sorted_output,
            executor=executor, index_dtype=index_dtype,
            materialize=materialize, deadline=deadline,
            resilience=resilience, **kwargs
        )
    if method == "sliding_hash" and "cache_bytes" in kwargs:
        kwargs.setdefault("threads", threads)
    if index_dtype is not None and method in BACKEND_AWARE_METHODS:
        # Serial hash-family kernels take the override directly; the
        # parallel branch above passes it as a named argument instead.
        kwargs.setdefault("index_dtype", index_dtype)
    st = KernelStats()
    runner = _REGISTRY[method]
    if method in _TWO_PHASE:
        out, st, st_sym = runner(
            mats, sorted_output=sorted_output, stats=st, **kwargs
        )
        res = SpKAddResult(out, st, st_sym, method=method)
    else:
        out = runner(mats, stats=st, **kwargs)
        res = SpKAddResult(out, st, None, method=method)
    if index_dtype is not None and method not in BACKEND_AWARE_METHODS:
        # Methods without native index plumbing (heap, SPA, pairwise,
        # scipy baselines) emit the default-resolved width; an explicit
        # override casts their output through the guarded resolution.
        from repro.kernels import resolve_index_dtype

        res.matrix = res.matrix.with_index_dtype(
            resolve_index_dtype(mats, index_dtype)
        )
    return res


_register("2way_incremental", spkadd_2way_incremental)
_register("2way_tree", spkadd_2way_tree)
_register("scipy_incremental", spkadd_scipy_incremental)
_register("scipy_tree", spkadd_scipy_tree)
_register("heap", spkadd_heap)
_register("spa", spkadd_spa)
_register("hash", _run_hash)
_register("sliding_hash", _run_sliding)
