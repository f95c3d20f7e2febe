"""Sliding-hash SpKAdd (Algorithms 7 and 8) — the cache-aware variant.

A plain hash table sized by ``nnz(B(:,j))`` (or by the summed input nnz
in the symbolic phase) spills out of the last-level cache once
``entries * entry_bytes * threads > LLC bytes``, and random probing of
an out-of-cache table is expensive.  The sliding algorithms bound the
table to the cache budget ``M / (b * T)`` entries and *slide* it along
the row dimension: rows are cut into ``parts`` equal ranges
(``parts = ceil(needed_bytes * T / M)``), each range is accumulated with
its own in-cache table, and per-range outputs concatenate in row order.

``table_entries`` can be forced directly, which is how the Fig-4 sweep
(runtime vs hash-table size) is generated.

The row partitions exist only on the ``instrumented`` backend, whose
probing table is what the cache budget bounds.  On ``fast`` both entry
points run the fused single pass of :mod:`repro.core.hash_add` (the
compiled kernel, or its NumPy fallback), which gives the same bytes
because every slot sums in the same matrix-major order; they still
report the ``parts`` count the budget implies.
"""

from __future__ import annotations

from math import ceil
from typing import List, Optional, Sequence

import numpy as np

from repro.core.blocks import (
    BlockScratch,
    assemble_from_block_outputs,
    choose_block_cols,
    composite_keys,
    gather_block,
    iter_col_blocks,
    split_keys,
)
from repro.core.hash_add import (
    ADD_ENTRY_BYTES,
    SYMBOLIC_ENTRY_BYTES,
    TraceItem,
    _fast_symbolic,
    _is_fast,
    _spkadd_fast_fused,
)
from repro.core.hashtable import hash_accumulate, resolve_value_dtype
from repro.core.pairwise import ENTRY_BYTES
from repro.core.stats import KernelStats
from repro.formats.compressed import resolve_index_dtype
from repro.formats.csc import CSCMatrix
from repro.parallel.partition import row_partition_bounds
from repro.util.checks import (
    check_nonempty,
    check_row_bounds,
    check_same_shape,
)
from repro.util.hashing import next_pow2, table_size_for


def sliding_parts(
    expected_entries: float,
    entry_bytes: int,
    *,
    threads: int = 1,
    cache_bytes: Optional[int] = None,
    table_entries: Optional[int] = None,
) -> int:
    """Number of row partitions (Algorithm 7/8 line 3).

    Either derived from the cache budget —
    ``parts = ceil(entries * b * T / M)`` — or from a forced per-part
    table capacity (the Fig-4 sweep): ``parts = ceil(entries / size)``.
    """
    if table_entries is not None:
        return max(int(ceil(expected_entries / max(table_entries, 1))), 1)
    if cache_bytes is None:
        return 1
    return max(int(ceil(expected_entries * entry_bytes * threads / cache_bytes)), 1)


def _budget_parts(
    col_nnz: np.ndarray,
    entry_bytes: int,
    threads: int,
    cache_bytes: Optional[int],
    table_entries: Optional[int],
) -> int:
    """The partition count the instrumented engine settles on: the
    budget's count for the heaviest column (``sliding_parts`` never
    decreases in its entry count)."""
    return sliding_parts(
        float(col_nnz.max(initial=0)),
        entry_bytes,
        threads=threads,
        cache_bytes=cache_bytes,
        table_entries=table_entries,
    )


def _run_partitioned(
    mats: Sequence[CSCMatrix],
    *,
    phase: str,  # "symbolic" or "add"
    st: KernelStats,
    threads: int,
    cache_bytes: Optional[int],
    table_entries: Optional[int],
    block_cols: Optional[int],
    col_out_nnz: Optional[np.ndarray],
    sorted_output: bool,
    trace_sink: Optional[List[TraceItem]],
    index_dtype=None,
):
    """Shared instrumented engine for Algorithms 7 and 8.

    For each column block, decide the partition count from the phase's
    expected entry count (input nnz for symbolic, output nnz for add),
    route entries to row ranges, and run the probing table per range
    with an in-cache table.
    """
    m, n = check_same_shape(mats)
    value_dtype = resolve_value_dtype(mats)
    idx_dtype = resolve_index_dtype(mats, index_dtype)
    entry_bytes = SYMBOLIC_ENTRY_BYTES if phase == "symbolic" else ADD_ENTRY_BYTES
    bc = block_cols or choose_block_cols(mats)
    scratch = BlockScratch()
    counts = np.zeros(n, dtype=np.int64)
    col_in = np.zeros(n, dtype=np.int64)
    blocks = []
    max_parts = 1
    for j0, j1 in iter_col_blocks(n, bc):
        cols, rows, vals, in_nnz = gather_block(
            mats, j0, j1, scratch, value_dtype, idx_dtype
        )
        col_in[j0:j1] = in_nnz
        if rows.size == 0:
            continue
        if phase == "symbolic":
            per_col_expected = float(in_nnz.max())
        else:
            per_col_expected = float(np.max(col_out_nnz[j0:j1]))
        parts = sliding_parts(
            per_col_expected,
            entry_bytes,
            threads=threads,
            cache_bytes=cache_bytes,
            table_entries=table_entries,
        )
        max_parts = max(max_parts, parts)
        st.ops += 0 if parts == 1 else rows.size  # routing pass (Alg 7/8 line 9)
        bounds = row_partition_bounds(m, parts)
        part_id = (
            np.zeros(rows.size, dtype=np.int64)
            if parts == 1
            else np.searchsorted(bounds, rows, side="right") - 1
        )
        part_counts = np.bincount(part_id, minlength=parts)
        out_k: List[np.ndarray] = []
        out_v: List[np.ndarray] = []
        order_p = np.argsort(part_id, kind="stable")
        offsets = np.concatenate([[0], np.cumsum(part_counts)])
        keys_all = composite_keys(cols, rows, m, width=j1 - j0)[order_p]
        vals_all = vals[order_p]
        width = j1 - j0
        for p in range(parts):
            lo, hi = int(offsets[p]), int(offsets[p + 1])
            if hi == lo:
                continue
            # Table capacity: the forced sweep size when it fits the
            # partition, otherwise grown to keep probing bounded.
            n_keys = hi - lo
            if table_entries is not None:
                tsize = max(next_pow2(table_entries), 16)
                if n_keys >= 0.9 * tsize:
                    tsize = table_size_for(n_keys)
            else:
                tsize = table_size_for(n_keys)
            res = hash_accumulate(
                keys_all[lo:hi],
                vals_all[lo:hi],
                tsize,
                capture_trace=trace_sink is not None,
            )
            if trace_sink is not None:
                trace_sink.append((tsize, entry_bytes, res.trace))
            out_k.append(res.keys)
            out_v.append(res.vals)
            st.ops += res.slot_ops
            st.probes += res.probes
            st.add_table_traffic(tsize * entry_bytes, res.slot_ops)
            st.ds_bytes_peak = max(st.ds_bytes_peak, tsize * entry_bytes)
        okeys = np.concatenate(out_k) if out_k else np.empty(0, dtype=np.int64)
        ovals = np.concatenate(out_v) if out_v else np.empty(0, dtype=value_dtype)
        ocols_all = okeys // np.int64(m)
        counts[j0:j1] += np.bincount(ocols_all, minlength=width)
        st.input_nnz += int(rows.size)
        st.bytes_read += rows.size * ENTRY_BYTES
        if phase == "add":
            if sorted_output:
                order = np.argsort(okeys)
            else:
                order = np.argsort(ocols_all, kind="stable")
            okeys, ovals = okeys[order], ovals[order]
            ocols, orows = split_keys(okeys, m)
            blocks.append((j0, ocols, orows, ovals))
            st.output_nnz += int(okeys.size)
            st.bytes_written += okeys.size * ENTRY_BYTES
    st.parts = max_parts
    st.col_in_nnz = col_in
    st.col_ops = col_in.astype(np.float64)
    if phase == "symbolic":
        st.col_out_nnz = counts.copy()
        st.output_nnz = int(counts.sum())
        return counts
    st.col_out_nnz = np.asarray(col_out_nnz, dtype=np.int64).copy()
    return assemble_from_block_outputs(
        (m, n), blocks, sorted=sorted_output,
        value_dtype=value_dtype, index_dtype=idx_dtype,
    )


def sliding_hash_symbolic(
    mats: Sequence[CSCMatrix],
    *,
    threads: int = 1,
    cache_bytes: Optional[int] = None,
    table_entries: Optional[int] = None,
    block_cols: Optional[int] = None,
    stats: Optional[KernelStats] = None,
    trace_sink: Optional[List[TraceItem]] = None,
    backend: Optional[str] = None,
    index_dtype=None,
) -> np.ndarray:
    """Algorithm 7: symbolic phase with cache-bounded sliding tables.

    With neither ``cache_bytes`` nor ``table_entries`` set this is plain
    Algorithm 6 (parts = 1).
    """
    check_nonempty(mats)
    st = stats if stats is not None else KernelStats()
    st.algorithm = st.algorithm or "sliding_hash_symbolic"
    if _is_fast(backend, trace_sink):
        out = _fast_symbolic(mats, st, block_cols, index_dtype)
        st.parts = _budget_parts(
            st.col_in_nnz, SYMBOLIC_ENTRY_BYTES,
            threads, cache_bytes, table_entries,
        )
        return out
    st.k = len(mats)
    st.n_cols = mats[0].shape[1]
    return _run_partitioned(
        mats,
        phase="symbolic",
        st=st,
        threads=threads,
        cache_bytes=cache_bytes,
        table_entries=table_entries,
        block_cols=block_cols,
        col_out_nnz=None,
        sorted_output=True,
        trace_sink=trace_sink,
        index_dtype=index_dtype,
    )


def spkadd_sliding_hash(
    mats: Sequence[CSCMatrix],
    *,
    threads: int = 1,
    cache_bytes: Optional[int] = None,
    table_entries: Optional[int] = None,
    sorted_output: bool = True,
    block_cols: Optional[int] = None,
    col_out_nnz: Optional[np.ndarray] = None,
    stats: Optional[KernelStats] = None,
    stats_symbolic: Optional[KernelStats] = None,
    trace_sink: Optional[List[TraceItem]] = None,
    backend: Optional[str] = None,
    index_dtype=None,
    out=None,
) -> CSCMatrix:
    """Algorithm 8: SpKAdd with cache-bounded sliding hash tables.

    The symbolic phase (Algorithm 7) runs first unless ``col_out_nnz``
    is supplied.  Note the paper's observation that the symbolic phase
    benefits *more* from sliding than the addition phase when the
    compression factor is large (its tables are cf x bigger).

    ``backend`` selects the accumulation engine (:mod:`repro.kernels`):
    ``"instrumented"`` runs both phases on row-partitioned probing
    tables, ``"fast"`` runs the fused single pass (sorted output, no
    ``col_out_nnz`` needed).  ``index_dtype`` pins the emitted index
    width (default: the paper's int32-when-it-fits rule); ``out`` is
    as in :func:`repro.core.hash_add.spkadd_hash`.
    """
    check_nonempty(mats)
    check_row_bounds(mats)
    st = stats if stats is not None else KernelStats()
    st.algorithm = st.algorithm or "sliding_hash"
    st.k = len(mats)
    st.n_cols = mats[0].shape[1]
    if _is_fast(backend, trace_sink):
        if stats_symbolic is not None:
            stats_symbolic.algorithm = (
                stats_symbolic.algorithm or "sliding_hash_symbolic"
            )
        out = _spkadd_fast_fused(
            mats,
            block_cols=block_cols,
            st=st,
            stats_symbolic=stats_symbolic,
            index_dtype=index_dtype,
            out=out,
        )
        budget = (threads, cache_bytes, table_entries)
        st.parts = _budget_parts(st.col_out_nnz, ADD_ENTRY_BYTES, *budget)
        if stats_symbolic is not None:
            stats_symbolic.parts = _budget_parts(
                st.col_in_nnz, SYMBOLIC_ENTRY_BYTES, *budget
            )
        return out
    if col_out_nnz is None:
        col_out_nnz = sliding_hash_symbolic(
            mats,
            threads=threads,
            cache_bytes=cache_bytes,
            table_entries=table_entries,
            block_cols=block_cols,
            stats=stats_symbolic,
            trace_sink=trace_sink,
            backend="instrumented",
            index_dtype=index_dtype,
        )
    return _run_partitioned(
        mats,
        phase="add",
        st=st,
        threads=threads,
        cache_bytes=cache_bytes,
        table_entries=table_entries,
        block_cols=block_cols,
        col_out_nnz=np.asarray(col_out_nnz, dtype=np.int64),
        sorted_output=sorted_output,
        trace_sink=trace_sink,
        index_dtype=index_dtype,
    )
