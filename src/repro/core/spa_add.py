"""SPASpKAdd — k-way addition with a sparse accumulator (Algorithm 4).

The SPA is a dense length-m value array plus a list of touched indices:
every input entry lands at ``SPA[row]`` in O(1), new rows are appended
to the index list, and the output is read back through the (optionally
sorted) index list.  Work and I/O are O(sum_i nnz(A_i)); the cost is the
O(T*m) memory across T threads and the random access pattern over the
full m-length array — the paper's reason SPA stops scaling on large
matrices (Fig 3).

Implementation note: the dense-scatter accumulation is performed with
``numpy.bincount`` over each column's gathered entries, which *is* a
dense length-m scatter (NumPy's vectorized equivalent of the SPA
update loop), followed by index extraction from the touched rows.  The
recorded stats charge exactly the paper's SPA model: one random touch
of the m-length array per input entry plus one per output entry.

``spkadd_sliding_spa`` implements the extension the paper sketches in
Section IV-B observation (b): partitioning the SPA by row ranges so each
partition fits in cache, mirroring the sliding hash.  It is ablated in
the Fig-4 bench.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.blocks import (
    assemble_from_block_outputs,
    choose_block_cols,
    gather_block,
    iter_col_blocks,
)
from repro.core.hashtable import resolve_value_dtype
from repro.core.pairwise import ENTRY_BYTES
from repro.core.stats import KernelStats
from repro.formats.compressed import resolve_index_dtype
from repro.formats.csc import CSCMatrix
from repro.kernels.fast import _restore_negative_zeros
from repro.parallel.partition import row_partition_bounds
from repro.util.checks import (
    check_nonempty,
    check_row_bounds,
    check_same_shape,
)

#: bytes per SPA slot: 8-byte value + 4-byte "valid" flag/stamp.
SPA_SLOT_BYTES = 12


def _accumulate_dense(rows: np.ndarray, vals: np.ndarray, m: int):
    """Dense-scatter accumulate one column: returns (idx_sorted, sums).

    ``bincount`` scatters every entry into a dense length-m array —
    operationally identical to the SPA update — then the touched rows
    are extracted.  Output rows come out ascending (Algorithm 4 line 8,
    SORT(idx), which the paper performs when sorted output is desired).

    The dense array carries the values' own (accumulator) dtype:
    ``bincount``'s C loop is the fast path for float64 weights but
    always emits float64, so every other dtype scatters with the
    equally in-order ``np.add.at`` — integer sums stay exact integers
    and float32 stays float32.  Both seed the dense array with ``+0.0``,
    so a row whose addends are all ``-0.0`` gets its sign back from
    :func:`~repro.kernels.fast._restore_negative_zeros`.
    """
    touched = np.bincount(rows, minlength=m)
    idx = np.flatnonzero(touched)
    if vals.dtype == np.float64:
        dense = np.bincount(rows, weights=vals, minlength=m)
    else:
        dense = np.zeros(m, dtype=vals.dtype)
        np.add.at(dense, rows, vals)
    sums = dense[idx]
    if sums.dtype.kind in "fc":
        _restore_negative_zeros(sums, np.searchsorted(idx, rows), vals)
    return idx, sums


def spkadd_spa(
    mats: Sequence[CSCMatrix],
    *,
    block_cols: Optional[int] = None,
    stats: Optional[KernelStats] = None,
) -> CSCMatrix:
    """Add k sparse matrices with the SPA algorithm (Algorithm 4).

    Accepts unsorted inputs (Table I: SPA does not need sorted columns);
    output columns are sorted.
    """
    check_nonempty(mats)
    shape = check_same_shape(mats)
    check_row_bounds(mats)
    m, n = shape
    st = stats if stats is not None else KernelStats()
    st.algorithm = st.algorithm or "spa"
    st.k = len(mats)
    st.n_cols = n
    st.ds_bytes_peak = max(st.ds_bytes_peak, m * SPA_SLOT_BYTES)
    value_dtype = resolve_value_dtype(mats)
    index_dtype = resolve_index_dtype(mats)
    bc = block_cols or choose_block_cols(mats)
    blocks = []
    col_in = np.zeros(n, dtype=np.int64)
    col_out = np.zeros(n, dtype=np.int64)
    for j0, j1 in iter_col_blocks(n, bc):
        cols, rows, vals, in_nnz = gather_block(
            mats, j0, j1, value_dtype=value_dtype, index_dtype=index_dtype
        )
        col_in[j0:j1] = in_nnz
        if rows.size == 0:
            continue
        # Group entries by column (stable), then dense-scatter each
        # column through the SPA.
        order = np.argsort(cols, kind="stable")
        cols_s, rows_s, vals_s = cols[order], rows[order], vals[order]
        bounds = np.searchsorted(cols_s, np.arange(j1 - j0 + 1))
        out_cols = []
        out_rows = []
        out_vals = []
        for jl in range(j1 - j0):
            lo, hi = bounds[jl], bounds[jl + 1]
            if hi == lo:
                continue
            idx, sums = _accumulate_dense(rows_s[lo:hi], vals_s[lo:hi], m)
            out_cols.append(np.full(idx.size, jl, dtype=np.int64))
            out_rows.append(idx)
            out_vals.append(sums)
            col_out[j0 + jl] = idx.size
        if out_rows:
            oc = np.concatenate(out_cols)
            orw = np.concatenate(out_rows)
            ov = np.concatenate(out_vals)
            blocks.append((j0, oc, orw, ov))
            touches = rows.size + orw.size
            st.ops += touches
            st.add_table_traffic(m * SPA_SLOT_BYTES, touches)
            st.input_nnz += int(rows.size)
            st.output_nnz += int(orw.size)
            st.bytes_read += rows.size * ENTRY_BYTES
            st.bytes_written += orw.size * ENTRY_BYTES
    st.col_in_nnz = col_in
    st.col_out_nnz = col_out
    st.col_ops = col_in + col_out
    return assemble_from_block_outputs(
        shape, blocks, sorted=True,
        value_dtype=value_dtype, index_dtype=index_dtype,
    )


def spkadd_sliding_spa(
    mats: Sequence[CSCMatrix],
    *,
    parts: int,
    block_cols: Optional[int] = None,
    stats: Optional[KernelStats] = None,
) -> CSCMatrix:
    """Row-partitioned SPA (the paper's suggested sliding-SPA extension).

    The SPA array is restricted to ``m/parts`` rows at a time so it fits
    in cache; entries are routed to their partition exactly like the
    sliding hash.  ``parts=1`` degenerates to :func:`spkadd_spa`.
    """
    check_nonempty(mats)
    shape = check_same_shape(mats)
    m, n = shape
    if parts < 1:
        raise ValueError("parts must be >= 1")
    if parts == 1:
        return spkadd_spa(mats, block_cols=block_cols, stats=stats)
    st = stats if stats is not None else KernelStats()
    st.algorithm = st.algorithm or f"sliding_spa[{parts}]"
    st.k = len(mats)
    st.n_cols = n
    st.parts = parts
    bounds_rows = row_partition_bounds(m, parts)
    part_m = int(np.max(np.diff(bounds_rows)))
    st.ds_bytes_peak = max(st.ds_bytes_peak, part_m * SPA_SLOT_BYTES)
    value_dtype = resolve_value_dtype(mats)
    index_dtype = resolve_index_dtype(mats)
    bc = block_cols or choose_block_cols(mats)
    blocks = []
    col_in = np.zeros(n, dtype=np.int64)
    col_out = np.zeros(n, dtype=np.int64)
    for j0, j1 in iter_col_blocks(n, bc):
        cols, rows, vals, in_nnz = gather_block(
            mats, j0, j1, value_dtype=value_dtype, index_dtype=index_dtype
        )
        col_in[j0:j1] = in_nnz
        if rows.size == 0:
            continue
        st.ops += rows.size  # partition routing pass
        part_id = np.searchsorted(bounds_rows, rows, side="right") - 1
        order = np.lexsort((part_id, cols))  # group by column, then part
        cols_s, rows_s, vals_s, part_s = (
            cols[order], rows[order], vals[order], part_id[order]
        )
        col_bounds = np.searchsorted(cols_s, np.arange(j1 - j0 + 1))
        out_cols, out_rows, out_vals = [], [], []
        for jl in range(j1 - j0):
            lo, hi = col_bounds[jl], col_bounds[jl + 1]
            if hi == lo:
                continue
            # Each partition is a contiguous run inside the column.
            p_bounds = np.searchsorted(part_s[lo:hi], np.arange(parts + 1))
            for p in range(parts):
                plo, phi = lo + p_bounds[p], lo + p_bounds[p + 1]
                if phi == plo:
                    continue
                r0 = int(bounds_rows[p])
                idx, sums = _accumulate_dense(
                    rows_s[plo:phi] - r0, vals_s[plo:phi],
                    int(bounds_rows[p + 1]) - r0,
                )
                out_cols.append(np.full(idx.size, jl, dtype=np.int64))
                out_rows.append(idx + r0)
                out_vals.append(sums)
                col_out[j0 + jl] += idx.size
        if out_rows:
            oc = np.concatenate(out_cols)
            orw = np.concatenate(out_rows)
            ov = np.concatenate(out_vals)
            blocks.append((j0, oc, orw, ov))
            touches = rows.size + orw.size
            st.ops += touches
            st.add_table_traffic(part_m * SPA_SLOT_BYTES, touches)
            st.input_nnz += int(rows.size)
            st.output_nnz += int(orw.size)
            st.bytes_read += rows.size * ENTRY_BYTES
            st.bytes_written += orw.size * ENTRY_BYTES
    st.col_in_nnz = col_in
    st.col_out_nnz = col_out
    st.col_ops = col_in + col_out
    return assemble_from_block_outputs(
        shape, blocks, sorted=True,
        value_dtype=value_dtype, index_dtype=index_dtype,
    )
