"""HeapSpKAdd — k-way addition with a min-heap (Algorithm 3).

A size-k binary min-heap holds one ``(row, matrix_id, value)`` tuple per
input column; repeatedly extracting the minimum row and refilling from
that matrix produces the output column in ascending row order.  Every
input entry passes through the heap once: O(lg k * sum_i nnz(A_i)) work,
O(sum_i nnz(A_i)) I/O (Table I).  Requires sorted inputs.

Two implementations:

* ``impl="heapq"`` — a literal transcription of Algorithm 3 using a
  binary heap, processing column by column.  Exact op counts, Python
  loop speed; used for correctness tests and small runs.
* ``impl="merge"`` (default) — computes the identical result via a
  vectorized k-way merge of the sorted runs (what the heap *computes*),
  while charging the heap cost model: one insert+extract per entry at
  O(lg k) each.  This keeps operational benchmarks tractable in Python;
  the charged op counts equal the heapq implementation's exact counts
  (verified by tests).
"""

from __future__ import annotations

import heapq
from math import ceil, log2
from typing import List, Optional, Sequence

import numpy as np

from repro.core.blocks import (
    assemble_from_block_outputs,
    choose_block_cols,
    composite_keys,
    gather_block,
    iter_col_blocks,
    split_keys,
)
from repro.core.hashtable import resolve_value_dtype
from repro.core.pairwise import ENTRY_BYTES
from repro.core.stats import KernelStats
from repro.formats.csc import CSCMatrix
from repro.util.checks import (
    check_nonempty,
    check_row_bounds,
    check_same_shape,
)

#: bytes of one heap node: (row, matrix_id, value) = 4 + 4 + 8.
HEAP_NODE_BYTES = 16


def _heap_cost_per_entry(k: int) -> int:
    """Heap ops charged per input entry: one insert + one extract-min,
    each O(lg k) (lg k >= 1)."""
    return max(int(ceil(log2(max(k, 2)))), 1)


def spkadd_heap(
    mats: Sequence[CSCMatrix],
    *,
    impl: str = "merge",
    block_cols: Optional[int] = None,
    stats: Optional[KernelStats] = None,
) -> CSCMatrix:
    """Add k sparse matrices with the heap algorithm (Algorithm 3).

    Output columns are always sorted (the heap emits ascending rows).
    """
    check_nonempty(mats)
    shape = check_same_shape(mats)
    check_row_bounds(mats)
    for A in mats:
        if not A.sorted:
            raise ValueError("HeapSpKAdd requires sorted input columns")
    st = stats if stats is not None else KernelStats()
    st.algorithm = st.algorithm or f"heap[{impl}]"
    st.k = len(mats)
    st.n_cols = shape[1]
    if impl == "merge":
        return _heap_merge(mats, shape, block_cols, st)
    if impl == "heapq":
        return _heap_loop(mats, shape, st)
    raise ValueError(f"unknown heap impl {impl!r}")


def _charge(st: KernelStats, k: int, in_entries: int, out_entries: int) -> None:
    per = _heap_cost_per_entry(k)
    st.input_nnz += in_entries
    st.output_nnz += out_entries
    st.heap_ops += in_entries  # insert+extract pairs
    st.ops += in_entries * per
    st.bytes_read += in_entries * ENTRY_BYTES
    st.bytes_written += out_entries * ENTRY_BYTES
    st.ds_bytes_peak = max(st.ds_bytes_peak, k * HEAP_NODE_BYTES)
    st.add_table_traffic(k * HEAP_NODE_BYTES, in_entries * per)


def _heap_merge(
    mats: Sequence[CSCMatrix],
    shape,
    block_cols: Optional[int],
    st: KernelStats,
) -> CSCMatrix:
    # Deferred: the kernels package imports core modules.
    from repro.kernels import resolve_index_dtype, sort_reduce

    m, n = shape
    value_dtype = resolve_value_dtype(mats)
    index_dtype = resolve_index_dtype(mats)
    bc = block_cols or choose_block_cols(mats)
    k = len(mats)
    blocks = []
    col_out = np.zeros(n, dtype=np.int64)
    col_in = np.zeros(n, dtype=np.int64)
    for j0, j1 in iter_col_blocks(n, bc):
        cols, rows, vals, in_nnz = gather_block(
            mats, j0, j1, value_dtype=value_dtype, index_dtype=index_dtype
        )
        col_in[j0:j1] = in_nnz
        if rows.size == 0:
            continue
        keys = composite_keys(cols, rows, m, width=j1 - j0)
        # sort_reduce sums each key's duplicates strictly left to right
        # (the heapq impl's extraction order), so the two
        # implementations agree to the last bit in every dtype —
        # reduceat would reassociate float segments by the last ulp.
        out_keys, out_vals = sort_reduce(keys, vals)
        ocols, orows = split_keys(out_keys, m)
        col_out[j0:j1] = np.bincount(ocols, minlength=j1 - j0)
        _charge(st, k, int(rows.size), int(out_keys.size))
        blocks.append((j0, ocols, orows, out_vals))
    st.col_in_nnz = col_in
    st.col_out_nnz = col_out
    st.col_ops = col_in * _heap_cost_per_entry(k)
    return assemble_from_block_outputs(
        shape, blocks, sorted=True,
        value_dtype=value_dtype, index_dtype=index_dtype,
    )


def _heap_loop(mats: Sequence[CSCMatrix], shape, st: KernelStats) -> CSCMatrix:
    """Literal Algorithm 3: a (row, matrix_id) min-heap per column."""
    from repro.kernels import resolve_index_dtype

    m, n = shape
    k = len(mats)
    value_dtype = resolve_value_dtype(mats)
    index_dtype = resolve_index_dtype(mats)
    # Accumulate in numpy scalars of the resolved dtype: stepwise
    # float32 rounding (and integer wrapping) then matches the
    # vectorized merge implementation bit for bit — Python's binary64
    # floats would round differently, and float() would corrupt int64
    # values above 2**53.
    cast = value_dtype.type
    columns: List = []
    col_in = np.zeros(n, dtype=np.int64)
    col_out = np.zeros(n, dtype=np.int64)
    for j in range(n):
        views = [A.col(j) for A in mats]
        col_in[j] = sum(len(r) for r, _ in views)
        heap: List = []
        cursor = [0] * k
        # Lines 3-5: seed the heap with each column's smallest row.
        for i, (rows, _vals) in enumerate(views):
            if len(rows):
                heap.append((int(rows[0]), i))
                cursor[i] = 1
        heapq.heapify(heap)
        out_rows: List[int] = []
        out_vals: List[float] = []
        # Lines 6-14: repeatedly extract the min row, append/accumulate,
        # and refill from the source matrix.
        while heap:
            r, i = heapq.heappop(heap)
            v = cast(views[i][1][cursor[i] - 1])
            if out_rows and out_rows[-1] == r:
                out_vals[-1] += v
            else:
                out_rows.append(r)
                out_vals.append(v)
            rows_i = views[i][0]
            if cursor[i] < len(rows_i):
                heapq.heappush(heap, (int(rows_i[cursor[i]]), i))
                cursor[i] += 1
        col_out[j] = len(out_rows)
        columns.append((
            np.asarray(out_rows, dtype=index_dtype),
            np.asarray(out_vals, dtype=value_dtype),
        ))
        _charge(st, k, int(col_in[j]), len(out_rows))
    st.col_in_nnz = col_in
    st.col_out_nnz = col_out
    st.col_ops = col_in * _heap_cost_per_entry(k)
    return CSCMatrix.from_columns(
        shape, columns, sorted=True,
        value_dtype=value_dtype, index_dtype=index_dtype,
    )
