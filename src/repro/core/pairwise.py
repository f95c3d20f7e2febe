"""2-way SpKAdd algorithms (Algorithm 1 and the balanced-tree variant).

Both express SpKAdd as repeated additions of matrix pairs:

* **Incremental** (Algorithm 1): fold left, ``B += A_i`` one at a time.
  The addition tree is a path of height ``k-1``; the running partial sum
  is re-read and re-written every iteration, giving O(k^2 nd) work and
  I/O on ER inputs — the paper's motivating inefficiency.
* **Tree** (Section II-B2): add in pairs up a balanced binary tree of
  height ``lg k``; every level touches O(sum_i nnz(A_i)) data, giving
  O(knd lg k) work and I/O.  Still uses only off-the-shelf 2-way adds.

Inputs must have sorted columns (Table I: 2-way algorithms need sorted
inputs); pass ``presort=True`` to sort unsorted inputs first (cost
charged to the stats).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.merge2 import merge_sorted_keyed
from repro.core.stats import KernelStats
from repro.formats.compressed import build_indptr, resolve_index_dtype
from repro.formats.csc import CSCMatrix
from repro.util.checks import (
    check_nonempty,
    check_row_bounds,
    check_same_shape,
)

#: bytes per (row-index, value) entry moved to/from memory — the paper
#: stores 32-bit indices and single-precision values (8 bytes/entry).
ENTRY_BYTES = 8


def _matrix_keys(A: CSCMatrix) -> np.ndarray:
    """Composite (col*m + row) keys of a sorted CSC matrix — an
    increasing array."""
    m, n = A.shape
    cols = np.repeat(np.arange(n, dtype=np.int64), np.diff(A.indptr))
    return cols * np.int64(m) + A.indices


def _matrix_from_keys(
    shape, keys: np.ndarray, vals: np.ndarray, index_dtype=None
) -> CSCMatrix:
    m, n = shape
    cols = keys // np.int64(m)
    rows = keys - cols * np.int64(m)
    if index_dtype is None:
        index_dtype = resolve_index_dtype(shape=shape, nnz=keys.size)
    return CSCMatrix(
        shape,
        build_indptr(cols, n, index_dtype=index_dtype),
        rows.astype(index_dtype, copy=False),
        vals,
        sorted=True,
        check=False,
    )


def add_pair(
    A: CSCMatrix,
    B: CSCMatrix,
    stats: Optional[KernelStats] = None,
    *,
    index_dtype=None,
) -> CSCMatrix:
    """Add two CSC matrices with sorted columns (one 2-way merge).

    This is the building block the paper would obtain from MKL, Matlab,
    or GraphBLAS; ours is a vectorized linear merge.  ``index_dtype``
    pins the output index width; ``None`` resolves the paper's rule
    over the two operands (int32 when dimensions and summed nnz fit).
    """
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch {A.shape} vs {B.shape}")
    if not (A.sorted and B.sorted):
        raise ValueError("2-way addition requires sorted columns")
    ka, kb = _matrix_keys(A), _matrix_keys(B)
    keys, vals = merge_sorted_keyed(ka, A.data, kb, B.data)
    out = _matrix_from_keys(
        A.shape, keys, vals, resolve_index_dtype((A, B), index_dtype)
    )
    if stats is not None:
        touched = A.nnz + B.nnz
        stats.ops += touched
        stats.bytes_read += touched * ENTRY_BYTES
        stats.bytes_written += out.nnz * ENTRY_BYTES
    return out


def _prepare(
    mats: Sequence[CSCMatrix],
    presort: bool,
    stats: KernelStats,
    index_dtype=None,
) -> List[CSCMatrix]:
    from repro.core.hashtable import resolve_value_dtype

    check_nonempty(mats)
    check_same_shape(mats)
    check_row_bounds(mats)
    # Cast to the resolved accumulator dtype up front (a no-op for the
    # common all-float64 case): the merges would widen pair by pair
    # anyway, and the add-free k=1 path must emit the same dtype every
    # other method (and the shm executor's output) resolves to.  The
    # same applies to the index width when the caller resolved one.
    vdt = resolve_value_dtype(mats)
    out = []
    for A in mats:
        if not A.sorted:
            if not presort:
                raise ValueError(
                    "2-way SpKAdd needs sorted inputs; pass presort=True"
                )
            A = A.copy()
            A.sort_indices()
            stats.ops += A.nnz * max(int(np.log2(max(A.nnz, 2))), 1)
        A = A.astype(vdt)
        if index_dtype is not None:
            A = A.with_index_dtype(index_dtype)
        out.append(A)
    return out


def spkadd_2way_incremental(
    mats: Sequence[CSCMatrix],
    *,
    stats: Optional[KernelStats] = None,
    presort: bool = False,
) -> CSCMatrix:
    """Algorithm 1: incrementally fold the k addends pairwise.

    Work and I/O are O(sum_{i=2..k} sum_{l<=i} nnz(A_l)): the i-th step
    re-reads the entire running sum.
    """
    st = stats if stats is not None else KernelStats()
    st.algorithm = st.algorithm or "2way_incremental"
    # Call-level index width: every fold (and the k=1 add-free path)
    # emits the width resolved over the whole collection, matching the
    # parallel executors' concatenation.
    idt = resolve_index_dtype(mats)
    mats = _prepare(mats, presort, st, idt)
    st.k = len(mats)
    st.n_cols = mats[0].shape[1]
    st.col_in_nnz = sum((m.col_nnz() for m in mats[1:]), mats[0].col_nnz().copy())
    acc = mats[0]
    st.input_nnz += acc.nnz
    st.bytes_read += acc.nnz * ENTRY_BYTES
    for A in mats[1:]:
        st.input_nnz += acc.nnz + A.nnz  # the partial sum is re-read
        acc = add_pair(acc, A, st, index_dtype=idt)
        st.intermediate_nnz += acc.nnz
    st.intermediate_nnz -= acc.nnz  # final write is the output, not an intermediate
    st.output_nnz = acc.nnz
    st.col_out_nnz = acc.col_nnz()
    return acc


def spkadd_2way_tree(
    mats: Sequence[CSCMatrix],
    *,
    stats: Optional[KernelStats] = None,
    presort: bool = False,
) -> CSCMatrix:
    """Balanced-binary-tree 2-way SpKAdd (Fig 1(c)).

    Leaves are the inputs; each level halves the matrix count, so every
    entry is touched O(lg k) times: O(lg k * sum_i nnz(A_i)) work/IO.
    """
    st = stats if stats is not None else KernelStats()
    st.algorithm = st.algorithm or "2way_tree"
    idt = resolve_index_dtype(mats)
    level = _prepare(mats, presort, st, idt)
    st.k = len(level)
    st.n_cols = level[0].shape[1]
    st.col_in_nnz = sum((m.col_nnz() for m in level[1:]), level[0].col_nnz().copy())
    st.input_nnz += sum(A.nnz for A in level)
    while len(level) > 1:
        nxt: List[CSCMatrix] = []
        for i in range(0, len(level) - 1, 2):
            s = add_pair(level[i], level[i + 1], st, index_dtype=idt)
            st.intermediate_nnz += s.nnz
            nxt.append(s)
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    st.intermediate_nnz -= level[0].nnz
    st.output_nnz = level[0].nnz
    st.col_out_nnz = level[0].col_nnz()
    return level[0]
