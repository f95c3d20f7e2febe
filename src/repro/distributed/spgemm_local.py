"""Local sparse matrix-matrix multiply (the per-stage SUMMA kernel).

Column-wise Gustavson on CSC: column j of C = A * B accumulates
``sum_t B(t, j) * A(:, t)``.  How the products are accumulated depends
on the kernel backend (:mod:`repro.kernels`):

* ``backend="fast"`` runs the compiled column-wise kernel
  (:func:`repro.kernels.native.spgemm_columns`): per output column, the
  products go into the SpKAdd kernel's linear-probing table, sized from
  the column's flop count, in the order the NumPy expansion below
  produces them, so the sums are byte-identical to it.  With
  ``sorted_output`` the distinct rows leave through the radix sort;
  without it they leave in first-insertion order and the columns are
  flagged unsorted.  Without a C compiler (or for a dtype combination
  the kernel lacks) the fast backend expands the products with NumPy
  and sums them with sort + strict in-order segmented reduce, whose
  output is always sorted;
* ``backend="instrumented"`` expands the same way and accumulates in
  the paper-faithful linear-probing engine (what CombBLAS's hash
  SpGEMM does): the sole source of slot-op/probe/table-traffic
  statistics.  With ``sorted_output`` False its columns stay in table
  order.

``accumulator="sort"`` keeps the explicit sort-accumulate variant whose
cost the timing model charges as ``sort_entries`` (it reduces via
:func:`repro.kernels.sort_reduce`, so its sums are bit-identical to the
hash accumulators on every dtype).

The multiply is dtype/index-dtype generic: products are formed in
``np.result_type`` of the operands' value dtypes and summed in the dtype
:func:`repro.kernels.resolve_value_dtype` resolves for (A, B) (float32
stays float32, integer products sum exactly in 64-bit); indices are
emitted at the width :func:`repro.kernels.resolve_index_dtype` resolves
from the output shape and the flop count.  A row index the multiply
reads out of range (a B row outside ``[0, ka)``, an A row outside
``[0, ma)``) is a ``ValueError`` naming the operand and the index on
every path.

The paper's Fig 6 point: when the downstream SpKAdd is hash-based it
accepts unsorted inputs, so local multiplies can skip the final sort
("Skipping sorting in the local multiplications can make it 20%
faster").  The compiled kernel skips it; the instrumented engine
charges it as ``sort_entries`` for the timing model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.core.blocks import composite_keys, split_keys
from repro.formats.compressed import (
    INT32_INDEX_CAPACITY,
    build_indptr,
    resolve_index_dtype,
)
from repro.formats.csc import CSCMatrix
from repro.core.hashtable import hash_accumulate
from repro.kernels import fast, native, resolve_backend, resolve_value_dtype
from repro.util.checks import check_product_rows
from repro.util.hashing import table_size_for


@dataclass
class LocalSpGEMMStats:
    """Measured work of one local SpGEMM.

    ``flops``: multiply-add pairs (the classic SpGEMM flop count,
    counted as expanded entries).  ``hash_ops``/``probes``: accumulator
    slot visits (instrumented backend only — the fast backend has no
    slots and meters zero, the same contract as
    :class:`~repro.core.stats.KernelStats`).  ``sort_entries``: entries
    passed through an explicit sort (0 when unsorted output is allowed,
    and 0 on the fast backend, whose kernel sorts as it emits and whose
    NumPy fallback sorts as a byproduct of its sort/reduce).
    ``table_traffic``: random-access histogram, same convention as
    :class:`~repro.core.stats.KernelStats`.
    """

    flops: int = 0
    hash_ops: int = 0
    probes: int = 0
    out_nnz: int = 0
    sort_entries: int = 0
    table_traffic: Dict[int, float] = field(default_factory=dict)

    def merge(self, other: "LocalSpGEMMStats") -> "LocalSpGEMMStats":
        self.flops += other.flops
        self.hash_ops += other.hash_ops
        self.probes += other.probes
        self.out_nnz += other.out_nnz
        self.sort_entries += other.sort_entries
        for tb, acc in other.table_traffic.items():
            self.table_traffic[tb] = self.table_traffic.get(tb, 0.0) + acc
        return self


def _inner(A: CSCMatrix, B: CSCMatrix):
    """B's stored rows (the inner indices of the products) and the
    length of the A column each one selects."""
    ka = A.shape[1]
    t = B.indices[int(B.indptr[0]):int(B.indptr[-1])]
    if t.size and (t.min() < 0 or t.max() >= ka):
        check_product_rows(A, B)
    lens = (A.indptr[t + 1] - A.indptr[t]).astype(np.int64)
    return t, lens


def _expand(A: CSCMatrix, B: CSCMatrix, t, lens, value_dtype: np.dtype):
    """Vectorized Gustavson expansion.

    For every nonzero B(t, j) (in storage order) emit A(:, t) scaled by
    B(t, j), tagged with output column j.  ``t``/``lens`` come from
    :func:`_inner` and select at least one product.  Returns (out_cols,
    out_rows, out_vals) with values in ``value_dtype`` and ids in the
    narrowest key-safe integer width (int32 when the composite key range
    ``m * n`` fits, so the accumulators sort/hash 4-byte keys).
    """
    ma = A.shape[0]
    n_out = B.shape[1]
    id_dtype = (
        np.int32
        if int(ma) * int(n_out) <= INT32_INDEX_CAPACITY
        else np.int64
    )
    total = int(lens.sum())
    b_cols = np.repeat(np.arange(n_out, dtype=id_dtype), np.diff(B.indptr))
    b_vals = B.data[int(B.indptr[0]):int(B.indptr[-1])]
    starts = A.indptr[t].astype(np.int64)
    # Classic multi-slice gather: for each expanded position, its source
    # index in A.indices is start[of its B-nonzero] + local offset.
    offsets = np.concatenate([[0], np.cumsum(lens)])[:-1]
    gather = np.repeat(starts - offsets, lens) + np.arange(total, dtype=np.int64)
    rows = A.indices[gather]
    if rows.min() < 0 or rows.max() >= ma:
        check_product_rows(A, B)
    rows = rows.astype(id_dtype, copy=False)
    vals = (A.data[gather] * np.repeat(b_vals, lens)).astype(
        value_dtype, copy=False
    )
    cols = np.repeat(b_cols, lens)
    return cols, rows, vals


def local_spgemm(
    A: CSCMatrix,
    B: CSCMatrix,
    *,
    accumulator: str = "hash",
    sorted_output: bool = False,
    stats: Optional[LocalSpGEMMStats] = None,
    backend: Optional[str] = None,
    value_dtype=None,
    index_dtype=None,
) -> CSCMatrix:
    """Compute ``C = A @ B`` for local (in-process) sparse blocks.

    ``backend`` selects the engine for the ``"hash"`` accumulator
    (``None`` is ``"fast"``, the compiled column-wise kernel —
    bit-identical values, no stats; pass ``"instrumented"`` for the
    paper-faithful engine whose statistics feed the Fig 6 cost model).

    ``sorted_output=False`` lets the hash engines leave each output
    column unsorted (table order on the instrumented engine,
    first-insertion order in the compiled kernel) — valid CSC with
    unsorted columns, exactly what a hash-based downstream SpKAdd
    consumes without penalty.  The fast backend's NumPy fallback sorts
    either way (a free byproduct of its sort/reduce).

    ``value_dtype``/``index_dtype`` override the resolved output dtypes
    (defaults: :func:`repro.kernels.resolve_value_dtype` over (A, B)
    and the call-level int32-when-it-fits index rule).
    """
    ma, ka = A.shape
    kb, nb = B.shape
    if ka != kb:
        raise ValueError(f"inner dimensions differ: {A.shape} x {B.shape}")
    if accumulator not in ("hash", "sort"):
        raise ValueError(f"unknown accumulator {accumulator!r}")
    st = stats if stats is not None else LocalSpGEMMStats()
    vdt = resolve_value_dtype((A, B), value_dtype)
    t, lens = _inner(A, B)
    flops = int(lens.sum())
    st.flops += flops
    idt = resolve_index_dtype((), index_dtype, shape=(ma, nb), nnz=flops)
    if flops == 0:
        return CSCMatrix(
            (ma, nb),
            np.zeros(nb + 1, dtype=idt),
            np.empty(0, dtype=idt),
            np.empty(0, dtype=vdt),
            sorted=True,
            check=False,
        )
    engine = resolve_backend(backend) if accumulator == "hash" else None
    if engine == "fast":
        out = native.spgemm_columns(A, B, vdt, idt, sorted_output, flops)
        if out is not None:
            indptr, indices, data = out
            st.out_nnz += int(data.size)
            return CSCMatrix(
                (ma, nb), indptr, indices, data, sorted=sorted_output,
                check=False,
            )
    cols, rows, vals = _expand(A, B, t, lens, vdt)
    keys = composite_keys(cols, rows, ma, width=nb)
    out_sorted = sorted_output
    if engine == "instrumented":
        # Symbolic sizing: distinct keys upper-bounded by the expansion
        # (the paper's rule, same as SpKAdd's two-phase scheme).
        tsize = table_size_for(int(np.unique(keys).size))
        res = hash_accumulate(keys, vals, tsize)
        st.hash_ops += res.slot_ops
        st.probes += res.probes
        st.table_traffic[tsize * 8] = (
            st.table_traffic.get(tsize * 8, 0.0) + res.slot_ops
        )
        okeys, ovals = res.keys, res.vals
        if sorted_output:
            order = np.argsort(okeys)
            st.sort_entries += int(okeys.size)
        else:
            order = np.argsort(okeys // np.int64(ma), kind="stable")
        okeys, ovals = okeys[order], ovals[order]
    else:
        # accumulator="sort", or the fast backend without the kernel:
        # one sort/reduce pass, whose output comes back key-sorted.
        # Only the sort accumulator is charged for the sort.
        okeys, ovals = fast.sort_reduce(keys, vals)
        if engine is None:
            st.sort_entries += int(keys.size)
        out_sorted = True
    ocols, orows = split_keys(okeys, ma)
    st.out_nnz += int(okeys.size)
    return CSCMatrix(
        (ma, nb),
        build_indptr(ocols, nb, index_dtype=idt),
        orows.astype(idt, copy=False),
        ovals,
        sorted=out_sorted,
        check=False,
    )
