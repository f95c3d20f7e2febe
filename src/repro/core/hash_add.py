"""HashSpKAdd — k-way addition with a hash table (Algorithms 5 and 6).

The hash algorithm is the paper's headline: work **and** I/O are both
O(sum_i nnz(A_i)) — the theoretical lower bounds — because every input
entry costs O(1) expected hash-table work and inputs/outputs are
streamed exactly once.  It tolerates unsorted inputs and produces
unsorted output unless a final sort is requested (Algorithm 5 line 15).

Each entry point resolves its ``backend`` name once
(:func:`repro.kernels.resolve_backend`; ``"fast"`` unless the caller
names ``"instrumented"`` or passes a ``trace_sink``) and runs one of
two engines:

* ``"instrumented"`` runs the paper's two phases (Section II-D) on the
  vectorized linear-probing table of :mod:`repro.core.hashtable`, which
  records slot-visit/probe counts plus the table-size-bucketed
  random-access histogram the cache model consumes:

  1. **Symbolic** (:func:`hash_symbolic`, Algorithm 6): count
     ``nnz(B(:,j))`` per output column using an index-only table
     (4-byte entries) sized by the summed input nnz.
  2. **Addition** (:func:`spkadd_hash`, Algorithm 5): accumulate values
     in a (row, value) table (8-byte entries) sized by the symbolic
     counts.

* ``"fast"`` fuses both phases into a single pass
  (:func:`_spkadd_fast_fused`): the output sizes fall out of the
  addition, so the symbolic table is pure overhead.  That pass runs the
  compiled per-column hash kernel of :mod:`repro.kernels.native`
  (Algorithm 5 in C: one table per column, then a radix sort of its
  distinct rows) when a C compiler is present, and a NumPy block loop
  (gather, composite keys, sort/segmented reduce, assemble) otherwise;
  both emit the same bytes.  The fast ``hash_symbolic`` and the sliding
  variants of :mod:`repro.core.sliding_hash` run the same pass.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

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
from repro.core.hashtable import hash_accumulate, resolve_value_dtype
from repro.core.pairwise import ENTRY_BYTES
from repro.core.stats import KernelStats
from repro.formats.compressed import resolve_index_dtype
from repro.formats.csc import CSCMatrix
from repro.util.checks import (
    check_nonempty,
    check_row_bounds,
    check_same_shape,
)
from repro.util.hashing import table_size_for

#: table entry bytes: symbolic stores a 32-bit index; the addition phase
#: stores a 32-bit index plus a 32-bit value (paper Section III-B).
SYMBOLIC_ENTRY_BYTES = 4
ADD_ENTRY_BYTES = 8

#: trace sink item: (table_entries, entry_bytes, slot_sequence)
TraceItem = Tuple[int, int, np.ndarray]


def _is_fast(backend: Optional[str], trace_sink) -> bool:
    """Resolve ``backend`` (a trace request forces ``"instrumented"``)
    and say whether it names the fused fast kernel."""
    from repro.kernels import resolve_backend

    return resolve_backend(backend, need_trace=trace_sink is not None) == "fast"


def hash_symbolic(
    mats: Sequence[CSCMatrix],
    *,
    block_cols: Optional[int] = None,
    stats: Optional[KernelStats] = None,
    trace_sink: Optional[List[TraceItem]] = None,
    backend: Optional[str] = None,
    index_dtype=None,
) -> np.ndarray:
    """Algorithm 6: per-column output nnz via an index-only hash table.

    Returns an ``int64`` array of length n with ``nnz(B(:,j))``.
    The table for a column group is sized by the paper's rule — a power
    of two greater than the summed input nnz of the group.
    ``index_dtype`` sizes the gathered id buffers (probing itself runs
    on int64 composite keys either way).
    """
    check_nonempty(mats)
    m, n = check_same_shape(mats)
    st = stats if stats is not None else KernelStats()
    st.algorithm = st.algorithm or "hash_symbolic"
    if _is_fast(backend, trace_sink):
        return _fast_symbolic(mats, st, block_cols, index_dtype)
    st.k = len(mats)
    st.n_cols = n
    value_dtype = resolve_value_dtype(mats)
    idx_dtype = resolve_index_dtype(mats, index_dtype)
    bc = block_cols or choose_block_cols(mats)
    scratch = BlockScratch()
    out = np.zeros(n, dtype=np.int64)
    col_in = np.zeros(n, dtype=np.int64)
    for j0, j1 in iter_col_blocks(n, bc):
        cols, rows, vals, in_nnz = gather_block(
            mats, j0, j1, scratch, value_dtype, idx_dtype
        )
        col_in[j0:j1] = in_nnz
        if rows.size == 0:
            continue
        keys = composite_keys(cols, rows, m, width=j1 - j0)
        tsize = table_size_for(rows.size)
        res = hash_accumulate(
            keys,
            # Dummy values: this is the symbolic pass — only the
            # distinct-key count survives, the sums are discarded.
            np.zeros(rows.size, dtype=np.float64),  # repro-lint: disable=L003
            tsize,
            capture_trace=trace_sink is not None,
        )
        if trace_sink is not None:
            trace_sink.append((tsize, SYMBOLIC_ENTRY_BYTES, res.trace))
        st.ops += res.slot_ops
        st.probes += res.probes
        st.add_table_traffic(tsize * SYMBOLIC_ENTRY_BYTES, res.slot_ops)
        st.ds_bytes_peak = max(st.ds_bytes_peak, tsize * SYMBOLIC_ENTRY_BYTES)
        ocols = res.keys // np.int64(m)
        out[j0:j1] = np.bincount(ocols, minlength=j1 - j0)
        st.input_nnz += int(rows.size)
        st.bytes_read += rows.size * ENTRY_BYTES
    st.col_in_nnz = col_in
    st.col_out_nnz = out.copy()
    st.output_nnz = int(out.sum())
    st.col_ops = col_in.astype(np.float64)
    return out


def _fast_symbolic(
    mats: Sequence[CSCMatrix],
    st: KernelStats,
    block_cols: Optional[int],
    index_dtype,
) -> np.ndarray:
    """The symbolic phase on the fast backend: the fused pass, whose
    per-column output counts land in ``st`` and are returned."""
    _spkadd_fast_fused(
        mats,
        block_cols=block_cols,
        st=KernelStats(k=len(mats)),
        stats_symbolic=st,
        index_dtype=index_dtype,
    )
    return st.col_out_nnz.copy()


def _spkadd_fast_fused(
    mats: Sequence[CSCMatrix],
    *,
    block_cols: Optional[int],
    st: KernelStats,
    stats_symbolic: Optional[KernelStats],
    index_dtype=None,
    out=None,
) -> CSCMatrix:
    """Single-pass SpKAdd of the fast backend (no symbolic phase).

    Runs the compiled per-column hash kernel
    (:func:`repro.kernels.native.spkadd_columns`) when the library is
    available, and the NumPy sort/reduce block loop otherwise; both emit
    the same bytes.  Neither needs the symbolic sizing pass — its
    statistics (per-column output counts) are byproducts of the addition
    and still land in ``stats_symbolic`` so facade callers see a
    populated two-phase result.  Output columns are sorted even under
    ``sorted_output=False`` (sortedness is free here).

    ``out=(indices, data)`` is a parallel chunk's output slot: the
    kernel writes there, at the slot's index width, when the slot's
    dtypes can hold the call's (the NumPy loop never does).
    """
    from repro.kernels import native

    shape = check_same_shape(mats)
    n = shape[1]
    value_dtype = resolve_value_dtype(mats)
    idx_dtype = resolve_index_dtype(mats, index_dtype)
    if out is not None and out[1].dtype == value_dtype and np.can_cast(
            idx_dtype, out[0].dtype):
        idx_dtype = out[0].dtype
    else:
        out = None
    compiled = native.spkadd_columns(mats, value_dtype, idx_dtype, out)
    if compiled is not None:
        indptr, indices, data, col_in = compiled
        matrix = CSCMatrix(shape, indptr, indices, data, sorted=True,
                           check=False)
        col_out = np.diff(indptr).astype(np.int64, copy=False)
    else:
        matrix, col_in, col_out = _fast_fused_numpy(
            mats, shape, block_cols, value_dtype, idx_dtype
        )
    in_nnz, out_nnz = int(col_in.sum()), matrix.nnz
    st.input_nnz += in_nnz
    st.output_nnz += out_nnz
    st.bytes_read += in_nnz * ENTRY_BYTES
    st.bytes_written += out_nnz * ENTRY_BYTES
    st.col_in_nnz = col_in
    st.col_out_nnz = col_out.copy()
    st.col_ops = col_in.astype(np.float64)
    if stats_symbolic is not None:
        st_sym = stats_symbolic
        st_sym.algorithm = st_sym.algorithm or "hash_symbolic"
        st_sym.k = st.k
        st_sym.n_cols = n
        st_sym.input_nnz = st.input_nnz
        st_sym.bytes_read = st.bytes_read
        st_sym.col_in_nnz = col_in.copy()
        st_sym.col_out_nnz = col_out.copy()
        st_sym.output_nnz = out_nnz
        st_sym.col_ops = col_in.astype(np.float64)
    return matrix


def _fast_fused_numpy(mats, shape, block_cols, value_dtype, idx_dtype):
    """The fused SpKAdd as a NumPy block loop (gather, composite keys,
    sort/reduce, assemble): the fallback when the compiled kernel is
    unavailable.  Returns ``(matrix, col_in_nnz, col_out_nnz)``."""
    # Looked up per call, so a wrapper installed on the module attribute
    # (the benchmark's tracer) sees every call.
    from repro.kernels import fast

    check_row_bounds(mats)
    m, n = shape
    bc = block_cols or choose_block_cols(mats)
    scratch = BlockScratch()
    blocks = []
    col_in = np.zeros(n, dtype=np.int64)
    col_out = np.zeros(n, dtype=np.int64)
    for j0, j1 in iter_col_blocks(n, bc):
        cols, rows, vals, in_nnz = gather_block(
            mats, j0, j1, scratch, value_dtype, idx_dtype
        )
        col_in[j0:j1] = in_nnz
        if rows.size == 0:
            continue
        keys = composite_keys(cols, rows, m, width=j1 - j0)
        okeys, ovals = fast.sort_reduce(keys, vals)
        ocols, orows = split_keys(okeys, m)
        col_out[j0:j1] = np.bincount(ocols, minlength=j1 - j0)
        blocks.append((j0, ocols, orows, ovals))
    # sort_reduce emits key-sorted (column-major, row-ascending) output,
    # so the matrix is sorted whether or not the caller asked for it.
    out = assemble_from_block_outputs(
        shape, blocks, sorted=True,
        value_dtype=value_dtype, index_dtype=idx_dtype,
    )
    return out, col_in, col_out


def spkadd_hash(
    mats: Sequence[CSCMatrix],
    *,
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
    """Algorithm 5: add k sparse matrices with a (row, value) hash table.

    Parameters
    ----------
    sorted_output:
        Sort each output column by row id (Algorithm 5 line 15).  The
        unsorted variant is what makes the distributed SpGEMM pipeline
        faster (Fig 6): downstream hash consumers do not need the sort.
    col_out_nnz:
        Pre-computed symbolic counts; when omitted the symbolic phase
        (Algorithm 6) runs first and its stats land in
        ``stats_symbolic``.  The fused ``"fast"`` pass has no symbolic
        phase and does not read them.
    backend:
        Accumulation engine name (see :mod:`repro.kernels`); ``None``
        is ``"fast"``, the fused single pass, which emits sorted
        columns whatever ``sorted_output`` says and records no
        slot-level stats.  ``"instrumented"`` runs the paper's two
        phases on the probing table.
    index_dtype:
        Width of the emitted ``indices``/``indptr`` (and of the gather
        buffers).  ``None`` resolves the paper's rule — int32 whenever
        the dimensions and the summed input nnz fit — via
        :func:`repro.kernels.resolve_index_dtype`; an explicit int32
        that cannot hold the call transparently promotes.
    out:
        Internal: a parallel chunk's ``(indices, data)`` output slot
        for the fused fast kernel; the instrumented engine ignores it.
    """
    check_nonempty(mats)
    shape = check_same_shape(mats)
    m, n = shape
    st = stats if stats is not None else KernelStats()
    st.algorithm = st.algorithm or ("hash" if sorted_output else "hash_unsorted")
    st.k = len(mats)
    st.n_cols = n
    if _is_fast(backend, trace_sink):
        return _spkadd_fast_fused(
            mats,
            block_cols=block_cols,
            st=st,
            stats_symbolic=stats_symbolic,
            index_dtype=index_dtype,
            out=out,
        )
    check_row_bounds(mats)
    if col_out_nnz is None:
        col_out_nnz = hash_symbolic(
            mats, block_cols=block_cols, stats=stats_symbolic,
            trace_sink=trace_sink, backend="instrumented",
            index_dtype=index_dtype,
        )
    value_dtype = resolve_value_dtype(mats)
    idx_dtype = resolve_index_dtype(mats, index_dtype)
    bc = block_cols or choose_block_cols(mats)
    scratch = BlockScratch()
    blocks = []
    col_in = np.zeros(n, dtype=np.int64)
    for j0, j1 in iter_col_blocks(n, bc):
        cols, rows, vals, in_nnz = gather_block(
            mats, j0, j1, scratch, value_dtype, idx_dtype
        )
        col_in[j0:j1] = in_nnz
        if rows.size == 0:
            continue
        keys = composite_keys(cols, rows, m, width=j1 - j0)
        onz_block = int(col_out_nnz[j0:j1].sum())
        tsize = table_size_for(onz_block)
        res = hash_accumulate(
            keys, vals, tsize, capture_trace=trace_sink is not None
        )
        if trace_sink is not None:
            trace_sink.append((tsize, ADD_ENTRY_BYTES, res.trace))
        if sorted_output:
            order = np.argsort(res.keys)
            okeys, ovals = res.keys[order], res.vals[order]
        else:
            # Group by column only; keep table order inside each column.
            order = np.argsort(res.keys // np.int64(m), kind="stable")
            okeys, ovals = res.keys[order], res.vals[order]
        ocols, orows = split_keys(okeys, m)
        blocks.append((j0, ocols, orows, ovals))
        st.ops += res.slot_ops
        st.probes += res.probes
        st.input_nnz += int(rows.size)
        st.output_nnz += int(okeys.size)
        st.bytes_read += rows.size * ENTRY_BYTES
        st.bytes_written += okeys.size * ENTRY_BYTES
        st.add_table_traffic(tsize * ADD_ENTRY_BYTES, res.slot_ops)
        st.ds_bytes_peak = max(st.ds_bytes_peak, tsize * ADD_ENTRY_BYTES)
    st.col_in_nnz = col_in
    st.col_out_nnz = np.asarray(col_out_nnz, dtype=np.int64).copy()
    st.col_ops = col_in.astype(np.float64)
    return assemble_from_block_outputs(
        shape, blocks, sorted=sorted_output,
        value_dtype=value_dtype, index_dtype=idx_dtype,
    )
