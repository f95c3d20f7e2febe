"""Off-the-shelf pairwise baseline ("MKL Incremental" / "MKL Tree").

The paper benchmarks MKL's ``mkl_sparse_d_add`` driven incrementally and
in tree order.  MKL is unavailable here; ``scipy.sparse``'s compiled
``+`` operator plays the identical role — a black-box, vendor-supplied
2-way sparse addition that cannot fuse the k-way reduction.  (The paper
itself notes the Python ``+`` on scipy matrices is the k=2 special case
of SpKAdd.)

Because we cannot instrument the inside of scipy, stats record the
provable element touches of pairwise addition: each 2-way add reads both
operands and writes the result.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import scipy.sparse as sp

from repro.core.stats import KernelStats
from repro.core.pairwise import ENTRY_BYTES
from repro.formats.csc import CSCMatrix
from repro.formats.convert import from_scipy, to_scipy
from repro.util.checks import (
    check_nonempty,
    check_row_bounds,
    check_same_shape,
)


def _to_scipy_list(mats: Sequence[CSCMatrix]) -> List[sp.csc_matrix]:
    """Scipy copies of the addends, cast to the pipeline's resolved
    value dtype.

    Casting up front makes scipy's ``+`` accumulate in the same dtype
    every other method does (exact 64-bit integer sums instead of
    wrap-prone narrow ints) and keeps the output dtype identical across
    serial and all parallel executors — the shm engine's output is
    sized from the same rule.
    """
    from repro.core.hashtable import resolve_value_dtype

    check_nonempty(mats)
    check_same_shape(mats)
    check_row_bounds(mats)
    vdt = resolve_value_dtype(mats)
    return [to_scipy(m).tocsc().astype(vdt, copy=False) for m in mats]


def _from_scipy_resolved(acc, mats) -> CSCMatrix:
    """Back-convert a scipy sum, index-cast through the pipeline's
    resolved width.

    scipy picks its own index dtype per operation (int32 when its
    operands were, int64 otherwise), which need not match what every
    other method — and the parallel executors' concatenation — resolves
    for the call; the cast keeps the baseline bit-identical across
    serial and all executors.
    """
    from repro.formats.compressed import resolve_index_dtype

    return from_scipy(acc, "csc").with_index_dtype(resolve_index_dtype(mats))


def _record_pair(st: KernelStats, a_nnz: int, b_nnz: int, out_nnz: int) -> None:
    st.ops += a_nnz + b_nnz
    st.bytes_read += (a_nnz + b_nnz) * ENTRY_BYTES
    st.bytes_written += out_nnz * ENTRY_BYTES
    st.intermediate_nnz += out_nnz


def spkadd_scipy_incremental(
    mats: Sequence[CSCMatrix],
    *,
    stats: Optional[KernelStats] = None,
) -> CSCMatrix:
    """Fold the addends with scipy's compiled 2-way ``+`` (MKL stand-in)."""
    st = stats if stats is not None else KernelStats()
    st.algorithm = st.algorithm or "scipy_incremental"
    sps = _to_scipy_list(mats)
    st.k = len(sps)
    st.n_cols = mats[0].shape[1]
    st.input_nnz += sps[0].nnz
    acc = sps[0]
    for b in sps[1:]:
        st.input_nnz += acc.nnz + b.nnz
        out = acc + b
        _record_pair(st, acc.nnz, b.nnz, out.nnz)
        acc = out
    st.intermediate_nnz -= acc.nnz
    st.output_nnz = acc.nnz
    return _from_scipy_resolved(acc, mats)


def spkadd_scipy_tree(
    mats: Sequence[CSCMatrix],
    *,
    stats: Optional[KernelStats] = None,
) -> CSCMatrix:
    """Balanced-tree reduction with scipy's 2-way ``+`` (MKL stand-in)."""
    st = stats if stats is not None else KernelStats()
    st.algorithm = st.algorithm or "scipy_tree"
    level = _to_scipy_list(mats)
    st.k = len(level)
    st.n_cols = mats[0].shape[1]
    st.input_nnz += sum(a.nnz for a in level)
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            out = level[i] + level[i + 1]
            _record_pair(st, level[i].nnz, level[i + 1].nnz, out.nnz)
            nxt.append(out)
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    st.intermediate_nnz -= level[0].nnz
    st.output_nnz = level[0].nnz
    return _from_scipy_resolved(level[0], mats)
