"""Symbolic-phase dispatch: computing ``nnz(B(:,j))`` before adding.

Every k-way kernel needs the per-column output size to pre-allocate the
result and to size hash tables (paper Section II-D).  The paper uses a
hash-based symbolic phase (Algorithm 6) but notes heap and SPA could be
used; we provide those too, plus an exact sort-based oracle used by the
tests.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.blocks import (
    choose_block_cols,
    composite_keys,
    gather_block,
    iter_col_blocks,
)
from repro.core.stats import KernelStats
from repro.formats.csc import CSCMatrix
from repro.util.checks import check_nonempty, check_same_shape


def exact_output_col_nnz(
    mats: Sequence[CSCMatrix], *, block_cols: Optional[int] = None
) -> np.ndarray:
    """Oracle: exact per-column output nnz via sort+unique.

    Independent of the probing machinery, used to validate the hash /
    sliding-hash symbolic phases.
    """
    check_nonempty(mats)
    m, n = check_same_shape(mats)
    bc = block_cols or choose_block_cols(mats)
    out = np.zeros(n, dtype=np.int64)
    for j0, j1 in iter_col_blocks(n, bc):
        cols, rows, _vals, _ = gather_block(mats, j0, j1)
        if rows.size == 0:
            continue
        keys = np.unique(composite_keys(cols, rows, m, width=j1 - j0))
        out[j0:j1] = np.bincount(keys // np.int64(m), minlength=j1 - j0)
    return out


def chunk_output_layout(
    col_nnz: np.ndarray,
    ranges: Sequence[Tuple[int, int]],
    *,
    index_dtype=None,
) -> Tuple[np.ndarray, List[Tuple[int, int]]]:
    """Exact output CSC layout from per-column symbolic counts.

    Given ``col_nnz`` (``nnz(B(:,j))`` for every column, e.g. from
    :func:`exact_output_col_nnz` or a parallel symbolic pass) and the
    column ``ranges`` assigned to each chunk, returns ``(indptr,
    offsets)`` where ``indptr`` is the output pointer array of ``B`` and
    ``offsets[i] = (lo, hi)`` is chunk ``i``'s slice of the output
    ``indices``/``data`` arrays.  Every executor stage lays out its
    result with it (``executor._chunk_layout``): each chunk is written
    into an input-nnz-sized slot of one upper-bound output and then
    moved down to ``offsets[i]``, in place — through the segment's file
    descriptor on shm, by slice moves in process.

    ``index_dtype`` sets the pointer width (``None`` = int64).  The
    cumulative sums are always formed in int64 first and the requested
    width is widened when the total overflows it, so an int32 request
    against a >2**31-entry output promotes instead of wrapping — every
    stage's symbolic sizing relies on this guard.
    """
    from repro.formats.compressed import min_index_dtype

    col_nnz = np.asarray(col_nnz, dtype=np.int64)
    n = col_nnz.shape[0]
    total = np.cumsum(col_nnz, dtype=np.int64)
    dtype = np.promote_types(
        np.dtype(index_dtype) if index_dtype is not None else np.int64,
        min_index_dtype(int(total[-1]) if n else 0),
    )
    indptr = np.zeros(n + 1, dtype=dtype)
    indptr[1:] = total
    offsets = []
    for j0, j1 in ranges:
        if not (0 <= j0 <= j1 <= n):
            raise ValueError(f"chunk range ({j0}, {j1}) outside [0, {n}]")
        offsets.append((int(indptr[j0]), int(indptr[j1])))
    return indptr, offsets


def symbolic_nnz(
    mats: Sequence[CSCMatrix],
    method: str = "hash",
    *,
    stats: Optional[KernelStats] = None,
    **kwargs,
) -> np.ndarray:
    """Dispatch the symbolic phase.

    ``method``: ``"hash"`` (Algorithm 6), ``"sliding_hash"``
    (Algorithm 7), ``"exact"`` (sort-based oracle), ``"spa"`` or
    ``"heap"`` (count via the respective accumulate path, mentioned as
    alternatives by the paper).
    """
    if method == "hash":
        from repro.core.hash_add import hash_symbolic

        return hash_symbolic(mats, stats=stats, **kwargs)
    if method == "sliding_hash":
        from repro.core.sliding_hash import sliding_hash_symbolic

        return sliding_hash_symbolic(mats, stats=stats, **kwargs)
    if method == "exact":
        return exact_output_col_nnz(mats, **kwargs)
    if method == "spa":
        from repro.core.spa_add import spkadd_spa

        st = stats if stats is not None else KernelStats()
        st.algorithm = "spa_symbolic"
        out = spkadd_spa(mats, stats=st, **kwargs)
        return out.col_nnz()
    if method == "heap":
        from repro.core.heap_add import spkadd_heap

        st = stats if stats is not None else KernelStats()
        st.algorithm = "heap_symbolic"
        out = spkadd_heap(mats, stats=st, **kwargs)
        return out.col_nnz()
    raise ValueError(f"unknown symbolic method {method!r}")
