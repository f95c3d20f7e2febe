"""Streaming / batched SpKAdd — the paper's Section V future work.

The in-memory algorithms assume all k addends are resident.  When
memory is limited or matrices arrive in batches, the paper suggests
"arrange input matrices in multiple batches and then use SpKAdd for
each batch".  :func:`spkadd_streaming` implements exactly that: consume
an iterable of matrices in batches of ``batch_size``, reduce each batch
with a k-way kernel, and fold batch results with a running 2-way add.

:class:`StreamingAccumulator` is the stateful form for true streams
(e.g. the graph-accumulation workload of the intro): feed matrices as
they arrive, read the running sum at any time.

Both entry points fold batches with the hash kernel: ``backend=``
selects the accumulation engine and defaults, like every hash-family
entry point, to ``"fast"``, the fused kernel.
Pass ``kernel=`` to substitute a different folding kernel entirely.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable, Iterator, List, Optional

from repro.core.hash_add import spkadd_hash
from repro.core.pairwise import add_pair
from repro.core.stats import KernelStats
from repro.formats.csc import CSCMatrix


def _resolve_kernel(
    kernel: Optional[Callable[..., CSCMatrix]], backend: Optional[str]
) -> Callable[..., CSCMatrix]:
    if kernel is not None:
        if backend is not None:
            raise ValueError(
                "pass either kernel= or backend=, not both: a custom "
                "kernel owns its own accumulation engine"
            )
        return kernel
    from repro.kernels import resolve_backend

    # The hash kernel pinned to the resolved backend name.
    return functools.partial(spkadd_hash, backend=resolve_backend(backend))


def _batches(it: Iterable[CSCMatrix], size: int) -> Iterator[List[CSCMatrix]]:
    batch: List[CSCMatrix] = []
    for m in it:
        batch.append(m)
        if len(batch) == size:
            yield batch
            batch = []
    if batch:
        yield batch


def _resolve_cast(value_dtype):
    """Matrix-cast closure for an explicit ``value_dtype`` override
    (identity when ``None``: dtypes are preserved and mixed-dtype
    streams promote per ``np.result_type`` as batches fold)."""
    if value_dtype is None:
        return lambda A: A
    from repro.core.hashtable import resolve_value_dtype

    vdt = resolve_value_dtype((), value_dtype)
    return lambda A: A.astype(vdt)


def _index_width(acc: CSCMatrix, index_dtype) -> "CSCMatrix":
    """``acc`` at the stream's requested index width.

    The folds emit whatever width each batch resolves; an explicit
    ``index_dtype`` pins the *returned* sum's width through the guarded
    resolution (an int32 request a huge running sum cannot honour
    promotes instead of wrapping)."""
    if index_dtype is None:
        return acc
    from repro.formats.compressed import resolve_index_dtype

    return acc.with_index_dtype(resolve_index_dtype((acc,), index_dtype))


def _fold_batch(batch, kern, stats) -> CSCMatrix:
    """Reduce one batch with the kernel; a single-matrix batch is
    add-free but must still land on the resolved accumulator dtype
    (``spkadd_streaming([one_int32_matrix])`` has to emit the same
    int64 a length-2 stream — or the facade — would)."""
    if len(batch) == 1:
        from repro.core.hashtable import resolve_value_dtype

        return batch[0].astype(resolve_value_dtype(batch))
    return kern(batch, stats=stats)


def spkadd_streaming(
    mats: Iterable[CSCMatrix],
    *,
    batch_size: int = 16,
    kernel: Optional[Callable[..., CSCMatrix]] = None,
    backend: Optional[str] = None,
    value_dtype=None,
    index_dtype=None,
    stats: Optional[KernelStats] = None,
) -> CSCMatrix:
    """Sum a (possibly unbounded-length) stream of sparse matrices.

    Peak residency is ``batch_size`` inputs plus the running sum,
    instead of all k.  Work is the k-way kernel per batch plus
    ``ceil(k/batch_size)`` 2-way folds of the running sum — asymptotically
    between hash SpKAdd and 2-way incremental, trading memory for work
    exactly as the paper describes.

    ``value_dtype`` mirrors :func:`repro.spkadd`'s override: each
    incoming matrix is cast as it is consumed so the running sum is
    computed (and returned) in that dtype.  The default preserves the
    stream's dtypes end to end.  ``index_dtype`` pins the returned
    sum's index width the same way (default: each fold resolves the
    paper's int32-when-it-fits rule over its own inputs).
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    cast = _resolve_cast(value_dtype)
    mats = (cast(A) for A in mats)
    kern = _resolve_kernel(kernel, backend)
    st = stats if stats is not None else KernelStats()
    st.algorithm = st.algorithm or f"streaming[b={batch_size}]"
    acc: Optional[CSCMatrix] = None
    for batch in _batches(mats, batch_size):
        st.k += len(batch)
        partial = _fold_batch(batch, kern, st)
        if acc is None:
            acc = partial
        else:
            if not partial.sorted:
                partial.sort_indices()
            acc = add_pair(acc, partial, st)
    if acc is None:
        raise ValueError("spkadd_streaming needs at least one matrix")
    st.n_cols = acc.shape[1]
    st.output_nnz = acc.nnz
    return _index_width(acc, index_dtype)


class StreamingAccumulator:
    """Stateful running sum over a stream of sparse matrices.

    >>> acc = StreamingAccumulator(batch_size=8)
    >>> for mat in stream: acc.push(mat)        # doctest: +SKIP
    >>> total = acc.result()                    # doctest: +SKIP

    Matrices are buffered up to ``batch_size`` and folded with the hash
    kernel; :meth:`result` flushes the buffer and returns the current
    sum without ending the stream.
    """

    def __init__(
        self, *, batch_size: int = 16, kernel=None,
        backend: Optional[str] = None, value_dtype=None, index_dtype=None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = batch_size
        self._kernel = _resolve_kernel(kernel, backend)
        self._cast = _resolve_cast(value_dtype)
        self._index_dtype = index_dtype
        self._buffer: List[CSCMatrix] = []
        self._acc: Optional[CSCMatrix] = None
        self.stats = KernelStats(algorithm=f"streaming_acc[b={batch_size}]")
        self.pushed = 0

    def push(self, mat: CSCMatrix) -> None:
        """Add one matrix to the stream."""
        self._buffer.append(self._cast(mat))
        self.pushed += 1
        if len(self._buffer) >= self.batch_size:
            self._flush()

    def _flush(self) -> None:
        if not self._buffer:
            return
        batch = self._buffer
        self._buffer = []
        self.stats.k += len(batch)
        partial = _fold_batch(batch, self._kernel, self.stats)
        if self._acc is None:
            self._acc = partial
        else:
            if not partial.sorted:
                partial.sort_indices()
            self._acc = add_pair(self._acc, partial, self.stats)

    def result(self) -> CSCMatrix:
        """Flush pending matrices and return the current running sum."""
        self._flush()
        if self._acc is None:
            raise ValueError("no matrices pushed")
        return _index_width(self._acc, self._index_dtype)
