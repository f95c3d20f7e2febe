"""Shared machinery for the two compressed formats (CSC and CSR).

Both formats store a pointer array of length ``n_compressed + 1``, a
minor-axis index array and a value array.  The only difference is which
axis is compressed, so the bulk of the implementation lives here and the
concrete classes supply axis naming.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro import env

#: fallback index dtype when the caller supplies no index arrays to
#: infer from (Python lists land here via ``np.asarray``).  Constructors
#: that receive integer index arrays preserve the caller's dtype — an
#: int32-indexed matrix stays int32-indexed end to end.
DEFAULT_INDEX_DTYPE = np.int64

#: fallback value dtype for empty/zero constructions only.  Constructors
#: that receive values (``from_arrays``, ``from_columns``, the scipy
#: converters) preserve the caller's dtype rather than coercing to this.
DEFAULT_VALUE_DTYPE = np.float64

#: environment variable pinning the default index width resolved by
#: :func:`resolve_index_dtype` (``int32`` or ``int64``; the safe-widening
#: guard still promotes a pinned int32 that cannot hold the call).
INDEX_DTYPE_ENV_VAR = "REPRO_INDEX_DTYPE"

#: largest value an int32 index / pointer entry may hold.  A module
#: attribute (not an inlined constant) so the overflow-boundary tests
#: can lower it and drive real promotions through every executor
#: without materializing 2**31 entries.
INT32_INDEX_CAPACITY = int(np.iinfo(np.int32).max)

#: index widths the pipeline allocates in, narrowest first.  The paper
#: stores 32-bit row indices (Section III-B); int64 is the safe fallback
#: for matrices or outputs that outgrow them.
SUPPORTED_INDEX_DTYPES = (np.dtype(np.int32), np.dtype(np.int64))


def min_index_dtype(*bounds: int) -> np.dtype:
    """Narrowest supported index dtype holding every value in ``bounds``.

    >>> min_index_dtype(100).str.lstrip('<')
    'i4'
    """
    hi = max((int(b) for b in bounds), default=0)
    if hi <= INT32_INDEX_CAPACITY:
        return np.dtype(np.int32)
    return np.dtype(np.int64)


def coerce_index_array(arr, index_dtype=None) -> np.ndarray:
    """``arr`` as a signed-integer index array.

    ``index_dtype=None`` is the preservation contract: a signed-integer
    input keeps its dtype (int32 triplets build int32-indexed matrices)
    while anything else — Python lists, unsigned or float arrays —
    normalizes to :data:`DEFAULT_INDEX_DTYPE`.  An explicit dtype casts.
    """
    arr = np.asarray(arr)
    if index_dtype is not None:
        return arr.astype(index_dtype, copy=False)
    if arr.dtype.kind != "i":
        return arr.astype(DEFAULT_INDEX_DTYPE)
    return arr


def _index_bound(mats, shape, nnz) -> int:
    """Largest value any index or pointer entry of a call over ``mats``
    may take: matrix dimensions (minor indices) and summed nnz (pointer
    entries, which bound the output nnz of SpKAdd)."""
    bound = 0
    total = 0
    for A in mats:
        bound = max(bound, int(A.shape[0]), int(A.shape[1]))
        total += int(A.nnz)
    if shape is not None:
        bound = max(bound, int(shape[0]), int(shape[1]))
    if nnz is not None:
        total = max(total, int(nnz))
    return max(bound, total)


def resolve_index_dtype(mats=(), index_dtype=None, *, shape=None, nnz=None) -> np.dtype:
    """The index dtype SpKAdd allocates — and emits — for ``mats``.

    The default rule is the paper's: indices are 32-bit whenever the
    matrix dimensions *and* the call's nnz bound (summed input nnz, an
    upper bound on output nnz and on every output pointer entry) fit in
    int32, and 64-bit otherwise.  ``index_dtype`` overrides the width
    (``"int32"``/``"int64"``; narrower integer requests widen to the
    narrowest supported width), and the ``REPRO_INDEX_DTYPE``
    environment variable overrides the default when no explicit argument
    is given.

    The **safe-widening guard** applies to every path: a requested (or
    pinned) int32 that cannot hold the call's bounds transparently
    promotes to int64 instead of letting indices or ``indptr`` wrap.

    ``mats`` holds matrices (anything with ``shape``/``nnz``); ``shape``
    and ``nnz`` add bounds known out-of-band (e.g. a generator sizing
    its triplet arrays before any matrix exists).  Every layer — format
    constructors given no explicit width, kernel emit paths, and the
    executors' upper-bound output (in process or a shared segment) —
    sizes its index buffers from this one
    rule, which is what keeps the emitted index dtype identical across
    methods, backends, executors, and chunkings.
    """
    if index_dtype is None or index_dtype == "auto":
        index_dtype = env.get(INDEX_DTYPE_ENV_VAR)
    floor = np.dtype(np.int32)
    if index_dtype is not None:
        dt = np.dtype(index_dtype)
        if dt.kind != "i":
            raise TypeError(
                f"index dtype must be a signed integer, got {dt}"
            )
        floor = max(
            SUPPORTED_INDEX_DTYPES[0], min(dt, SUPPORTED_INDEX_DTYPES[-1])
        )
    # The guard: never hand back a width the call's bounds overflow.
    return max(floor, min_index_dtype(_index_bound(mats, shape, nnz)))


class CompressedBase:
    """Common storage/validation for compressed sparse formats.

    Attributes
    ----------
    indptr:
        ``int`` array of length ``n_major + 1``; entries of major slice
        ``j`` occupy ``indices[indptr[j]:indptr[j+1]]``.
    indices:
        minor-axis indices of the nonzeros (row ids for CSC, column ids
        for CSR).
    data:
        nonzero values, aligned with ``indices``.
    shape:
        ``(n_rows, n_cols)`` of the logical matrix.
    sorted:
        whether every major slice has strictly increasing minor indices.
        The heap and 2-way kernels require sorted inputs; hash and SPA do
        not (Table I, last column).
    buffer_owner:
        ``None`` for matrices over private memory (the overwhelming
        default).  The shared-memory engine's zero-copy results instead
        carry the keep-alive owner of the segment backing
        ``indices``/``data``
        (:class:`repro.parallel.shm.SharedResultOwner`); lifetime safety
        does **not** depend on this attribute — the arrays themselves pin
        the segment via finalizers — it exists so callers can detect
        shared backing (:attr:`is_shm_backed`) and request a private
        copy (:meth:`materialize`).
    """

    #: subclass sets: 0 if rows are the major (CSR), 1 if columns (CSC)
    _major_axis: int = 1

    __slots__ = ("indptr", "indices", "data", "shape", "sorted",
                 "buffer_owner")

    def __init__(
        self,
        shape: Tuple[int, int],
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        *,
        sorted: bool = True,
        check: bool = True,
    ) -> None:
        self.shape = (int(shape[0]), int(shape[1]))
        self.indptr = np.asarray(indptr)
        self.indices = np.asarray(indices)
        self.data = np.asarray(data)
        self.sorted = bool(sorted)
        self.buffer_owner = None
        if not np.issubdtype(self.indptr.dtype, np.integer):
            self.indptr = self.indptr.astype(DEFAULT_INDEX_DTYPE)
        if not np.issubdtype(self.indices.dtype, np.integer):
            raise TypeError("indices must be an integer array")
        if check:
            self.validate()

    # ---------------------------------------------------------------- core
    @property
    def nnz(self) -> int:
        """Number of stored nonzero entries."""
        return int(self.indices.shape[0])

    @property
    def n_major(self) -> int:
        return self.shape[self._major_axis]

    @property
    def n_minor(self) -> int:
        return self.shape[1 - self._major_axis]

    @property
    def nbytes(self) -> int:
        """Bytes of the three backing arrays (the paper's I/O unit)."""
        return self.indptr.nbytes + self.indices.nbytes + self.data.nbytes

    @property
    def index_dtype(self) -> np.dtype:
        """Dtype of the minor-index array (the stored index width)."""
        return self.indices.dtype

    @property
    def is_shm_backed(self) -> bool:
        """True when ``indices``/``data`` live in an engine-owned shared
        segment (a zero-copy shm result); see :meth:`materialize`."""
        return self.buffer_owner is not None

    def _derive(
        self, shape, indptr, indices, data, *, sorted, shares_buffers
    ) -> "CompressedBase":
        """Same-type matrix built from arrays derived from this one.

        Every derived-matrix constructor routes through here so the
        shared-backing decision is made explicitly at each site:
        ``shares_buffers=True`` means some arrays are (views of) this
        matrix's buffers, so the shared-backing marker must travel with
        them; ``False`` means all arrays are private copies.
        """
        out = type(self)(
            shape, indptr, indices, data, sorted=sorted, check=False
        )
        if shares_buffers:
            out.buffer_owner = self.buffer_owner
        return out

    def materialize(self) -> "CompressedBase":
        """Private-memory copy of a shared-segment-backed matrix.

        Returns ``self`` unchanged when the matrix already owns private
        buffers.  Use this before handing a zero-copy shm result to code
        that must outlive any shared-memory bookkeeping (the original's
        segment still unlinks on its own gc).
        """
        if self.buffer_owner is None:
            return self
        return type(self)(
            self.shape,
            self.indptr.copy(),
            self.indices.copy(),
            self.data.copy(),
            sorted=self.sorted,
            check=False,
        )

    def validate(self) -> None:
        """Check the structural invariants of the format.

        Raises ``ValueError`` on inconsistent pointers, out-of-range
        minor indices, or a ``sorted`` flag contradicted by the data.
        """
        m, n = self.shape
        if m < 0 or n < 0:
            raise ValueError(f"negative shape {self.shape}")
        if self.indptr.ndim != 1 or self.indptr.shape[0] != self.n_major + 1:
            raise ValueError(
                f"indptr must have length n_major+1={self.n_major + 1}, "
                f"got {self.indptr.shape}"
            )
        if self.indptr[0] != 0:
            raise ValueError("indptr must start at 0")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be nondecreasing")
        if int(self.indptr[-1]) != self.indices.shape[0]:
            raise ValueError(
                f"indptr[-1]={int(self.indptr[-1])} does not match "
                f"nnz={self.indices.shape[0]}"
            )
        if self.indices.shape != self.data.shape:
            raise ValueError("indices and data must be parallel arrays")
        if self.nnz:
            lo = int(self.indices.min())
            hi = int(self.indices.max())
            if lo < 0 or hi >= self.n_minor:
                raise ValueError(
                    f"minor indices out of range [0, {self.n_minor}): "
                    f"min={lo} max={hi}"
                )
        if self.sorted and not self._check_sorted():
            raise ValueError("sorted=True but minor indices are not sorted")

    def _check_sorted(self) -> bool:
        """True iff every major slice is strictly increasing."""
        if self.nnz == 0:
            return True
        d = np.diff(self.indices)
        # Positions where a new major slice starts may legally decrease.
        starts = self.indptr[1:-1]
        ok = d > 0
        ok[starts[(starts > 0) & (starts < self.nnz)] - 1] = True
        return bool(ok.all())

    # ------------------------------------------------------------- slicing
    def major_slice(self, j: int) -> Tuple[np.ndarray, np.ndarray]:
        """(indices, values) view of major slice ``j`` — O(1), no copy."""
        lo, hi = int(self.indptr[j]), int(self.indptr[j + 1])
        return self.indices[lo:hi], self.data[lo:hi]

    def major_range_slices(self, j0: int, j1: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Contiguous view over major slices ``[j0, j1)``.

        Returns ``(indptr_local, indices, data)`` where ``indptr_local``
        is rebased to start at zero.  Because compressed storage keeps
        consecutive major slices adjacent, this is a zero-copy view —
        the property the paper's column-block parallelization exploits.
        """
        lo, hi = int(self.indptr[j0]), int(self.indptr[j1])
        return (
            self.indptr[j0 : j1 + 1] - lo,
            self.indices[lo:hi],
            self.data[lo:hi],
        )

    def major_nnz(self) -> np.ndarray:
        """nnz of each major slice (the load-balancing weights)."""
        return np.diff(self.indptr)

    def astype(self, value_dtype, *, copy: bool = False) -> "CompressedBase":
        """This matrix with its values cast to ``value_dtype``.

        Returns ``self`` when the dtype already matches (unless
        ``copy=True``); otherwise a new matrix sharing the index arrays
        with the original (only the value array is rebuilt).  Beware
        that casting can lose information — float64 -> float32 rounds,
        float -> int truncates — exactly as ``ndarray.astype`` does.
        """
        dt = np.dtype(value_dtype)
        if not copy and dt == self.data.dtype:
            return self
        # The index arrays stay shared with the original.
        return self._derive(
            self.shape,
            self.indptr,
            self.indices,
            self.data.astype(dt, copy=True),
            sorted=self.sorted,
            shares_buffers=True,
        )

    def with_index_dtype(self, index_dtype, *, copy: bool = False) -> "CompressedBase":
        """This matrix with its index arrays cast to ``index_dtype``.

        Returns ``self`` when both ``indptr`` and ``indices`` already
        match (unless ``copy=True``); otherwise a new matrix sharing the
        value array with the original.  Unlike ``ndarray.astype`` the
        cast is checked: narrowing a matrix whose dimensions or nnz do
        not fit the target raises instead of silently wrapping indices
        (use :func:`resolve_index_dtype` for transparent promotion).
        """
        dt = np.dtype(index_dtype)
        if dt.kind != "i":
            raise TypeError(f"index dtype must be a signed integer, got {dt}")
        if (
            not copy
            and dt == self.indices.dtype
            and dt == self.indptr.dtype
        ):
            return self
        limit = np.iinfo(dt).max
        if max(self.n_minor - 1, self.nnz) > limit:
            raise OverflowError(
                f"matrix with n_minor={self.n_minor}, nnz={self.nnz} does "
                f"not fit {dt} indices"
            )
        # The value array (and possibly the index arrays, when astype is
        # a no-op cast) stays shared.
        return self._derive(
            self.shape,
            self.indptr.astype(dt, copy=copy),
            self.indices.astype(dt, copy=copy),
            self.data,
            sorted=self.sorted,
            shares_buffers=True,
        )

    # ------------------------------------------------------------ mutation
    def sort_indices(self) -> None:
        """Sort every major slice by minor index, in place.

        Uses a single stable argsort over (major, minor) pairs, which is
        how a compiled library would canonicalize; cost O(nnz log nnz).
        """
        if self.sorted or self.nnz == 0:
            self.sorted = True
            return
        major = np.repeat(
            np.arange(self.n_major, dtype=np.int64), np.diff(self.indptr)
        )
        order = np.lexsort((self.indices, major))
        self.indices = np.ascontiguousarray(self.indices[order])
        self.data = np.ascontiguousarray(self.data[order])
        self.sorted = True
        # The fancy-indexed arrays above are private copies; the shared
        # segment (if any) is referenced only by the arrays just
        # dropped, so this matrix is no longer shm-backed.
        self.buffer_owner = None

    # ------------------------------------------------------------- dunders
    def __getstate__(self):
        # The arrays pickle by value, so a transported matrix owns
        # private memory — drop the (unpicklable, segment-bound)
        # buffer_owner rather than serializing it.  This is what lets a
        # zero-copy shm result be pickled, cached, or shipped to
        # another process.
        return {
            "shape": self.shape,
            "indptr": self.indptr,
            "indices": self.indices,
            "data": self.data,
            "sorted": self.sorted,
        }

    def __setstate__(self, state) -> None:
        self.shape = state["shape"]
        self.indptr = state["indptr"]
        self.indices = state["indices"]
        self.data = state["data"]
        self.sorted = state["sorted"]
        self.buffer_owner = None

    def __copy__(self) -> "CompressedBase":
        # A shallow copy shares the arrays — including segment-backed
        # ones — so unlike pickling it must keep the shared-backing
        # marker (the copy protocol would otherwise reuse
        # __getstate__/__setstate__ and falsely report private memory).
        return self._derive(
            self.shape, self.indptr, self.indices, self.data,
            sorted=self.sorted, shares_buffers=True,
        )

    def __deepcopy__(self, memo) -> "CompressedBase":
        import copy as _copy

        return type(self)(
            self.shape,
            _copy.deepcopy(self.indptr, memo),
            _copy.deepcopy(self.indices, memo),
            _copy.deepcopy(self.data, memo),
            sorted=self.sorted,
            check=False,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cls = type(self).__name__
        return (
            f"<{cls} shape={self.shape} nnz={self.nnz} "
            f"sorted={self.sorted} dtype={self.data.dtype}>"
        )


def build_indptr(
    major_ids: np.ndarray, n_major: int, *, index_dtype=None
) -> np.ndarray:
    """Pointer array from (unsorted-count) major ids via bincount.

    ``index_dtype`` sets the pointer width; ``None`` keeps the
    historical int64.  A requested width too narrow for the entry count
    is widened (pointer entries run up to nnz).
    """
    counts = np.bincount(major_ids, minlength=n_major)
    dtype = np.promote_types(
        np.dtype(index_dtype) if index_dtype is not None else np.int64,
        min_index_dtype(int(major_ids.shape[0])),
    )
    indptr = np.zeros(n_major + 1, dtype=dtype)
    np.cumsum(counts, out=indptr[1:])
    return indptr
