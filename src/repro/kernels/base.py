"""Backend interface for the hash-family accumulation engines.

A *backend* is the engine that turns parallel ``(key, value)`` arrays
into deduplicated ``(key, sum)`` pairs — the inner operation of
Algorithms 5–8.  Two implementations ship with the repo:

``instrumented``
    The paper-faithful vectorized linear-probing hash table
    (:mod:`repro.core.hashtable`).  It is the source of truth for the
    paper's work/probe/cache-trace statistics and every figure/table
    reproduction runs on it.

``fast``
    A sort/segmented-reduce accumulator with no hash table at all.
    It produces numerically identical sums (duplicates are reduced in
    the same left-to-right order the hash table accumulates them) an
    order of magnitude faster, but reports no slot-level statistics.

Backends are looked up through :func:`repro.kernels.get_backend`; the
kernels in :mod:`repro.core.hash_add` and :mod:`repro.core.sliding_hash`
accept a ``backend=`` keyword and the :func:`repro.spkadd` facade adds a
``REPRO_BACKEND`` environment override.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro.core.hashtable import HashAccumResult, resolve_value_dtype
from repro.formats.compressed import resolve_index_dtype
from repro.formats.csc import CSCMatrix


class Backend:
    """Accumulation engine behind the hash-family SpKAdd kernels.

    Attributes
    ----------
    name:
        Registry key (``"instrumented"``, ``"fast"``).
    provides_stats:
        Whether :attr:`HashAccumResult.slot_ops`/``probes`` are real
        measurements.  When ``False`` they are reported as zero and the
        cost model cannot consume the run.
    supports_trace:
        Whether ``capture_trace=True`` yields a slot-index trace for the
        cache simulator.
    """

    name: str = ""
    provides_stats: bool = False
    supports_trace: bool = False

    def accumulate(
        self,
        keys: np.ndarray,
        vals: np.ndarray,
        table_size: Optional[int] = None,
        *,
        capture_trace: bool = False,
    ) -> HashAccumResult:
        """Sum ``vals`` by ``keys``; see :func:`~repro.core.hashtable.hash_accumulate`."""
        raise NotImplementedError

    def result_value_dtype(
        self, mats: Sequence[CSCMatrix], value_dtype: Any = None
    ) -> np.dtype:
        """Value dtype this engine accumulates — and emits — for ``mats``.

        The common ``np.result_type`` of the k inputs' value arrays
        (or the caller's ``value_dtype`` override), widened to an
        accumulator-native dtype by
        :func:`repro.core.hashtable.resolve_value_dtype`.  Executors use
        this to allocate output buffers (the shared-memory engine's
        output segment included) in the dtype the kernels will actually
        produce instead of assuming float64.
        """
        return resolve_value_dtype(mats, value_dtype)

    def result_index_dtype(
        self, mats: Sequence[CSCMatrix], index_dtype: Any = None
    ) -> np.dtype:
        """Index dtype this engine allocates — and emits — for ``mats``.

        The paper's width rule via
        :func:`repro.formats.compressed.resolve_index_dtype`: int32
        whenever the matrix dimensions and the call's nnz bound fit,
        int64 otherwise; an explicit ``index_dtype`` (or the
        ``REPRO_INDEX_DTYPE`` environment pin) overrides the width,
        subject to the safe-widening guard.  Executors use this to size
        output index buffers (the shared-memory engine's output segment
        included) in the width the kernels will actually emit.
        """
        return resolve_index_dtype(mats, index_dtype)

    def symbolic_col_nnz(self, mats: Sequence[CSCMatrix]) -> np.ndarray:
        """Exact per-column output nnz of ``sum(mats)`` — the sizing
        pre-pass of the shared-memory executor.

        The output structure of SpKAdd is the structural union of the
        inputs regardless of algorithm or engine, so both backends share
        the sort/unique oracle; an engine may override this to meter the
        pass (the instrumented probing table does so through
        :func:`repro.core.hash_add.hash_symbolic` when stats are
        requested by the caller).
        """
        from repro.core.symbolic import exact_output_col_nnz

        return exact_output_col_nnz(mats)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
