"""Accumulation backends for the hash-family SpKAdd kernels.

A backend is a name, resolved once per entry point by
:func:`resolve_backend`:

========================  ====================================================
backend                   engine
========================  ====================================================
``instrumented``          the paper's two-phase loop on the linear-probing
                          table of :mod:`repro.core.hashtable`; source of
                          truth for slot-op/probe/cache-trace statistics;
                          ``sliding_hash`` slides its table over row
                          partitions (Algorithms 7/8)
``fast``                  the compiled per-column hash kernel
                          (:mod:`repro.kernels.native`, paper Algorithm 5)
                          for every hash-family call — ``hash``,
                          ``sliding_hash`` and both symbolic phases — which
                          replays a cached plan when a call repeats an
                          index pattern, and a column-wise Gustavson kernel
                          on the same table for the local SpGEMM;
                          NumPy sort + segmented reduce
                          (:func:`sort_reduce`) without a C compiler;
                          bit-identical matrices, no stats,
                          order-of-magnitude faster
========================  ====================================================

``fast`` is the default of every entry point; paper code that reads
slot-level stats names ``instrumented``.  See
:mod:`repro.kernels.registry` for the resolution rule.
"""

from repro.core.hashtable import resolve_value_dtype
from repro.formats.compressed import resolve_index_dtype
from repro.kernels.fast import sort_reduce
from repro.kernels.registry import (
    BACKENDS,
    available_backends,
    resolve_backend,
)

__all__ = [
    "BACKENDS",
    "available_backends",
    "resolve_backend",
    "resolve_index_dtype",
    "resolve_value_dtype",
    "sort_reduce",
]
