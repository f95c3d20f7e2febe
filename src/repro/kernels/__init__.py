"""Accumulation backends for the hash-family SpKAdd kernels.

========================  ====================================================
backend                   engine
========================  ====================================================
``instrumented``          paper-faithful linear-probing hash table; source of
                          truth for slot-op/probe/cache-trace statistics
``fast``                  the compiled per-column hash kernel
                          (:mod:`repro.kernels.native`, paper Algorithm 5)
                          for the fused SpKAdd, which replays a cached
                          plan when a call repeats an index pattern, and
                          a column-wise Gustavson kernel on the same
                          table for the local SpGEMM;
                          NumPy sort + segmented reduce without a C
                          compiler and for bare ``accumulate`` calls;
                          bit-identical matrices, no stats,
                          order-of-magnitude faster
========================  ====================================================

See :mod:`repro.kernels.registry` for the resolution rules (explicit
argument > ``REPRO_BACKEND`` env var > caller default).
"""

from repro.core.hashtable import resolve_value_dtype
from repro.formats.compressed import resolve_index_dtype
from repro.kernels.base import Backend
from repro.kernels.fast import FastBackend, sort_reduce
from repro.kernels.instrumented import InstrumentedBackend
from repro.kernels.registry import (
    BACKEND_ENV_VAR,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
)

__all__ = [
    "Backend",
    "FastBackend",
    "InstrumentedBackend",
    "BACKEND_ENV_VAR",
    "available_backends",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "resolve_index_dtype",
    "resolve_value_dtype",
    "sort_reduce",
]
