"""Sort + segmented reduce: the fast backend's no-compiler accumulator.

The accumulation a hash table performs — summing values that share a
key — is exactly a segmented reduction over the key-sorted order.  NumPy
executes that as three vectorized passes (stable argsort, boundary
detection, an in-order scatter-add) with no Python-level probing rounds,
which is an order of magnitude faster than the instrumented engine at
typical block sizes.

Numerical equivalence is exact, not approximate: the instrumented table
accumulates duplicates of a key in gathered-array order (first
occurrence inserts, later occurrences add left to right), and a *stable*
sort followed by an in-order scatter-add reduces each key in that order,
so the sums are bit-identical floats.

The fused SpKAdd (:func:`repro.core.hash_add._spkadd_fast_fused`) and
the local SpGEMM reduce through :func:`sort_reduce` when the compiled
kernel of :mod:`repro.kernels.native` is unavailable, and the SpGEMM's
``accumulator="sort"`` always does.  There are no slots, so nothing
here meters the paper's quantities; use the ``instrumented`` backend
for any run whose statistics feed the cost model or the cache
simulator.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.hashtable import accum_dtype


def sort_reduce(
    keys: np.ndarray, vals: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Deduplicate ``keys`` and sum their ``vals``, output sorted by key.

    Duplicates are summed strictly left to right in the order they
    appear in ``vals`` — the same order the linear-probing table
    accumulates them — so the sums are bit-identical to the instrumented
    backend, not merely close.  (``np.add.reduceat`` is *not* usable
    here: its inner reduce associates differently, changing float
    results in the last ulp.)

    Integer key dtypes are preserved: int32 composite keys (narrow
    blocks — see :func:`repro.core.blocks.composite_keys`) sort at half
    the bytes of int64, which is most of this backend's runtime.
    """
    keys = np.asarray(keys)
    if keys.dtype.kind != "i":
        keys = keys.astype(np.int64)
    vals = np.asarray(vals)
    if keys.shape != vals.shape:
        raise ValueError("keys and vals must be parallel arrays")
    out_dtype = accum_dtype(vals.dtype)
    if keys.size == 0:
        return keys, vals.astype(out_dtype)
    order = np.argsort(keys, kind="stable")
    sk = keys[order]
    starts = np.empty(sk.size, dtype=bool)
    starts[0] = True
    np.not_equal(sk[1:], sk[:-1], out=starts[1:])
    out_keys = sk[starts]
    n_out = int(out_keys.size)
    # Output-slot id of every input element, in ORIGINAL array order, so
    # the scatter-add below visits duplicates exactly as gathered.
    slot = np.empty(keys.size, dtype=np.int64)
    slot[order] = np.cumsum(starts) - 1
    if out_dtype == np.float64:
        # bincount's C loop is a strict in-order scatter-add and is the
        # fastest path NumPy offers for float64 weights.
        out_vals = np.bincount(slot, weights=vals, minlength=n_out)
    else:
        out_vals = np.zeros(n_out, dtype=out_dtype)
        np.add.at(out_vals, slot, vals)
    if out_dtype.kind in "fc":
        _restore_negative_zeros(out_vals, slot, vals)
    return out_keys, out_vals


def _restore_negative_zeros(
    out_vals: np.ndarray, slot: np.ndarray, vals: np.ndarray
) -> None:
    """Give ``-0.0`` back to the slots whose addends are all ``-0.0``;
    ``slot[i]`` is the output slot of ``vals[i]``.

    NumPy's scatter-adds seed every slot with ``+0.0`` instead of its
    first addend.  Under round-to-nearest that changes one result only:
    a sum is ``-0.0`` exactly when every addend is, and ``+0.0 + -0.0``
    is ``+0.0``.  So the fix-up pays one comparison pass and touches the
    addends only when some slot summed to zero.  Complex values are
    fixed per component.
    """
    parts = [(out_vals, vals)]
    if out_vals.dtype.kind == "c":
        parts = [(out_vals.real, vals.real), (out_vals.imag, vals.imag)]
    for out, add in parts:
        zero = out == 0
        if not zero.any():
            continue
        keeps_plus = np.zeros(out.size, dtype=bool)
        keeps_plus[slot[~((add == 0) & np.signbit(add))]] = True
        out[zero & ~keeps_plus] = -0.0

