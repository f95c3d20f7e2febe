"""Vectorized open-addressing hash table with linear probing.

This is the engine behind Algorithms 5–8.  The semantics exactly follow
the paper: a power-of-two table, the multiplicative-masking hash
``(a*r) & (2^q - 1)``, linear probing on collision, values accumulated
in place, and the output read out in *table order* (unsorted unless the
caller sorts).

Instead of inserting keys one at a time, the vectorized engine processes
the whole key array in probe *rounds*: in each round every still-pending
key inspects its current slot, matching keys accumulate, one claimant per
empty slot inserts, and the rest advance one slot.  The number of slot
inspections performed is identical in distribution to scalar linear
probing (insertion order differs, which only permutes equal-cost
outcomes), so the measured probe counts are faithful.

An optional *trace* capture records the sequence of slot indices touched,
which the cache simulator replays to count misses (Table V).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.util.hashing import HASH_PRIME, hash_indices, table_size_for

#: value marking an empty slot; row indices are nonnegative so -1 is free.
EMPTY = np.int64(-1)


def accum_dtype(vals_dtype: np.dtype) -> np.dtype:
    """Accumulator dtype for values of ``vals_dtype``.

    Float and complex inputs accumulate at their own precision.  Integer
    (and boolean) inputs accumulate in a wide integer of matching
    signedness — they are **not** promoted to float64, so integer sums
    stay exact and integer-typed.  Anything else (object, datetime, ...)
    is rejected.
    """
    vals_dtype = np.dtype(vals_dtype)
    if vals_dtype.kind in "fc":
        return vals_dtype
    if vals_dtype.kind in "ib":
        return np.dtype(np.int64)
    if vals_dtype.kind == "u":
        return np.dtype(np.uint64)
    raise TypeError(f"cannot accumulate values of dtype {vals_dtype}")


def resolve_value_dtype(mats=(), value_dtype=None) -> np.dtype:
    """The value dtype SpKAdd computes (and emits) in for ``mats``.

    With ``value_dtype`` given it is the caller's override, validated
    and widened by :func:`accum_dtype` (so ``float32`` stays ``float32``
    while integer requests accumulate — and are returned — in the wide
    integer of matching signedness).  Otherwise the common dtype of the
    inputs' value arrays is found with ``np.result_type`` (the usual
    mixed-dtype promotion: int + float -> float, float32-only stays
    float32) and then widened the same way, so the answer is always a
    dtype the accumulation engines natively produce.  ``mats`` may hold
    matrices (anything with a ``.data`` array) or plain dtypes; an empty
    collection resolves to float64.

    Every layer of the pipeline — block gathers, kernel accumulators,
    output assembly, and the shared-memory executor's output segment —
    sizes its value buffers from this one function, which is
    what keeps the emitted dtype consistent across backends, executors,
    and chunkings.
    """
    if value_dtype is not None:
        return accum_dtype(value_dtype)
    dtypes = []
    for A in mats:
        data = getattr(A, "data", None)
        dtypes.append(
            data.dtype if isinstance(data, np.ndarray) else np.dtype(A)
        )
    if not dtypes:
        return np.dtype(np.float64)
    return accum_dtype(np.result_type(*dtypes))


@dataclass
class HashAccumResult:
    """Output of one vectorized hash accumulation.

    ``keys``/``vals`` hold the distinct keys and their sums in **table
    order** (i.e. unsorted — Algorithm 5 line 13 scans the table).
    ``slot_ops`` counts every slot inspection (the paper's hash
    operations); ``probes`` counts only the extra inspections beyond the
    home slot.  ``trace`` (optional) is the flat sequence of slot indices
    touched, for cache simulation.
    """

    keys: np.ndarray
    vals: np.ndarray
    table_size: int
    slot_ops: int
    probes: int
    trace: Optional[np.ndarray] = None


def hash_accumulate(
    keys: np.ndarray,
    vals: np.ndarray,
    table_size: Optional[int] = None,
    *,
    prime: int = HASH_PRIME,
    capture_trace: bool = False,
    max_rounds: Optional[int] = None,
) -> HashAccumResult:
    """Accumulate ``vals`` by ``keys`` into a linear-probing hash table.

    Parameters
    ----------
    keys, vals:
        Parallel arrays; duplicate keys have their values summed
        (Algorithm 5 lines 9–10).
    table_size:
        Power-of-two table size.  Defaults to the paper's rule — the
        smallest power of two greater than the number of distinct keys —
        computed here from an upper bound (``len(keys)``) when not
        supplied; callers implementing the two-phase scheme pass the
        symbolic-phase result instead.
    capture_trace:
        Record the slot-index sequence for cache simulation (costs
        memory; off by default).

    Returns
    -------
    :class:`HashAccumResult`
    """
    keys = np.asarray(keys, dtype=np.int64)
    vals = np.asarray(vals)
    if keys.shape != vals.shape:
        raise ValueError("keys and vals must be parallel arrays")
    if table_size is None:
        table_size = table_size_for(len(keys))
    if table_size & (table_size - 1):
        raise ValueError("table_size must be a power of two")

    tkeys = np.full(table_size, EMPTY, dtype=np.int64)
    tvals = np.zeros(table_size, dtype=accum_dtype(vals.dtype))

    n = keys.shape[0]
    slot_ops = 0
    probes = 0
    trace_chunks: List[np.ndarray] = [] if capture_trace else None

    if n:
        slots = hash_indices(keys, table_size, prime).astype(np.int64)
        active = np.arange(n, dtype=np.int64)
        mask = np.int64(table_size - 1)
        rounds = 0
        # Each round retires >=1 key (one claimant per contended slot),
        # so n + table_size rounds safely bounds termination.
        limit = max_rounds if max_rounds is not None else n + table_size + 1
        while active.size:
            rounds += 1
            if rounds > limit:
                raise RuntimeError(
                    "hash table full: linear probing did not terminate "
                    f"(size={table_size}, pending={active.size})"
                )
            s = slots[active]
            occupant = tkeys[s]
            want = keys[active]
            matched = occupant == want
            empty = occupant == EMPTY

            # Matching keys accumulate into their slot (may be several
            # duplicates of the same key in one round).
            if matched.any():
                np.add.at(tvals, s[matched], vals[active[matched]])

            # One claimant per empty slot inserts its key+value; other
            # keys aiming at the same empty slot *retry the same slot*
            # next round (they may now match the winner's key).
            claimed = np.zeros(active.size, dtype=bool)
            if empty.any():
                e_idx = np.flatnonzero(empty)
                _uniq, first = np.unique(s[e_idx], return_index=True)
                winners = e_idx[first]
                tkeys[s[winners]] = want[winners]
                tvals[s[winners]] = vals[active[winners]]
                claimed[winners] = True

            # Op accounting mirrors scalar probing: a slot inspection is
            # charged when it resolves (match/claim) or hits a different
            # key (probe); the lost-race retry is a vectorization
            # artifact and is not a scalar operation.
            blocked = ~(matched | empty)
            charged = matched | claimed | blocked
            slot_ops += int(np.count_nonzero(charged))
            probes += int(np.count_nonzero(blocked))
            if capture_trace and charged.any():
                trace_chunks.append(s[charged].copy())

            if blocked.any():
                adv = active[blocked]
                slots[adv] = (slots[adv] + 1) & mask
            keep = blocked | (empty & ~claimed)
            active = active[keep]

    valid = np.flatnonzero(tkeys != EMPTY)
    trace = (
        np.concatenate(trace_chunks) if capture_trace and trace_chunks else
        (np.empty(0, dtype=np.int64) if capture_trace else None)
    )
    return HashAccumResult(
        keys=tkeys[valid],
        vals=tvals[valid],
        table_size=table_size,
        slot_ops=slot_ops,
        probes=probes,
        trace=trace,
    )
