"""The two SpKAdd workloads: ``kadd_fresh`` and ``kadd_repeat``.

``kadd_fresh`` is a closed loop of ``spkadd(mats, threads=2,
executor="shm")`` over collections whose sparsity pattern never repeats
in a run.  Four base shapes vary what the algorithms depend on (k, the
compression factor cf, and column skew).  Each call applies a fresh
random column permutation to every addend of one base shape: the
pattern is new, the statistics stay, and the reference answer is the
same permutation of the base shape's serial sum.

``kadd_repeat`` is a closed loop of serial ``spkadd(mats)`` over one
fixed pattern with fresh values on every step.  Its reference values
come from a slot map computed once in set-up (each input entry's
position in the output), summed with ``np.bincount`` in input order.
"""

from __future__ import annotations

import time
from typing import Dict

import numpy as np

from perfbench import common, layers
from perfbench.trace import make_tracer

#: base shapes of ``kadd_fresh``.  Input nnz is about 250k for each.
FRESH_SHAPES = {
    # the quick point: cf ~ 1
    "er_k8": dict(kind="er", m=1 << 16, n=4096, d=8, k=8),
    # many addends, cf ~ 1
    "er_k32": dict(kind="er", m=1 << 16, n=2048, d=4, k=32),
    # few rows, many draws per column: cf ~ 3.8
    "er_hicf": dict(kind="er", m=128, n=512, d=16, k=32),
    # skewed columns, so equal-nnz chunks cover very different widths
    "rmat_k8": dict(kind="rmat", m=1 << 16, n=4096, d=8, k=8),
}

#: call order of ``kadd_fresh``.  The quick point is weighted twice so
#: the median and the p90 each fall inside one shape's latencies
#: instead of on the boundary between two shapes.
FRESH_ROTATION = ("er_k8", "er_k32", "er_k8", "er_hicf", "rmat_k8")

#: the fixed pattern of ``kadd_repeat``: about 1M input nnz.
REPEAT_SHAPE = dict(kind="er", m=1 << 16, n=4096, d=16, k=16)

PARALLEL = dict(threads=2, executor="shm")


def generate(shape: dict, seed: int):
    from repro.generators import erdos_renyi_collection, rmat_collection

    make = erdos_renyi_collection if shape["kind"] == "er" else rmat_collection
    return make(shape["m"], shape["n"], d=shape["d"], k=shape["k"], seed=seed)


def _layers(loop, tracer, keys_in, keys_out, serial_ms, scipy_ms) -> Dict[str, float]:
    spans = tracer.export()["spans"]
    units = sorted({s["unit"] for s in spans if s["name"] == "unit"})
    return {
        **layers.kernel_core(spans, units, tracer.counters, keys_in, keys_out),
        **layers.parallel(spans, units, tracer.counters,
                          serial_ms / common.median(loop.lat_ms)),
        "baseline.scipy_fold_ms": scipy_ms,
        "baseline.serial_fast_ms": serial_ms,
        **layers.closed_loop_validity(loop, spans, units),
    }


# ---------------------------------------------------------------------------
# kadd_fresh
# ---------------------------------------------------------------------------


def run_fresh(seed: int, seconds: float, trace: bool) -> dict:
    import repro

    def setup():
        repro.shutdown_pools()
        bases = {
            name: generate(shape, seed * 100 + i)
            for i, (name, shape) in enumerate(FRESH_SHAPES.items())
        }
        refs = {name: repro.spkadd(mats).matrix for name, mats in bases.items()}
        # Boot the pool and warm every shape once, checked.
        rng = np.random.default_rng(seed)
        for name in FRESH_SHAPES:
            q = rng.permutation(bases[name][0].shape[1])
            res = repro.spkadd(
                [common.permute_columns(A, q) for A in bases[name]], **PARALLEL
            )
            if not common.same_bytes(res.matrix, common.permute_columns(refs[name], q)):
                raise RuntimeError(f"warm-up result of {name} is wrong")
        return bases, refs

    setup_s, (bases, refs) = common.timed_setups(setup)
    tracer = make_tracer(trace)
    loop = common.ClosedLoop(tracer)
    keys_in, keys_out = [], []
    rng = np.random.default_rng(seed + 1)
    t_end = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < t_end:
        name = FRESH_ROTATION[i % len(FRESH_ROTATION)]
        base = bases[name]
        q = rng.permutation(base[0].shape[1])
        mats = [common.permute_columns(A, q) for A in base]
        res = loop.call(i, lambda: repro.spkadd(mats, **PARALLEL), name)
        if res is not None:
            loop.work += sum(A.nnz for A in mats)
            loop.check(common.same_bytes(
                res.matrix, common.permute_columns(refs[name], q)
            ))
            if loop.traced(i):
                keys_in.append(res.stats.input_nnz)
                keys_out.append(res.stats.output_nnz)
        del res, mats
        i += 1
    out = {"attempted": loop.attempted, "failed": loop.failed,
           "e2e": loop.e2e(setup_s)}
    if trace:
        rotation = [bases[name] for name in FRESH_ROTATION]
        serial = common.median([
            common.timed_median_ms(lambda: repro.spkadd(mats), 5)
            for mats in rotation
        ])
        scipy_ms = common.median([common.scipy_fold_ms(m) for m in rotation])
        out["layers"] = _layers(loop, tracer, keys_in, keys_out, serial, scipy_ms)
        out["trace"] = tracer
    return out


# ---------------------------------------------------------------------------
# kadd_repeat
# ---------------------------------------------------------------------------


def _slot_map(mats, ref) -> np.ndarray:
    """Output position of every input entry, in input order (matrix by
    matrix, column by column)."""
    m = ref.shape[0]
    ref_keys = (
        np.repeat(np.arange(ref.shape[1], dtype=np.int64), np.diff(ref.indptr)) * m
        + ref.indices
    )
    slots = []
    for A in mats:
        keys = (
            np.repeat(np.arange(A.shape[1], dtype=np.int64), np.diff(A.indptr)) * m
            + A.indices
        )
        slots.append(np.searchsorted(ref_keys, keys))
    return np.concatenate(slots)


def run_repeat(seed: int, seconds: float, trace: bool) -> dict:
    import repro
    from repro.formats.csc import CSCMatrix

    def setup():
        repro.shutdown_pools()
        mats = generate(REPEAT_SHAPE, seed)
        ref = repro.spkadd(mats).matrix
        slot = _slot_map(mats, ref)
        values = np.concatenate([A.data for A in mats])
        if np.bincount(slot, weights=values, minlength=ref.nnz).tobytes() != ref.data.tobytes():
            raise RuntimeError("slot-map reference disagrees with the serial sum")
        # warm-up: one checked call
        if not common.same_bytes(repro.spkadd(mats).matrix, ref):
            raise RuntimeError("warm-up result is wrong")
        return mats, ref, slot

    setup_s, (mats, ref, slot) = common.timed_setups(setup)
    tracer = make_tracer(trace)
    loop = common.ClosedLoop(tracer)
    keys_in, keys_out = [], []
    rng = np.random.default_rng(seed + 1)
    t_end = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < t_end:
        values = [rng.random(A.nnz) for A in mats]
        step = [
            CSCMatrix(A.shape, A.indptr, A.indices, v, sorted=A.sorted, check=False)
            for A, v in zip(mats, values)
        ]
        res = loop.call(i, lambda: repro.spkadd(step))
        if res is not None:
            loop.work += slot.size
            expect = CSCMatrix(
                ref.shape, ref.indptr, ref.indices,
                np.bincount(slot, weights=np.concatenate(values), minlength=ref.nnz),
                sorted=True, check=False,
            )
            loop.check(common.same_bytes(res.matrix, expect))
            if loop.traced(i):
                keys_in.append(res.stats.input_nnz)
                keys_out.append(res.stats.output_nnz)
        del res, step
        i += 1
    out = {"attempted": loop.attempted, "failed": loop.failed,
           "e2e": loop.e2e(setup_s)}
    if trace:
        serial = common.timed_median_ms(lambda: repro.spkadd(mats), 9)
        out["layers"] = _layers(loop, tracer, keys_in, keys_out, serial,
                                common.scipy_fold_ms(mats))
        out["trace"] = tracer
    return out
