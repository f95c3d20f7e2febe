#!/usr/bin/env python
"""Wall-clock benchmark driver emitting a machine-readable BENCH_PR.json.

Every PR runs ``python benchmarks/run_all.py --quick`` and commits the
resulting ``BENCH_PR.json`` so the repo carries its own performance
trajectory: per-kernel wall-clock seconds, abstract op counts (where the
backend meters them), and the headline fast-vs-instrumented speedup of
the hash kernel.

Modes
-----
``--quick``
    One ER workload at the ISSUE-1 acceptance point (k=8 matrices,
    m=2^16 rows): every method once per relevant backend, plus the
    thread/shm executor series on the hash kernel, 3 repeats,
    best-of.  A parallel series times serial, ``thread`` and ``shm``
    at T=2 on that workload, paired, from an empty plan cache.  The
    native series times the serial fast backend with
    the compiled kernel, with it forced off (the NumPy loop) and a raw
    scipy pairwise fold, paired, on that workload and on a ~1M-nnz
    k=16 shape, and reports medians with quartiles; on the k=16 shape a
    paired ``replay`` leg times the same call from a cached plan.  The
    SpGEMM native series times rank (0, 0)'s local multiplies of the
    RMAT 2^14 SUMMA with the compiled kernel against the NumPy
    expansion, paired.  Finishes in about a minute — suitable for CI.
default (no flag)
    Adds the RMAT pattern, a larger k, and thread sweeps.

Usage::

    PYTHONPATH=src python benchmarks/run_all.py --quick
    PYTHONPATH=src python benchmarks/run_all.py --out BENCH_PR.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

# Allow running straight from a checkout without installing.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import repro  # noqa: E402
from repro.generators import (  # noqa: E402
    erdos_renyi_collection,
    rmat_collection,
)

#: the ISSUE-1 acceptance workload: k=8 matrices of dimension n=2^16.
QUICK_M, QUICK_N, QUICK_D, QUICK_K = 1 << 16, 4096, 8.0, 8

from repro.core.api import BACKEND_AWARE_METHODS  # noqa: E402


def _time_call(fn, repeats: int):
    """Best-of-``repeats`` wall-clock seconds (and the last result).

    This process's SpKAdd pattern cache is emptied before each call, so
    a repeat times the kernel, not a plan replay (shm workers keep
    their own caches)."""
    from repro.kernels import native

    best = float("inf")
    result = None
    for _ in range(repeats):
        native._clear_plans()
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def bench_workload(name, mats, methods, *, threads, repeats, records,
                   executor=None, backends=None, extra_kwargs=None):
    from repro.parallel.executor import resolve_executor

    total_in = sum(A.nnz for A in mats)
    # Serial runs use no pool at all; parallel runs are labelled with the
    # executor that actually serves them (REPRO_EXECUTOR reroutes calls
    # that don't pass one explicitly).
    exec_label = "-" if threads <= 1 else resolve_executor(executor)
    for method in methods:
        method_backends = backends or (
            ("fast", "instrumented") if method in BACKEND_AWARE_METHODS else (None,)
        )
        for backend in method_backends:
            kwargs = {"backend": backend} if backend else {}
            if executor is not None:
                kwargs["executor"] = executor
            if extra_kwargs:
                kwargs.update(extra_kwargs)
            wall, res = _time_call(
                lambda: repro.spkadd(
                    mats, method=method, threads=threads, **kwargs
                ),
                repeats,
            )
            rec = {
                "workload": name,
                "method": method,
                "backend": backend or "-",
                "executor": exec_label,
                "threads": threads,
                "wall_s": round(wall, 6),
                "input_nnz": total_in,
                "output_nnz": res.matrix.nnz,
                "ops": float(res.stats.ops),
                "probes": float(res.stats.probes),
            }
            records.append(rec)
            print(
                f"  {name:14s} {method:18s} {rec['backend']:13s} "
                f"{rec['executor']:8s} "
                f"T={threads} {wall * 1e3:9.1f} ms  "
                f"ops={rec['ops']:.3g}"
            )


#: the ~1M-nnz serial shape of the benchmark's repeated-pattern
#: workload: ER, m=2^16, n=4096, d=16, k=16.
REPEAT_M, REPEAT_N, REPEAT_D, REPEAT_K = 1 << 16, 4096, 16.0, 16


def _scipy_fold(mats):
    """A raw scipy pairwise fold (the absolute bar): ``((A0 + A1) + A2)
    + ...`` on scipy CSC matrices built outside the timed region."""
    import scipy.sparse as sp

    csc = [sp.csc_matrix((A.data, A.indices, A.indptr), shape=A.shape)
           for A in mats]

    def fold():
        acc = csc[0]
        for B in csc[1:]:
            acc = acc + B
        return acc

    return fold


def _spread(walls):
    q1, med, q3 = np.percentile(walls, [25, 50, 75])
    return {"median_s": round(float(med), 6), "q1_s": round(float(q1), 6),
            "q3_s": round(float(q3), 6), "min_s": round(min(walls), 6),
            "max_s": round(max(walls), 6)}


def bench_native_series(shapes, *, repeats, records, replay_shapes=()):
    """Serial SpKAdd per shape: the fast backend with the compiled
    kernel (its pattern cache emptied before each call, so the kernel
    runs), the same call with the loader forced off (the NumPy loop),
    and a raw scipy pairwise fold.  Shapes in ``replay_shapes`` add a
    ``replay`` leg: the same call once its plan is cached, so only the
    value replay runs.  Legs alternate within each repeat (paired); the
    record's ``wall_s`` is the median, ``spread`` the quartiles.
    Returns ``{shape: {leg: median_s}}`` (empty when the kernel cannot
    be built here)."""
    from repro.kernels import native

    if native.library() is None:
        print(f"native series skipped: {native.fallback_reason()}")
        return {}
    saved = native.library

    def numpy_loop(mats):
        native.library = lambda: None
        try:
            return repro.spkadd(mats)
        finally:
            native.library = saved

    def kernel(mats):
        native._clear_plans()
        return repro.spkadd(mats)

    def plan(mats):
        """Untimed: cache the plan of ``mats`` (second sighting)."""
        native._clear_plans()
        repro.spkadd(mats)
        repro.spkadd(mats)

    out = {}
    for name, mats in shapes.items():
        legs = {
            "native": lambda: kernel(mats),
            "numpy": lambda: numpy_loop(mats),
            "scipy_fold": _scipy_fold(mats),
        }
        prepare = {}
        if name in replay_shapes:
            legs["replay"] = lambda: repro.spkadd(mats)
            prepare["replay"] = lambda: plan(mats)
        a = legs["native"]().matrix
        for leg in ("numpy", "replay"):
            if leg not in legs:
                continue
            if leg in prepare:
                prepare[leg]()
            b = legs[leg]().matrix
            if any(getattr(a, f).tobytes() != getattr(b, f).tobytes()
                   for f in ("indptr", "indices", "data")):
                raise AssertionError(f"{name}: native != {leg}")
        walls = {leg: [] for leg in legs}
        for _ in range(repeats):
            for leg, fn in legs.items():
                if leg in prepare:
                    prepare[leg]()
                t0 = time.perf_counter()
                fn()
                walls[leg].append(time.perf_counter() - t0)
        print(f"native series: {name}, serial, {repeats} paired repeats")
        out[name] = {}
        for leg, w in walls.items():
            spread = _spread(w)
            out[name][leg] = spread["median_s"]
            records.append({
                "workload": f"{name}_serial_{leg}",
                "method": "hash" if leg != "scipy_fold" else "scipy_fold",
                "backend": {"native": "fast", "numpy": "fast(numpy)",
                            "replay": "fast(replay)",
                            "scipy_fold": "-"}[leg],
                "executor": "-",
                "threads": 1,
                "wall_s": spread["median_s"],
                "spread": spread,
                "repeats": repeats,
                "input_nnz": sum(A.nnz for A in mats),
                "output_nnz": a.nnz,
                "ops": 0.0,
                "probes": 0.0,
            })
            print(f"  {name:24s} {leg:10s} median {spread['median_s'] * 1e3:8.1f}"
                  f" ms  (q1 {spread['q1_s'] * 1e3:.1f}, q3 "
                  f"{spread['q3_s'] * 1e3:.1f})")
    return out


def bench_parallel_series(mats, *, repeats, records, threads=2):
    """Serial SpKAdd against the ``thread`` and ``shm`` executors at
    ``threads`` workers (hash, fast backend), legs alternating within
    each repeat (paired), each call from an empty plan cache so the
    kernel runs rather than a replay.  Returns ``{executor:
    serial_median / executor_median}``."""
    from repro.kernels import native

    legs = {
        "serial": {},
        "thread": {"threads": threads, "executor": "thread"},
        "shm": {"threads": threads, "executor": "shm"},
    }
    ref = repro.spkadd(mats).matrix
    for leg, kw in legs.items():  # bit identity; also warms the shm pool
        got = repro.spkadd(mats, **kw).matrix
        if any(getattr(ref, f).tobytes() != getattr(got, f).tobytes()
               for f in ("indptr", "indices", "data")):
            raise AssertionError(f"parallel series: {leg} != serial")
        del got
    walls = {leg: [] for leg in legs}
    for _ in range(repeats):
        for leg, kw in legs.items():
            native._clear_plans()
            t0 = time.perf_counter()
            repro.spkadd(mats, method="hash", backend="fast", **kw)
            walls[leg].append(time.perf_counter() - t0)
    print(f"parallel series: hash/fast, serial vs thread vs shm, "
          f"T={threads}, {repeats} paired repeats")
    medians = {}
    for leg, w in walls.items():
        spread = _spread(w)
        medians[leg] = spread["median_s"]
        records.append({
            "workload": f"er_k8_n65536_t{threads}_{leg}",
            "method": "hash",
            "backend": "fast",
            "executor": "-" if leg == "serial" else leg,
            "threads": 1 if leg == "serial" else threads,
            "wall_s": spread["median_s"],
            "spread": spread,
            "repeats": repeats,
            "input_nnz": sum(A.nnz for A in mats),
            "output_nnz": ref.nnz,
            "ops": 0.0,
            "probes": 0.0,
        })
        print(f"  er_k8_n65536_t{threads}_{leg:8s} median "
              f"{spread['median_s'] * 1e3:8.1f} ms  (q1 "
              f"{spread['q1_s'] * 1e3:.1f}, q3 {spread['q3_s'] * 1e3:.1f})")
    return {
        leg: round(medians["serial"] / medians[leg], 2)
        for leg in ("thread", "shm") if medians[leg] > 0
    }


#: the SUMMA shape of the SpGEMM series: RMAT 2^14, d=4, a 2x2 grid
#: and 16 stages.
SPGEMM_SCALE, SPGEMM_D, SPGEMM_STAGES = 14, 4.0, 16


def bench_spgemm_native(*, repeats, records):
    """Rank (0, 0)'s 16 local multiplies of the RMAT 2^14 SUMMA, serial,
    on the fast backend: the compiled Gustavson kernel (sorted and
    unsorted output), the same calls with the loader forced off (the
    NumPy expansion, always sorted) and scipy ``@``.  Legs alternate
    within each repeat (paired); the sorted kernel output must equal
    the NumPy bytes.  Returns ``{leg: median_s}`` (empty when the kernel
    cannot be built here)."""
    import scipy.sparse as sp

    from repro.distributed.grid import BlockDistribution
    from repro.distributed.spgemm_local import local_spgemm
    from repro.generators import rmat
    from repro.kernels import native

    if native.library() is None:
        print(f"spgemm native series skipped: {native.fallback_reason()}")
        return {}
    n = 1 << SPGEMM_SCALE
    A = rmat(n, n, d=SPGEMM_D, seed=21)
    dA = BlockDistribution.distribute(A, 2, SPGEMM_STAGES)
    dB = BlockDistribution.distribute(A, SPGEMM_STAGES, 2)
    pairs = [(dA.block(0, s), dB.block(s, 0)) for s in range(SPGEMM_STAGES)]
    saved = native.library

    def multiply(sorted_output, with_kernel=True):
        if not with_kernel:
            native.library = lambda: None
        try:
            return [local_spgemm(a, b, backend="fast",
                                 sorted_output=sorted_output)
                    for a, b in pairs]
        finally:
            native.library = saved

    scipy_pairs = [
        (sp.csc_matrix((a.data, a.indices, a.indptr), shape=a.shape),
         sp.csc_matrix((b.data, b.indices, b.indptr), shape=b.shape))
        for a, b in pairs
    ]
    legs = {
        "native": lambda: multiply(True),
        "numpy": lambda: multiply(True, with_kernel=False),
        "native_unsorted": lambda: multiply(False),
        "scipy_matmul": lambda: [a @ b for a, b in scipy_pairs],
    }
    got, want = legs["native"](), legs["numpy"]()
    for x, y in zip(got, want):
        if any(getattr(x, f).tobytes() != getattr(y, f).tobytes()
               for f in ("indptr", "indices", "data")):
            raise AssertionError("native SpGEMM != NumPy SpGEMM")
    walls = {leg: [] for leg in legs}
    for _ in range(repeats):
        for leg, fn in legs.items():
            t0 = time.perf_counter()
            fn()
            walls[leg].append(time.perf_counter() - t0)
    print(f"spgemm native series: rank (0,0)'s {SPGEMM_STAGES} local "
          f"multiplies, rmat m=2^{SPGEMM_SCALE} d={SPGEMM_D}, serial, "
          f"{repeats} paired repeats")
    out = {}
    for leg, w in walls.items():
        spread = _spread(w)
        out[leg] = spread["median_s"]
        records.append({
            "workload": f"spgemm_rank0_multiplies_{leg}",
            "method": "local_spgemm" if leg != "scipy_matmul" else "scipy",
            "backend": {"native": "fast", "numpy": "fast(numpy)",
                        "native_unsorted": "fast(unsorted)",
                        "scipy_matmul": "-"}[leg],
            "executor": "-",
            "threads": 1,
            "wall_s": spread["median_s"],
            "spread": spread,
            "repeats": repeats,
            "input_nnz": sum(a.nnz + b.nnz for a, b in pairs),
            "output_nnz": sum(C.nnz for C in got),
            "ops": 0.0,
            "probes": 0.0,
        })
        print(f"  {leg:16s} median {spread['median_s'] * 1e3:8.1f} ms  "
              f"(q1 {spread['q1_s'] * 1e3:.1f}, q3 "
              f"{spread['q3_s'] * 1e3:.1f})")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="CI preset: one ER workload, core methods only")
    ap.add_argument("--out", default="BENCH_PR.json",
                    help="output JSON path (default: BENCH_PR.json)")
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args(argv)

    records = []
    t_start = time.time()

    print(f"ER workload: k={QUICK_K}, m={QUICK_M}, n={QUICK_N}, d={QUICK_D}")
    er = erdos_renyi_collection(
        QUICK_M, QUICK_N, d=QUICK_D, k=QUICK_K, seed=11
    )
    quick_methods = ["hash", "sliding_hash", "spa", "heap", "scipy_tree"]
    bench_workload(
        "er_k8_n65536", er, quick_methods,
        threads=1, repeats=args.repeats, records=records,
    )

    native_series = bench_native_series(
        {
            "er_k8_n65536": er,
            "er_k16_d16_repeat_shape": erdos_renyi_collection(
                REPEAT_M, REPEAT_N, d=REPEAT_D, k=REPEAT_K, seed=14
            ),
        },
        repeats=max(args.repeats, 9), records=records,
        replay_shapes=("er_k16_d16_repeat_shape",),
    )

    spgemm_native = bench_spgemm_native(
        repeats=max(args.repeats, 9), records=records
    )

    # Executor series: the same hash/fast workload on both worker-pool
    # flavours — the shm engine's zero-copy transport vs the GIL-sharing
    # thread pool.
    exec_threads = 4
    print(f"executor series: hash/fast, T={exec_threads}")
    for executor in ("thread", "shm"):
        bench_workload(
            "er_k8_n65536", er, ["hash"],
            threads=exec_threads, repeats=args.repeats, records=records,
            executor=executor, backends=("fast",),
        )

    parallel_speedup = bench_parallel_series(
        er, repeats=max(args.repeats, 9), records=records
    )

    # Pool-lifecycle series: executor="shm" routes through the
    # persistent pool registry, so only the first call after a teardown
    # pays the forkserver pool spawn.  Pair each cold call (registry
    # emptied first — a per-call pool's cost) with a warm call reusing
    # the pool the cold call just built; pairing cancels machine drift
    # out of the ratio.
    from repro.parallel.pools import shutdown_pools

    print(f"pool series: hash/fast, cold vs persistent shm pool, "
          f"T={exec_threads} (paired)")
    pool_wall = {"cold": float("inf"), "warm": float("inf")}
    for _ in range(max(args.repeats, 5)):
        shutdown_pools()
        for leg in ("cold", "warm"):
            t0 = time.perf_counter()
            pool_res = repro.spkadd(
                er, method="hash", threads=exec_threads,
                executor="shm", backend="fast",
            )
            pool_wall[leg] = min(pool_wall[leg], time.perf_counter() - t0)
    for leg in ("cold", "warm"):
        records.append({
            "workload": f"er_k8_n65536_{leg}pool",
            "method": "hash",
            "backend": "fast",
            "executor": "shm",
            "threads": exec_threads,
            "wall_s": round(pool_wall[leg], 6),
            "input_nnz": sum(A.nnz for A in er),
            "output_nnz": pool_res.matrix.nnz,
            "ops": float(pool_res.stats.ops),
            "probes": float(pool_res.stats.probes),
        })
        print(f"  er_k8_n65536_{leg}pool   hash fast shm "
              f"T={exec_threads} {pool_wall[leg] * 1e3:9.1f} ms")

    # Result-placement series: the shm engine's zero-copy results
    # (segment-backed arrays, no final memcpy) vs the same call followed
    # by matrix.materialize() (a private copy), paired on one warm pool.
    print(f"result series: hash/fast shm zero-copy vs materialized, "
          f"T={exec_threads} (paired)")
    result_wall = {"zerocopy": float("inf"), "materialized": float("inf")}
    repro.spkadd(er, method="hash", threads=exec_threads, executor="shm",
                 backend="fast")  # warm the shm pool
    for _ in range(max(args.repeats, 8)):
        for leg in ("zerocopy", "materialized"):
            t0 = time.perf_counter()
            result_res = repro.spkadd(
                er, method="hash", threads=exec_threads, executor="shm",
                backend="fast",
            )
            if leg == "materialized":
                result_res.matrix = result_res.matrix.materialize()
            result_wall[leg] = min(
                result_wall[leg], time.perf_counter() - t0
            )
    for leg in ("zerocopy", "materialized"):
        records.append({
            "workload": f"er_k8_n65536_{leg}",
            "method": "hash",
            "backend": "fast",
            "executor": "shm",
            "threads": exec_threads,
            "wall_s": round(result_wall[leg], 6),
            "input_nnz": sum(A.nnz for A in er),
            "output_nnz": result_res.matrix.nnz,
            "ops": float(result_res.stats.ops),
            "probes": float(result_res.stats.probes),
        })
        print(f"  er_k8_n65536_{leg:12s} hash fast shm "
              f"T={exec_threads} {result_wall[leg] * 1e3:9.1f} ms")

    # Resilience-overhead series: the same happy-path shm workload with
    # the resilience layer at its default policy (retry budget, fallback
    # chain armed, a generous deadline) vs ResiliencePolicy.disabled().
    # No fault fires on either leg, so the ratio isolates the layer's
    # bookkeeping — per-attempt fault lookups, deadline checks, the
    # retry loop's wave accounting.  The legs alternate which runs first
    # from one pair to the next, and the ratio is the median of the
    # per-pair ratios: a ~12 ms call on a shared box drifts by more
    # than the layer costs, and the pairing cancels that drift.
    from repro.parallel.resilience import ResiliencePolicy

    print(f"resilience series: hash/fast shm, policy on vs off, "
          f"T={exec_threads} (paired, order alternated)")
    resil_legs = {
        "enabled": ResiliencePolicy(deadline_s=600.0),
        "disabled": ResiliencePolicy.disabled(),
    }
    resil_walls = {name: [] for name in resil_legs}
    for i in range(max(args.repeats, 80)):
        order = list(resil_legs)
        for leg in order if i % 2 == 0 else order[::-1]:
            t0 = time.perf_counter()
            resil_res = repro.spkadd(
                er, method="hash", threads=exec_threads, executor="shm",
                backend="fast", resilience=resil_legs[leg],
            )
            resil_walls[leg].append(time.perf_counter() - t0)
    for leg in ("enabled", "disabled"):
        spread = _spread(resil_walls[leg])
        records.append({
            "workload": f"er_k8_n65536_resil_{leg}",
            "method": "hash",
            "backend": "fast",
            "executor": "shm",
            "threads": exec_threads,
            "wall_s": spread["median_s"],
            "spread": spread,
            "repeats": len(resil_walls[leg]),
            "input_nnz": sum(A.nnz for A in er),
            "output_nnz": resil_res.matrix.nnz,
            "ops": float(resil_res.stats.ops),
            "probes": float(resil_res.stats.probes),
        })
        print(f"  er_k8_n65536_resil_{leg:8s} hash fast shm "
              f"T={exec_threads} median {spread['median_s'] * 1e3:9.1f} ms")

    # Dtype series: the identical workload with float32 values through
    # the shm engine — the value pipeline preserves the narrow dtype end
    # to end, halving the bytes published/staged/scattered per entry.
    er_f32 = [A.astype(np.float32) for A in er]
    print(f"dtype series: hash/fast float32, shm, T={exec_threads}")
    bench_workload(
        "er_k8_n65536_f32", er_f32, ["hash"],
        threads=exec_threads, repeats=args.repeats, records=records,
        executor="shm", backends=("fast",),
    )

    # Index-width series: one workload at both index widths through the
    # shm engine.  The values are float32 on BOTH legs — the paper's
    # 4-byte-value + 4-byte-index entry layout on the narrow leg vs the
    # same values with 8-byte indices on the wide one, so the legs
    # differ *only* in index width.  A denser collection (k=16, d=32)
    # keeps byte movement, not per-call pool overhead, dominant.  The
    # generator already stores int32 (the bounds fit); the wide leg
    # casts the inputs up.  Explicit index_dtype on both legs so a
    # REPRO_INDEX_DTYPE pin on a CI leg cannot collapse the comparison.
    #
    # The legs are timed PAIRED (repeats alternate i32/i64) rather than
    # as two sequential best-of blocks: on a busy CI box the machine
    # drifts between blocks by more than the ~12% effect, and pairing
    # cancels that drift out of the ratio.
    idx_threads = 2
    er_idx = [
        A.astype(np.float32)
        for A in erdos_renyi_collection(QUICK_M, QUICK_N, d=32.0, k=16,
                                        seed=13)
    ]
    er_idx64 = [A.with_index_dtype(np.int64) for A in er_idx]
    print(f"index series: hash/fast float32 values, int32 vs int64 "
          f"indices, shm, k=16, d=32, T={idx_threads} (paired)")
    idx_legs = {
        "er_k16_d32_f32_i32idx": (er_idx, "int32"),
        "er_k16_d32_f32_i64idx": (er_idx64, "int64"),
    }
    idx_wall = {name: float("inf") for name in idx_legs}
    idx_out = {}
    for name, (leg_mats, leg_dtype) in idx_legs.items():  # warm the pool
        idx_out[name] = repro.spkadd(
            leg_mats, method="hash", threads=idx_threads, executor="shm",
            backend="fast", index_dtype=leg_dtype,
        )
    for _ in range(max(args.repeats, 8)):
        for name, (leg_mats, leg_dtype) in idx_legs.items():
            t0 = time.perf_counter()
            idx_out[name] = repro.spkadd(
                leg_mats, method="hash", threads=idx_threads,
                executor="shm", backend="fast", index_dtype=leg_dtype,
            )
            idx_wall[name] = min(
                idx_wall[name], time.perf_counter() - t0
            )
    for name, (leg_mats, _) in idx_legs.items():
        res = idx_out[name]
        records.append({
            "workload": name,
            "method": "hash",
            "backend": "fast",
            "executor": "shm",
            "threads": idx_threads,
            "wall_s": round(idx_wall[name], 6),
            "input_nnz": sum(A.nnz for A in leg_mats),
            "output_nnz": res.matrix.nnz,
            "ops": float(res.stats.ops),
            "probes": float(res.stats.probes),
        })
        print(f"  {name:22s} hash fast shm T={idx_threads} "
              f"{idx_wall[name] * 1e3:9.1f} ms  "
              f"idx={res.matrix.indices.dtype}")

    # Gateway series: B concurrent small requests through the serving
    # layer, micro-batching on vs off.  The batched gateway fuses the
    # burst into one k = B*k_each kernel call (the paper's advantage
    # grows with k; the batcher manufactures the high-k regime), the
    # unbatched one runs B separate k=k_each calls.  Two servers live
    # side by side on separate sockets and the repeat loop alternates
    # legs, so machine drift cancels out of the ratio.
    import uuid as _uuid
    from concurrent.futures import ThreadPoolExecutor as _ClientPool

    from repro.serve import GatewayClient, GatewayConfig, start_in_thread

    gw_burst, gw_k = 32, 4
    gw_reqs = [
        erdos_renyi_collection(256, 16, d=4.0, k=gw_k, seed=100 + i)
        for i in range(gw_burst)
    ]
    gw_expect = repro.spkadd(gw_reqs[0]).matrix
    gw_in_nnz = sum(A.nnz for req in gw_reqs for A in req)
    gw_legs = {
        "microbatch": {"batch_max": gw_burst, "batch_window_s": 0.05},
        "per_request": {"batch_max": 1, "batch_window_s": 0.0},
    }
    print(f"gateway series: {gw_burst} concurrent k={gw_k} requests, "
          f"micro-batched vs per-request (paired)")
    gw_wall = {leg: float("inf") for leg in gw_legs}
    gw_handles, gw_clients, gw_out = {}, {}, {}
    # The series compares batching, not executors: the gateway's kernel
    # calls stay in process whatever REPRO_EXECUTOR the leg runs under.
    gw_env_executor = os.environ.pop("REPRO_EXECUTOR", None)
    try:
        for leg, knobs in gw_legs.items():
            cfg = GatewayConfig(
                socket_path=(f"/tmp/repro-bench-gw-{os.getpid()}-"
                             f"{_uuid.uuid4().hex[:6]}.sock"),
                threads=2, max_queue=2 * gw_burst,
                **knobs,
            )
            gw_handles[leg] = start_in_thread(cfg)
            gw_clients[leg] = [
                GatewayClient(cfg.socket_path) for _ in range(gw_burst)
            ]
        with _ClientPool(max_workers=gw_burst) as submit_pool:
            def _storm(leg):
                futures = [
                    submit_pool.submit(client.submit, req)
                    for client, req in zip(gw_clients[leg], gw_reqs)
                ]
                return [f.result() for f in futures]

            for leg in gw_legs:  # warm: connects, lazy imports, pools
                gw_out[leg] = _storm(leg)
            for _ in range(max(args.repeats, 5)):
                for leg in gw_legs:
                    t0 = time.perf_counter()
                    gw_out[leg] = _storm(leg)
                    gw_wall[leg] = min(
                        gw_wall[leg], time.perf_counter() - t0
                    )
        gw_stats = gw_clients["microbatch"][0].stats()
        first = gw_out["microbatch"][0]
        if not (np.array_equal(first.indices, gw_expect.indices)
                and np.array_equal(first.data, gw_expect.data)):
            raise AssertionError("gateway response != serial spkadd")
    finally:
        for clients in gw_clients.values():
            for client in clients:
                client.close()
        for handle in gw_handles.values():
            handle.stop()
        if gw_env_executor is not None:
            os.environ["REPRO_EXECUTOR"] = gw_env_executor
    for leg in gw_legs:
        records.append({
            "workload": f"gateway_b{gw_burst}_k{gw_k}_{leg}",
            "method": "hash",
            "backend": "-",
            "executor": "gateway",
            "threads": 2,
            "wall_s": round(gw_wall[leg], 6),
            "input_nnz": gw_in_nnz,
            "output_nnz": sum(r.nnz for r in gw_out[leg]),
            "ops": 0.0,
            "probes": 0.0,
        })
        print(f"  gateway_b{gw_burst}_k{gw_k}_{leg:12s} "
              f"{gw_wall[leg] * 1e3:9.1f} ms")
    print(f"  fused_k_max={gw_stats['fused_k_max']} "
          f"(per-request k={gw_k})")

    # SpGEMM workload series: the promoted SUMMA path (fast kernels, shm
    # merges, rank concurrency + multiply/merge overlap) vs the
    # pre-refactor serial paper path (rank-by-rank, instrumented merges)
    # on an RMAT 2^14 squaring.  Legs alternate within each repeat
    # (paired) so machine drift cancels out of the ratio, and the
    # promoted leg's result is checked bit-identical to the serial one —
    # the speedup may not come from computing something else.
    from repro.distributed import ExecutionPlan, ProcessGrid, summa_spgemm
    from repro.generators import rmat

    spg_m, spg_d, spg_stages = 1 << SPGEMM_SCALE, SPGEMM_D, SPGEMM_STAGES
    spg_A = rmat(spg_m, spg_m, d=spg_d, seed=21)
    spg_grid = ProcessGrid(2, 2)
    spg_legs = {
        "serial": dict(plan=ExecutionPlan.paper()),
        # Named explicitly: the production plan's merges otherwise
        # follow REPRO_EXECUTOR, and this leg measures the shm merges;
        # threads=2 keeps them parallel (an open width takes the CPU
        # budget's inner share, 1 on a 2-CPU box, a serial merge).
        "fast_shm": dict(
            plan=ExecutionPlan.production(executor="shm", threads=2),
            sorted_intermediates=False,
        ),
    }
    print(f"spgemm series: SUMMA rmat m=2^14 d={spg_d} stages={spg_stages}, "
          "promoted fast/shm vs serial paper path (paired)")
    spg_wall = {leg: float("inf") for leg in spg_legs}
    spg_out = {}
    spg_repeats = 2 if args.quick else max(args.repeats, 3)
    for _ in range(spg_repeats):
        for leg, leg_kw in spg_legs.items():
            t0 = time.perf_counter()
            spg_out[leg] = summa_spgemm(
                spg_A, spg_A, grid=spg_grid, stages=spg_stages, **leg_kw
            )
            spg_wall[leg] = min(spg_wall[leg], time.perf_counter() - t0)
    spg_mats = {leg: r.assemble() for leg, r in spg_out.items()}
    if not (
        spg_mats["fast_shm"].indptr.tobytes()
        == spg_mats["serial"].indptr.tobytes()
        and spg_mats["fast_shm"].indices.tobytes()
        == spg_mats["serial"].indices.tobytes()
        and spg_mats["fast_shm"].data.tobytes()
        == spg_mats["serial"].data.tobytes()
    ):
        raise AssertionError("promoted SUMMA result != serial reference")
    for leg in spg_legs:
        records.append({
            "workload": f"spgemm_rmat16384_{leg}",
            "method": "summa_hash",
            "backend": "instrumented" if leg == "serial" else "fast",
            "executor": "-" if leg == "serial" else "shm",
            "threads": 1 if leg == "serial" else 4,
            "wall_s": round(spg_wall[leg], 6),
            "input_nnz": 2 * spg_A.nnz,
            "output_nnz": spg_mats[leg].nnz,
            "ops": float(sum(r.spkadd_stats.ops for r in spg_out[leg].ranks)),
            "probes": float(
                sum(r.spkadd_stats.probes for r in spg_out[leg].ranks)
            ),
        })
        print(f"  spgemm_rmat16384_{leg:9s} summa_hash "
              f"{spg_wall[leg] * 1e3:9.1f} ms")

    if not args.quick:
        # Protein-surrogate SpGEMM (the paper's HipMCL squaring shape):
        # same paired promoted-vs-serial comparison on a symmetrized
        # similarity surrogate.
        from repro.experiments.fig6 import _square_surrogate

        prot_A = _square_surrogate(4096, 8.0, sigma=1.0, seed=61)
        print("spgemm series: SUMMA protein surrogate m=4096 d=8 "
              "stages=32, promoted vs serial (paired)")
        prot_wall = {leg: float("inf") for leg in spg_legs}
        prot_out = {}
        for _ in range(max(args.repeats, 3)):
            for leg, leg_kw in spg_legs.items():
                t0 = time.perf_counter()
                prot_out[leg] = summa_spgemm(
                    prot_A, prot_A, grid=spg_grid, stages=32, **leg_kw
                )
                prot_wall[leg] = min(
                    prot_wall[leg], time.perf_counter() - t0
                )
        for leg in spg_legs:
            records.append({
                "workload": f"spgemm_protein4096_{leg}",
                "method": "summa_hash",
                "backend": "instrumented" if leg == "serial" else "fast",
                "executor": "-" if leg == "serial" else "shm",
                "threads": 1 if leg == "serial" else 4,
                "wall_s": round(prot_wall[leg], 6),
                "input_nnz": 2 * prot_A.nnz,
                "output_nnz": prot_out[leg].assemble().nnz,
                "ops": float(
                    sum(r.spkadd_stats.ops for r in prot_out[leg].ranks)
                ),
                "probes": float(
                    sum(r.spkadd_stats.probes for r in prot_out[leg].ranks)
                ),
            })
            print(f"  spgemm_protein4096_{leg:9s} summa_hash "
                  f"{prot_wall[leg] * 1e3:9.1f} ms")

    if not args.quick:
        print("RMAT workload: k=16, m=2^15, n=64, d=16")
        rm = rmat_collection(1 << 15, 64, d=16.0, k=16, seed=12)
        bench_workload(
            "rmat_k16_m32768", rm,
            ["hash", "sliding_hash", "spa", "heap", "2way_tree"],
            threads=1, repeats=args.repeats, records=records,
        )
        for threads in (2, 4):
            bench_workload(
                "er_k8_n65536", er, ["hash"],
                threads=threads, repeats=args.repeats, records=records,
            )

    def wall_of(method, backend, *, threads=1, executor=None,
                workload="er_k8_n65536"):
        for r in records:
            if (r["workload"] == workload and r["method"] == method
                    and r["backend"] == backend
                    and r["threads"] == threads
                    and (executor is None or r.get("executor") == executor)):
                return r["wall_s"]
        return None

    fast = wall_of("hash", "fast")
    inst = wall_of("hash", "instrumented")
    speedup = round(inst / fast, 2) if fast and inst else None
    print(f"\nhash fast-vs-instrumented speedup (k=8, m=2^16): {speedup}x")

    shm = wall_of("hash", "fast", threads=4, executor="shm")

    persist_speedup = (
        round(pool_wall["cold"] / pool_wall["warm"], 2)
        if pool_wall["warm"] not in (0, float("inf")) else None
    )
    print(f"hash shm persistent-vs-cold pool speedup (k=8, m=2^16, "
          f"T={exec_threads}): {persist_speedup}x")

    zerocopy_speedup = (
        round(result_wall["materialized"] / result_wall["zerocopy"], 2)
        if result_wall["zerocopy"] not in (0, float("inf")) else None
    )
    print(f"hash shm zero-copy result speedup (k=8, m=2^16, "
          f"T={exec_threads}): {zerocopy_speedup}x")

    shm_f32 = wall_of("hash", "fast", threads=4, executor="shm",
                      workload="er_k8_n65536_f32")
    f32_speedup = round(shm / shm_f32, 2) if shm and shm_f32 else None
    print(f"hash shm float32-vs-float64 speedup (k=8, m=2^16, T=4): "
          f"{f32_speedup}x")

    shm_i32 = wall_of("hash", "fast", threads=2, executor="shm",
                      workload="er_k16_d32_f32_i32idx")
    shm_i64 = wall_of("hash", "fast", threads=2, executor="shm",
                      workload="er_k16_d32_f32_i64idx")
    idx_speedup = (
        round(shm_i64 / shm_i32, 2) if shm_i32 and shm_i64 else None
    )
    print(f"hash shm int32-vs-int64 index speedup (k=16, m=2^16, d=32, "
          f"float32 values, T=2): {idx_speedup}x")

    gateway_speedup = (
        round(gw_wall["per_request"] / gw_wall["microbatch"], 2)
        if gw_wall["microbatch"] not in (0, float("inf")) else None
    )
    print(f"gateway micro-batch vs per-request speedup "
          f"(B={gw_burst}, k={gw_k}): {gateway_speedup}x")

    resilience_ratio = round(float(np.median(
        np.array(resil_walls["disabled"]) / np.array(resil_walls["enabled"])
    )), 2)
    print(f"resilience happy-path overhead ratio (median of paired "
          f"disabled/enabled walls, shm, T={exec_threads}): "
          f"{resilience_ratio}")

    spgemm_speedup = (
        round(spg_wall["serial"] / spg_wall["fast_shm"], 2)
        if spg_wall["fast_shm"] not in (0, float("inf")) else None
    )
    print(f"spgemm promoted fast/shm vs serial paper path speedup "
          f"(rmat m=2^14, stages={spg_stages}): {spgemm_speedup}x")

    repeat_legs = native_series.get("er_k16_d16_repeat_shape")
    native_speedup = (
        round(repeat_legs["numpy"] / repeat_legs["native"], 2)
        if repeat_legs else None
    )
    print(f"hash native-vs-numpy speedup (serial, k=16, m=2^16, d=16): "
          f"{native_speedup}x")
    replay_speedup = (
        round(repeat_legs["native"] / repeat_legs["replay"], 2)
        if repeat_legs else None
    )
    print(f"hash plan replay-vs-kernel speedup (serial, k=16, m=2^16, "
          f"d=16): {replay_speedup}x")

    print(f"hash thread-vs-serial speedup (k=8, m=2^16, T=2, paired): "
          f"{parallel_speedup.get('thread')}x")
    print(f"hash shm-vs-serial speedup (k=8, m=2^16, T=2, paired): "
          f"{parallel_speedup.get('shm')}x")

    spgemm_native_speedup = (
        round(spgemm_native["numpy"] / spgemm_native["native"], 2)
        if spgemm_native else None
    )
    print(f"spgemm native-vs-numpy speedup (rank (0,0)'s local multiplies, "
          f"rmat m=2^{SPGEMM_SCALE}, sorted): {spgemm_native_speedup}x")

    payload = {
        "schema": 14,
        "preset": "quick" if args.quick else "full",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "elapsed_s": round(time.time() - t_start, 1),
        "headline": {
            "hash_fast_vs_instrumented_speedup": speedup,
            "hash_shm_float32_vs_float64_speedup": f32_speedup,
            "hash_shm_int32_vs_int64_index_speedup": idx_speedup,
            "hash_shm_persistent_vs_cold_pool_speedup": persist_speedup,
            "hash_shm_zero_copy_result_speedup": zerocopy_speedup,
            "resilience_overhead_ratio": resilience_ratio,
            "gateway_microbatch_vs_per_request_speedup": gateway_speedup,
            "spgemm_fast_shm_vs_serial_speedup": spgemm_speedup,
            "hash_native_vs_numpy_speedup": native_speedup,
            "hash_plan_replay_vs_kernel_speedup": replay_speedup,
            "spgemm_native_vs_numpy_speedup": spgemm_native_speedup,
            "hash_thread_vs_serial_speedup": parallel_speedup.get("thread"),
            "hash_shm_vs_serial_speedup": parallel_speedup.get("shm"),
        },
        "results": records,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
