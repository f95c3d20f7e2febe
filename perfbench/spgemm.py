"""The ``summa_spgemm`` workload: a closed loop of the promoted SUMMA
pipeline on a 2x2 grid, checked against the serial plan's result."""

from __future__ import annotations

import time
from typing import Dict, List

from perfbench import common, layers
from perfbench.trace import make_tracer

SCALE = 14          # RMAT 2^SCALE x 2^SCALE
DEGREE = 4
STAGES = 16


def _run(A, plan):
    from repro import summa_spgemm
    from repro.distributed import ProcessGrid

    return summa_spgemm(
        A, A, grid=ProcessGrid(2, 2), stages=STAGES, plan=plan,
        sorted_intermediates=False,
    )


def _same_blocks(res, ref) -> bool:
    """Byte-for-byte equality of every C block (the blocks cover C, so
    this is equality of the assembled product)."""
    return all(
        common.same_bytes(got, want)
        for row, ref_row in zip(res.c_blocks, ref.c_blocks)
        for got, want in zip(row, ref_row)
    )


def _production():
    from repro import ExecutionPlan

    return ExecutionPlan.production(threads=2, rank_parallelism=2)


def _serial():
    from repro import ExecutionPlan

    # The serial paper path on the fast backend: same kernels, no
    # pools, no threads.
    return ExecutionPlan(backend="fast")


def run(seed: int, seconds: float, trace: bool) -> dict:
    import repro
    from repro.generators.rmat import rmat

    def setup():
        repro.shutdown_pools()
        n = 1 << SCALE
        A = rmat(n, n, d=DEGREE, seed=seed)
        ref = _run(A, _serial())
        if not _same_blocks(_run(A, _production()), ref):
            raise RuntimeError("warm-up SpGEMM result is wrong")
        return A, ref

    setup_s, (A, ref) = common.timed_setups(setup)
    plan = _production()
    tracer = make_tracer(trace)
    loop = common.ClosedLoop(tracer)
    per_unit: Dict[int, dict] = {}
    t_end = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < t_end:
        res = loop.call(i, lambda: _run(A, plan))
        if res is not None:
            loop.work += sum(r.intermediate_nnz for r in res.ranks)
            loop.check(_same_blocks(res, ref))
            if loop.traced(i):
                per_unit[i] = {
                    "bcast_bytes": res.comm.total_bytes,
                    "flops": sum(r.multiply.flops for r in res.ranks),
                    # merge keys in and out, from the merges' stats
                    "keys_in": sum(r.spkadd_stats.input_nnz for r in res.ranks),
                    "keys_out": sum(r.spkadd_stats.output_nnz for r in res.ranks),
                }
        del res
        i += 1
    out = {"attempted": loop.attempted, "failed": loop.failed,
           "e2e": loop.e2e(setup_s)}
    if trace:
        out["layers"] = _layers(tracer, loop, A, per_unit)
        out["trace"] = tracer
    return out


def _layers(tracer, loop, A, per_unit) -> Dict[str, float]:
    spans = tracer.export()["spans"]
    units = sorted(per_unit)

    def field(name: str) -> List[int]:
        return [per_unit[u][name] for u in units]

    multiply = layers.unit_durations(spans, units, "distributed.multiply")
    merge = layers.unit_durations(spans, units, "distributed.merge")
    wall = layers.unit_durations(spans, units, "unit")
    keys_in, keys_out = field("keys_in"), field("keys_out")
    serial_ms = common.timed_median_ms(lambda: _run(A, _serial()), 3)
    return {
        **layers.kernel_core(spans, units, tracer.counters, keys_in, keys_out),
        **layers.parallel(spans, units, tracer.counters,
                          serial_ms / common.median(loop.lat_ms)),
        "distributed.distribute_ms": common.median(
            layers.unit_durations(spans, units, "distributed.distribute")
        ),
        "distributed.bcast_bytes": common.median(field("bcast_bytes")),
        "distributed.multiply.self_ms": layers.unit_median(
            spans, units, "distributed.multiply"
        ),
        "distributed.multiply.flops": common.median(field("flops")),
        "distributed.merge_ms": common.median(merge),
        # A merge waits for a submitter thread, then for the shm engine.
        "distributed.merge_wait_ms": layers.unit_median(
            spans, units, "distributed.submit_wait", "parallel.engine_lock"
        ),
        "distributed.intermediate_nnz": common.median(keys_in),
        "distributed.merge_cf": sum(keys_in) / max(sum(keys_out), 1),
        "distributed.overlap_frac": common.median([
            1 - w / (mu + me) if mu + me else 0.0
            for w, mu, me in zip(wall, multiply, merge)
        ]),
        "baseline.scipy_fold_ms": common.scipy_fold_ms(_rank0_pieces(A)),
        "baseline.serial_fast_ms": serial_ms,
        **layers.closed_loop_validity(loop, spans, units),
    }


def _rank0_pieces(A):
    """Rank (0, 0)'s stage products: the input of one SUMMA merge."""
    from repro.distributed.grid import BlockDistribution
    from repro.distributed.spgemm_local import local_spgemm

    dA = BlockDistribution.distribute(A, 2, STAGES)
    dB = BlockDistribution.distribute(A, STAGES, 2)
    return [
        local_spgemm(dA.block(0, s), dB.block(s, 0), backend="fast")
        for s in range(STAGES)
    ]
