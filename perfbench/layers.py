"""Per-layer metrics from exported spans (see :mod:`perfbench.trace`).

A *unit* is one unit of work (an SpKAdd call, an SpGEMM, a gateway
kernel call); timings are medians over units of the per-unit sums.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Sequence

from perfbench import common


def self_ms_by_unit(spans: Iterable[dict], name: str) -> Dict[object, float]:
    """Sum of the self times of span ``name`` per unit, in ms."""
    out: Dict[object, float] = defaultdict(float)
    for s in spans:
        if s["name"] == name:
            out[s["unit"]] += s["self_ns"] / 1e6
    return out


def durations_ms(spans: Iterable[dict], name: str) -> List[float]:
    return [
        (s["end_ns"] - s["start_ns"]) / 1e6 for s in spans if s["name"] == name
    ]


def unit_median(spans, units: Sequence, *names: str) -> float:
    """Median over ``units`` of the summed self times of spans ``names``."""
    maps = [self_ms_by_unit(spans, name) for name in names]
    return common.median([sum(m.get(u, 0.0) for m in maps) for u in units])


def unit_durations(spans, units: Sequence, name: str) -> List[float]:
    """Per unit, the summed wall time of spans ``name``."""
    out = {u: 0.0 for u in units}
    for s in spans:
        if s["name"] == name and s["unit"] in out:
            out[s["unit"]] += (s["end_ns"] - s["start_ns"]) / 1e6
    return [out[u] for u in units]


def kernel_core(spans, units, counters, keys_in, keys_out) -> Dict[str, float]:
    """``kernels`` and ``core`` metrics; ``keys_in``/``keys_out`` are the
    input and output nnz of each unit's SpKAdd calls, from
    ``SpKAddResult.stats``."""
    sr_keys = counters["kernels.sort_reduce.keys"]
    sr_ns = sum(s["self_ns"] for s in spans if s["name"] == "kernels.sort_reduce")
    k_in, k_out = sum(keys_in), sum(keys_out)
    return {
        "kernels.sort_reduce.self_ms": unit_median(spans, units, "kernels.sort_reduce"),
        "kernels.keys_in": common.median(keys_in),
        "kernels.keys_out": common.median(keys_out),
        "kernels.dedup_ratio": k_out / k_in if k_in else 0.0,
        "kernels.bytes_computed": counters["kernels.bytes_computed"] / max(len(units), 1),
        "kernels.ns_per_key": sr_ns / sr_keys if sr_keys else 0.0,
        "core.gather.self_ms": unit_median(spans, units, "core.gather"),
        "core.keys.self_ms": unit_median(spans, units, "core.keys"),
        "core.assemble.self_ms": unit_median(spans, units, "core.assemble"),
        "core.symbolic.self_ms": unit_median(spans, units, "core.symbolic"),
        "core.cf": k_in / k_out if k_out else 0.0,
    }


def parallel(spans, units, counters, speedup: float) -> Dict[str, float]:
    """``parallel`` metrics: per-unit medians of self times, counts per
    unit, and the speedup of the unit over the serial baseline."""
    n = max(len(units), 1)
    return {
        "parallel.partition.self_ms": unit_median(spans, units, "parallel.partition"),
        "parallel.publish.self_ms": unit_median(spans, units, "parallel.publish"),
        "parallel.alloc.self_ms": unit_median(spans, units, "parallel.alloc"),
        "parallel.layout.self_ms": unit_median(spans, units, "parallel.layout"),
        "parallel.waves.self_ms": unit_median(spans, units, "parallel.waves"),
        "parallel.publish.bytes": counters["parallel.publish.bytes"] / n,
        "parallel.pool_wait_ms": unit_median(
            spans, units, "parallel.pool_lease", "parallel.engine_lock"
        ),
        "parallel.chunks": counters["parallel.chunks"] / n,
        "parallel.segments_created": counters["parallel.segments_created"] / n,
        "parallel.pool_boots": counters["parallel.pool_boots"],
        "parallel.retries": counters["parallel.retries"],
        "parallel.fallbacks": counters["parallel.fallbacks"],
        "parallel.orphan_sweeps": counters["parallel.orphan_sweeps"],
        "parallel.speedup_vs_serial": speedup,
    }


def closed_loop_validity(loop, spans, units) -> Dict[str, float]:
    """``trace.*`` metrics of a closed loop (its units are ``unit`` spans
    on the caller's thread)."""
    untraced = common.median(loop.lat_ms)
    return {
        "trace.unattributed_ms": unit_median(spans, units, "unit"),
        "trace.blocking_path_ms": common.median(unit_durations(spans, units, "unit")),
        "trace.overhead_frac": common.median(loop.traced_ms) / untraced - 1,
    }
