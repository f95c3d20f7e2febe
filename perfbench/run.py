"""Benchmark of the SpKAdd system: run one workload, print its metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload kadd_fresh --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # every workload, untraced
    python3 perfbench/run.py --workload kadd_fresh --repeat 5
                                                       # medians and IQR/median

A run prints the machine record, every metric by name with its unit,
and as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` its per-layer
metrics.  Every result is checked byte for byte against a reference;
any mismatch, leaked shared-memory segment or leftover process makes
the run exit nonzero.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("kadd_fresh", "kadd_repeat", "gateway_open", "summa_spgemm")

#: the fork server's socket lives under TMPDIR; an AF_UNIX path holds
#: at most 107 bytes, so the checkout's own scratch is used only when
#: the path leaves room for the ~35 characters multiprocessing appends.
_MAX_TMPDIR = 64


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _prepare() -> None:
    """Fail fast outside a checkout; keep scratch inside the checkout."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit(f"perfbench: no source tree at {ROOT}/src/repro; run from a checkout")
    os.chdir(ROOT)
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.common import RUN_DIR

    tmp = os.path.join(ROOT, RUN_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    if len(tmp) <= _MAX_TMPDIR:
        import tempfile

        os.environ["TMPDIR"] = tmp
        tempfile.tempdir = None


def _run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench import common

    segments_before = set(common.live_segments())
    if name == "kadd_fresh":
        from perfbench.kadd import run_fresh as run
    elif name == "kadd_repeat":
        from perfbench.kadd import run_repeat as run
    elif name == "summa_spgemm":
        from perfbench.spgemm import run
    else:
        from functools import partial

        from perfbench.gateway import run as run_gateway

        run = partial(run_gateway, root=ROOT)
    out = run(seed, seconds, trace)
    tracer = out.pop("trace", None)
    if tracer is not None:
        tracer.dump(os.path.join(ROOT, common.RUN_DIR, f"trace-{name}-{seed}.json"))
    leaked = sorted(set(common.live_segments()) - segments_before)
    common.stop_helpers()
    leftover = common.descendants()
    if leaked:
        print(f"leaked shared-memory segments: {leaked}")
    if leftover:
        print(f"processes left running: {leftover}")
    valid = out.pop("valid", True)
    if not valid:
        print("run invalid: the load generator fell behind its schedule")
    if "layers" in out:
        out["layers"]["parallel.leaked_segments"] = len(leaked)
    out["correct"] = out["failed"] == 0 and valid and not leaked and not leftover
    return out


def _single(args) -> int:
    from perfbench import common

    spec = _spec()
    out = _run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = out["layers"] if args.trace else out["e2e"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing and not args.trace:
        raise RuntimeError(f"workload did not report {missing}")
    metrics = {
        # A per-layer metric of a layer this workload never reaches
        # measures zero.
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    print("machine:", json.dumps(common.machine_record(args.seed)))
    print(f"workload={args.workload} attempted={out['attempted']} "
          f"failed={out['failed']} "
          f"fail_frac={out['failed'] / max(out['attempted'], 1):.4g}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0 if out["correct"] else 1


def _child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        print(proc.stdout)
        raise RuntimeError(f"{workload} seed {seed} exited with {proc.returncode}")
    return json.loads(lines[-1])


def _all(args) -> int:
    """Every workload, each in its own process."""
    ok = True
    for workload in WORKLOADS:
        res = _child(workload, args.seed, args.seconds, args.trace)
        ok = ok and res["correct"]
        print(f"== {workload}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for name, m in res["metrics"].items():
            print(f"   {name} {m['value']:.6g} {m['unit']}")
    return 0 if ok else 1


def _repeat(args) -> int:
    """``--repeat N`` runs of one workload with seeds seed..seed+N-1;
    prints each metric's median and IQR/median."""
    runs = [
        _child(args.workload, args.seed + i, args.seconds, args.trace)
        for i in range(args.repeat)
    ]
    print(f"== {args.workload}: {len(runs)} runs, "
          f"correct={all(r['correct'] for r in runs)}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print(f"   {name:32s} median={med:.6g} iqr/median={spread:.4f} "
              f"values={[round(v, 4) for v in values]}")
    return 0 if all(r["correct"] for r in runs) else 1


def main(argv=None) -> int:
    _prepare()
    spec = _spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="run N seeds, each in its own process, and print "
                         "each metric's median and IQR/median")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return _all(args)
    if args.repeat:
        return _repeat(args)
    return _single(args)


if __name__ == "__main__":
    sys.exit(main())
