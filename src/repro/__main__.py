"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo``        run SpKAdd methods on a generated workload, print stats
``table3``      regenerate Table III (model vs paper)
``table4``      regenerate Table IV
``fig2``        winner maps (``--pattern er|rmat``)
``fig3``        scaling curves (``--workload a_er|b_rmat|c_eukarya``)
``fig4``        hash-table-size sweep (``--panel a..f``)
``table5``      cache-miss comparison
``fig6``        distributed SpGEMM breakdown (``--dataset``)
``platforms``   print the Table II machine specs
``serve``       run the SpKAdd gateway on a unix socket (see README
                "Serving"); ``--selftest`` runs a burst through an
                ephemeral server and exits nonzero on any mismatch

Scale is controlled by ``REPRO_SCALE_M`` / ``REPRO_SCALE_N`` (see
EXPERIMENTS.md).
"""

from __future__ import annotations

import argparse
import sys


def _positive_int(value: str) -> int:
    """argparse type for worker/chunk counts: reject 0 and negatives at
    the parser instead of letting them clamp to a silent serial run."""
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 1, got {value!r}"
        ) from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _cmd_demo(args) -> int:
    import repro
    from repro.generators import erdos_renyi_collection, rmat_collection

    gen = erdos_renyi_collection if args.pattern == "er" else rmat_collection
    mats = gen(args.m, args.n, d=args.d, k=args.k, seed=args.seed)
    from repro.parallel.executor import resolve_executor

    executor = resolve_executor(args.executor)
    value_dtype = None if args.value_dtype == "auto" else args.value_dtype
    index_dtype = None if args.index_dtype == "auto" else args.index_dtype
    print(f"{args.pattern.upper()} workload: k={args.k}, "
          f"{args.m}x{args.n}, d={args.d} "
          f"[backend={args.backend}, executor={executor}, "
          f"threads={args.threads}, value_dtype={args.value_dtype}, "
          f"index_dtype={args.index_dtype}]")
    from repro.core.api import BACKEND_AWARE_METHODS

    resilience = None
    if args.max_retries is not None or args.fallback != "auto":
        from repro.parallel.resilience import ResiliencePolicy

        fallback = None
        if args.fallback == "off":
            fallback = ()
        elif args.fallback != "auto":
            fallback = tuple(
                s.strip() for s in args.fallback.split(",") if s.strip()
            )
        resilience = ResiliencePolicy(
            max_retries=(
                args.max_retries if args.max_retries is not None else 2
            ),
            fallback=fallback,
        )
    for method in repro.available_methods():
        res = repro.spkadd(
            mats, method=method, threads=args.threads,
            executor=executor,
            value_dtype=value_dtype,
            index_dtype=index_dtype,
            deadline=args.deadline,
            resilience=resilience,
            backend=args.backend if method in BACKEND_AWARE_METHODS else None,
        )
        print(f"  {method:20s} nnz={res.matrix.nnz:<9d} "
              f"dtype={res.matrix.data.dtype} "
              f"idx={res.matrix.indices.dtype} {res.stats.summary()}")
    return 0


def _cmd_table(args, which: str) -> int:
    from repro.experiments.tables34 import run_table3, run_table4

    grid = run_table3() if which == "3" else run_table4()
    print(grid.to_text())
    return 0


def _cmd_fig2(args) -> int:
    from repro.experiments.fig2 import run_fig2

    print(run_fig2(args.pattern, n_cols=args.n_cols).to_text())
    return 0


def _cmd_fig3(args) -> int:
    from repro.experiments.fig3 import run_fig3

    res = run_fig3(args.workload)
    print(res.to_text())
    print("speedup at max threads:",
          {k: round(v, 1) for k, v in res.speedup_at_max.items()})
    return 0


def _cmd_fig4(args) -> int:
    from repro.experiments.config import ReproScale
    from repro.experiments.fig4 import run_fig4

    sweep = run_fig4(args.panel)
    print(sweep.to_text())
    sc = ReproScale.from_env()
    print(f"optimum: {sweep.optimum_entries} reduced-scale entries "
          f"({sweep.optimum_entries * sc.scale_m} at paper scale)")
    return 0


def _cmd_table5(args) -> int:
    from repro.experiments.table5 import run_table5, table5_text

    print(table5_text(run_table5(max_accesses=args.max_accesses)))
    return 0


def _cmd_fig6(args) -> int:
    from repro.experiments.fig6 import run_fig6

    res = run_fig6(args.dataset, m=args.m, grid_side=args.grid)
    print(res.to_text())
    print(f"spkadd speedup vs heap: {res.spkadd_speedup_vs_heap:.1f}x; "
          f"unsorted multiply saving: "
          f"{res.multiply_saving_unsorted * 100:.0f}%")
    return 0


def _cmd_platforms(_args) -> int:
    from repro.experiments.platforms import table2_text

    print(table2_text())
    return 0


def _cmd_serve(args) -> int:
    from repro.serve import GatewayConfig

    config = GatewayConfig(
        socket_path=args.socket,
        threads=args.threads,
        small_nnz=args.small_nnz,
        batch_window_s=args.batch_window_ms / 1000.0,
        batch_max=args.batch_max,
        max_queue=args.max_queue,
        deadline_s=args.deadline,
        parallel_calls=args.parallel_calls,
    )
    if args.selftest:
        return _serve_selftest(config, burst=args.burst)

    import asyncio
    import signal

    from repro.serve.server import GatewayServer

    async def _main() -> None:
        server = GatewayServer(config)
        await server.start()
        print(f"repro gateway listening on {config.socket_path} "
              f"[executor={server.executor}, threads={config.threads}, "
              f"batch_window={config.batch_window_s * 1000:.0f}ms, "
              f"batch_max={config.batch_max}, "
              f"max_queue={config.max_queue}]", flush=True)
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, server.request_stop)
        await server.serve_until_stopped()

    asyncio.run(_main())
    return 0


def _serve_selftest(config, burst: int) -> int:
    """Boot an ephemeral gateway, storm it with ``burst`` concurrent
    small requests plus one large one, and verify every response is
    bit-identical to a serial ``spkadd`` — the CI smoke for the
    service path.  Returns a process exit code."""
    import threading

    import numpy as np

    import repro
    from repro.generators import erdos_renyi_collection
    from repro.serve import GatewayClient, start_in_thread

    k_each = 4
    failures: list = []
    barrier = threading.Barrier(burst)

    def worker(seed: int) -> None:
        try:
            mats = erdos_renyi_collection(512, 24, d=4.0, k=k_each,
                                          seed=seed)
            expect = repro.spkadd(mats).matrix
            barrier.wait(timeout=60)
            with GatewayClient(config.socket_path) as gw:
                got = gw.submit(mats)
            if not (np.array_equal(got.indptr, expect.indptr)
                    and np.array_equal(got.indices, expect.indices)
                    and np.array_equal(got.data, expect.data)
                    and got.indices.dtype == expect.indices.dtype
                    and got.data.dtype == expect.data.dtype):
                failures.append(f"seed {seed}: response != serial spkadd")
        except Exception as err:  # noqa: BLE001 - selftest reports all
            failures.append(f"seed {seed}: {type(err).__name__}: {err}")

    with start_in_thread(config):
        threads = [
            threading.Thread(target=worker, args=(seed,))
            for seed in range(burst)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Exercise the large lane too: well past small_nnz -> solo call.
        big = erdos_renyi_collection(1 << 14, 64, d=16.0, k=8, seed=991)
        expect = repro.spkadd(big).matrix
        with GatewayClient(config.socket_path) as gw:
            got = gw.submit(big)
            stats = gw.stats()
        if not (np.array_equal(got.indices, expect.indices)
                and np.array_equal(got.data, expect.data)):
            failures.append("large request: response != serial spkadd")

    print(f"selftest [executor={stats['executor']}, "
          f"threads={stats['threads']}]: "
          f"{stats['completed']} completed, "
          f"{stats['batches']} fused calls "
          f"(fused_k_max={stats['fused_k_max']}), "
          f"{stats['solo_calls']} solo calls, shed={stats['shed']}, "
          f"errors={stats['errored']}")
    if stats["completed"] != burst + 1:
        failures.append(
            f"expected {burst + 1} completions, saw {stats['completed']}"
        )
    if burst >= 8 and stats["fused_k_max"] <= k_each:
        failures.append(
            f"no fusion observed: fused_k_max={stats['fused_k_max']} "
            f"<= per-request k={k_each}"
        )
    if stats["solo_calls"] < 1:
        failures.append("large request did not take the solo lane")
    for line in failures:
        print(f"selftest FAIL: {line}")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    from repro.parallel.resilience import FALLBACK_STAGES

    p = argparse.ArgumentParser(
        prog="python -m repro",
        description="SpKAdd reproduction command line",
    )
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("demo", help="run all SpKAdd methods on a workload")
    d.add_argument("--pattern", choices=["er", "rmat"], default="er")
    d.add_argument("--m", type=int, default=1 << 14)
    d.add_argument("--n", type=int, default=64)
    d.add_argument("--d", type=float, default=16.0)
    d.add_argument("--k", type=int, default=16)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--backend", choices=["auto", "fast", "instrumented"],
                   default="auto",
                   help="accumulation engine for hash-family methods "
                        "(auto = 'fast')")
    d.add_argument("--executor",
                   choices=["auto", "thread", "shm", "serial"],
                   default="auto",
                   help="worker pool flavour when --threads > 1: thread, "
                        "shm (zero-copy shared memory), or serial "
                        "(in-process loop, the fallback floor); auto = "
                        "REPRO_EXECUTOR env var, then 'thread'")
    d.add_argument("--threads", type=_positive_int, default=1)
    d.add_argument("--deadline", type=float, default=None,
                   help="per-call time budget in seconds for parallel "
                        "calls; expiry raises DeadlineExceeded "
                        "(REPRO_DEADLINE sets the session default)")
    d.add_argument("--max-retries", type=int, default=None,
                   help="chunk retry budget for transient failures (dead "
                        "workers, injected faults); default 2, "
                        "REPRO_MAX_RETRIES sets the session default")
    d.add_argument("--fallback", default="auto",
                   help="executor degradation chain: 'auto' (full "
                        f"{'>'.join(FALLBACK_STAGES)} chain), 'off' (fail "
                        "instead of degrading), or a comma list of "
                        "allowed stages (REPRO_FALLBACK sets the "
                        "session default)")
    d.add_argument("--value-dtype",
                   choices=["auto", "float32", "float64", "int32", "int64"],
                   default="auto",
                   help="value dtype override for the sum (auto = preserve "
                        "the inputs' dtype; integer requests accumulate in "
                        "exact 64-bit integers)")
    d.add_argument("--index-dtype", choices=["auto", "int32", "int64"],
                   default="auto",
                   help="index width override for the output (auto = the "
                        "paper's rule: int32 whenever dimensions and nnz "
                        "fit, int64 otherwise; REPRO_INDEX_DTYPE sets the "
                        "session default; an int32 request that cannot "
                        "hold the call promotes instead of wrapping)")
    d.set_defaults(func=_cmd_demo)

    sub.add_parser("table3", help="Table III").set_defaults(
        func=lambda a: _cmd_table(a, "3"))
    sub.add_parser("table4", help="Table IV").set_defaults(
        func=lambda a: _cmd_table(a, "4"))

    f2 = sub.add_parser("fig2", help="winner maps")
    f2.add_argument("--pattern", choices=["er", "rmat"], default="er")
    f2.add_argument("--n-cols", type=int, default=8)
    f2.set_defaults(func=_cmd_fig2)

    f3 = sub.add_parser("fig3", help="scaling curves")
    f3.add_argument("--workload",
                    choices=["a_er", "b_rmat", "c_eukarya"], default="a_er")
    f3.set_defaults(func=_cmd_fig3)

    f4 = sub.add_parser("fig4", help="hash-table-size sweep")
    f4.add_argument("--panel", choices=list("abcdef"), default="b")
    f4.set_defaults(func=_cmd_fig4)

    t5 = sub.add_parser("table5", help="cache-miss comparison")
    t5.add_argument("--max-accesses", type=int, default=400_000)
    t5.set_defaults(func=_cmd_table5)

    f6 = sub.add_parser("fig6", help="distributed SpGEMM breakdown")
    f6.add_argument("--dataset",
                    choices=["isolates", "metaclust50"], default="isolates")
    f6.add_argument("--m", type=int, default=8192)
    f6.add_argument("--grid", type=int, default=2)
    f6.set_defaults(func=_cmd_fig6)

    sub.add_parser("platforms", help="Table II specs").set_defaults(
        func=_cmd_platforms)

    s = sub.add_parser("serve", help="run the SpKAdd gateway")
    s.add_argument("--socket", default="/tmp/repro-gateway.sock",
                   help="unix socket path to listen on")
    s.add_argument("--threads", type=_positive_int, default=None,
                   help="worker count of the gateway's kernel calls "
                        "(default: the CPU budget split across "
                        "--parallel-calls)")
    s.add_argument("--small-nnz", type=int, default=1 << 15,
                   help="requests at or under this summed input nnz are "
                        "micro-batched into one fused high-k call")
    s.add_argument("--batch-window-ms", type=float, default=2.0,
                   help="how long the first small request of a batch "
                        "waits for batch-mates")
    s.add_argument("--batch-max", type=_positive_int, default=16,
                   help="max requests fused into one kernel call")
    s.add_argument("--max-queue", type=_positive_int, default=64,
                   help="admission limit on requests in flight; beyond "
                        "it the gateway sheds with a typed error")
    s.add_argument("--deadline", type=float, default=None,
                   help="default per-request budget in seconds "
                        "(requests may carry their own)")
    s.add_argument("--parallel-calls", type=_positive_int, default=2,
                   help="kernel calls allowed to run concurrently")
    s.add_argument("--selftest", action="store_true",
                   help="start an ephemeral server, run a concurrent "
                        "burst against it, verify bit-identity and "
                        "fusion, exit nonzero on failure")
    s.add_argument("--burst", type=_positive_int, default=16,
                   help="concurrent clients in --selftest mode")
    s.set_defaults(func=_cmd_serve)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
