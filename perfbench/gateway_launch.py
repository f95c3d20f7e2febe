"""Start ``python -m repro serve`` with the benchmark's tracing wrappers.

Usage (from the checkout root)::

    python perfbench/gateway_launch.py TRACE_OUT serve --socket PATH --threads 2

The server is the same code and process layout as ``python -m repro
serve``; only the wrappers differ.  Recording starts off.  SIGUSR1
turns it on, and the spans and counters are written to ``TRACE_OUT``
when the server exits.
"""

from __future__ import annotations

import os
import signal
import sys


def main(argv) -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [root, os.path.join(root, "src")]
    from perfbench.trace import Tracer, install_all, install_serve
    from repro.__main__ import main as repro_main

    trace_out, repro_argv = argv[0], argv[1:]
    tracer = Tracer()
    install_all(tracer)
    install_serve(tracer)
    tracer.enabled = False
    signal.signal(signal.SIGUSR1, lambda *_: setattr(tracer, "enabled", True))
    try:
        return repro_main(repro_argv)
    finally:
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
