"""Fault injection for the resilient execution layer.

The resilience machinery in :mod:`repro.parallel.resilience` promises
recovery from worker crashes, bounded waits, and graceful degradation —
promises that are worthless untested.  This module provides the
injection points the chaos suite (``tests/test_resilience.py``) drives:

``kill_chunk=N``
    SIGKILL the worker while it runs chunk ordinal ``N`` (the realistic
    mid-merge crash: the pool breaks, staged scratch may be half
    written).  On the thread/serial stages — where killing the "worker"
    would kill the caller — the same directive degrades to raising
    :class:`InjectedFault` in the chunk, which the retry layer treats
    as the same class of transient failure.
``delay_chunk=N:SECONDS``
    Sleep inside the worker before running chunk ``N`` (drives the
    deadline tests: a hung chunk must not hold the call past its
    deadline).
``scatter_raise``
    Raise :class:`InjectedFault` in the shm engine's first scatter
    batch (exercises idempotent re-scatter).
``enospc``
    The next shared-segment allocation fails as if ``/dev/shm`` were
    full (drives the shm → thread fallback).
``boot_hang=SECONDS``
    The forkserver boot sleeps this long before starting (drives
    :class:`~repro.parallel.resilience.PoolBootTimeout`).

Faults are **consumed**: each directive carries a count (default 1) and
stops firing once spent, so an injected crash is followed by a clean
retry — exactly the transient-failure shape the layer is built for.
Inject programmatically::

    from repro.parallel import faults
    with faults.inject(kill_chunk=1):
        repro.spkadd(mats, threads=4, executor="shm")

or per-process via ``REPRO_FAULTS`` (comma-separated directives, parsed
afresh — with fresh counters — for every parallel call)::

    REPRO_FAULTS="kill_chunk=0,delay_chunk=2:0.1" python -m repro demo ...

The plan travels *with the task*: the parent takes each fault at submit
time and ships a tiny picklable dict to the worker, so injection works
identically on persistent pools (whose workers never re-read the
environment) and across fork/forkserver/spawn start methods.
"""

from __future__ import annotations

import contextlib
import os
import signal
import threading
import time
from typing import Dict, Optional

#: environment variable carrying a fault plan (see the module docstring
#: for the directive grammar).  Parsed per parallel call, so every call
#: of a chaos run experiences the configured faults with fresh counters.
FAULTS_ENV_VAR = "REPRO_FAULTS"


class InjectedFault(RuntimeError):
    """An error raised by an injection point.

    The retry layer classifies this — like a dead worker — as a
    *transient* failure: the chunk is retried instead of failing the
    call, which is what lets one chaos harness exercise the recovery
    path on every executor, including the ones whose workers cannot be
    killed (thread, serial).
    """


class FaultPlan:
    """One call's worth of injectable faults, with consumption counters.

    Parent-side only: the executors ``take_*`` faults at submit time and
    ship the returned primitive dicts to the workers.  Counters are
    guarded by a lock (submission may happen from concurrent calls when
    a plan is installed process-wide).
    """

    def __init__(
        self,
        *,
        kill_chunk: Optional[int] = None,
        kill_count: int = 1,
        delay_chunk: Optional[int] = None,
        delay_s: float = 0.0,
        delay_count: int = 1,
        scatter_raise: int = 0,
        enospc: int = 0,
        boot_hang_s: float = 0.0,
    ) -> None:
        self.kill_chunk = kill_chunk
        self.delay_chunk = delay_chunk
        self.delay_s = float(delay_s)
        self.boot_hang_s = float(boot_hang_s)
        self._kill_left = int(kill_count) if kill_chunk is not None else 0
        self._delay_left = int(delay_count) if delay_chunk is not None else 0
        self._scatter_left = int(scatter_raise)
        self._enospc_left = int(enospc)
        self._boot_hang_taken = False
        self._lock = threading.Lock()

    # ------------------------------------------------------------- takes
    def take_chunk_fault(
        self, ordinal: int, *, can_kill: bool
    ) -> Optional[Dict]:
        """The fault dict to ship with chunk ``ordinal``, or ``None``.

        ``can_kill`` is False on stages running chunks in the caller's
        own process (thread, serial), where a kill directive degrades to
        an in-chunk :class:`InjectedFault` raise.
        """
        fault: Dict = {}
        with self._lock:
            if self._delay_left > 0 and ordinal == self.delay_chunk:
                self._delay_left -= 1
                fault["delay_s"] = self.delay_s
            if self._kill_left > 0 and ordinal == self.kill_chunk:
                self._kill_left -= 1
                if can_kill:
                    fault["kill"] = True
                else:
                    fault["raise"] = f"injected kill on chunk {ordinal}"
        return fault or None

    def take_scatter_fault(self) -> Optional[Dict]:
        with self._lock:
            if self._scatter_left <= 0:
                return None
            self._scatter_left -= 1
        return {"raise": "injected scatter failure"}

    def take_enospc(self) -> bool:
        with self._lock:
            if self._enospc_left <= 0:
                return False
            self._enospc_left -= 1
        return True

    def take_boot_hang(self) -> float:
        with self._lock:
            if self._boot_hang_taken or not self.boot_hang_s:
                return 0.0
            self._boot_hang_taken = True
        return self.boot_hang_s


# ---------------------------------------------------------------------------
# Plan installation / resolution (parent side).
# ---------------------------------------------------------------------------

_INSTALLED: Optional[FaultPlan] = None


@contextlib.contextmanager
def inject(**kwargs):
    """Install a :class:`FaultPlan` for the duration of the block.

    Counters persist across calls inside the block (a ``kill_chunk``
    with the default count of 1 fires in the first call only).
    """
    global _INSTALLED
    plan = FaultPlan(**kwargs)
    previous, _INSTALLED = _INSTALLED, plan
    try:
        yield plan
    finally:
        _INSTALLED = previous


def installed() -> Optional[FaultPlan]:
    """The programmatically installed plan, if any (no env parsing)."""
    return _INSTALLED


def plan_for_call() -> Optional[FaultPlan]:
    """The fault plan governing one parallel call.

    A programmatic :func:`inject` plan wins (shared counters across the
    block's calls); otherwise ``REPRO_FAULTS`` is parsed afresh — fresh
    counters — so every call of an env-driven chaos run is faulted.
    """
    if _INSTALLED is not None:
        return _INSTALLED
    from repro import env

    return env.get(FAULTS_ENV_VAR)


def parse_plan(raw: str) -> FaultPlan:
    """Parse a ``REPRO_FAULTS`` directive string into a plan.

    >>> parse_plan("kill_chunk=1,delay_chunk=0:0.5").kill_chunk
    1
    """
    kwargs: Dict = {}
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, value = item.partition("=")
        name = name.strip().lower()
        value = value.strip()
        try:
            if name == "kill_chunk":
                ordinal, _, count = value.partition(":")
                kwargs["kill_chunk"] = int(ordinal)
                if count:
                    kwargs["kill_count"] = int(count)
            elif name == "delay_chunk":
                ordinal, _, seconds = value.partition(":")
                kwargs["delay_chunk"] = int(ordinal)
                kwargs["delay_s"] = float(seconds) if seconds else 0.1
            elif name == "scatter_raise":
                kwargs["scatter_raise"] = int(value) if value else 1
            elif name == "enospc":
                kwargs["enospc"] = int(value) if value else 1
            elif name == "boot_hang":
                kwargs["boot_hang_s"] = float(value)
            else:
                raise ValueError(f"unknown fault directive {name!r}")
        except ValueError as err:
            raise ValueError(
                f"bad fault directive {item!r} in the {FAULTS_ENV_VAR} "
                f"environment variable: {err}"
            ) from None
    return FaultPlan(**kwargs)


# ---------------------------------------------------------------------------
# Worker side.
# ---------------------------------------------------------------------------


def apply_chunk_fault(fault: Optional[Dict]) -> None:
    """Apply a fault dict shipped with a chunk task (worker side).

    Order matters: a combined delay+kill fault sleeps first, modelling
    a worker that dies mid-computation rather than at task pickup.
    """
    if not fault:
        return
    delay = fault.get("delay_s")
    if delay:
        time.sleep(float(delay))
    if fault.get("kill"):
        # SIGKILL ourselves: no atexit, no finally blocks — the honest
        # crash the resilience layer must recover from.
        if hasattr(signal, "SIGKILL"):
            os.kill(os.getpid(), signal.SIGKILL)
        os._exit(1)  # non-POSIX fallback: still an abrupt death
    message = fault.get("raise")
    if message:
        raise InjectedFault(message)
