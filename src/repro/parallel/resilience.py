"""Resilience policy for the parallel executors: retries, deadlines,
fallback.

PR 5 made failures *fail fast* (the first poisoned chunk cancels its
siblings); this module supplies the complementary half — **recover,
degrade, and bound** — so a long-running pipeline built on the warm pool
substrate survives the failures that substrate will inevitably see:

* **chunk-level retry** — a chunk whose worker dies
  (``BrokenProcessPool``) or that fails with an injected transient
  (:class:`~repro.parallel.faults.InjectedFault`) is re-submitted to a
  rebuilt pool, bounded by :attr:`ResiliencePolicy.max_retries` with
  exponential backoff and jitter.  Deterministic chunk errors (a kernel
  bug, a bad kwarg) are *never* retried — they keep PR 5's fail-fast
  contract.
* **deadlines** — one :class:`Deadline` per call, enforced across pool
  boot, chunk execution, retry backoff, and result assembly; expiry
  raises :class:`DeadlineExceeded`, cancels sibling futures, and lets
  the engines' ``finally`` blocks release leases and segments.
* **graceful degradation** — when an executor is *unusable* (forkserver
  boot timeout, retry budget exhausted, ``/dev/shm`` full) the call
  falls down an explicit chain ``shm → thread → serial`` with a
  one-shot warning.  ``REPRO_FALLBACK`` selects the stages allowed (or
  ``off`` to disable); :class:`ExecutorUnusable` is the marker every
  stage raises to hand the call to the next one.

:func:`run_wave` is the one submit → collect → retry → backoff loop
every stage runs its tasks through: the shm engine's single compute
wave, the thread pool and the serial floor differ only in the
``lease`` that supplies something with a ``submit`` method.
"""

from __future__ import annotations

import dataclasses
import random
import time
from concurrent.futures import FIRST_EXCEPTION, wait
from concurrent.futures.process import BrokenProcessPool
from typing import (
    Any,
    Callable,
    ContextManager,
    Dict,
    List,
    Optional,
    Tuple,
    Union,
)

from repro import env
from repro.env import DEFAULT_BOOT_TIMEOUT_S
from repro.parallel.faults import InjectedFault

#: environment variable supplying a default per-call deadline (seconds).
DEADLINE_ENV_VAR = "REPRO_DEADLINE"

#: environment variable overriding the chunk retry budget.
MAX_RETRIES_ENV_VAR = "REPRO_MAX_RETRIES"

#: environment variable controlling the degradation chain: ``auto``/
#: unset = the full default chain, ``off`` disables fallback, a comma
#: list (e.g. ``"thread,serial"``) restricts the stages a call may
#: degrade to.
FALLBACK_ENV_VAR = "REPRO_FALLBACK"

#: environment variable bounding the forkserver boot wait (seconds).
#: (Its default, :data:`DEFAULT_BOOT_TIMEOUT_S`, is declared in the
#: :mod:`repro.env` knob table and re-exported here.)
BOOT_TIMEOUT_ENV_VAR = "REPRO_BOOT_TIMEOUT"

#: the degradation chain, most- to least-capable.  Fallback always
#: moves rightward: an executor only ever degrades toward ``serial``,
#: whose plain in-process loop has no pool to break.
FALLBACK_STAGES = ("shm", "thread", "serial")


# ---------------------------------------------------------------------------
# Typed failures.
# ---------------------------------------------------------------------------


class ResilienceError(RuntimeError):
    """Base class of the resilience layer's typed failures."""


class DeadlineExceeded(ResilienceError, TimeoutError):
    """The per-call deadline expired.

    Never swallowed by the fallback chain: a caller that bounded the
    call's time gets the bound honoured, not a slower executor.
    """


class ExecutorUnusable(ResilienceError):
    """An executor stage cannot serve this call; try the next stage.

    ``executor`` names the stage that gave up (diagnostics and the
    fallback warning use it).
    """

    def __init__(self, message: str, *, executor: str = "") -> None:
        super().__init__(message)
        self.executor = executor


class PoolBootTimeout(ExecutorUnusable, TimeoutError):
    """The forkserver did not boot within its bounded wait."""


class ChunkInvariantError(ResilienceError):
    """A worker chunk hit a sizing/dtype invariant violation.

    Deterministic by construction (the symbolic bound or resolved dtype
    was wrong, not the worker), so it keeps PR 5's fail-fast contract:
    never retried, never degraded around.  Module-level so it pickles
    cleanly back from the shm engine's worker processes.
    """


class PoolLifecycleError(ResilienceError):
    """A pool lease/reservation was used outside its lifecycle (e.g.
    released twice, or used after release)."""


class RetriesExhausted(ExecutorUnusable):
    """Transient chunk failures outlived the retry budget."""


class ShmAllocationError(ExecutorUnusable):
    """A shared-memory segment could not be allocated (``/dev/shm``
    full, or an injected ENOSPC)."""


# ---------------------------------------------------------------------------
# Deadline.
# ---------------------------------------------------------------------------


class Deadline:
    """A monotonic per-call time budget; ``seconds=None`` is unlimited.

    One instance travels down the whole call (executor → pools → shm
    waves), so every bounded wait shares the same clock and the call as
    a whole — boot + chunks + retries + assembly — honours one budget.
    """

    __slots__ = ("seconds", "_t_end")

    def __init__(self, seconds: Optional[float] = None) -> None:
        self.seconds = None if seconds is None else float(seconds)
        if self.seconds is not None and self.seconds <= 0:
            raise ValueError(f"deadline must be positive, got {seconds!r}")
        self._t_end = (
            None if self.seconds is None else time.monotonic() + self.seconds
        )

    @classmethod
    def resolve(cls, value: Union["Deadline", float, None]) -> "Deadline":
        """Coerce ``None`` (unlimited) / seconds / a ``Deadline``."""
        if isinstance(value, Deadline):
            return value
        return cls(value)

    def remaining(self) -> Optional[float]:
        """Seconds left (>= 0), or ``None`` when unlimited."""
        if self._t_end is None:
            return None
        return max(self._t_end - time.monotonic(), 0.0)

    @property
    def expired(self) -> bool:
        return self._t_end is not None and time.monotonic() >= self._t_end

    def check(self, what: str) -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent."""
        if self.expired:
            raise DeadlineExceeded(
                f"deadline of {self.seconds}s exceeded during {what}"
            )

    def sleep(self, seconds: float, what: str = "retry backoff") -> None:
        """Sleep, but never past the deadline (expiry raises)."""
        rem = self.remaining()
        if rem is not None and seconds >= rem:
            time.sleep(rem)
            raise DeadlineExceeded(
                f"deadline of {self.seconds}s exceeded during {what}"
            )
        if seconds > 0:
            time.sleep(seconds)


# ---------------------------------------------------------------------------
# Policy.
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ResiliencePolicy:
    """Knobs of the resilient execution layer (one instance per call).

    ``fallback=None`` means the full default chain; an explicit tuple
    restricts the stages a call may degrade to (order is always the
    canonical :data:`FALLBACK_STAGES` order); ``()`` disables fallback
    entirely — an unusable executor then raises instead of degrading.
    """

    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 1.0
    backoff_jitter: float = 0.25
    deadline_s: Optional[float] = None
    fallback: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(
                f"deadline_s must be positive, got {self.deadline_s}"
            )
        if self.fallback is not None:
            bad = [s for s in self.fallback if s not in FALLBACK_STAGES]
            if bad:
                raise ValueError(
                    f"unknown fallback stage(s) {bad}; "
                    f"choose from {FALLBACK_STAGES}"
                )

    @classmethod
    def disabled(cls) -> "ResiliencePolicy":
        """No retries, no deadline, no fallback — the minimal-overhead
        configuration the bench guard compares against."""
        return cls(max_retries=0, deadline_s=None, fallback=())

    def backoff_s(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based): exponential from
        ``backoff_base_s``, capped, with +/- ``backoff_jitter`` jitter
        so simultaneous retries don't stampede a rebuilt pool."""
        base = min(
            self.backoff_base_s * (2.0 ** (attempt - 1)), self.backoff_cap_s
        )
        if self.backoff_jitter:
            base *= 1.0 + random.uniform(
                -self.backoff_jitter, self.backoff_jitter
            )
        return max(base, 0.0)

    def chain_for(self, executor: str) -> Tuple[str, ...]:
        """The degradation chain starting at ``executor``.

        >>> ResiliencePolicy().chain_for("shm")
        ('shm', 'thread', 'serial')
        """
        if self.fallback is not None and not self.fallback:
            return (executor,)
        allowed = (
            set(self.fallback) if self.fallback is not None
            else set(FALLBACK_STAGES)
        )
        allowed.add(executor)
        order = [s for s in FALLBACK_STAGES if s in allowed]
        return tuple(order[order.index(executor):])


def resolve_policy(
    policy: Optional[ResiliencePolicy] = None,
    deadline: Union[Deadline, float, None] = None,
) -> ResiliencePolicy:
    """Resolve the call's policy: explicit argument > environment >
    defaults; an explicit ``deadline`` (seconds) overrides the policy's.

    Environment knobs: ``REPRO_MAX_RETRIES``, ``REPRO_DEADLINE``,
    ``REPRO_FALLBACK``, ``REPRO_BOOT_TIMEOUT`` — each error names its
    source so a misconfigured CI leg reads differently from a bad call
    site.  Every knob is validated **eagerly** here, even the ones only
    a later degradation would consume (a bad ``REPRO_BOOT_TIMEOUT``
    surfaces on the first call of a thread-only run, not mid-call when
    the shm pool finally boots) and even when an explicit
    ``policy`` shadows the environment values.
    """
    validate_resilience_env()
    if policy is None:
        policy = ResiliencePolicy(
            max_retries=env.get(MAX_RETRIES_ENV_VAR),
            deadline_s=env.get(DEADLINE_ENV_VAR),
            fallback=env.get(FALLBACK_ENV_VAR),
        )
    if deadline is not None:
        if isinstance(deadline, Deadline):
            deadline = deadline.seconds
        if deadline is not None and float(deadline) <= 0:
            raise ValueError(
                f"deadline_s must be positive, got {deadline} "
                "(from the deadline= argument)"
            )
        policy = dataclasses.replace(
            policy,
            deadline_s=None if deadline is None else float(deadline),
        )
    return policy


def validate_resilience_env() -> None:
    """Eagerly parse and range-check every resilience environment knob.

    Called on every :func:`resolve_policy` (i.e. at the first parallel
    call), so ``REPRO_BOOT_TIMEOUT=abc`` or ``REPRO_MAX_RETRIES=-3``
    fails the run immediately with an error naming the variable —
    instead of being carried silently until the one code path that
    happens to read it (the forkserver boot, a retry loop) explodes
    mid-degradation.  The parsers and range checks themselves live in
    the :mod:`repro.env` knob table; this is the resilience-scoped view
    of :func:`repro.env.validate`.
    """
    env.validate(
        MAX_RETRIES_ENV_VAR,
        DEADLINE_ENV_VAR,
        FALLBACK_ENV_VAR,
        BOOT_TIMEOUT_ENV_VAR,
    )


def resolve_boot_timeout() -> float:
    """The forkserver boot bound (``REPRO_BOOT_TIMEOUT`` or default)."""
    value: float = env.get(BOOT_TIMEOUT_ENV_VAR)
    return value


# ---------------------------------------------------------------------------
# Future collection with transient-failure classification.
# ---------------------------------------------------------------------------

#: exception types the retry layer treats as transient: the chunk did
#: not fail — its *execution environment* did.
TRANSIENT_ERRORS = (BrokenProcessPool, InjectedFault)


def collect_resilient(
    futures: Dict, *, deadline: Optional[Deadline] = None
) -> Tuple[Dict, List, Optional[BaseException]]:
    """Collect ``{key: Future}`` fail-fast, with deadline and
    transient-failure classification.

    Returns ``(results, pending, transient_error)``: ``results`` maps
    the keys that completed successfully, ``pending`` lists the keys
    that must be re-submitted (non-empty only after a transient
    failure — a dead worker or an injected fault), and
    ``transient_error`` is the failure that caused them (exception
    chaining for :class:`RetriesExhausted`).

    Deterministic chunk errors re-raise immediately after cancelling
    the futures still queued (PR 5's fail-fast contract, unchanged).
    Deadline expiry cancels everything still pending and raises
    :class:`DeadlineExceeded`; chunks already *running* cannot be
    interrupted, but the caller stops waiting on them — their writes
    land in segments whose names are already unlinked, which POSIX
    keeps valid until the worker drops its mapping.
    """
    deadline = Deadline.resolve(deadline)
    by_future = {f: key for key, f in futures.items()}
    results: Dict = {}
    pending: List = []
    transient: Optional[BaseException] = None
    not_done = set(futures.values())
    while not_done:
        done, not_done = wait(
            not_done, timeout=deadline.remaining(),
            return_when=FIRST_EXCEPTION,
        )
        hard: Optional[BaseException] = None
        for fut in done:
            key = by_future[fut]
            if fut.cancelled():
                pending.append(key)
                continue
            err = fut.exception()
            if err is None:
                results[key] = fut.result()
            elif isinstance(err, TRANSIENT_ERRORS):
                pending.append(key)
                transient = err
            else:
                hard = err
        if hard is not None:
            for fut in not_done:
                fut.cancel()
            raise hard
        if pending:
            # Transient failure: stop the wave, hand back what must be
            # re-run (cancelled-or-running siblings included — a future
            # still running on a broken pool resolves uselessly).
            for fut in not_done:
                fut.cancel()
                pending.append(by_future[fut])
            break
        if not_done:
            # No failures and futures left over: the wait timed out.
            for fut in not_done:
                fut.cancel()
            raise DeadlineExceeded(
                f"deadline of {deadline.seconds}s exceeded waiting on "
                f"{len(not_done)} of {len(futures)} chunk task(s)"
            )
    # Preserve submission order for deterministic retry batches.
    order = {key: i for i, key in enumerate(futures)}
    pending = sorted(set(pending), key=order.__getitem__)
    return results, pending, transient


def run_wave(
    lease: Callable[[], ContextManager[Any]],
    fn: Callable[[Any], Any],
    make_task: Callable[[int], Any],
    n_tasks: int,
    *,
    policy: ResiliencePolicy,
    deadline: Deadline,
    label: str,
) -> List[Any]:
    """Run ``fn(make_task(i))`` for ``i in range(n_tasks)``; results in
    task order.

    Each attempt enters ``lease()`` — a context manager yielding
    anything with an executor-style ``submit(fn, arg) -> Future`` —
    submits every unfinished task and collects with
    :func:`collect_resilient`.  A wave interrupted by a transient
    failure keeps its completed results and re-submits only the
    unfinished tasks on the next attempt's lease, after an orphan sweep
    and a deadline-bounded backoff.  ``make_task`` is called per
    *attempt*, so a consumed fault directive is not shipped again with
    the retried task.  Deterministic errors propagate at once.

    A submit that raises on a pool :func:`~repro.parallel.pools.pool_is_broken`
    reports as broken is transient too: besides ``BrokenProcessPool``,
    CPython 3.11 can surface the teardown of a dead worker's pool as an
    ``OSError`` from a half-closed pipe.  Discarding the broken pool is
    the lease's job, on exit.

    ``label`` reads ``"<stage> <wave>"`` (e.g. ``"shm compute"``); its
    first word is the executor named by :class:`RetriesExhausted` once
    the policy's retry budget is spent.
    """
    from repro.parallel import shm
    from repro.parallel.pools import pool_is_broken

    results: Dict[int, Any] = {}
    pending = list(range(n_tasks))
    attempt = 0
    while pending:
        deadline.check(f"{label} wave")
        transient: Optional[BaseException] = None
        with lease() as pool:
            try:
                futures = {i: pool.submit(fn, make_task(i)) for i in pending}
            except Exception as err:
                if not pool_is_broken(pool):
                    raise
                transient = err
            else:
                got, pending, transient = collect_resilient(
                    futures, deadline=deadline
                )
                results.update(got)
        if pending:
            attempt += 1
            if attempt > policy.max_retries:
                raise RetriesExhausted(
                    f"{label}: {len(pending)} task(s) still failing "
                    f"transiently after {policy.max_retries} retries",
                    executor=label.split()[0],
                ) from transient
            shm.sweep_orphans()
            deadline.sleep(policy.backoff_s(attempt))
    return [results[i] for i in range(n_tasks)]


__all__ = [
    "BOOT_TIMEOUT_ENV_VAR",
    "ChunkInvariantError",
    "DEADLINE_ENV_VAR",
    "DEFAULT_BOOT_TIMEOUT_S",
    "Deadline",
    "PoolLifecycleError",
    "DeadlineExceeded",
    "ExecutorUnusable",
    "FALLBACK_ENV_VAR",
    "FALLBACK_STAGES",
    "MAX_RETRIES_ENV_VAR",
    "PoolBootTimeout",
    "ResilienceError",
    "ResiliencePolicy",
    "RetriesExhausted",
    "ShmAllocationError",
    "TRANSIENT_ERRORS",
    "collect_resilient",
    "resolve_boot_timeout",
    "resolve_policy",
    "run_wave",
    "validate_resilience_env",
]
