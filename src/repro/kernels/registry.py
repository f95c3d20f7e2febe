"""Backend names (see :mod:`repro.kernels`) and their resolution rules,
which each hash-family entry point applies once.  Resolution order:

1. an explicit ``backend="..."`` argument;
2. the ``REPRO_BACKEND`` environment variable;
3. the caller's default — ``"instrumented"`` for direct kernel calls
   (``spkadd_hash`` et al., so existing instrumentation-consuming code
   keeps measuring), ``"fast"`` for the :func:`repro.spkadd` facade
   (production callers who never read slot-level stats get the fast
   engine automatically).

A request that requires trace capture always lands on
``"instrumented"``, the only engine with slots to trace; asking for
traces from an explicit ``"fast"`` is an error rather than a silent
downgrade.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro import env

#: environment variable overriding the default backend choice.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: every backend name, sorted.
BACKENDS: Tuple[str, ...] = ("fast", "instrumented")


def available_backends() -> Tuple[str, ...]:
    """Backend names, sorted."""
    return BACKENDS


def resolve_backend(
    name: Optional[str] = None,
    *,
    default: str = "instrumented",
    need_trace: bool = False,
) -> str:
    """Apply the resolution rules above and return a backend name.

    ``name=None`` or ``name="auto"`` consults ``REPRO_BACKEND`` then
    ``default``.  ``need_trace=True`` (a ``trace_sink`` was passed)
    forces ``"instrumented"`` when the choice was implicit, and raises
    when an explicit choice cannot trace.

    >>> resolve_backend("fast")
    'fast'
    """
    explicit = name not in (None, "auto")
    chosen = name if explicit else env.get(BACKEND_ENV_VAR) or default
    if chosen not in BACKENDS:
        raise ValueError(
            f"unknown backend {chosen!r}; choose from {BACKENDS}"
        )
    if need_trace and chosen != "instrumented":
        if explicit:
            raise ValueError(
                f"backend {chosen!r} cannot capture slot traces; "
                "use backend='instrumented'"
            )
        return "instrumented"
    return str(chosen)
