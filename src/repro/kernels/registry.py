"""Backend names (see :mod:`repro.kernels`) and their resolution rule,
which each hash-family entry point applies once: an explicit
``backend="..."`` argument wins, and ``None``/``"auto"`` is ``"fast"``
— for the :func:`repro.spkadd` facade and direct kernel calls alike.
Paper code that reads slot-level stats names ``"instrumented"``.

A request that requires trace capture always lands on
``"instrumented"``, the only engine with slots to trace; asking for
traces from an explicit ``"fast"`` is an error rather than a silent
downgrade.
"""

from __future__ import annotations

from typing import Optional, Tuple

#: every backend name, sorted.
BACKENDS: Tuple[str, ...] = ("fast", "instrumented")


def available_backends() -> Tuple[str, ...]:
    """Backend names, sorted."""
    return BACKENDS


def resolve_backend(
    name: Optional[str] = None,
    *,
    need_trace: bool = False,
) -> str:
    """Apply the resolution rule above and return a backend name.

    ``name=None`` or ``name="auto"`` is ``"fast"``.  ``need_trace=True``
    (a ``trace_sink`` was passed) forces ``"instrumented"`` when the
    choice was implicit, and raises when an explicit choice cannot
    trace.

    >>> resolve_backend()
    'fast'
    """
    explicit = name not in (None, "auto")
    chosen = name if explicit else "fast"
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
