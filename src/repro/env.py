"""Central registry of every ``REPRO_*`` environment knob.

Eight PRs grew eleven-plus environment knobs, each parsed wherever it
happened to be read — which is exactly how ``REPRO_SCALE_M=fast`` got to
fail with a bare ``ValueError: invalid literal for int()`` naming
nothing.  This module is the single declaration table: one
:class:`Knob` per variable states its name, parser, default, and
documentation, and every error message names the variable it came from.
``validate_resilience_env``-style eager checks derive from the table
(:func:`validate`), and the L002 lint rule locks the refactor in — no
other module may read ``os.environ`` for a ``REPRO_*`` name.

Reading a knob::

    from repro import env
    timeout = env.get("REPRO_BOOT_TIMEOUT")   # parsed + range-checked

``get`` re-parses on every call (no caching): chaos runs rely on
``REPRO_FAULTS`` producing a *fresh* plan — fresh fault counters — per
parallel call, and tests monkeypatch knobs freely.  Parsing is cheap
(one dict lookup + one small parse) next to any call that consults it.

The module imports only the stdlib at module level; parsers that need
heavier machinery (numpy dtypes, the fault-plan grammar, the fallback
stage list) import it lazily inside the parser so ``repro.env`` stays a
leaf module every other layer can depend on without cycles.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

#: default bound on the forkserver boot: generous (a loaded CI box can
#: be slow) but finite — a wedged fork server must not hang ``get_pool``
#: forever.  Canonical here; ``parallel.resilience`` re-exports it.
DEFAULT_BOOT_TIMEOUT_S = 60.0

#: default chunk retry budget (``REPRO_MAX_RETRIES`` overrides).
DEFAULT_MAX_RETRIES = 2

#: default experiment reduction factors (``REPRO_SCALE_M``/``_N``).
DEFAULT_SCALE = 16


@dataclass(frozen=True)
class Knob:
    """One environment variable: its name, parser, and default.

    ``parse`` receives the raw (non-blank) string and returns the
    knob's value; it raises :class:`ValueError` with a message naming
    the variable on bad input.  An unset variable — or one that is
    blank/whitespace — yields ``default`` without calling ``parse``.
    """

    name: str
    parse: Callable[[str], Any]
    default: Any = None
    description: str = ""
    #: the type a reader gets back, for ``describe()``/docs.
    value_type: str = "str"


def _int_knob(name: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"{name} must be an integer, got {raw!r}"
        ) from None


def _float_knob(name: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(
            f"{name} must be a number of seconds, got {raw!r}"
        ) from None


def _parse_max_retries(raw: str) -> int:
    value = _int_knob("REPRO_MAX_RETRIES", raw)
    if value < 0:
        raise ValueError(
            f"max_retries must be >= 0, got {value} "
            "(from the REPRO_MAX_RETRIES environment variable)"
        )
    return value


def _parse_deadline(raw: str) -> float:
    value = _float_knob("REPRO_DEADLINE", raw)
    if value <= 0:
        raise ValueError(
            f"deadline_s must be positive, got {value} "
            "(from the REPRO_DEADLINE environment variable)"
        )
    return value


def _parse_boot_timeout(raw: str) -> float:
    value = _float_knob("REPRO_BOOT_TIMEOUT", raw)
    if value <= 0:
        raise ValueError(
            "REPRO_BOOT_TIMEOUT must be a positive number of seconds, "
            f"got {raw!r}"
        )
    return value


def _parse_fallback(raw: str) -> Optional[Tuple[str, ...]]:
    from repro.parallel.resilience import FALLBACK_STAGES

    mode = raw.strip().lower()
    if mode in ("auto", "on", "default", "1", "true"):
        return None
    if mode in ("off", "none", "0", "false", "disabled"):
        return ()
    stages = tuple(s.strip() for s in mode.split(",") if s.strip())
    bad = [s for s in stages if s not in FALLBACK_STAGES]
    if bad:
        raise ValueError(
            f"unknown fallback stage(s) {bad} in the REPRO_FALLBACK "
            f"environment variable; choose from {FALLBACK_STAGES}, "
            "or 'off' / 'auto'"
        )
    return stages


def _parse_faults(raw: str):
    from repro.parallel.faults import parse_plan

    return parse_plan(raw)


def _parse_index_dtype(raw: str) -> Optional[str]:
    import numpy as np

    mode = raw.strip()
    if not mode or mode == "auto":
        return None
    try:
        dt = np.dtype(mode)
    except TypeError:
        raise ValueError(
            f"unknown index dtype {raw!r} (from the REPRO_INDEX_DTYPE "
            "environment variable); choose 'auto', 'int32' or 'int64'"
        ) from None
    if dt.kind != "i":
        raise ValueError(
            f"index dtype must be a signed integer, got {dt} "
            "(from the REPRO_INDEX_DTYPE environment variable)"
        )
    return mode


def _parse_scale(name: str, raw: str) -> int:
    value = _int_knob(name, raw)
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


#: the declaration table: every ``REPRO_*`` knob the repo consults.
KNOBS: Dict[str, Knob] = {
    knob.name: knob
    for knob in (
        Knob(
            "REPRO_EXECUTOR",
            parse=lambda raw: raw,
            default=None,
            value_type="str | None",
            description=(
                "Default executor ('serial', 'thread', 'shm') "
                "when no executor= argument is given; validated by "
                "parallel.executor.resolve_executor, whose error names "
                "this variable as the source."
            ),
        ),
        Knob(
            "REPRO_MP_START",
            parse=lambda raw: raw,
            default=None,
            value_type="str | None",
            description=(
                "Start method of the shm engine's worker pools "
                "('forkserver' default; 'fork' / 'spawn' to override). "
                "Validated by multiprocessing.get_context."
            ),
        ),
        Knob(
            "REPRO_DEADLINE",
            parse=_parse_deadline,
            default=None,
            value_type="float | None",
            description=(
                "Default per-call deadline in seconds (positive); an "
                "explicit deadline= argument overrides it."
            ),
        ),
        Knob(
            "REPRO_MAX_RETRIES",
            parse=_parse_max_retries,
            default=DEFAULT_MAX_RETRIES,
            value_type="int",
            description=(
                "Chunk retry budget for transient failures (>= 0); "
                f"default {DEFAULT_MAX_RETRIES}."
            ),
        ),
        Knob(
            "REPRO_FALLBACK",
            parse=_parse_fallback,
            default=None,
            value_type="tuple[str, ...] | None",
            description=(
                "Degradation chain control: 'auto'/unset = full "
                "shm->thread->serial chain, 'off' disables "
                "fallback, a comma list restricts the allowed stages."
            ),
        ),
        Knob(
            "REPRO_BOOT_TIMEOUT",
            parse=_parse_boot_timeout,
            default=DEFAULT_BOOT_TIMEOUT_S,
            value_type="float",
            description=(
                "Bound on the forkserver boot wait in seconds "
                f"(positive); default {DEFAULT_BOOT_TIMEOUT_S:g}."
            ),
        ),
        Knob(
            "REPRO_FAULTS",
            parse=_parse_faults,
            default=None,
            value_type="FaultPlan | None",
            description=(
                "Fault-injection directives (e.g. 'kill_chunk=0', "
                "'delay_chunk=1:0.5'); parsed afresh per read so every "
                "call of a chaos run gets fresh fault counters."
            ),
        ),
        Knob(
            "REPRO_INDEX_DTYPE",
            parse=_parse_index_dtype,
            default=None,
            value_type="str | None",
            description=(
                "Pin the resolved index width ('int32'/'int64'; 'auto' "
                "= the int32-when-it-fits rule). The safe-widening "
                "guard in formats.compressed.resolve_index_dtype still "
                "applies."
            ),
        ),
        Knob(
            "REPRO_FAST",
            parse=lambda raw: True,
            default=False,
            value_type="bool",
            description=(
                "Any non-blank value selects the small CI-speed "
                "experiment preset (scale_m = scale_n = 64)."
            ),
        ),
        Knob(
            "REPRO_SCALE_M",
            parse=lambda raw: _parse_scale("REPRO_SCALE_M", raw),
            default=DEFAULT_SCALE,
            value_type="int",
            description=(
                "Row/degree reduction factor for experiments (>= 1); "
                f"default {DEFAULT_SCALE}."
            ),
        ),
        Knob(
            "REPRO_SCALE_N",
            parse=lambda raw: _parse_scale("REPRO_SCALE_N", raw),
            default=DEFAULT_SCALE,
            value_type="int",
            description=(
                "Column-count reduction factor for experiments (>= 1); "
                f"default {DEFAULT_SCALE}."
            ),
        ),
    )
}


def knob_names() -> Tuple[str, ...]:
    """Every registered knob name, sorted."""
    return tuple(sorted(KNOBS))


def raw(name: str) -> Optional[str]:
    """The raw environment string for ``name`` (``None`` when unset).

    ``name`` must be registered — reading an undeclared ``REPRO_*``
    variable is exactly the bug class this module removes.
    """
    _knob(name)
    return os.environ.get(name)


def get(name: str) -> Any:
    """Parse knob ``name`` from the environment.

    Unset — or blank/whitespace — yields the knob's default; anything
    else goes through the knob's parser, whose :class:`ValueError`
    names the variable.
    """
    knob = _knob(name)
    value = os.environ.get(name)
    if value is None or not value.strip():
        return knob.default
    return knob.parse(value)


def validate(*names: str) -> None:
    """Eagerly parse the named knobs (all knobs when none given).

    Raises the first parse error — e.g. ``REPRO_BOOT_TIMEOUT=abc``
    fails here, on a run that would never otherwise read it, instead of
    exploding mid-degradation when a process pool finally boots.
    """
    for name in names or knob_names():
        get(name)


def describe() -> Tuple[Dict[str, Any], ...]:
    """The declaration table as plain dicts (docs / future tooling)."""
    return tuple(
        {
            "name": knob.name,
            "type": knob.value_type,
            "default": knob.default,
            "description": knob.description,
        }
        for name, knob in sorted(KNOBS.items())
    )


def _knob(name: str) -> Knob:
    try:
        return KNOBS[name]
    except KeyError:
        raise KeyError(
            f"unknown environment knob {name!r}; registered knobs: "
            f"{', '.join(knob_names())}"
        ) from None


__all__ = [
    "DEFAULT_BOOT_TIMEOUT_S",
    "DEFAULT_MAX_RETRIES",
    "DEFAULT_SCALE",
    "KNOBS",
    "Knob",
    "describe",
    "get",
    "knob_names",
    "raw",
    "validate",
]
