"""Request-validation contracts (PR 7's satellite bugfixes).

Three silent-acceptance bugs, now loud:

* ``threads=0`` / negative thread counts used to fall through to a
  silent serial run — ``spkadd`` and ``parallel_spkadd`` now reject
  them with a clear ``ValueError``,
  and the CLI rejects them at the parser;
* policy errors sourced from the environment now *name their source*
  (``REPRO_MAX_RETRIES=-3`` says so), and the ``deadline=`` kwarg path
  names the argument;
* every resilience env knob is validated eagerly in
  ``resolve_policy`` — ``REPRO_BOOT_TIMEOUT=abc`` fails the thread run
  that would never have read it, instead of the first unlucky shm run.

A stored row outside ``[0, m)`` in an addend built with ``check=False``
is a ``ValueError`` naming the addend and the row on every method and
executor, and leaves no shared-memory segment behind.
"""

import re

import pytest

import repro
from repro.parallel.executor import parallel_spkadd
from repro.parallel.resilience import (
    BOOT_TIMEOUT_ENV_VAR,
    DEADLINE_ENV_VAR,
    FALLBACK_ENV_VAR,
    MAX_RETRIES_ENV_VAR,
    resolve_policy,
    validate_resilience_env,
)
from repro.serve import GatewayConfig
from tests.conftest import own_segments, random_collection


@pytest.fixture()
def mats():
    return random_collection(seed=7, m=128, n=16, k=4)


# ---------------------------------------------------------------------------
# threads validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad", [0, -1, -2])
def test_spkadd_rejects_nonpositive_threads(mats, bad):
    with pytest.raises(ValueError, match=f"threads must be >= 1, got {bad}"):
        repro.spkadd(mats, threads=bad)


@pytest.mark.parametrize("executor", ["thread", "serial"])
@pytest.mark.parametrize("bad", [0, -2])
def test_parallel_spkadd_rejects_nonpositive_threads(mats, executor, bad):
    with pytest.raises(ValueError, match="threads must be >= 1"):
        parallel_spkadd(mats, threads=bad, executor=executor)


def test_threads_one_still_runs(mats):
    res = repro.spkadd(mats, threads=1)
    assert res.matrix.nnz >= 0


# ---------------------------------------------------------------------------
# removed options: a caller still passing one is refused, not ignored
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("call, option", [
    (lambda m: repro.spkadd(m, materialize=True), "materialize"),
    (lambda m: repro.spkadd(m, threads=1, chunks_per_thread=1),
     "chunks_per_thread"),
    (lambda m: parallel_spkadd(m, threads=2, chunks_per_thread=2),
     "chunks_per_thread"),
    (lambda m: parallel_spkadd(m, threads=2, executor="shm",
                               materialize=True), "materialize"),
    (lambda m: repro.ExecutionPlan(materialize=True), "materialize"),
    (lambda m: repro.ExecutionPlan.production(materialize=True),
     "materialize"),
    (lambda m: GatewayConfig(executor="shm"), "executor"),
], ids=["spkadd-materialize", "spkadd-chunks", "parallel-chunks",
        "parallel-shm-materialize", "plan-materialize",
        "production-materialize", "gateway-executor"])
def test_removed_options_are_refused(mats, call, option):
    before = own_segments()
    with pytest.raises(TypeError, match=option):
        call(mats)
    assert own_segments() == before


@pytest.mark.parametrize("argv, flag", [
    (["demo", "--materialize"], "--materialize"),
    (["serve", "--executor", "shm"], "--executor"),
], ids=["demo-materialize", "serve-executor"])
def test_cli_refuses_removed_materialize_flag(capsys, argv, flag):
    from repro.__main__ import build_parser

    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_cli_fallback_help_names_the_chain(capsys):
    """``demo --help`` describes the 'auto' chain as exactly the stages
    the resilience layer degrades through, in order."""
    from repro.__main__ import build_parser
    from repro.parallel.resilience import FALLBACK_STAGES

    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["demo", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    chain = re.search(r"'auto' \(full (\S+) chain\)", text)
    assert chain is not None, text
    assert tuple(chain.group(1).split(">")) == FALLBACK_STAGES


def test_cli_rejects_nonpositive_threads(capsys):
    from repro.__main__ import build_parser

    parser = build_parser()
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["demo", "--threads", "0"])
    assert exc.value.code == 2
    assert "must be >= 1, got 0" in capsys.readouterr().err


def test_cli_rejects_non_integer_threads(capsys):
    from repro.__main__ import build_parser

    with pytest.raises(SystemExit):
        build_parser().parse_args(["demo", "--threads", "two"])
    assert "must be an integer >= 1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# env-sourced policy errors name their source
# ---------------------------------------------------------------------------


def test_env_max_retries_error_names_env_var(monkeypatch):
    monkeypatch.setenv(MAX_RETRIES_ENV_VAR, "-3")
    with pytest.raises(ValueError) as exc:
        resolve_policy()
    msg = str(exc.value)
    assert "max_retries must be >= 0, got -3" in msg
    assert MAX_RETRIES_ENV_VAR in msg


def test_env_deadline_error_names_env_var(monkeypatch):
    monkeypatch.setenv(DEADLINE_ENV_VAR, "-5")
    with pytest.raises(ValueError) as exc:
        resolve_policy()
    msg = str(exc.value)
    assert "deadline" in msg and "positive" in msg
    assert DEADLINE_ENV_VAR in msg


def test_deadline_kwarg_error_names_argument():
    with pytest.raises(ValueError) as exc:
        resolve_policy(deadline=-2.5)
    msg = str(exc.value)
    assert "deadline= argument" in msg
    assert DEADLINE_ENV_VAR not in msg


def test_spkadd_surfaces_env_source_in_message(mats, monkeypatch):
    monkeypatch.setenv(MAX_RETRIES_ENV_VAR, "-1")
    with pytest.raises(ValueError, match=MAX_RETRIES_ENV_VAR):
        repro.spkadd(mats, threads=2, executor="thread")


# ---------------------------------------------------------------------------
# eager validation of every resilience knob
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "var,value",
    [
        (MAX_RETRIES_ENV_VAR, "abc"),
        (MAX_RETRIES_ENV_VAR, "-2"),
        (DEADLINE_ENV_VAR, "soon"),
        (DEADLINE_ENV_VAR, "0"),
        (BOOT_TIMEOUT_ENV_VAR, "abc"),
        (BOOT_TIMEOUT_ENV_VAR, "-1"),
        (FALLBACK_ENV_VAR, "thread,warp9"),
    ],
)
def test_resolve_policy_validates_every_env_knob(monkeypatch, var, value):
    monkeypatch.setenv(var, value)
    with pytest.raises(ValueError, match=var):
        resolve_policy()


def test_boot_timeout_checked_even_on_thread_runs(mats, monkeypatch):
    """The regression: a thread/serial run never *reads* the boot
    timeout, but a garbage value must still fail it eagerly."""
    monkeypatch.setenv(BOOT_TIMEOUT_ENV_VAR, "abc")
    with pytest.raises(ValueError, match=BOOT_TIMEOUT_ENV_VAR):
        repro.spkadd(mats, threads=2, executor="thread")


def test_validate_resilience_env_passes_on_good_values(monkeypatch):
    monkeypatch.setenv(MAX_RETRIES_ENV_VAR, "3")
    monkeypatch.setenv(DEADLINE_ENV_VAR, "10.5")
    monkeypatch.setenv(BOOT_TIMEOUT_ENV_VAR, "30")
    monkeypatch.setenv(FALLBACK_ENV_VAR, "thread,serial")
    validate_resilience_env()
    policy = resolve_policy()
    assert policy.max_retries == 3
    assert policy.deadline_s == 10.5


def test_explicit_policy_skips_env_resolution_but_not_validation(
    monkeypatch, mats
):
    """An explicit policy wins over the env for its *values*, but a
    corrupt knob still fails fast: silent misconfiguration is the bug
    class this PR removes."""
    from repro.parallel.resilience import ResiliencePolicy

    monkeypatch.setenv(BOOT_TIMEOUT_ENV_VAR, "nope")
    with pytest.raises(ValueError, match=BOOT_TIMEOUT_ENV_VAR):
        repro.spkadd(
            mats, threads=2, executor="thread",
            resilience=ResiliencePolicy(max_retries=0, fallback=()),
        )


# ---------------------------------------------------------------------------
# Out-of-range rows in unchecked addends
# ---------------------------------------------------------------------------


def _addends_with_bad_row():
    """Three 4x6 addends built with ``check=False``; addend 1 stores
    row 7."""
    import numpy as np

    from repro.formats.csc import CSCMatrix

    return [
        CSCMatrix((4, 6), np.array([0, 2, 2, 2, 2, 2, 2]),
                  np.array([1, 7] if i == 1 else [0, 2]),
                  np.array([1.0, 2.0]), sorted=True, check=False)
        for i in range(3)
    ]


@pytest.mark.parametrize("executor", ["serial", "thread", "shm"])
@pytest.mark.parametrize("method", repro.available_methods())
def test_out_of_range_row_is_typed_on_every_method(method, executor):
    import gc

    kwargs = {} if executor == "serial" else {
        "threads": 2, "executor": executor}
    before = own_segments()
    with pytest.raises(
        ValueError, match=r"addend 1 has row index 7 outside \[0, 4\)"
    ):
        repro.spkadd(_addends_with_bad_row(), method=method, **kwargs)
    gc.collect()
    assert own_segments() == before
