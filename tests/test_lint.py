"""Tests for ``repro.lint`` — the AST invariant checker.

Three layers:

* per-rule fixtures: each rule fires on a minimal violating snippet,
  stays silent on the compliant spelling, and honors the
  ``# repro-lint: disable=RULE`` escape hatch;
* CLI/meta tests: the real tree is clean, ``--list-rules`` is stable
  JSON, and exit codes match;
* the mypy gate (skipped when mypy isn't installed, as in the
  default container — CI installs it).
"""

import json
import os
import subprocess
import sys

import pytest

from repro.lint import RULES, check_source, rule_listing
from repro.lint.cli import DEFAULT_ROOTS, find_repo_root, lint_paths

REPO_ROOT = find_repo_root(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def rules_hit(path, source):
    return sorted({v.rule for v in check_source(path, source)})


# ---------------------------------------------------------------------------
# rule-set stability
# ---------------------------------------------------------------------------


def test_rule_ids_are_stable():
    assert [r.id for r in RULES] == [
        "L001",
        "L002",
        "L003",
        "L004",
        "L005",
        "L006",
    ]


def test_rule_listing_is_json_serializable():
    listing = rule_listing()
    assert [entry["id"] for entry in listing] == [r.id for r in RULES]
    for entry in listing:
        assert entry["title"]
        assert entry["rationale"]
        assert entry["fixit"]
    json.dumps(listing)  # must round-trip


def test_syntax_error_reports_parse_violation():
    violations = check_source("src/repro/broken.py", "def oops(:\n")
    assert [v.rule for v in violations] == ["PARSE"]


# ---------------------------------------------------------------------------
# L001 — raw shared-memory allocation
# ---------------------------------------------------------------------------

L001_BAD = """\
from multiprocessing.shared_memory import SharedMemory

def grab(nbytes):
    return SharedMemory(create=True, size=nbytes)
"""

L001_ATTACH_OK = """\
from multiprocessing.shared_memory import SharedMemory

def attach(name):
    return SharedMemory(name=name, create=False)
"""


def test_l001_fires_on_create_true_outside_shm_module():
    assert rules_hit("src/repro/parallel/executor.py", L001_BAD) == ["L001"]


def test_l001_allows_the_shm_module_itself():
    assert rules_hit("src/repro/parallel/shm.py", L001_BAD) == []


def test_l001_ignores_attach_only_use():
    assert rules_hit("src/repro/parallel/executor.py", L001_ATTACH_OK) == []


def test_l001_disable_comment():
    src = L001_BAD.replace(
        "create=True, size=nbytes)",
        "create=True, size=nbytes)  # repro-lint: disable=L001",
    )
    assert rules_hit("src/repro/parallel/executor.py", src) == []


# ---------------------------------------------------------------------------
# L002 — decentralized REPRO_* env reads
# ---------------------------------------------------------------------------

L002_BAD_GET = """\
import os

def executor_name():
    return os.environ.get("REPRO_EXECUTOR")
"""

L002_BAD_SUBSCRIPT = """\
import os

def deadline_raw():
    return os.environ["REPRO_DEADLINE"]
"""

L002_GOOD = """\
from repro import env

def executor_name():
    return env.get("REPRO_EXECUTOR")
"""


def test_l002_fires_on_environ_get():
    assert rules_hit("src/repro/kernels/registry.py", L002_BAD_GET) == ["L002"]


def test_l002_fires_on_environ_subscript():
    assert rules_hit("src/repro/parallel/executor.py", L002_BAD_SUBSCRIPT) == [
        "L002"
    ]


def test_l002_allows_env_module_itself():
    assert rules_hit("src/repro/env.py", L002_BAD_GET) == []


def test_l002_silent_on_registry_reads():
    assert rules_hit("src/repro/kernels/registry.py", L002_GOOD) == []


def test_l002_ignores_non_repro_variables():
    src = 'import os\n\ndef path():\n    return os.environ.get("PATH")\n'
    assert rules_hit("src/repro/parallel/executor.py", src) == []


# ---------------------------------------------------------------------------
# L003 — float dtype literals at allocation sites
# ---------------------------------------------------------------------------

L003_BAD = """\
import numpy as np

def scratch(n):
    return np.zeros(n, dtype=np.float64)
"""

L003_GOOD = """\
import numpy as np

def scratch(n, value_dtype):
    return np.zeros(n, dtype=value_dtype)
"""


def test_l003_fires_on_float64_literal_in_kernels():
    assert rules_hit("src/repro/kernels/fast.py", L003_BAD) == ["L003"]


def test_l003_fires_on_string_dtype_literal():
    src = L003_BAD.replace("np.float64", '"float32"')
    assert rules_hit("src/repro/core/blocks.py", src) == ["L003"]


def test_l003_silent_on_resolved_dtype():
    assert rules_hit("src/repro/kernels/fast.py", L003_GOOD) == []


def test_l003_out_of_scope_paths_are_ignored():
    # experiments/ may allocate plotting buffers however it likes.
    assert rules_hit("src/repro/experiments/runner.py", L003_BAD) == []


def test_l003_integer_dtype_literals_are_allowed():
    src = L003_BAD.replace("np.float64", "np.int64")
    assert rules_hit("src/repro/kernels/fast.py", src) == []


def test_l003_disable_comment():
    src = L003_BAD.replace(
        "dtype=np.float64)", "dtype=np.float64)  # repro-lint: disable=L003"
    )
    assert rules_hit("src/repro/kernels/fast.py", src) == []


# ---------------------------------------------------------------------------
# L004 — fork safety
# ---------------------------------------------------------------------------

L004_BAD_IMPORT_TIME_POOL = """\
from concurrent.futures import ProcessPoolExecutor

POOL = ProcessPoolExecutor(max_workers=4)
"""

L004_BAD_FORK_CONTEXT = """\
import multiprocessing as mp

def ctx():
    return mp.get_context("fork")
"""

L004_GOOD_GUARDED = """\
from concurrent.futures import ProcessPoolExecutor

def main():
    with ProcessPoolExecutor(max_workers=4) as pool:
        pool.map(abs, range(4))

if __name__ == "__main__":
    main()
"""

L004_BAD_UNGUARDED_EXAMPLE = """\
def main():
    print("hi")

main()
"""


def test_l004_fires_on_import_time_pool():
    assert rules_hit(
        "src/repro/parallel/pools.py", L004_BAD_IMPORT_TIME_POOL
    ) == ["L004"]


def test_l004_fires_on_fork_start_method():
    assert rules_hit("src/repro/parallel/executor.py", L004_BAD_FORK_CONTEXT) == [
        "L004"
    ]


def test_l004_silent_on_guarded_example():
    assert rules_hit("examples/demo.py", L004_GOOD_GUARDED) == []


def test_l004_fires_on_unguarded_example_entry_point():
    assert rules_hit("examples/demo.py", L004_BAD_UNGUARDED_EXAMPLE) == ["L004"]


def test_l004_unguarded_call_fine_outside_examples():
    # registration-at-import is the norm inside src/.
    assert rules_hit("src/repro/kernels/registry.py", L004_BAD_UNGUARDED_EXAMPLE) == []


# ---------------------------------------------------------------------------
# L005 — deadline threading
# ---------------------------------------------------------------------------

L005_BAD_NO_PARAM = """\
from repro.parallel.resilience import collect_resilient

def drain(futures):
    return collect_resilient(futures)
"""

L005_BAD_NOT_THREADED = """\
from repro.parallel.pools import lease_pool

def run(work, deadline=None):
    with lease_pool(4) as pool:
        return list(pool.map(abs, work))
"""

L005_GOOD = """\
from repro.parallel.resilience import collect_resilient

def drain(futures, *, deadline=None):
    return collect_resilient(futures, deadline=deadline)
"""


def test_l005_fires_on_blocking_call_without_deadline_param():
    assert rules_hit("src/repro/parallel/runner.py", L005_BAD_NO_PARAM) == ["L005"]


def test_l005_fires_when_deadline_not_threaded_through():
    assert rules_hit("src/repro/parallel/runner.py", L005_BAD_NOT_THREADED) == [
        "L005"
    ]


def test_l005_silent_when_deadline_threaded():
    assert rules_hit("src/repro/parallel/runner.py", L005_GOOD) == []


def test_l005_private_helpers_exempt():
    src = L005_BAD_NO_PARAM.replace("def drain", "def _drain")
    assert rules_hit("src/repro/parallel/runner.py", src) == []


def test_l005_out_of_scope_paths_are_ignored():
    assert rules_hit("src/repro/experiments/runner.py", L005_BAD_NO_PARAM) == []


# ---------------------------------------------------------------------------
# L006 — typed, self-describing raises
# ---------------------------------------------------------------------------

L006_BAD_RUNTIME = """\
def release(token):
    raise RuntimeError("already released")
"""

L006_BAD_VAGUE_VALUE = """\
def check(threads):
    if threads < 1:
        raise ValueError("bad threads")
"""

L006_GOOD_NAMED = """\
def check(threads):
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
"""


def test_l006_fires_on_raw_runtimeerror():
    assert rules_hit("src/repro/serve/client.py", L006_BAD_RUNTIME) == ["L006"]


def test_l006_fires_on_vague_valueerror():
    assert rules_hit("src/repro/parallel/scheduler.py", L006_BAD_VAGUE_VALUE) == [
        "L006"
    ]


def test_l006_silent_when_message_names_the_offender():
    assert rules_hit("src/repro/parallel/scheduler.py", L006_GOOD_NAMED) == []


def test_l006_out_of_scope_paths_are_ignored():
    assert rules_hit("src/repro/core/hashtable.py", L006_BAD_RUNTIME) == []


def test_l006_reraise_is_fine():
    src = "def f():\n    try:\n        g()\n    except Exception:\n        raise\n"
    assert rules_hit("src/repro/parallel/executor.py", src) == []


# ---------------------------------------------------------------------------
# meta: the real tree is clean, and the CLI agrees
# ---------------------------------------------------------------------------


def test_real_tree_is_clean():
    roots = [
        p for p in DEFAULT_ROOTS if os.path.isdir(os.path.join(REPO_ROOT, p))
    ]
    violations, n_files = lint_paths(roots, REPO_ROOT)
    assert n_files > 50  # sanity: we actually walked the tree
    assert violations == [], "\n" + "\n".join(v.format() for v in violations)


def test_cli_exit_codes(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")

    clean = subprocess.run(
        [sys.executable, "-m", "repro.lint", "--quiet"],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    assert clean.returncode == 0, clean.stdout + clean.stderr

    bad = tmp_path / "bad.py"
    bad.write_text('import os\nVAL = os.environ.get("REPRO_EXECUTOR")\n')
    dirty = subprocess.run(
        [sys.executable, "-m", "repro.lint", str(bad)],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    assert dirty.returncode == 1
    assert "L002" in dirty.stdout


def test_cli_list_rules_json():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", "--list-rules"],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    listing = json.loads(proc.stdout)
    assert [entry["id"] for entry in listing] == [r.id for r in RULES]


def test_cli_github_annotations(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    bad = tmp_path / "bad.py"
    bad.write_text('import os\nVAL = os.environ.get("REPRO_EXECUTOR")\n')
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", "--github", str(bad)],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout.startswith("::error file=")
    assert "L002" in proc.stdout


# ---------------------------------------------------------------------------
# mypy gate (runs where mypy is installed; CI always installs it)
# ---------------------------------------------------------------------------


def test_mypy_gate_passes():
    pytest.importorskip("mypy")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file", "mypy.ini"],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
