"""AST rules encoding the repo's concurrency/dtype invariants.

Eight PRs of growth established invariants that, until now, lived only
in docstrings and after-the-fact tests: segments are PID-tagged and
sweepable, ``REPRO_*`` knobs are declared once and validated eagerly,
allocation sites honour the one-resolved-dtype-per-call rule, pools
never boot at import time or via bare ``fork``, blocking public
functions thread ``deadline=``, and failures in the concurrency core
are typed and name their source.  Each rule here is the machine-checked
definition of one of those invariants.

Pure stdlib (``ast`` + ``re``): the linter must run in any environment
that can import the repo, including the CI lint job and pre-commit
hooks, without dragging in third-party analyzers.

Suppression: append ``# repro-lint: disable=L00X`` (comma list for
several rules) to any line of the offending statement.  Suppressions
are deliberate, visible diffs — reviewers see the rule being waived and
the reason comment next to it.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

#: matches an inline suppression comment; group 1 is the rule list.
_DISABLE_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+)")


@dataclass(frozen=True)
class Violation:
    """One rule hit at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    fixit: str

    def format(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: {self.rule} "
            f"{self.message}\n    fix: {self.fixit}"
        )

    def format_github(self) -> str:
        """One GitHub Actions workflow-command annotation."""
        text = f"{self.message} Fix: {self.fixit}".replace("\n", " ")
        return (
            f"::error file={self.path},line={self.line},col={self.col},"
            f"title={self.rule}::{text}"
        )


class FileContext:
    """One parsed file plus the location helpers rules share."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.tree = tree
        self.lines = source.splitlines()
        self._disabled: Dict[int, Set[str]] = {}
        for lineno, line in enumerate(self.lines, start=1):
            match = _DISABLE_RE.search(line)
            if match:
                self._disabled[lineno] = {
                    token.strip().upper()
                    for token in match.group(1).split(",")
                    if token.strip()
                }

    def disabled(self, node: ast.AST, rule_id: str) -> bool:
        """True when any line the node spans carries a suppression."""
        start = getattr(node, "lineno", None)
        if start is None:
            return False
        end = getattr(node, "end_lineno", None) or start
        return any(
            rule_id in self._disabled.get(lineno, ())
            for lineno in range(start, end + 1)
        )

    def under(self, *prefixes: str) -> bool:
        return self.path.startswith(prefixes)


def dotted_name(node: ast.AST) -> str:
    """``a.b.c`` for Name/Attribute chains, ``""`` otherwise."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        return f"{base}.{node.attr}" if base else node.attr
    return ""


def last_segment(node: ast.AST) -> str:
    return dotted_name(node).rsplit(".", 1)[-1]


def _string_constants(node: ast.AST) -> Iterator[str]:
    """Every string literal anywhere inside ``node`` (f-strings too)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def _is_main_guard(stmt: ast.stmt) -> bool:
    """``if __name__ == "__main__":`` (either operand order)."""
    if not isinstance(stmt, ast.If) or not isinstance(stmt.test, ast.Compare):
        return False
    test = stmt.test
    operands = [test.left, *test.comparators]
    names = {o.id for o in operands if isinstance(o, ast.Name)}
    consts = {
        o.value
        for o in operands
        if isinstance(o, ast.Constant) and isinstance(o.value, str)
    }
    return "__name__" in names and "__main__" in consts


def _import_time_nodes(
    tree: ast.Module,
) -> Iterator[Tuple[ast.AST, bool]]:
    """Every node executed at import time, with a guarded flag.

    Descends module-level ``if``/``try``/``with``/loops and class
    bodies (all run on import) but not function bodies or lambdas
    (those run when called).  ``guarded`` is True under an
    ``if __name__ == "__main__"`` block — script entry points are not
    import-time work.
    """
    stack: List[Tuple[ast.AST, bool]] = [(s, False) for s in tree.body]
    while stack:
        node, guarded = stack.pop()
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        yield node, guarded
        if isinstance(node, ast.If) and _is_main_guard(node):
            guarded = True
        for child in ast.iter_child_nodes(node):
            stack.append((child, guarded))


def _calls_outside_nested_defs(
    func: ast.FunctionDef,
) -> Iterator[ast.Call]:
    """Calls in ``func``'s own body, skipping nested def/lambda bodies
    (those don't run when ``func`` is called)."""
    stack: List[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


class Rule:
    """Base class: subclasses define the class attributes and
    :meth:`check`, yielding ``(node, message)`` pairs."""

    id: str = ""
    title: str = ""
    rationale: str = ""
    fixit: str = ""
    scope: str = "src/, tests/, benchmarks/, examples/"

    def check(self, ctx: FileContext) -> Iterator[Tuple[ast.AST, str]]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# L001 — raw shared-memory allocation.
# ---------------------------------------------------------------------------


class RawShmAllocation(Rule):
    id = "L001"
    title = "raw shared-memory allocation outside SegmentRegistry"
    rationale = (
        "Every /dev/shm segment must be PID-tagged (repro_shm_<pid>_*) "
        "so the orphan sweeper can attribute and reclaim it after a "
        "crash; a raw SharedMemory(create=True) produces an anonymous, "
        "unsweepable segment."
    )
    fixit = (
        "allocate through parallel/shm.py's SegmentRegistry (or publish "
        "arrays via the SharedMemoryPool engine); attaching to an "
        "existing segment by name is fine"
    )
    scope = "everywhere except src/repro/parallel/shm.py"

    _ALLOWED = ("src/repro/parallel/shm.py",)

    def check(self, ctx: FileContext) -> Iterator[Tuple[ast.AST, str]]:
        if ctx.path in self._ALLOWED:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = last_segment(node.func)
            if name == "shm_open":
                yield node, (
                    "direct shm_open() call; segments must come from "
                    "SegmentRegistry so they are PID-tagged and sweepable"
                )
                continue
            if name != "SharedMemory":
                continue
            for kw in node.keywords:
                if kw.arg != "create":
                    continue
                value = kw.value
                if isinstance(value, ast.Constant) and not value.value:
                    continue  # create=False: an attach, always fine
                yield node, (
                    "SharedMemory(create=...) outside SegmentRegistry "
                    "allocates an anonymous segment the orphan sweeper "
                    "cannot attribute"
                )


# ---------------------------------------------------------------------------
# L002 — REPRO_* environment reads outside the knob registry.
# ---------------------------------------------------------------------------


class EnvKnobRead(Rule):
    id = "L002"
    title = "REPRO_* environment read outside repro.env"
    rationale = (
        "Knob parsing/validation is declared once in the repro.env "
        "table so every error names its variable and eager validation "
        "covers every knob; a stray os.environ read reintroduces "
        "silently-unvalidated configuration."
    )
    fixit = (
        "declare the knob in src/repro/env.py and read it with "
        "repro.env.get(NAME); writes (monkeypatch/setdefault) are exempt"
    )
    scope = "everywhere except src/repro/env.py"

    _ALLOWED = ("src/repro/env.py",)

    def check(self, ctx: FileContext) -> Iterator[Tuple[ast.AST, str]]:
        if ctx.path in self._ALLOWED:
            return
        for node in ast.walk(ctx.tree):
            key = self._env_read_key(node)
            if key is None:
                continue
            if self._is_repro_knob(key):
                yield node, (
                    "reads a REPRO_* knob directly from the process "
                    "environment, bypassing the repro.env declaration "
                    "table and its validation"
                )

    @staticmethod
    def _env_read_key(node: ast.AST) -> Optional[ast.AST]:
        """The key expression of an environment *read*, else None."""
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name.endswith("environ.get") or name in (
                "os.getenv",
                "getenv",
            ):
                return node.args[0] if node.args else None
            return None
        if isinstance(node, ast.Subscript):
            if last_segment(node.value) == "environ" and isinstance(
                node.ctx, ast.Load
            ):
                return node.slice
            return None
        return None

    @staticmethod
    def _is_repro_knob(key: ast.AST) -> bool:
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            return key.value.startswith("REPRO_")
        # Symbolic names follow the *_ENV_VAR convention repo-wide.
        return last_segment(key).endswith("_ENV_VAR")


# ---------------------------------------------------------------------------
# L003 — value-dtype literals at allocation sites.
# ---------------------------------------------------------------------------


class DtypeLiteralAllocation(Rule):
    id = "L003"
    title = "float dtype literal at an allocation site"
    rationale = (
        "Kernels, formats, and executors must allocate value buffers at "
        "the call's one resolved dtype (resolve_value_dtype) or the "
        "central DEFAULT_VALUE_DTYPE; a literal np.float64 silently "
        "upcasts float32 calls and breaks cross-executor bit-identity. "
        "Integer dtype literals are deliberately exempt: counters, "
        "bounds, and composite keys are internal quantities with fixed "
        "widths, not matrix values (index buffers go through "
        "resolve_index_dtype at their own sites)."
    )
    fixit = (
        "pass the dtype resolved by resolve_value_dtype(...) (or "
        "DEFAULT_VALUE_DTYPE for empty placeholders) instead of a "
        "float literal"
    )
    scope = "src/repro/{kernels,formats,parallel,core}/"

    _SCOPE = (
        "src/repro/kernels/",
        "src/repro/formats/",
        "src/repro/parallel/",
        "src/repro/core/",
    )
    _ALLOCATORS = {"empty", "zeros", "ones", "full"}
    _FLOAT_ATTRS = {"float64", "float32", "float16"}
    _FLOAT_STRINGS = {"float64", "float32", "float16", "f8", "f4", "f2"}

    def check(self, ctx: FileContext) -> Iterator[Tuple[ast.AST, str]]:
        if not ctx.under(*self._SCOPE):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = dotted_name(node.func)
            base, _, attr = func.rpartition(".")
            if attr not in self._ALLOCATORS or base not in ("np", "numpy"):
                continue
            for kw in node.keywords:
                if kw.arg == "dtype" and self._is_float_literal(kw.value):
                    yield node, (
                        f"np.{attr} called with a float dtype literal; "
                        "value buffers must use the call's resolved "
                        "dtype"
                    )

    def _is_float_literal(self, value: ast.AST) -> bool:
        if isinstance(value, ast.Attribute):
            return value.attr in self._FLOAT_ATTRS
        if isinstance(value, ast.Name):
            return value.id == "float"
        if isinstance(value, ast.Constant):
            return value.value in self._FLOAT_STRINGS
        return False


# ---------------------------------------------------------------------------
# L004 — fork safety.
# ---------------------------------------------------------------------------


class ForkSafety(Rule):
    id = "L004"
    title = "fork-unsafe pool construction or start method"
    rationale = (
        "A pool booted at import time runs before forkserver "
        "configuration and atexit ordering are in place, and a bare "
        "fork from a threaded parent can deadlock the child (the PR 3 "
        "CI hang); examples/benchmarks executing work at import break "
        "every tool that imports them (pytest collection, the fork "
        "server's preload)."
    )
    fixit = (
        "build pools lazily inside functions via parallel/pools.py, "
        "let mp_context() pick the start method, and wrap script "
        "entry points in `if __name__ == \"__main__\":`"
    )

    _POOL_CALLS = {
        "ProcessPoolExecutor",
        "ThreadPoolExecutor",
        "Pool",
        "get_pool",
        "lease_pool",
    }
    _START_METHOD_CALLS = {"get_context", "set_start_method"}
    _SCRIPT_DIRS = ("examples/", "benchmarks/")

    def check(self, ctx: FileContext) -> Iterator[Tuple[ast.AST, str]]:
        # (a) pools/executors constructed at import time.
        for node, guarded in _import_time_nodes(ctx.tree):
            if guarded or not isinstance(node, ast.Call):
                continue
            name = last_segment(node.func)
            if name in self._POOL_CALLS:
                yield node, (
                    f"{name}(...) at import time boots worker "
                    "infrastructure before fork-safety setup; construct "
                    "pools lazily inside a function"
                )
        # (b) a literal "fork" start method anywhere.
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if last_segment(node.func) not in self._START_METHOD_CALLS:
                continue
            values = list(node.args) + [kw.value for kw in node.keywords]
            if any(
                isinstance(v, ast.Constant) and v.value == "fork"
                for v in values
            ):
                yield node, (
                    'explicit "fork" start method: forking a threaded '
                    "parent can deadlock the child; use mp_context() "
                    "(forkserver) or REPRO_MP_START for experiments"
                )
        # (c) examples/benchmarks running locally-defined work on import.
        if not ctx.under(*self._SCRIPT_DIRS):
            return
        local_defs = {
            stmt.name
            for stmt in ctx.tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for node, guarded in _import_time_nodes(ctx.tree):
            if guarded or not isinstance(node, ast.Expr):
                continue
            call = node.value
            if not isinstance(call, ast.Call):
                continue
            name = dotted_name(call.func)
            if name in local_defs:
                yield node, (
                    f"top-level call to {name}() runs on import; move "
                    'it under an `if __name__ == "__main__":` guard'
                )


# ---------------------------------------------------------------------------
# L005 — deadline threading.
# ---------------------------------------------------------------------------


class DeadlineThreading(Rule):
    id = "L005"
    title = "blocking public function without deadline threading"
    rationale = (
        "The resilience layer's contract is one monotonic Deadline per "
        "call, threaded through every bounded wait (pool boot, chunk "
        "collection, backoff); a public entry point that blocks without "
        "accepting deadline= is a hole in that budget, and a function "
        "that takes deadline= but drops it on a blocking call silently "
        "unbounds its callers."
    )
    fixit = (
        "add a deadline=None keyword and pass it (or its .remaining()) "
        "into every blocking/deadline-aware call in the body"
    )
    scope = "module-level public functions in src/repro/{parallel,serve}/"

    _SCOPE = ("src/repro/parallel/", "src/repro/serve/")
    #: calls that can block on workers/pools; a public function whose
    #: body reaches one of these must accept ``deadline=``.
    _BLOCKING = {
        "get_pool",
        "lease_pool",
        "collect_resilient",
        "run_wave",
        "shm_parallel_run",
        "parallel_spkadd",
        "wait",
    }
    #: calls that accept a deadline; a deadline-taking function must
    #: hand its budget to them rather than dropping it.
    _DEADLINE_AWARE = {
        "get_pool",
        "lease_pool",
        "collect_resilient",
        "run_wave",
        "shm_parallel_run",
        "parallel_spkadd",
        "mp_context",
        "resolve_policy",
    }

    def check(self, ctx: FileContext) -> Iterator[Tuple[ast.AST, str]]:
        if not ctx.under(*self._SCOPE):
            return
        for stmt in ctx.tree.body:
            if not isinstance(stmt, ast.FunctionDef):
                continue
            has_deadline = self._has_deadline_param(stmt)
            public = not stmt.name.startswith("_")
            for call in _calls_outside_nested_defs(stmt):
                name = last_segment(call.func)
                if public and not has_deadline and name in self._BLOCKING:
                    yield stmt, (
                        f"public function {stmt.name}() blocks (calls "
                        f"{name}) but accepts no deadline= parameter"
                    )
                    break
            if not has_deadline:
                continue
            for call in _calls_outside_nested_defs(stmt):
                name = last_segment(call.func)
                if name in self._DEADLINE_AWARE and not self._passes_deadline(
                    call
                ):
                    yield call, (
                        f"{stmt.name}() takes deadline= but calls "
                        f"{name}() without threading it through"
                    )

    @staticmethod
    def _has_deadline_param(func: ast.FunctionDef) -> bool:
        args = func.args
        names = [
            a.arg
            for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        ]
        return "deadline" in names

    @staticmethod
    def _passes_deadline(call: ast.Call) -> bool:
        """True when some argument carries the caller's deadline (a
        ``deadline=`` keyword, or any expression mentioning a name
        containing "deadline" — covers ``timeout=deadline.remaining()``
        and policies that embed the budget)."""
        for kw in call.keywords:
            if kw.arg == "deadline":
                return True
        for value in (*call.args, *[kw.value for kw in call.keywords]):
            for sub in ast.walk(value):
                if isinstance(sub, ast.Name) and "deadline" in sub.id.lower():
                    return True
                if (
                    isinstance(sub, ast.Attribute)
                    and "deadline" in sub.attr.lower()
                ):
                    return True
        return False


# ---------------------------------------------------------------------------
# L006 — typed, source-naming raises in the concurrency core.
# ---------------------------------------------------------------------------


class TypedRaises(Rule):
    id = "L006"
    title = "untyped or source-less raise in parallel/serve"
    rationale = (
        "Callers of the concurrency core dispatch on the typed "
        "ResilienceError / gateway-error families (retry vs fail-fast "
        "vs degrade, wire error codes); a bare RuntimeError falls "
        "through every classifier.  Validation errors must name the "
        "offending argument or environment variable so a misconfigured "
        "CI leg reads differently from a bad call site."
    )
    fixit = (
        "raise a ResilienceError subclass (parallel/) or GatewayError "
        "subclass (serve/), and include the argument/env-var name and "
        "offending value in the message"
    )
    scope = "src/repro/{parallel,serve}/"

    _SCOPE = ("src/repro/parallel/", "src/repro/serve/")
    _BANNED = {"RuntimeError", "Exception", "BaseException"}
    _NEED_SOURCE = {"ValueError", "TypeError", "KeyError"}
    #: substrings any of which mark a message as naming its source:
    #: an argument/knob name with its value ("x must be ..., got v"),
    #: an enumerated choice, or the environment variable itself.
    _MARKERS = (
        "got",
        "unknown",
        "choose",
        "must",
        "expected",
        "environment variable",
        "argument",
        "REPRO_",
        "at least",
        "not supported",
    )

    def check(self, ctx: FileContext) -> Iterator[Tuple[ast.AST, str]]:
        if not ctx.under(*self._SCOPE):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            if not isinstance(exc, ast.Call):
                continue  # re-raising a bound exception object
            name = last_segment(exc.func)
            if name in self._BANNED:
                yield node, (
                    f"raises bare {name}; the concurrency core's "
                    "failures must use the typed ResilienceError / "
                    "gateway error families"
                )
            elif name in self._NEED_SOURCE:
                texts = list(_string_constants(exc))
                if not any(
                    marker in text
                    for text in texts
                    for marker in self._MARKERS
                ):
                    yield node, (
                        f"{name} message names neither the offending "
                        "argument nor its value; say what was wrong "
                        "and where it came from"
                    )


#: the rule set, in ID order.  Stable IDs: a rule is never renumbered;
#: retired rules leave a hole.
RULES: Tuple[Rule, ...] = (
    RawShmAllocation(),
    EnvKnobRead(),
    DtypeLiteralAllocation(),
    ForkSafety(),
    DeadlineThreading(),
    TypedRaises(),
)


def check_source(path: str, source: str) -> List[Violation]:
    """All violations in one file's source text (path is repo-relative,
    posix-style — rules scope on it)."""
    try:
        tree = ast.parse(source)
    except SyntaxError as err:
        return [
            Violation(
                rule="PARSE",
                path=path,
                line=err.lineno or 1,
                col=(err.offset or 1),
                message=f"syntax error: {err.msg}",
                fixit="fix the syntax error; the file was not analyzed",
            )
        ]
    ctx = FileContext(path, source, tree)
    out: List[Violation] = []
    for rule in RULES:
        for node, message in rule.check(ctx):
            if ctx.disabled(node, rule.id):
                continue
            out.append(
                Violation(
                    rule=rule.id,
                    path=path,
                    line=getattr(node, "lineno", 1),
                    col=getattr(node, "col_offset", 0) + 1,
                    message=message,
                    fixit=rule.fixit,
                )
            )
    out.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return out


def rule_listing() -> List[Dict[str, str]]:
    """The rule set as plain dicts (the ``--list-rules`` payload)."""
    return [
        {
            "id": rule.id,
            "title": rule.title,
            "rationale": rule.rationale,
            "fixit": rule.fixit,
            "scope": rule.scope,
        }
        for rule in RULES
    ]


__all__ = [
    "FileContext",
    "RULES",
    "Rule",
    "Violation",
    "check_source",
    "dotted_name",
    "rule_listing",
]
