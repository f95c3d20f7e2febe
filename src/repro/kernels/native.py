"""Loader for the compiled per-column hash kernels (``native.c``).

The ``fast`` backend's fused SpKAdd (:func:`spkadd_columns`) and its
local SpGEMM (:func:`spgemm_columns`, a column-wise Gustavson multiply
on the same hash table) run through the C library shipped next to this
module whenever the system C compiler can build it, and through their
NumPy loops otherwise.  Nothing selects the path but that platform
property: there is no option and no environment knob.

* **Build.**  On first use the source is compiled with ``cc -O2 -fPIC
  -shared`` (no ``-ffast-math``/``-march=native``: float sums stay IEEE
  and the library is portable across the machines sharing a cache) into
  a per-user cache — ``$XDG_CACHE_HOME/repro`` or ``~/.cache/repro``,
  then ``<tempdir>/repro-<uid>``.  The file name carries a hash of the
  source, the compiler's version banner and the flags, so an edit or a
  compiler upgrade builds a new file.  The compiler writes a unique
  temporary name that is then ``os.replace``-d into place, so processes
  building at once each publish a complete file and no partial file is
  ever visible under the final name.  A cached file that fails to load
  is rebuilt once.
* **Load.**  ``ctypes.CDLL`` once per process (:func:`library`).  The
  shared-memory engine resolves the library in the parent and ships its
  path with the call; workers only ``dlopen`` it (:func:`adopt`).
* **Fallback.**  No compiler, a failed build, an unusable cache, a
  library that will not load, or a dtype the kernel lacks (complex,
  unsigned, half or non-native-endian values; for SpGEMM, also
  products whose dtype is not the one the call sums in, such as int32
  products summed in int64) leaves the caller on the NumPy loop.  The
  first fallback of a process warns once; :func:`fallback_reason`
  keeps the latest reason inspectable.
* **Repeated patterns.**  :func:`spkadd_columns` keeps a small
  per-process LRU of index patterns, keyed on shape, k and the three
  dtypes and confirmed by comparing the addends' ``indptr`` with a
  snapshot.  The first sighting of a pattern stores only that snapshot.
  The second runs the kernel with its slot record on and keeps a plan:
  copies of the output ``indptr`` and rows, and each input entry's
  output position.  Later calls run the C replay, which only adds the
  new values, and checks every entry's row against the plan; a mismatch
  drops the plan and the call runs the kernel.  The cache holds at most
  :data:`PLAN_CACHE_ENTRIES` patterns and :data:`PLAN_CACHE_BYTES`
  bytes, builds no plan that would evict one found in the last
  ``2 * PLAN_CACHE_ENTRIES`` lookups, and skips patterns with more
  ``indptr`` entries than stored entries; the NumPy loop has none.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
import warnings
from typing import (
    TYPE_CHECKING, List, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from repro.util.checks import check_product_rows, check_row_bounds

if TYPE_CHECKING:
    from repro.formats.csc import CSCMatrix

#: the kernel source shipped inside the package (see setup.py
#: package_data).
SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "native.c")

#: compiler flags; part of the cache key.
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: bound on one compiler invocation (seconds).
COMPILE_TIMEOUT_S = 120.0

#: most bytes the pattern cache of one process holds (plans and the
#: ``indptr`` snapshots of patterns seen once).
PLAN_CACHE_BYTES = 32 << 20

#: most patterns the cache holds; bounds the snapshot comparisons a
#: call with an unseen pattern pays.
PLAN_CACHE_ENTRIES = 8

#: the kernels' return codes for a failed allocation, a row outside
#: ``[0, m)`` and a SpGEMM B row outside ``[0, ka)`` (see native.c).
_ERR_NO_MEMORY = -1
_ERR_ROW_RANGE = -2
_ERR_INNER_RANGE = -4

_INDEX_CODES = {np.dtype(np.int32): "i32", np.dtype(np.int64): "i64"}
_VALUE_CODES = {
    np.dtype(np.float32): "f32",
    np.dtype(np.float64): "f64",
    np.dtype(np.int64): "i64",
}


class _State:
    """Per-process loader state (a fresh process starts unresolved)."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.resolved = False
        self.lib: Optional[ctypes.CDLL] = None
        self.path: Optional[str] = None
        self.reason: Optional[str] = None
        self.warned = False
        #: cached patterns, least recently used first.
        self.patterns: List[_Pattern] = []
        self.lookups = 0
        self.plan_hits = 0
        self.plan_builds = 0
        self.plan_rejects = 0


class _Plan(NamedTuple):
    """What a replay reads besides the new values."""

    indptr: np.ndarray  # the output indptr
    rows: np.ndarray  # the output rows
    slots: np.ndarray  # each input entry's output position, ~pos for a seed
    col_in: np.ndarray  # per-column input nnz


class _Pattern:
    """One cached index pattern: a snapshot of the addends' ``indptr``
    arrays, and its plan once one is built.  Every array is a private
    copy, and a published pattern's arrays are never mutated; ``used``
    is the cache's lookup count when it was last found or published."""

    __slots__ = ("key", "indptrs", "plan", "nbytes", "used")

    def __init__(
        self, key: tuple, indptrs: np.ndarray, plan: Optional[_Plan] = None
    ) -> None:
        self.key = key
        self.indptrs = indptrs
        self.plan = plan
        self.nbytes = indptrs.nbytes + sum(a.nbytes for a in plan or ())
        self.used = 0


_STATE = _State()


def _after_fork_in_child() -> None:
    # Every fast call takes the lock (the pattern cache), so a worker
    # forked while another parent thread held it would wait forever.
    _STATE.lock = threading.Lock()


os.register_at_fork(after_in_child=_after_fork_in_child)


def compiler() -> Optional[str]:
    """The system C compiler on ``PATH`` (``cc``, else ``gcc``)."""
    return shutil.which("cc") or shutil.which("gcc")


def cache_dirs() -> List[str]:
    """Candidate cache directories, most preferred first."""
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return [
        os.path.join(base, "repro"),
        os.path.join(tempfile.gettempdir(), f"repro-{uid}"),
    ]


def library() -> Optional[ctypes.CDLL]:
    """The loaded kernel library, building it on first use; ``None``
    when it cannot be had (see :func:`fallback_reason`)."""
    state = _STATE
    if not state.resolved:
        with state.lock:
            if not state.resolved:
                try:
                    state.lib, state.path = _build_and_load()
                except _Unavailable as exc:
                    _note_fallback(str(exc))
                state.resolved = True
    return state.lib


def library_path() -> Optional[str]:
    """Path of the loaded library (``None`` on the NumPy path): what
    the shared-memory engine ships to its workers."""
    return _STATE.path if library() is not None else None


def adopt(path: Optional[str]) -> None:
    """Use the library the parent resolved (worker side): ``dlopen``
    ``path`` without building, or stay on NumPy when it is ``None``.

    Takes no lock: a pool worker runs one task at a time, and a worker
    forked while the parent held the build lock must not wait on it."""
    state = _STATE
    state.resolved = True
    if path is None:
        state.lib, state.path = None, None
        state.reason = "the calling process runs without the native kernel"
        return
    if state.lib is not None and state.path == path:
        return
    try:
        state.lib, state.path = _load(path), path
    except (OSError, AttributeError) as exc:
        state.lib, state.path = None, None
        _note_fallback(f"cannot load {path}: {exc}")


def fallback_reason() -> Optional[str]:
    """Why the most recent fallback to the NumPy loop happened, or
    ``None`` if this process has not fallen back."""
    return _STATE.reason


def _note_fallback(reason: str) -> None:
    """Record ``reason``; the first fallback of the process warns."""
    state = _STATE
    state.reason = reason
    if not state.warned:
        state.warned = True
        warnings.warn(
            f"native SpKAdd kernel unavailable ({reason}); the fast "
            "backend uses its NumPy loop (shown once per process)",
            RuntimeWarning,
            stacklevel=3,
        )


class _Unavailable(Exception):
    """The library cannot be built or loaded; the message says why."""


def _load(path: str) -> ctypes.CDLL:
    lib = ctypes.CDLL(path)
    int64, ptr = ctypes.c_int64, ctypes.c_void_p
    for i in _INDEX_CODES.values():
        for o in _INDEX_CODES.values():
            for v in _VALUE_CODES.values():
                kernel = getattr(lib, f"repro_spkadd_{i}_{o}_{v}")
                kernel.restype = int64
                kernel.argtypes = [int64] * 4 + [ptr] * 8
                replay = getattr(lib, f"repro_replay_{i}_{o}_{v}")
                replay.restype = int64
                replay.argtypes = [int64] * 2 + [ptr] * 6 + [int64, ptr]
                spgemm = getattr(lib, f"repro_spgemm_{i}_{o}_{v}")
                spgemm.restype = int64
                spgemm.argtypes = [int64] * 5 + [ptr] * 6 + [int64] + [ptr] * 3
    return lib


def _cache_key(cc: str) -> str:
    try:
        banner = subprocess.run(
            [cc, "--version"], capture_output=True, timeout=COMPILE_TIMEOUT_S,
            check=True,
        ).stdout
        with open(SOURCE, "rb") as fh:
            source = fh.read()
    except (OSError, subprocess.SubprocessError) as exc:
        raise _Unavailable(f"cannot query compiler {cc}: {exc}") from exc
    digest = hashlib.sha256()
    for part in (source, banner, " ".join(CFLAGS).encode()):
        digest.update(part)
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def _private_dir(path: str) -> bool:
    """Create ``path`` (mode 0700) if needed; True when it is a
    directory owned by this user that nobody else can write to, so a
    library loaded from it cannot have been planted."""
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        st = os.stat(path)
    except OSError:
        return False
    if hasattr(os, "getuid") and st.st_uid != os.getuid():
        return False
    return not st.st_mode & 0o022


def _compile(cc: str, final: str) -> None:
    """Compile into a unique temporary name beside ``final`` and move
    it into place atomically; the temporary never outlives the call."""
    try:
        fd, tmp = tempfile.mkstemp(
            prefix=os.path.basename(final) + ".", suffix=".tmp",
            dir=os.path.dirname(final),
        )
        os.close(fd)
    except OSError as exc:
        raise _Unavailable(f"cannot write to {os.path.dirname(final)}: {exc}") from exc
    try:
        proc = subprocess.run(
            [cc, *CFLAGS, "-o", tmp, SOURCE],
            capture_output=True, timeout=COMPILE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            err = proc.stderr.decode(errors="replace").strip().splitlines()
            raise _Unavailable(
                f"{cc} failed with status {proc.returncode}: "
                f"{err[-1] if err else 'no diagnostics'}"
            )
        os.chmod(tmp, 0o755)
        os.replace(tmp, final)
    except (OSError, subprocess.SubprocessError) as exc:
        raise _Unavailable(f"cannot compile {SOURCE}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _build_and_load() -> Tuple[ctypes.CDLL, str]:
    """Load the cached library, building it if absent or unloadable;
    returns it and its path.  Raises :class:`_Unavailable`."""
    cc = compiler()
    if cc is None:
        raise _Unavailable("no C compiler (cc/gcc) on PATH")
    name = f"spkadd-{_cache_key(cc)}.so"
    problems = []
    for directory in cache_dirs():
        if not _private_dir(directory):
            problems.append(f"{directory} is not a private writable directory")
            continue
        final = os.path.join(directory, name)
        if os.path.exists(final):
            try:
                return _load(final), final
            except (OSError, AttributeError):
                pass  # corrupt or stale: rebuild over it
        try:
            _compile(cc, final)
        except _Unavailable as exc:
            problems.append(str(exc))
            continue
        try:
            return _load(final), final
        except (OSError, AttributeError) as exc:
            raise _Unavailable(f"cannot load {final}: {exc}") from exc
    raise _Unavailable("; ".join(problems))


def spkadd_columns(
    mats: Sequence, value_dtype: np.dtype, index_dtype: np.dtype,
    out: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """``sum(mats)`` through the C kernel: ``(indptr, indices, data,
    col_in_nnz)`` with sorted columns, or ``None`` when the caller must
    use its NumPy loop.

    Values sum in ``value_dtype`` and indices are emitted in
    ``index_dtype`` (both resolved by the caller for the whole call).
    The returned arrays hold exactly the output nnz and are the
    caller's own, also when the call replays a cached plan — unless
    ``out=(indices, data)`` (writable contiguous buffers of those dtypes
    holding the summed input nnz) names where to write them.
    """
    lib = library()
    if lib is None:
        return None
    value_dtype, index_dtype = np.dtype(value_dtype), np.dtype(index_dtype)
    v_code = _VALUE_CODES.get(value_dtype) if value_dtype.isnative else None
    o_code = _INDEX_CODES.get(index_dtype) if index_dtype.isnative else None
    if v_code is None or o_code is None:
        _note_fallback(
            f"the kernel has no {value_dtype} values with {index_dtype} indices"
        )
        return None
    in_dtype = np.dtype(np.int32)
    if not all(np.can_cast(A.indices.dtype, in_dtype) for A in mats):
        in_dtype = np.dtype(np.int64)
    # The kernel reads native contiguous buffers; these are no-ops for
    # the usual inputs and copies for mixed or strided ones.
    indptrs = [np.require(A.indptr, np.int64, "C") for A in mats]
    indices = [np.require(A.indices, in_dtype, "C") for A in mats]
    datas = [np.require(A.data, value_dtype, "C") for A in mats]
    m, n = mats[0].shape
    for p, ix, dv in zip(indptrs, indices, datas):
        _check_indptr(p, n, ix, dv, "addend")
    counts = tuple(int(p[n]) - int(p[0]) for p in indptrs)
    total = sum(counts)
    if out is not None and not all(
            buf.size >= total and buf.flags.c_contiguous
            and buf.flags.writeable and buf.dtype == dtype
            for buf, dtype in zip(out, (index_dtype, value_dtype))):
        raise ValueError(
            f"output buffers must be writable contiguous {index_dtype} "
            f"indices and {value_dtype} values of {total} entries"
        )
    suffix = f"{_INDEX_CODES[in_dtype]}_{o_code}_{v_code}"
    # The addends' nnz ride in the key: they cost nothing here and spare
    # most snapshot comparisons of an unseen pattern.
    key = (mats[0].shape, value_dtype, in_dtype, index_dtype, counts)
    # Cached are only patterns with no more indptr entries than stored
    # entries (a hypersparse or column-embedded collection pays more to
    # snapshot and compare than a replay saves) whose plan fits.
    bound = 8 * (len(mats) + 2) * (n + 1) + 2 * total * index_dtype.itemsize
    cacheable = len(mats) * (n + 1) <= total and PLAN_CACHE_BYTES >= bound
    seen = _lookup(key, indptrs) if cacheable else None
    if seen is not None and seen.plan is not None:
        plan = seen.plan
        nnz = plan.rows.size
        if out is None:
            rows, data = plan.rows.copy(), np.empty(nnz, dtype=value_dtype)
        else:
            rows, data = out[0][:nnz], out[1][:nnz]
            rows[...] = plan.rows
        status = getattr(lib, f"repro_replay_{suffix}")(
            len(mats), n, _pointers(indptrs), _pointers(indices),
            _pointers(datas), plan.indptr.ctypes.data, plan.rows.ctypes.data,
            plan.slots.ctypes.data, plan.slots.size, data.ctypes.data,
        )
        if status == 0:
            _count("plan_hits")
            return plan.indptr.copy(), rows, data, plan.col_in.copy()
        _count("plan_rejects")
        # The rows changed under the same indptr: keep the snapshot as
        # a first sighting of the new pattern, and drop the plan.
        _publish(_Pattern(key, seen.indptrs), replacing=seen)
        seen, cacheable = None, False
    out_indptr = np.empty(n + 1, dtype=index_dtype)
    out_indices, out_data = out if out is not None else (
        np.empty(total, dtype=index_dtype), np.empty(total, dtype=value_dtype)
    )
    col_in = np.empty(n, dtype=np.int64)
    slots = (np.empty(total, dtype=index_dtype)
             if seen is not None and _room_for(bound) else None)
    nnz = getattr(lib, f"repro_spkadd_{suffix}")(
        len(mats), m, 0, n,
        _pointers(indptrs), _pointers(indices), _pointers(datas),
        out_indptr.ctypes.data, out_indices.ctypes.data,
        out_data.ctypes.data, col_in.ctypes.data,
        None if slots is None else slots.ctypes.data,
    )
    if nnz == _ERR_ROW_RANGE:
        check_row_bounds(mats)  # raises, naming the addend and the row
        raise ValueError(f"an addend has a row index outside [0, {m})")
    if nnz < 0:
        raise MemoryError("native SpKAdd kernel could not allocate its tables")
    if out is not None:
        out_indices, out_data = out_indices[:nnz], out_data[:nnz]
    elif nnz < total:
        # Shrink the upper-bound buffers in place (realloc), so only
        # nnz(B) entries stay allocated.
        out_indices.resize(nnz, refcheck=False)
        out_data.resize(nnz, refcheck=False)
    if seen is not None and slots is not None:
        built = _Plan(out_indptr.copy(), out_indices.copy(), slots, col_in.copy())
        if _publish(_Pattern(key, seen.indptrs, built), replacing=seen):
            _count("plan_builds")
    elif cacheable and seen is None:
        _publish(_Pattern(key, np.stack(indptrs)))
    return out_indptr, out_indices, out_data, col_in


def spgemm_columns(
    A: "CSCMatrix", B: "CSCMatrix", value_dtype: np.dtype,
    index_dtype: np.dtype, sorted_output: bool, flops: int,
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``A @ B`` through the C Gustavson kernel: ``(indptr, indices,
    data)``, or ``None`` when the caller must use its NumPy expansion.

    Products are formed in ``np.result_type`` of the operands' value
    dtypes, which must equal ``value_dtype`` (the dtype the caller
    sums in).  Indices are emitted in ``index_dtype``.  Columns are
    sorted when ``sorted_output`` is set and in first-insertion order
    otherwise.  ``flops`` is the product's expansion size, the capacity
    of the output buffers.
    """
    lib = library()
    if lib is None:
        return None
    value_dtype, index_dtype = np.dtype(value_dtype), np.dtype(index_dtype)
    product = np.result_type(A.data.dtype, B.data.dtype)
    v_code = _VALUE_CODES.get(value_dtype) if value_dtype.isnative else None
    o_code = _INDEX_CODES.get(index_dtype) if index_dtype.isnative else None
    if v_code is None or o_code is None or product != value_dtype:
        _note_fallback(
            f"the SpGEMM kernel has no {product} products summed in "
            f"{value_dtype} with {index_dtype} indices"
        )
        return None
    in_dtype = np.dtype(np.int32)
    if not all(np.can_cast(X.indices.dtype, in_dtype) for X in (A, B)):
        in_dtype = np.dtype(np.int64)
    (ma, ka), nb = A.shape, B.shape[1]
    operands = []
    for name, X, n in (("A", A, ka), ("B", B, nb)):
        p = np.require(X.indptr, np.int64, "C")
        ix = np.require(X.indices, in_dtype, "C")
        dv = np.require(X.data, value_dtype, "C")
        _check_indptr(p, n, ix, dv, f"operand {name}")
        operands += [p, ix, dv]
    out_indptr = np.empty(nb + 1, dtype=index_dtype)
    out_indices = np.empty(flops, dtype=index_dtype)
    out_data = np.empty(flops, dtype=value_dtype)
    suffix = f"{_INDEX_CODES[in_dtype]}_{o_code}_{v_code}"
    nnz = getattr(lib, f"repro_spgemm_{suffix}")(
        ma, ka, 0, nb, int(bool(sorted_output)),
        *(x.ctypes.data for x in operands), flops,
        out_indptr.ctypes.data, out_indices.ctypes.data, out_data.ctypes.data,
    )
    if nnz in (_ERR_ROW_RANGE, _ERR_INNER_RANGE):
        check_product_rows(A, B)  # raises, naming the operand and the row
        raise ValueError("an operand has a row index out of range")
    if nnz == _ERR_NO_MEMORY:
        raise MemoryError("native SpGEMM kernel could not allocate its table")
    if nnz < 0:
        raise ValueError(f"the operands hold more than {flops} products")
    if nnz < flops:
        out_indices.resize(nnz, refcheck=False)
        out_data.resize(nnz, refcheck=False)
    return out_indptr, out_indices, out_data


def _check_indptr(
    p: np.ndarray, n: int, ix: np.ndarray, dv: np.ndarray, what: str
) -> None:
    """The kernels trust these bounds; an unchecked matrix that breaks
    them must fail here, not read or write out of bounds."""
    if (p.size != n + 1 or p[0] < 0 or p[n] > min(ix.size, dv.size)
            or (p[1:] < p[:-1]).any()):
        raise ValueError(
            f"malformed CSC {what}: indptr must have n+1 nondecreasing "
            "entries within the indices/data arrays"
        )


def _lookup(key: tuple, indptrs: Sequence[np.ndarray]) -> Optional[_Pattern]:
    """The cached pattern of ``key`` whose snapshot equals ``indptrs``,
    marked most recently used; ``None`` when there is none."""
    state = _STATE
    with state.lock:
        state.lookups += 1
        for pattern in reversed(state.patterns):
            if pattern.key == key and all(
                np.array_equal(snap, p)
                for snap, p in zip(pattern.indptrs, indptrs)
            ):
                state.patterns = [
                    p for p in state.patterns if p is not pattern
                ] + [pattern]
                pattern.used = state.lookups
                return pattern
    return None


def _room_for(nbytes: int) -> bool:
    """Whether a plan of up to ``nbytes`` fits next to the plans found
    in the last ``2 * PLAN_CACHE_ENTRIES`` lookups, which it may not
    evict: a cycle of patterns a little over the byte bound would
    otherwise build one plan and evict another on every pass."""
    state = _STATE
    with state.lock:
        recent = sum(p.nbytes for p in state.patterns if p.plan is not None
                     and state.lookups - p.used < 2 * PLAN_CACHE_ENTRIES)
    return recent + nbytes <= PLAN_CACHE_BYTES


def _publish(pattern: _Pattern, replacing: Optional[_Pattern] = None) -> bool:
    """Add ``pattern`` as the most recently used one, in place of
    ``replacing``, then evict from the least recently used end down to
    the cache's bounds.  False when ``replacing`` is already gone (a
    concurrent call replaced it first)."""
    state = _STATE
    with state.lock:
        patterns = [p for p in state.patterns if p is not replacing]
        if replacing is not None and len(patterns) == len(state.patterns):
            return False
        pattern.used = state.lookups
        patterns.append(pattern)
        size = sum(p.nbytes for p in patterns)
        while patterns and (size > PLAN_CACHE_BYTES
                            or len(patterns) > PLAN_CACHE_ENTRIES):
            size -= patterns.pop(0).nbytes
        state.patterns = patterns
    return True


def _count(counter: str) -> None:
    state = _STATE
    with state.lock:
        setattr(state, counter, getattr(state, counter) + 1)


def _clear_plans() -> None:
    """Forget every cached pattern, so the next calls run the kernel."""
    with _STATE.lock:
        _STATE.patterns = []


def _pointers(arrays: Sequence[np.ndarray]) -> ctypes.Array:
    return (ctypes.c_void_p * len(arrays))(*(a.ctypes.data for a in arrays))
