"""Shared fixtures and helpers for the SpKAdd reproduction tests."""

from __future__ import annotations

import contextlib
import fnmatch
import os

import numpy as np
import pytest

from repro.formats.csc import CSCMatrix


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running reproduction tests"
    )
    config.addinivalue_line(
        "markers",
        "stress: multiprocess stress tests run under a hard timeout",
    )


def assert_bit_identical(a: CSCMatrix, b: CSCMatrix, label: str = "") -> None:
    """The cross-executor identity contract: same dtypes, same arrays,
    values compared bitwise (catches sign-of-zero / last-ulp drift that
    allclose-style checks would wave through)."""
    assert a.shape == b.shape, label
    assert a.indptr.dtype == b.indptr.dtype, label
    assert a.indices.dtype == b.indices.dtype, label
    assert a.data.dtype == b.data.dtype, label
    assert np.array_equal(a.indptr, b.indptr), label
    assert np.array_equal(a.indices, b.indices), label
    assert np.array_equal(
        a.data.view(np.uint8), b.data.view(np.uint8)
    ), label


def own_segments() -> list:
    """This process's live ``repro_shm_*`` segments.  Leak asserts
    compare these before and after a call: the full listing also holds
    the segments of any other repro process running at the same time."""
    from repro.parallel.shm import _segment_owner_pid, list_live_segments

    pid = os.getpid()
    return [n for n in list_live_segments() if _segment_owner_pid(n) == pid]


def shm_entries(pattern: str = "*") -> list:
    """``/dev/shm`` names matching ``pattern``, less the ``repro_shm_*``
    segments other processes own; every other entry is kept, so growth
    of any kind (semaphores from pool churn, say) still shows."""
    from repro.parallel.shm import _segment_owner_pid

    pid = os.getpid()
    return [n for n in fnmatch.filter(os.listdir("/dev/shm"), pattern)
            if _segment_owner_pid(n) in (None, pid)]


@contextlib.contextmanager
def inject_fired(**directives):
    """``faults.inject(**directives)`` for a chunk-fault test, which must
    prove that its fault fired: when the block is left, each kill and
    delay directive has been taken at least once.  A fault aimed at a
    chunk ordinal the call never runs would otherwise pass vacuously."""
    from repro.parallel import faults

    with faults.inject(**directives) as plan:
        armed = {"kill": plan._kill_left, "delay": plan._delay_left}
        try:
            yield plan
        finally:
            left = {"kill": plan._kill_left, "delay": plan._delay_left}
            idle = [k for k, n in armed.items() if n and left[k] == n]
            assert not idle, f"injected {idle} never fired: {directives}"


def random_csc(
    rng: np.random.Generator,
    m: int,
    n: int,
    nnz: int,
    *,
    sorted_cols: bool = True,
) -> CSCMatrix:
    """A random CSC matrix with ~nnz entries (duplicates summed)."""
    rows = rng.integers(0, m, nnz)
    cols = rng.integers(0, n, nnz)
    vals = rng.normal(size=nnz)
    mat = CSCMatrix.from_arrays((m, n), rows, cols, vals)
    if not sorted_cols:
        mat = shuffle_columns(rng, mat)
    return mat


def shuffle_columns(rng: np.random.Generator, mat: CSCMatrix) -> CSCMatrix:
    """Permute entries within each column (makes columns unsorted)."""
    indices = mat.indices.copy()
    data = mat.data.copy()
    for j in range(mat.shape[1]):
        lo, hi = int(mat.indptr[j]), int(mat.indptr[j + 1])
        perm = rng.permutation(hi - lo)
        indices[lo:hi] = indices[lo:hi][perm]
        data[lo:hi] = data[lo:hi][perm]
    return CSCMatrix(
        mat.shape, mat.indptr.copy(), indices, data, sorted=False, check=False
    )


def random_collection(
    seed: int, m: int, n: int, k: int, nnz_lo: int = 5, nnz_hi: int = 80
):
    """k random same-shape matrices for SpKAdd tests."""
    rng = np.random.default_rng(seed)
    return [
        random_csc(rng, m, n, int(rng.integers(nnz_lo, nnz_hi)))
        for _ in range(k)
    ]


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_collection():
    """Nine 200x17 matrices — the default SpKAdd test workload."""
    return random_collection(7, 200, 17, 9)


@pytest.fixture
def tiny_collection():
    """Three 12x4 matrices — for loop-level reference kernels."""
    return random_collection(3, 12, 4, 3, nnz_lo=2, nnz_hi=10)


@pytest.fixture(params=["native", "numpy"])
def native_mode(request, monkeypatch):
    """Run a fast-backend case twice: with the compiled SpKAdd kernel
    loaded, and with the loader forced to report no library (the NumPy
    loop).  Both runs must produce the same bytes."""
    from repro.kernels import native

    if request.param == "native":
        if native.library() is None:
            pytest.skip(f"no native kernel: {native.fallback_reason()}")
    else:
        monkeypatch.setattr(native, "library", lambda: None)
    return request.param
