"""Property-based tests (hypothesis) for core invariants.

Strategies build small random matrix collections; properties assert the
paper's algebraic invariants hold for *every* kernel:

* every SpKAdd method equals the scipy oracle;
* symbolic counts equal exact union sizes;
* nnz(B) <= sum nnz(A_i) (cf >= 1);
* hash accumulation is insertion-order independent;
* format conversions are lossless;
* sliding partitioning never changes the result.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.api import spkadd
from repro.core.hash_add import hash_symbolic
from repro.core.hashtable import hash_accumulate
from repro.core.sliding_hash import spkadd_sliding_hash
from repro.core.symbolic import exact_output_col_nnz
from repro.formats.convert import coo_to_csc, csc_to_coo, csc_to_csr, csr_to_csc
from repro.formats.csc import CSCMatrix
from repro.formats.ops import matrices_equal, sum_with_scipy

COMMON = dict(
    deadline=None,
    max_examples=25,
    # ``native_mode`` (compiled kernel loaded / forced off) holds for
    # every example of a test, so a function-scoped fixture is intended.
    suppress_health_check=[
        HealthCheck.too_slow, HealthCheck.function_scoped_fixture,
    ],
)


@st.composite
def csc_matrix(draw, max_m=40, max_n=8, max_nnz=60):
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    nnz = draw(st.integers(0, max_nnz))
    rows = draw(
        st.lists(st.integers(0, m - 1), min_size=nnz, max_size=nnz)
    )
    cols = draw(
        st.lists(st.integers(0, n - 1), min_size=nnz, max_size=nnz)
    )
    vals = draw(
        st.lists(
            st.floats(-100, 100, allow_nan=False, width=32),
            min_size=nnz, max_size=nnz,
        )
    )
    return CSCMatrix.from_arrays(
        (m, n), np.array(rows, dtype=np.int64),
        np.array(cols, dtype=np.int64), np.array(vals, dtype=np.float64),
    )


#: dtypes the value-pipeline fuzz draws from; ints exercise the exact
#: integer accumulators, float32 the narrow float path.
VALUE_DTYPES = (np.float64, np.float32, np.int64, np.int32)

#: index widths the index-pipeline fuzz stores inputs in; the emitted
#: width is bounds-resolved, so any mix must produce one output width.
INDEX_DTYPES = (np.int64, np.int32)


@st.composite
def matrix_collection(draw, max_k=6, dtype_axis=False, index_axis=False,
                      int_values=False):
    m = draw(st.integers(2, 40))
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, max_k))
    mats = []
    for _ in range(k):
        nnz = draw(st.integers(0, 40))
        rows = np.asarray(
            draw(st.lists(st.integers(0, m - 1), min_size=nnz, max_size=nnz)),
            dtype=np.int64,
        )
        cols = np.asarray(
            draw(st.lists(st.integers(0, n - 1), min_size=nnz, max_size=nnz)),
            dtype=np.int64,
        )
        if int_values:
            # Integer values sum exactly, so oracle comparisons can be
            # equality rather than tolerance.
            vals = np.asarray(
                draw(st.lists(st.integers(-20, 20), min_size=nnz,
                              max_size=nnz)),
                dtype=np.int64,
            )
        else:
            vals = np.asarray(
                draw(
                    st.lists(
                        st.floats(-10, 10, allow_nan=False, width=32),
                        min_size=nnz, max_size=nnz,
                    )
                ),
                dtype=np.float64,
            )
        if dtype_axis:
            # Per-matrix dtype: mixed collections must promote the same
            # way on every backend and executor.
            vals = vals.astype(draw(st.sampled_from(VALUE_DTYPES)))
        if index_axis:
            idt = draw(st.sampled_from(INDEX_DTYPES))
            rows = rows.astype(idt)
            cols = cols.astype(idt)
        mats.append(CSCMatrix.from_arrays((m, n), rows, cols, vals))
    return mats


def dense_sum(mats):
    return sum(m.to_dense() for m in mats)


@settings(**COMMON)
@given(matrix_collection())
def test_every_method_matches_oracle(native_mode, mats):
    # Dense-value comparison: our kernels keep explicit zeros produced
    # by cancellation (structural nnz semantics), scipy prunes them.
    expect = dense_sum(mats)
    for method in ("2way_tree", "heap", "spa", "hash", "sliding_hash"):
        got = spkadd(mats, method=method).matrix
        assert np.allclose(got.to_dense(), expect, atol=1e-6), method


@settings(**COMMON)
@given(matrix_collection())
def test_output_nnz_bounded_by_input(native_mode, mats):
    total_in = sum(m.nnz for m in mats)
    out = spkadd(mats, method="hash").matrix
    assert out.nnz <= total_in


@settings(**COMMON)
@given(matrix_collection())
def test_symbolic_equals_exact(mats):
    assert np.array_equal(
        hash_symbolic(mats), exact_output_col_nnz(mats)
    )


@settings(**COMMON)
@given(matrix_collection())
def test_sliding_partitioning_invariant(mats):
    """Any partition count gives the identical sum."""
    expect = dense_sum(mats)
    for entries in (4, 64):
        got = spkadd_sliding_hash(mats, table_entries=entries)
        assert np.allclose(got.to_dense(), expect, atol=1e-6)


@settings(**COMMON)
@given(
    st.lists(
        st.tuples(st.integers(0, 50), st.floats(-5, 5, allow_nan=False)),
        min_size=0, max_size=80,
    ),
    st.randoms(),
)
def test_hash_accumulate_order_independent(pairs, rnd):
    """Hash accumulation is a commutative reduction: any insertion
    order yields the same key->sum mapping."""
    keys = np.array([p[0] for p in pairs], dtype=np.int64)
    vals = np.array([p[1] for p in pairs], dtype=np.float64)
    res1 = hash_accumulate(keys, vals, 128)
    perm = np.array(rnd.sample(range(len(pairs)), len(pairs)), dtype=np.int64)
    res2 = hash_accumulate(keys[perm], vals[perm], 128)
    d1 = dict(zip(res1.keys.tolist(), res1.vals.tolist()))
    d2 = dict(zip(res2.keys.tolist(), res2.vals.tolist()))
    assert set(d1) == set(d2)
    for k in d1:
        assert abs(d1[k] - d2[k]) < 1e-9


@settings(**COMMON)
@given(csc_matrix())
def test_format_roundtrips(mat):
    assert matrices_equal(coo_to_csc(csc_to_coo(mat)), mat)
    assert matrices_equal(csr_to_csc(csc_to_csr(mat)), mat)


@settings(**COMMON)
@given(csc_matrix())
def test_column_split_concat_identity(mat):
    n = mat.shape[1]
    if n < 2:
        return
    cut = n // 2
    left = mat.select_columns(0, cut)
    right = mat.select_columns(cut, n)
    rebuilt = np.concatenate([left.to_dense(), right.to_dense()], axis=1)
    assert np.array_equal(rebuilt, mat.to_dense())


@settings(**COMMON)
@given(matrix_collection(), st.integers(1, 4))
def test_parallel_equals_sequential(native_mode, mats, threads):
    seq = spkadd(mats, method="hash").matrix
    par = spkadd(mats, method="hash", threads=threads).matrix
    assert matrices_equal(seq, par)


@settings(**COMMON)
@given(matrix_collection(), st.integers(1, 5))
def test_streaming_batch_size_invariant(mats, batch):
    from repro.core.streaming import spkadd_streaming

    expect = dense_sum(mats)
    got = spkadd_streaming(mats, batch_size=batch)
    assert np.allclose(got.to_dense(), expect, atol=1e-6)


# ---------------------------------------------------------------------------
# Shared-memory executor: fuzz ragged chunk boundaries.  The strategies
# deliberately generate empty columns, all-empty addends, k=1, and chunk
# counts far above the column count; the shm path must stay bitwise
# identical to the thread path through all of it.
# ---------------------------------------------------------------------------

SHM_COMMON = dict(COMMON, max_examples=10)


def assert_bitwise_equal(a, b):
    assert a.shape == b.shape
    assert a.data.dtype == b.data.dtype
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data.view(np.uint8), b.data.view(np.uint8))


@settings(**SHM_COMMON)
@given(matrix_collection(), st.integers(2, 5))
def test_shm_ragged_chunks_match_thread(native_mode, mats, threads):
    ref = spkadd(mats, method="hash", threads=threads, executor="thread")
    got = spkadd(mats, method="hash", threads=threads, executor="shm")
    assert_bitwise_equal(ref.matrix, got.matrix)
    assert ref.stats.output_nnz == got.stats.output_nnz


@settings(**SHM_COMMON)
@given(csc_matrix(max_m=30, max_n=6, max_nnz=40), st.integers(1, 4),
       st.integers(2, 4))
def test_shm_cancellation_and_duplicates(native_mode, mat, copies, threads):
    """Duplicate-heavy collections with exact cancellation: addends
    alternate +A, -A so every partial sum cancels exactly, leaving all
    explicit zeros — which SpKAdd keeps as structural nonzeros,
    identically on every executor."""
    mats = [mat, mat.scaled(-1.0)] * copies
    ref = spkadd(mats, method="hash", threads=threads, executor="thread")
    got = spkadd(mats, method="hash", threads=threads, executor="shm")
    assert_bitwise_equal(ref.matrix, got.matrix)
    assert got.matrix.nnz == mat.nnz  # cancelled entries stay structural
    if got.matrix.nnz:
        assert np.all(got.matrix.data == 0.0)


@settings(**SHM_COMMON)
@given(matrix_collection(max_k=4, dtype_axis=True), st.integers(2, 4))
def test_shm_dtype_axis_bitwise_and_resolved(native_mode, mats, threads):
    """Fuzz the value-dtype axis: per-matrix dtypes drawn independently
    (mixed collections included).  Every executor must produce the
    resolved dtype and bitwise-identical values."""
    from repro.kernels import resolve_value_dtype

    expect = resolve_value_dtype(mats)
    ref = spkadd(mats, method="hash").matrix
    assert ref.data.dtype == expect
    for executor in ("thread", "shm"):
        got = spkadd(
            mats, method="hash", threads=threads, executor=executor
        ).matrix
        assert got.data.dtype == expect
        assert_bitwise_equal(ref, got)


@settings(**COMMON)
@given(matrix_collection(max_k=4, index_axis=True, int_values=True),
       st.randoms())
def test_index_dtype_axis_resolved_and_exact(native_mode, mats, rnd):
    """Fuzz the index-dtype axis: inputs stored at random i32/i64
    widths, sorted or unsorted.  The output's indices/indptr must carry
    the call-resolved width and the sum must equal the scipy baseline
    exactly (integer values — no tolerance)."""
    from repro.kernels import resolve_index_dtype

    if rnd.random() < 0.5:
        # Shuffle entries within columns: the hash kernel tolerates
        # unsorted inputs and the width contract must too.
        shuffled = []
        for A in mats:
            indices = A.indices.copy()
            data = A.data.copy()
            for j in range(A.shape[1]):
                lo, hi = int(A.indptr[j]), int(A.indptr[j + 1])
                perm = rnd.sample(range(hi - lo), hi - lo)
                indices[lo:hi] = indices[lo:hi][perm]
                data[lo:hi] = data[lo:hi][perm]
            shuffled.append(
                CSCMatrix(A.shape, A.indptr.copy(), indices, data,
                          sorted=False, check=False)
            )
        mats = shuffled
    expect = resolve_index_dtype(mats)
    got = spkadd(mats, method="hash").matrix
    assert got.indices.dtype == expect
    assert got.indptr.dtype == expect
    # scipy prunes summed cancellations; compare densely (exact for
    # integer values) instead of structurally.
    scipy_dense = sum_with_scipy(mats).to_dense()
    assert np.array_equal(got.to_dense(), scipy_dense)


@settings(**SHM_COMMON)
@given(matrix_collection(max_k=3, index_axis=True), st.integers(2, 4))
def test_shm_index_axis_bitwise(native_mode, mats, threads):
    """Mixed-width inputs through every executor: one resolved output
    width, bit-identical arrays."""
    from repro.kernels import resolve_index_dtype

    expect = resolve_index_dtype(mats)
    ref = spkadd(mats, method="hash").matrix
    assert ref.indices.dtype == expect
    for executor in ("thread", "shm"):
        got = spkadd(
            mats, method="hash", threads=threads, executor=executor
        ).matrix
        assert got.indices.dtype == expect
        assert got.indptr.dtype == ref.indptr.dtype
        assert_bitwise_equal(ref, got)


@settings(**SHM_COMMON)
@given(matrix_collection(max_k=3), st.integers(2, 4))
def test_shm_all_zero_and_empty_chunks(native_mode, mats, threads):
    """Pad the collection with all-zero addends (empty column blocks in
    every chunk) and compare against the serial oracle."""
    shape = mats[0].shape
    from repro.formats.csc import CSCMatrix as C

    padded = [C.zeros(shape)] + mats + [C.zeros(shape)]
    got = spkadd(padded, method="hash", threads=threads, executor="shm")
    ref = spkadd(padded, method="hash")
    assert_bitwise_equal(ref.matrix, got.matrix)
