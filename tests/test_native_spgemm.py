"""The compiled column-wise Gustavson SpGEMM and its fallbacks.

Conformance: ``local_spgemm`` on the ``fast`` backend must emit the same
bytes with the C kernel loaded and with it forced off (the NumPy
expansion), and the same sums as the ``instrumented`` engine — on the
adversarial value pool of ``test_native`` (signed zeros, NaN payloads,
infinities, subnormals, cancelling products, int64 wrap), every value x
index width the kernel has, and awkward structure (empty and
hypersparse columns, ``indptr[0] > 0``, strided and mixed-dtype
operands).  Unsorted output must hold the same entries per column.  A
row index the multiply reads out of range is one typed ``ValueError``
on every path.
"""

import threading
from collections import Counter

import numpy as np
import pytest

from repro.distributed.grid import ProcessGrid
from repro.distributed.spgemm_local import LocalSpGEMMStats, local_spgemm
from repro.distributed.summa import ExecutionPlan, summa_spgemm
from repro.formats.csc import CSCMatrix
from repro.generators import rmat
from repro.kernels import native
from tests.test_native import FLOAT_POOL, INT_POOL

FIELDS = ("indptr", "indices", "data")

#: NaNs with distinct payloads, one of them signalling: a product keeps
#: the payload NumPy's multiply keeps, and a sum the accumulator's.
NAN_PAYLOADS = np.array(
    [0x7FF8000000000001, 0x7FF8000000000002, 0x7FF0000000000003],
    dtype=np.uint64,
).view(np.float64)


@pytest.fixture
def kernel():
    if native.library() is None:
        pytest.skip(f"no native kernel: {native.fallback_reason()}")


def assert_same_bytes(a, b, label):
    for name in FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, f"{label}: {name} dtype"
        assert x.tobytes() == y.tobytes(), f"{label}: {name} bytes"


def sorted_copy(C):
    out = C.copy()
    out.sort_indices()
    return out


def numpy_spgemm(monkeypatch, A, B, **kwargs):
    """The fast backend with the loader forced to report no library."""
    with monkeypatch.context() as mp:
        mp.setattr(native, "library", lambda: None)
        return local_spgemm(A, B, backend="fast", **kwargs)


def column_entries(C):
    """Per column, the multiset of (row, value bytes)."""
    return [
        Counter(
            (int(r), v.tobytes())
            for r, v in zip(C.indices[C.indptr[j]:C.indptr[j + 1]],
                            C.data[C.indptr[j]:C.indptr[j + 1]])
        )
        for j in range(C.shape[1])
    ]


def check_paths(monkeypatch, A, B, label="", kernel_runs=True, **kwargs):
    """Native sorted == NumPy fast == sorted instrumented, byte for
    byte; native unsorted holds the same entries per column and the
    same bytes once sorted.  ``kernel_runs`` False expects the fast
    backend to fall back to its (always sorted) NumPy expansion.
    Returns the native sorted product."""
    with np.errstate(all="ignore"):
        nat = local_spgemm(A, B, backend="fast", sorted_output=True, **kwargs)
        uns = local_spgemm(A, B, backend="fast", sorted_output=False, **kwargs)
        npy = numpy_spgemm(monkeypatch, A, B, sorted_output=True, **kwargs)
        inst = local_spgemm(A, B, backend="instrumented", sorted_output=True,
                            **kwargs)
    assert nat.sorted and npy.sorted
    assert_same_bytes(nat, npy, f"{label} native vs numpy")
    assert_same_bytes(nat, inst, f"{label} native vs instrumented")
    assert uns.sorted is not kernel_runs, f"{label}: kernel ran"
    assert column_entries(uns) == column_entries(nat), f"{label} multiset"
    assert_same_bytes(sorted_copy(uns), nat, f"{label} unsorted, sorted")
    return nat


def random_operand(rng, shape, nnz, pool, dtype, index_dtype=np.int32):
    """A CSC operand with up to ``nnz`` distinct entries whose values are
    drawn from ``pool``, each column's rows in random order."""
    m, n = shape
    flat = rng.choice(m * n, size=min(nnz, m * n), replace=False)
    cols, rows = np.divmod(flat, m)
    order = np.argsort(cols, kind="stable")
    indptr = np.zeros(n + 1, dtype=index_dtype)
    np.cumsum(np.bincount(cols, minlength=n), out=indptr[1:])
    vals = np.asarray(pool)[rng.integers(0, len(pool), flat.size)]
    with np.errstate(all="ignore"):
        data = vals.astype(dtype)
    return CSCMatrix(shape, indptr, rows[order].astype(index_dtype),
                     data[order], sorted=False, check=False)


FLOAT_PRODUCT_POOL = FLOAT_POOL + [2.0, -0.5, 1e-200, 1e200] + list(
    NAN_PAYLOADS)
INT_PRODUCT_POOL = INT_POOL + [2, -3, 1 << 32, -(1 << 31)]


class TestAdversarialValues:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64],
                             ids=["f32", "f64", "i64"])
    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64],
                             ids=["i32", "i64"])
    def test_pool(self, monkeypatch, kernel, dtype, index_dtype):
        rng = np.random.default_rng(7)
        pool = INT_PRODUCT_POOL if dtype == np.int64 else FLOAT_PRODUCT_POOL
        for trial in range(4):
            A = random_operand(rng, (9, 7), 40, pool, dtype, index_dtype)
            B = random_operand(rng, (7, 11), 35, pool, dtype, index_dtype)
            check_paths(monkeypatch, A, B, f"trial {trial}",
                        index_dtype=index_dtype)

    def test_nan_payloads_follow_numpy(self, monkeypatch, kernel):
        # One column: rows 0 and 1 each receive two NaN products.
        a = NAN_PAYLOADS
        A = CSCMatrix((2, 2), np.array([0, 2, 4]), np.array([0, 1, 0, 1]),
                      np.array([a[0], a[2], a[1], 1.0]), check=False)
        B = CSCMatrix((2, 1), np.array([0, 2]), np.array([0, 1]),
                      np.array([a[1], a[0]]), check=False)
        C = check_paths(monkeypatch, A, B)
        with np.errstate(invalid="ignore"):
            p = A.data[[0, 1, 2, 3]] * B.data[[0, 0, 1, 1]]
            expect = p[:2] + p[2:]
        assert C.data.view(np.uint64).tolist() == expect.view(
            np.uint64).tolist()

    def test_signed_zero_and_cancellation(self, monkeypatch, kernel):
        # Row 0: -0 * 2 + -0 * 1 stays -0.  Row 1: 1.5 * 2 + -3 * 1
        # cancels to a stored +0.
        A = CSCMatrix((2, 2), np.array([0, 2, 4]), np.array([0, 1, 0, 1]),
                      np.array([-0.0, 1.5, -0.0, -3.0]), check=False)
        B = CSCMatrix((2, 1), np.array([0, 2]), np.array([0, 1]),
                      np.array([2.0, 1.0]), check=False)
        C = check_paths(monkeypatch, A, B)
        assert C.indices.tolist() == [0, 1]
        assert np.signbit(C.data).tolist() == [True, False]
        assert C.data.tolist() == [0.0, 0.0]

    def test_int64_products_and_sums_wrap(self, monkeypatch, kernel):
        top = np.iinfo(np.int64).max
        A = CSCMatrix((1, 2), np.array([0, 1, 2]), np.array([0, 0]),
                      np.array([top, 1 << 40], dtype=np.int64), check=False)
        B = CSCMatrix((2, 1), np.array([0, 2]), np.array([0, 1]),
                      np.array([3, 1 << 30], dtype=np.int64), check=False)
        C = check_paths(monkeypatch, A, B)
        with np.errstate(over="ignore"):
            expect = A.data * B.data
            expect = expect[:1] + expect[1:]
        assert C.data.tolist() == expect.tolist()


class TestStructure:
    def test_empty_and_hypersparse_columns(self, monkeypatch, kernel):
        rng = np.random.default_rng(3)
        A = random_operand(rng, (500, 400), 60, [1.0, -2.0, 0.5], np.float64)
        B = random_operand(rng, (400, 300), 50, [3.0, -1.0], np.float64)
        C = check_paths(monkeypatch, A, B, "hypersparse")
        assert (np.diff(C.indptr) == 0).sum() > 250
        empty = local_spgemm(CSCMatrix.zeros((4, 3)), CSCMatrix.zeros((3, 2)),
                             backend="fast")
        assert empty.nnz == 0 and empty.indptr.tolist() == [0, 0, 0]

    def test_indptr_not_starting_at_zero(self, monkeypatch, kernel):
        # Entries before indptr[0] are not part of the operand; their
        # rows and values are deliberately invalid.
        rng = np.random.default_rng(4)
        ref_a = random_operand(rng, (30, 20), 90, [1.0, 2.5, -1.0], np.float64)
        ref_b = random_operand(rng, (20, 25), 80, [1.0, -4.0], np.float64)

        def padded(X, pad):
            return CSCMatrix(
                X.shape, X.indptr + pad,
                np.concatenate([np.full(pad, -7, X.indices.dtype), X.indices]),
                np.concatenate([np.full(pad, np.nan), X.data]),
                sorted=X.sorted, check=False,
            )

        C = check_paths(monkeypatch, padded(ref_a, 3), padded(ref_b, 5))
        assert_same_bytes(C, check_paths(monkeypatch, ref_a, ref_b), "padded")

    def test_strided_operands(self, monkeypatch, kernel):
        rng = np.random.default_rng(5)
        ops = []
        for shape, nnz in (((40, 30), 150), ((30, 35), 120)):
            X = random_operand(rng, shape, nnz, [1.0, -0.5, 3.0], np.float64)
            wide = np.empty(2 * X.data.size)
            wide[::2] = X.data
            ops.append(CSCMatrix(X.shape, X.indptr, X.indices, wide[::2],
                                 sorted=False, check=False))
        assert not ops[0].data.flags.c_contiguous
        check_paths(monkeypatch, *ops, "strided")

    @pytest.mark.parametrize("dtypes, kernel_runs", [
        ((np.float32, np.float64), True), ((np.int32, np.float32), True),
        ((np.int32, np.int64), True), ((np.bool_, np.int64), True),
        ((np.float32, np.float32), True),
        # int32 products wrap in 32 bits before the int64 sum: NumPy's
        ((np.int32, np.int32), False), ((np.int16, np.int64), True),
        ((np.float16, np.float32), True), ((np.float16, np.float16), False),
    ], ids=lambda d: "x".join(np.dtype(x).name for x in d)
        if isinstance(d, tuple) else str(d))
    def test_mixed_value_dtypes(self, monkeypatch, kernel, dtypes,
                                kernel_runs):
        rng = np.random.default_rng(6)
        A = random_operand(rng, (30, 25), 120, [1, 2, -3, 7], dtypes[0])
        B = random_operand(rng, (25, 20), 100, [1, -1, 5], dtypes[1])
        check_paths(monkeypatch, A, B, str(dtypes), kernel_runs=kernel_runs)

    def test_mixed_index_dtypes(self, monkeypatch, kernel):
        rng = np.random.default_rng(8)
        A = random_operand(rng, (30, 25), 120, [1.0, 2.0], np.float64,
                           np.int64)
        B = random_operand(rng, (25, 20), 100, [-1.0, 0.5], np.float64,
                           np.int32)
        for index_dtype in (None, "int32", "int64"):
            check_paths(monkeypatch, A, B, str(index_dtype),
                        index_dtype=index_dtype)

    def test_value_dtype_override(self, monkeypatch, kernel):
        # float32 products summed in float64 are not the kernel's: the
        # NumPy expansion runs, with the same bytes either way.
        rng = np.random.default_rng(9)
        A = random_operand(rng, (20, 20), 80, [0.1, 0.3], np.float32)
        B = random_operand(rng, (20, 20), 80, [0.7, -0.2], np.float32)
        check_paths(monkeypatch, A, B, kernel_runs=False,
                    value_dtype=np.float64)
        assert "float32 products summed in float64" in (
            native.fallback_reason() or "")

    def test_heavy_columns_of_different_sizes(self, monkeypatch, kernel):
        # Column 0 takes 16384 products, column 1 about 12000: every
        # column's table must fit in the scratch sized for the largest.
        rng = np.random.default_rng(10)
        m = 1 << 16
        a_cols = []
        for per in (8192, 8192, 6000, 6000):
            a_cols.append(np.sort(rng.choice(m, size=per, replace=False)))
        indptr = np.concatenate([[0], np.cumsum([c.size for c in a_cols])])
        rows = np.concatenate(a_cols)
        A = CSCMatrix((m, 4), indptr, rows, (rows % 7) - 3.0, sorted=True,
                      check=False)
        B = CSCMatrix((4, 2), np.array([0, 2, 4]), np.array([0, 1, 2, 3]),
                      np.array([1.0, -1.0, 2.0, 0.5]), sorted=True,
                      check=False)
        st = LocalSpGEMMStats()
        C = check_paths(monkeypatch, A, B, stats=st)
        assert st.flops == 4 * (8192 + 8192 + 6000 + 6000)
        assert C.nnz == st.out_nnz // 4

    def test_stats_keep_their_values(self, monkeypatch, kernel):
        rng = np.random.default_rng(11)
        A = random_operand(rng, (50, 40), 300, [1.0, 2.0], np.float64)
        B = random_operand(rng, (40, 30), 200, [1.0, -1.0], np.float64)
        got, want = LocalSpGEMMStats(), LocalSpGEMMStats()
        local_spgemm(A, B, backend="fast", stats=got)
        numpy_spgemm(monkeypatch, A, B, stats=want)
        assert got == want and got.flops > got.out_nnz > 0

    def test_threads_multiply_concurrently(self, monkeypatch, kernel):
        A = rmat(1024, 1024, d=6, seed=12)
        want = numpy_spgemm(monkeypatch, A, A, sorted_output=True)
        results = [None] * 4

        def work(i):
            results[i] = local_spgemm(A, A, backend="fast", sorted_output=True)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for got in results:
            assert_same_bytes(got, want, "thread")

    def test_malformed_indptr_is_rejected(self, kernel):
        A = rmat(8, 8, d=2, seed=13)
        bad = CSCMatrix(A.shape, np.array([0, 3, 1, 4, 4, 4, 4, 4, 4]),
                        A.indices, A.data, sorted=False, check=False)
        for X, Y, name in ((bad, A, "A"), (A, bad, "B")):
            with pytest.raises(ValueError, match=f"malformed CSC operand {name}"):
                native.spgemm_columns(X, Y, np.float64, np.int32, True, 64)


class TestRowBounds:
    """A row index the multiply reads out of range is one ValueError
    naming the operand and the index, on every path."""

    @staticmethod
    def operands(a_rows, b_rows, ma=4, ka=3):
        A = CSCMatrix((ma, ka), np.array([0, 2, 3, len(a_rows)]),
                      np.array(a_rows), np.arange(1.0, len(a_rows) + 1),
                      sorted=False, check=False)
        B = CSCMatrix((ka, 1), np.array([0, len(b_rows)]), np.array(b_rows),
                      np.ones(len(b_rows)), sorted=False, check=False)
        return A, B

    @pytest.mark.parametrize("a_rows, b_rows, message", [
        ([0, 1, 2, 3], [0, -1], r"B has row index -1 outside \[0, 3\)"),
        ([0, 1, 2, 3], [2, 5], r"B has row index 5 outside \[0, 3\)"),
        ([0, 1, 9, 3], [0, 1], r"A has row index 9 outside \[0, 4\)"),
        ([0, -2, 2, 3], [2, 0], r"A has row index -2 outside \[0, 4\)"),
    ])
    @pytest.mark.parametrize("path", ["native", "numpy", "instrumented"])
    def test_typed_error(self, monkeypatch, path, a_rows, b_rows, message):
        A, B = self.operands(a_rows, b_rows)
        backend = "instrumented" if path == "instrumented" else "fast"
        if path == "native" and native.library() is None:
            pytest.skip("no native kernel")
        if path == "numpy":
            monkeypatch.setattr(native, "library", lambda: None)
        for sorted_output in (True, False):
            with pytest.raises(ValueError, match=message):
                local_spgemm(A, B, backend=backend,
                             sorted_output=sorted_output)

    def test_unselected_bad_rows_are_not_read(self, monkeypatch):
        # A's column 1 holds a bad row, but B never selects it.
        A, B = self.operands([0, 1, 9, 3], [0, 2])
        for mode in ("native", "numpy"):
            with monkeypatch.context() as mp:
                if mode == "numpy":
                    mp.setattr(native, "library", lambda: None)
                C = local_spgemm(A, B, backend="fast", sorted_output=True)
            assert C.indices.tolist() == [0, 1, 3], mode


class TestSumma:
    @pytest.mark.parametrize("sorted_im", [True, False],
                             ids=["sorted", "unsorted"])
    def test_production_blocks_match_serial_plan(self, monkeypatch, kernel,
                                                 sorted_im):
        A = rmat(256, 256, d=6, seed=14)

        def blocks(plan):
            res = summa_spgemm(A, A, grid=ProcessGrid(2, 2), stages=4,
                               plan=plan, sorted_intermediates=sorted_im)
            return [C for row in res.c_blocks for C in row], res

        serial, ser_res = blocks(ExecutionPlan(backend="fast"))
        prod, prod_res = blocks(ExecutionPlan.production(
            threads=2, rank_parallelism=2))
        with monkeypatch.context() as mp:
            mp.setattr(native, "library", lambda: None)
            no_cc, no_cc_res = blocks(ExecutionPlan(backend="fast"))
        paper, paper_res = blocks(ExecutionPlan.paper())
        for i, (s, p, n, r) in enumerate(zip(serial, prod, no_cc, paper)):
            assert_same_bytes(p, s, f"block {i}: production vs serial")
            assert_same_bytes(n, s, f"block {i}: no compiler vs serial")
            assert_same_bytes(sorted_copy(r), sorted_copy(s),
                              f"block {i}: paper vs serial")
        for res in (prod_res, no_cc_res, paper_res):
            assert [r.multiply.flops for r in res.ranks] == [
                r.multiply.flops for r in ser_res.ranks]
            assert [r.intermediate_nnz for r in res.ranks] == [
                r.intermediate_nnz for r in ser_res.ranks]
