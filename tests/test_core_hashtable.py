"""Tests for the vectorized linear-probing hash engine."""

import numpy as np
import pytest

from repro.core.hashtable import EMPTY, hash_accumulate
from repro.core.reference import hash_add_ref


class TestHashAccumulate:
    def test_unique_keys_preserved(self):
        keys = np.array([5, 17, 3, 99], dtype=np.int64)
        vals = np.array([1.0, 2.0, 3.0, 4.0])
        res = hash_accumulate(keys, vals, 16)
        order = np.argsort(res.keys)
        assert list(res.keys[order]) == [3, 5, 17, 99]
        assert list(res.vals[order]) == [3.0, 1.0, 2.0, 4.0]

    def test_duplicates_summed(self):
        keys = np.array([7, 7, 7, 2], dtype=np.int64)
        vals = np.array([1.0, 10.0, 100.0, 5.0])
        res = hash_accumulate(keys, vals, 16)
        d = dict(zip(res.keys.tolist(), res.vals.tolist()))
        assert d == {7: 111.0, 2: 5.0}

    def test_empty_input(self):
        res = hash_accumulate(
            np.empty(0, dtype=np.int64), np.empty(0), 16
        )
        assert len(res.keys) == 0
        assert res.slot_ops == 0

    def test_all_same_key(self):
        n = 1000
        res = hash_accumulate(
            np.full(n, 42, dtype=np.int64), np.ones(n), 16
        )
        assert list(res.keys) == [42]
        assert res.vals[0] == n
        # one op per entry: insert once, match n-1 times
        assert res.slot_ops == n
        assert res.probes == 0

    def test_high_load_factor_still_correct(self):
        # 15 distinct keys in a 16-slot table: heavy probing
        keys = np.arange(15, dtype=np.int64) * 1337
        res = hash_accumulate(keys, np.ones(15), 16)
        assert sorted(res.keys.tolist()) == sorted(keys.tolist())
        assert res.probes >= 0

    def test_full_table_raises(self):
        keys = np.arange(20, dtype=np.int64)
        with pytest.raises(RuntimeError, match="full"):
            hash_accumulate(keys, np.ones(20), 16)

    def test_rejects_non_pow2(self):
        with pytest.raises(ValueError):
            hash_accumulate(np.array([1], dtype=np.int64), np.array([1.0]), 20)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            hash_accumulate(np.array([1, 2], dtype=np.int64), np.array([1.0]))

    def test_ops_match_scalar_reference(self):
        """Vectorized op accounting must equal Algorithm 5's counts."""
        rng = np.random.default_rng(0)
        cols = []
        for _ in range(5):
            r = np.unique(rng.integers(0, 64, rng.integers(5, 25)))
            cols.append((r.tolist(), [1.0] * len(r)))
        ctr = {}
        ref_rows, ref_vals = hash_add_ref(cols, 256, counters=ctr)
        keys = np.concatenate([np.array(r, dtype=np.int64) for r, _ in cols])
        vals = np.concatenate([np.array(v) for _, v in cols])
        res = hash_accumulate(keys, vals, 256)
        order = np.argsort(res.keys)
        assert list(res.keys[order]) == ref_rows
        assert np.allclose(res.vals[order], ref_vals)
        assert res.slot_ops == ctr["slot_ops"]

    def test_trace_capture(self):
        keys = np.array([1, 2, 3, 1, 2], dtype=np.int64)
        res = hash_accumulate(keys, np.ones(5), 16, capture_trace=True)
        assert res.trace is not None
        # every charged slot op appears in the trace
        assert len(res.trace) == res.slot_ops
        assert res.trace.max() < 16

    def test_values_dtype_preserved_float32(self):
        keys = np.array([1, 1], dtype=np.int64)
        vals = np.array([1.5, 2.5], dtype=np.float32)
        res = hash_accumulate(keys, vals, 16)
        assert res.vals.dtype == np.float32
        assert res.vals[0] == 4.0

    def test_integer_values_stay_integer(self):
        """ISSUE satellite: int vals must not silently become float64."""
        keys = np.array([9, 9, 4], dtype=np.int64)
        vals = np.array([2, 3, 7], dtype=np.int32)
        res = hash_accumulate(keys, vals, 16)
        assert res.vals.dtype == np.int64
        d = dict(zip(res.keys.tolist(), res.vals.tolist()))
        assert d == {9: 5, 4: 7}

    def test_integer_sums_exact_beyond_float_precision(self):
        # 2**53 + 1 is not representable in float64; int64 keeps it.
        keys = np.array([1, 1], dtype=np.int64)
        vals = np.array([2**53, 1], dtype=np.int64)
        res = hash_accumulate(keys, vals, 16)
        assert int(res.vals[0]) == 2**53 + 1

    def test_unsigned_values_accumulate_unsigned(self):
        keys = np.array([3, 3], dtype=np.int64)
        vals = np.array([1, 2], dtype=np.uint32)
        res = hash_accumulate(keys, vals, 16)
        assert res.vals.dtype == np.uint64
        assert int(res.vals[0]) == 3

    def test_bool_values_count(self):
        keys = np.array([5, 5, 5], dtype=np.int64)
        vals = np.array([True, True, False])
        res = hash_accumulate(keys, vals, 16)
        assert res.vals.dtype == np.int64
        assert int(res.vals[0]) == 2

    def test_rejects_object_values(self):
        from repro.core.hashtable import accum_dtype

        with pytest.raises(TypeError):
            accum_dtype(np.dtype(object))

