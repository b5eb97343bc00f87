"""Unit tests for repro.util.arrays."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util import (
    as_points_array,
    ceil_div,
    check_epsilon,
    pairs_to_set,
    stable_argsort,
    stable_argsort_desc,
)
from repro.util.arrays import _key_argsort


class TestAsPointsArray:
    def test_list_input_becomes_float64(self):
        arr = as_points_array([[1, 2], [3, 4]])
        assert arr.dtype == np.float64
        assert arr.shape == (2, 2)
        assert arr.flags.c_contiguous

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            as_points_array([1.0, 2.0, 3.0])

    def test_rejects_zero_dims(self):
        with pytest.raises(ValueError, match="dimension"):
            as_points_array(np.empty((5, 0)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            as_points_array([[np.nan, 0.0]])

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="finite"):
            as_points_array([[np.inf, 0.0]])

    def test_empty_list_is_zero_points(self):
        arr = as_points_array([])
        assert arr.shape[0] == 0

    def test_no_copy_when_canonical(self):
        src = np.zeros((3, 2), dtype=np.float64, order="C")
        out = as_points_array(src)
        assert out is src or np.shares_memory(out, src)

    def test_copy_flag_forces_copy(self):
        src = np.zeros((3, 2), dtype=np.float64, order="C")
        out = as_points_array(src, copy=True)
        assert not np.shares_memory(out, src)


class TestCheckEpsilon:
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_nonpositive_or_nonfinite(self, bad):
        with pytest.raises(ValueError):
            check_epsilon(bad)

    def test_accepts_positive(self):
        assert check_epsilon(0.5) == 0.5

    def test_coerces_to_float(self):
        assert isinstance(check_epsilon(1), float)


class TestCeilDiv:
    @given(st.integers(0, 10**6), st.integers(1, 10**4))
    def test_matches_math(self, a, b):
        assert ceil_div(a, b) == -(-a // b) == (a + b - 1) // b

    def test_array_input(self):
        a = np.array([0, 1, 7, 8, 9])
        np.testing.assert_array_equal(ceil_div(a, 4), [0, 1, 2, 2, 3])


class TestStableArgsortDesc:
    def test_descending(self):
        v = np.array([3, 1, 4, 1, 5])
        out = v[stable_argsort_desc(v)]
        assert list(out) == sorted(v, reverse=True)

    def test_ties_keep_original_order(self):
        v = np.array([2, 5, 2, 5, 2])
        order = stable_argsort_desc(v)
        # the two 5s must appear in index order 1, 3; the 2s in order 0, 2, 4
        assert list(order) == [1, 3, 0, 2, 4]

    @given(st.lists(st.integers(-1000, 1000), max_size=100))
    def test_property_sorted_desc(self, xs):
        v = np.array(xs, dtype=np.int64)
        out = v[stable_argsort_desc(v)] if len(xs) else v
        assert all(out[i] >= out[i + 1] for i in range(len(out) - 1))

    def test_float_values(self):
        v = np.array([0.5, 2.5, 1.5])
        assert list(stable_argsort_desc(v)) == [1, 2, 0]


class TestOneKeyArgsort:
    """Integer keys sort as one unique key ``(v − min) · 2ᵇ + i``; the
    permutation must equal NumPy's stable argsort."""

    @given(st.lists(st.integers(-40, 40), max_size=300))
    def test_ties_and_negatives(self, xs):
        v = np.array(xs, dtype=np.int64)
        np.testing.assert_array_equal(stable_argsort_desc(v), np.argsort(-v, kind="stable"))
        np.testing.assert_array_equal(stable_argsort(v), np.argsort(v, kind="stable"))

    @pytest.mark.parametrize("xs", [[], [5], [-5], [0, 0], [3, -1]])
    def test_tiny_inputs(self, xs):
        v = np.array(xs, dtype=np.int64)
        np.testing.assert_array_equal(stable_argsort_desc(v), np.argsort(-v, kind="stable"))
        np.testing.assert_array_equal(stable_argsort(v), np.argsort(v, kind="stable"))

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint16, np.uint64])
    def test_narrow_and_unsigned_dtypes(self, dtype):
        v = np.random.default_rng(3).integers(0, 100, 500).astype(dtype)
        wide = v.astype(np.int64)
        np.testing.assert_array_equal(stable_argsort_desc(v), np.argsort(-wide, kind="stable"))
        np.testing.assert_array_equal(stable_argsort(v), np.argsort(wide, kind="stable"))

    def test_overflowing_key_falls_back(self):
        # (max − min + 1) · 2ᵇ exceeds int64 for a span of 2⁶³ − 1 and n = 5
        v = np.array([2**62, -(2**62), 5, 2**62, -(2**62) + 1], dtype=np.int64)
        assert _key_argsort(v, descending=True) is None
        assert _key_argsort(v, descending=False) is None
        np.testing.assert_array_equal(stable_argsort_desc(v), np.argsort(-v, kind="stable"))
        np.testing.assert_array_equal(stable_argsort(v), np.argsort(v, kind="stable"))
        # a uint64 above int64's range cannot be keyed either
        big = np.array([2**64 - 1, 0, 2**64 - 1], dtype=np.uint64)
        assert _key_argsort(big, descending=False) is None
        np.testing.assert_array_equal(stable_argsort(big), [1, 0, 2])

    def test_floats_take_the_stable_argsort(self):
        v = np.array([0.5, -1.0, 0.5, 2.0])
        assert _key_argsort(v, descending=True) is None
        np.testing.assert_array_equal(stable_argsort_desc(v), np.argsort(-v, kind="stable"))


class TestPairsToSet:
    def test_roundtrip(self):
        pairs = np.array([[0, 1], [1, 0], [2, 2]])
        assert pairs_to_set(pairs) == {(0, 1), (1, 0), (2, 2)}

    def test_empty(self):
        assert pairs_to_set(np.empty((0, 2), dtype=np.int64)) == set()

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            pairs_to_set(np.zeros((3, 3)))
