"""Cross-validation of the two oracles against each other."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    brute_force_neighbor_counts,
    brute_force_pairs,
    kdtree_pairs,
)


class TestBruteForce:
    def test_self_pairs_present(self):
        pts = np.random.default_rng(0).uniform(0, 10, (20, 2))
        pairs = brute_force_pairs(pts, 1e-9)
        assert len(pairs) == 20
        assert (pairs[:, 0] == pairs[:, 1]).all()

    def test_symmetry(self):
        pts = np.random.default_rng(1).uniform(0, 3, (50, 2))
        got = set(map(tuple, brute_force_pairs(pts, 0.5).tolist()))
        assert all((j, i) in got for i, j in got)

    def test_counts_match_pairs(self):
        pts = np.random.default_rng(2).uniform(0, 3, (60, 3))
        pairs = brute_force_pairs(pts, 0.6)
        counts = brute_force_neighbor_counts(pts, 0.6)
        binc = np.bincount(pairs[:, 0], minlength=60)
        np.testing.assert_array_equal(counts, binc)

    def test_block_size_invariance(self):
        pts = np.random.default_rng(3).uniform(0, 2, (41, 2))
        a = brute_force_pairs(pts, 0.4, block=7)
        b = brute_force_pairs(pts, 0.4, block=1000)
        np.testing.assert_array_equal(a, b)

    def test_block_validation(self):
        with pytest.raises(ValueError):
            brute_force_pairs(np.zeros((2, 2)), 1.0, block=0)

    def test_empty(self):
        assert len(brute_force_pairs(np.empty((0, 2)), 1.0)) == 0

    def test_exclude_self_counts(self):
        pts = np.zeros((5, 2))
        counts = brute_force_neighbor_counts(pts, 1.0, include_self=False)
        np.testing.assert_array_equal(counts, [4] * 5)

    def test_huge_coordinates_warn_nothing(self):
        # squaring 1e300 overflows to inf, which is above every ε²
        pts = np.array([[1e300, 0.0], [0.0, 0.0], [0.5, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pairs = brute_force_pairs(pts, 1.0)
            counts = brute_force_neighbor_counts(pts, 1.0)
        assert pairs.tolist() == [[0, 0], [1, 1], [1, 2], [2, 1], [2, 2]]
        np.testing.assert_array_equal(counts, [1, 2, 2])


class TestOraclesAgree:
    @given(
        seed=st.integers(0, 2**31 - 1),
        ndim=st.integers(1, 4),
        eps=st.floats(0.05, 1.5),
        include_self=st.booleans(),
    )
    @settings(max_examples=25)
    def test_bruteforce_equals_kdtree(self, seed, ndim, eps, include_self):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 3, size=(70, ndim))
        bf = brute_force_pairs(pts, eps, include_self=include_self)
        kd = kdtree_pairs(pts, eps, include_self=include_self)
        np.testing.assert_array_equal(bf, kd)

    def test_kdtree_empty(self):
        assert len(kdtree_pairs(np.empty((0, 2)), 1.0)) == 0
