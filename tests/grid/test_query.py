"""Unit and property tests for the vectorized grid range-query path."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    brute_force_neighbor_counts,
    brute_force_pairs,
    kdtree_pairs,
)
from repro.grid import GridIndex
from repro.grid.bipartite import bipartite_neighbor_counts, bipartite_pairs
from repro.grid.query import (
    grid_neighbor_counts,
    grid_selfjoin_pairs,
    iter_candidate_blocks,
)


def canon(pairs):
    if len(pairs) == 0:
        return np.empty((0, 2), dtype=np.int64)
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


class TestCandidateBlocks:
    def test_blocks_cover_each_candidate_once(self, small_uniform_2d):
        idx = GridIndex(small_uniform_2d, 1.0)
        seen = {}
        for qi, cj in iter_candidate_blocks(idx):
            for a, b in zip(qi.tolist(), cj.tolist()):
                key = (a, b)
                seen[key] = seen.get(key, 0) + 1
        assert all(v == 1 for v in seen.values())
        # identity candidates always present
        for i in range(idx.num_points):
            assert (i, i) in seen

    def test_chunking_preserves_coverage(self, small_uniform_2d):
        idx = GridIndex(small_uniform_2d, 1.0)
        big = sum(len(qi) for qi, _ in iter_candidate_blocks(idx, chunk_pairs=10**9))
        small = sum(len(qi) for qi, _ in iter_candidate_blocks(idx, chunk_pairs=17))
        assert big == small

    def test_restricted_queries(self, small_uniform_2d):
        idx = GridIndex(small_uniform_2d, 1.0)
        subset = np.array([3, 10, 50])
        for qi, _ in iter_candidate_blocks(idx, subset):
            assert np.isin(qi, subset).all()

    def test_empty_index(self):
        idx = GridIndex(np.empty((0, 2)), 1.0)
        assert list(iter_candidate_blocks(idx)) == []

    def test_invalid_chunk(self, small_uniform_2d):
        idx = GridIndex(small_uniform_2d, 1.0)
        with pytest.raises(ValueError):
            list(iter_candidate_blocks(idx, chunk_pairs=0))


class TestNeighborCounts:
    def test_matches_brute_force(self, small_expo_2d):
        idx = GridIndex(small_expo_2d, 0.3)
        np.testing.assert_array_equal(
            grid_neighbor_counts(idx),
            brute_force_neighbor_counts(small_expo_2d, 0.3),
        )

    def test_subset_alignment(self, small_uniform_2d):
        idx = GridIndex(small_uniform_2d, 1.0)
        subset = np.array([7, 3, 11])
        counts = grid_neighbor_counts(idx, subset)
        full = brute_force_neighbor_counts(small_uniform_2d, 1.0)
        np.testing.assert_array_equal(counts, full[subset])

    def test_exclude_self(self, small_uniform_2d):
        idx = GridIndex(small_uniform_2d, 1.0)
        with_self = grid_neighbor_counts(idx)
        without = grid_neighbor_counts(idx, include_self=False)
        np.testing.assert_array_equal(with_self, without + 1)


class TestSelfJoinPairs:
    @given(
        seed=st.integers(0, 2**31 - 1),
        ndim=st.integers(1, 4),
        eps=st.floats(0.1, 1.2),
    )
    @settings(max_examples=20)
    def test_property_matches_brute_force(self, seed, ndim, eps):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 3, size=(100, ndim))
        idx = GridIndex(pts, eps)
        got = canon(grid_selfjoin_pairs(idx))
        np.testing.assert_array_equal(got, brute_force_pairs(pts, eps))

    def test_matches_kdtree(self, small_expo_2d):
        idx = GridIndex(small_expo_2d, 0.25)
        np.testing.assert_array_equal(
            canon(grid_selfjoin_pairs(idx)), kdtree_pairs(small_expo_2d, 0.25)
        )

    def test_boundary_distance_inclusive(self):
        pts = np.array([[0.0, 0.0], [0.5, 0.0]])
        idx = GridIndex(pts, 0.5)
        pairs = canon(grid_selfjoin_pairs(idx))
        assert (0, 1) in set(map(tuple, pairs.tolist()))

    def test_small_chunks_same_result(self, small_uniform_2d):
        idx = GridIndex(small_uniform_2d, 1.0)
        a = canon(grid_selfjoin_pairs(idx))
        b = canon(grid_selfjoin_pairs(idx, chunk_pairs=13))
        np.testing.assert_array_equal(a, b)


class TestSelfJoinIsBipartiteAEqualsB:
    """The self-join is the similarity join of a dataset with itself: both
    walk the same candidate blocks through the same ε test."""

    @given(
        seed=st.integers(0, 2**31 - 1),
        ndim=st.integers(1, 4),
        n=st.integers(1, 80),
        steps=st.integers(1, 4),
    )
    @settings(max_examples=25)
    def test_counts_and_pairs_agree(self, seed, ndim, n, steps):
        # a coarse lattice: duplicate points and many pairs at exactly ε
        rng = np.random.default_rng(seed)
        pts = rng.integers(0, 6, size=(n, ndim)) * 0.25
        idx = GridIndex(pts, 0.25 * steps)
        np.testing.assert_array_equal(
            bipartite_neighbor_counts(idx, idx.points), grid_neighbor_counts(idx)
        )
        np.testing.assert_array_equal(
            canon(bipartite_pairs(idx, idx.points)), canon(grid_selfjoin_pairs(idx))
        )
