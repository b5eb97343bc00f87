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
    BLOCK_PAIRS,
    candidate_blocks,
    cell_runs,
    grid_neighbor_counts,
    grid_selfjoin_pairs,
    iter_candidate_blocks,
)
from repro.util import gather_slices


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


def _id_blocks(index, queries, cells, *, chunk_pairs=None):
    """The id-candidate walker the slot walker replaced: each block's
    candidates gathered from ``point_order`` per candidate."""
    bound = BLOCK_PAIRS if chunk_pairs is None else chunk_pairs
    valid = cells >= 0
    q_sel = queries[valid]
    n_sel = cells[valid]
    lengths = index.cell_counts[n_sel]
    csum = np.cumsum(lengths)
    start = 0
    while start < len(q_sel):
        base = csum[start - 1] if start > 0 else 0
        stop = int(np.searchsorted(csum, base + bound, side="right"))
        stop = min(max(stop, start + 1), len(q_sel))
        lens = lengths[start:stop]
        qi = np.repeat(q_sel[start:stop], lens)
        cj = gather_slices(index.point_order, index.cell_starts[n_sel[start:stop]], lens)
        yield qi, cj
        start = stop


class TestSlotRuns:
    """``candidate_blocks`` walks slot runs; mapped through ``point_order``
    its blocks are the id walker's, block for block."""

    @given(
        seed=st.integers(0, 2**31 - 1),
        ndim=st.integers(1, 3),
        chunk=st.sampled_from([1, 5, 37, None]),
    )
    @settings(max_examples=30)
    def test_slots_map_to_id_candidates(self, seed, ndim, chunk):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 3, size=(int(rng.integers(1, 120)), ndim))
        index = GridIndex(pts, float(rng.uniform(0.2, 1.5)))
        queries = rng.permutation(index.num_points).astype(np.int64)
        cells = rng.integers(-1, index.num_nonempty_cells, len(queries))
        got = list(candidate_blocks(*cell_runs(index, queries, cells), chunk_pairs=chunk))
        ref = list(_id_blocks(index, queries, cells, chunk_pairs=chunk))
        assert len(got) == len(ref)
        for (qi, slots), (ref_qi, ref_cj) in zip(got, ref):
            assert np.array_equal(qi, ref_qi)
            assert np.array_equal(index.point_order[slots], ref_cj)

    def test_block_bounds_with_one_oversized_run(self):
        rng = np.random.default_rng(11)
        # one dense cell of 50 points among sparse ones
        pts = np.concatenate([rng.uniform(0, 0.1, (50, 2)), rng.uniform(1, 9, (40, 2))])
        index = GridIndex(pts, 0.5)
        queries = np.arange(index.num_points, dtype=np.int64)
        cells = index.point_cell_rank[queries]
        chunk = 20
        blocks = list(candidate_blocks(*cell_runs(index, queries, cells), chunk_pairs=chunk))
        for qi, slots in blocks:
            assert len(qi) == len(slots) > 0
            assert len(qi) <= chunk or np.unique(qi).size == 1
        assert any(len(qi) > chunk for qi, _ in blocks)  # the dense cell's runs
        total = sum(len(qi) for qi, _ in blocks)
        assert total == int(index.cell_counts[cells].sum())

    def test_arbitrary_runs_match_a_loop(self):
        rng = np.random.default_rng(3)
        starts = rng.integers(0, 100, 60)
        lengths = rng.integers(-2, 9, 60)  # empty runs, some negative
        queries = np.arange(60, dtype=np.int64) * 10
        expect_q, expect_s = [], []
        for q, s0, n in zip(queries, starts, lengths):
            for s in range(s0, s0 + max(n, 0)):
                expect_q.append(q)
                expect_s.append(s)
        blocks = list(candidate_blocks(queries, starts, lengths, chunk_pairs=7))
        assert all(len(qi) for qi, _ in blocks)
        assert np.concatenate([qi for qi, _ in blocks]).tolist() == expect_q
        assert np.concatenate([s for _, s in blocks]).tolist() == expect_s


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
