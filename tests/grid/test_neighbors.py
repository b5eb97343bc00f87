"""Unit and property tests for neighbor-cell enumeration."""

from __future__ import annotations

import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import patterns
from repro.core.patterns import PATTERN_NAMES, PatternPlan
from repro.grid import (
    GridIndex,
    neighbor_offsets,
    neighbor_ranks_for_offset,
    neighbor_ranks_of_cell,
    neighbors,
)
from repro.grid.neighbors import DENSE_CELLS_PER_NONEMPTY, NeighborTable, offset_linear_deltas


class TestNeighborOffsets:
    def test_count_is_3_pow_n(self):
        for n in range(1, 5):
            assert neighbor_offsets(n).shape == (3**n, n)

    def test_zero_offset_is_middle_row(self):
        for n in range(1, 5):
            offs = neighbor_offsets(n)
            assert (offs[3**n // 2] == 0).all()

    def test_offsets_unique(self):
        offs = neighbor_offsets(3)
        assert len(np.unique(offs, axis=0)) == 27

    def test_cached_and_readonly(self):
        a = neighbor_offsets(2)
        b = neighbor_offsets(2)
        assert a is b
        assert not a.flags.writeable


class TestOffsetLinearDeltas:
    def test_antisymmetric(self):
        rng = np.random.default_rng(1)
        idx = GridIndex(rng.uniform(0, 8, (100, 3)), 1.0)
        offs = neighbor_offsets(3)
        deltas = offset_linear_deltas(idx, offs)
        # delta(-off) == -delta(off); offsets array is symmetric under reversal
        np.testing.assert_array_equal(deltas, -deltas[::-1])

    def test_exactly_half_positive(self):
        rng = np.random.default_rng(2)
        for ndim in (1, 2, 3, 4):
            idx = GridIndex(rng.uniform(0, 6, (60, ndim)), 1.0)
            deltas = offset_linear_deltas(idx)
            nonzero = deltas[deltas != 0]
            assert len(nonzero) == 3**ndim - 1
            assert (nonzero > 0).sum() == (3**ndim - 1) // 2


class TestNeighborRanks:
    def test_self_always_included(self, small_uniform_2d):
        idx = GridIndex(small_uniform_2d, 1.0)
        for r in range(idx.num_nonempty_cells):
            assert r in neighbor_ranks_of_cell(idx, r)

    def test_include_self_false(self, small_uniform_2d):
        idx = GridIndex(small_uniform_2d, 1.0)
        assert 0 not in neighbor_ranks_of_cell(idx, 0, include_self=False)

    def test_per_offset_agrees_with_per_cell(self, small_expo_2d):
        idx = GridIndex(small_expo_2d, 0.3)
        offs = neighbor_offsets(2)
        per_offset = np.stack(
            [neighbor_ranks_for_offset(idx, o) for o in offs], axis=1
        )
        for r in range(idx.num_nonempty_cells):
            expected = set(neighbor_ranks_of_cell(idx, r).tolist())
            got = set(per_offset[r][per_offset[r] >= 0].tolist())
            assert got == expected

    @given(seed=st.integers(0, 2**32 - 1), ndim=st.integers(1, 3))
    def test_neighbor_relation_symmetric(self, seed, ndim):
        """If cell b is a's neighbor then a is b's neighbor."""
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 4, size=(60, ndim))
        idx = GridIndex(pts, 0.9)
        neigh = [
            set(neighbor_ranks_of_cell(idx, r).tolist())
            for r in range(idx.num_nonempty_cells)
        ]
        for a in range(idx.num_nonempty_cells):
            for b in neigh[a]:
                assert a in neigh[b]

    @given(seed=st.integers(0, 2**32 - 1))
    def test_neighbors_differ_by_at_most_one_per_dim(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 5, size=(80, 2))
        idx = GridIndex(pts, 0.7)
        for r in range(0, idx.num_nonempty_cells, 5):
            mine = idx.cell_coords_arr[r]
            for nb in neighbor_ranks_of_cell(idx, r):
                assert np.abs(idx.cell_coords_arr[nb] - mine).max() <= 1

    def test_boundary_cells_have_fewer_neighbors(self):
        # a dense 5x5 block: corner cell has 4 candidate positions,
        # inner cell has 9
        pts = np.array(
            [[x + 0.5, y + 0.5] for x in range(5) for y in range(5)], dtype=float
        )
        idx = GridIndex(pts, 1.0)
        corner = idx.lookup(idx.spec.linearize(np.array([[0, 0]])))[0]
        inner = idx.lookup(idx.spec.linearize(np.array([[2, 2]])))[0]
        assert len(neighbor_ranks_of_cell(idx, int(corner))) == 4
        assert len(neighbor_ranks_of_cell(idx, int(inner))) == 9


# ----------------------------------------------------------------------
# The neighbour table against the probes it replaced
# ----------------------------------------------------------------------
def reference_probe(index, queries):
    """The per-query probe the table replaced, kept as the bipartite
    reference: unclamped cell + offset, in-bounds test, linearize, binary
    search. Out-of-grid coordinates are never linearized."""
    coords = index.spec.cell_coords(queries, clamp=False)
    for off in neighbor_offsets(index.ndim):
        probe = coords + off
        inside = index.spec.in_bounds(probe)
        ranks = np.full(len(coords), -1, dtype=np.int64)
        if inside.any():
            ranks[inside] = index.lookup(index.spec.linearize(probe[inside]))
        yield inside, ranks


def probe_before_saturation(table, queries):
    """:meth:`NeighborTable.probe` as it was when unclamped cell
    coordinates were cast to int64 unchecked: the reference for every
    query whose cell coordinates int64 holds."""
    spec = table.spec
    coords = np.empty(queries.shape, dtype=np.int64)
    for d in range(spec.ndim):
        col = queries[:, d] - spec.mins[d]
        col /= spec.cell_length
        np.floor(col, out=col)
        coords[:, d] = col.astype(np.int64)
    edges = neighbors._edge_words(coords, spec.widths, 3)
    near = np.flatnonzero(((coords >= -1) & (coords <= spec.widths)).all(axis=1))
    base = np.zeros(len(coords), dtype=np.int64)
    base[near] = spec.linearize(coords.take(near, axis=0))
    by_id = None if table.dense is not None else near[np.argsort(base[near], kind="stable")]
    for oi, word in enumerate(table._query_words):
        inside = (edges & word) == 0
        ranks = np.full(len(coords), -1, dtype=np.int32)
        hit = np.flatnonzero(inside) if by_id is None else by_id[inside[by_id]]
        if len(hit):
            ranks[hit] = table.lookup(base[hit] + table.deltas[oi])
        yield inside, ranks


def reference_ranks_for_offset(index, offset):
    """``neighbor_ranks_for_offset`` as computed before the table."""
    coords = index.cell_coords_arr + offset
    inside = index.spec.in_bounds(coords)
    ranks = np.full(index.num_nonempty_cells, -1, dtype=np.int64)
    if inside.any():
        ranks[inside] = index.lookup(index.spec.linearize(coords[inside]))
    return ranks


def reference_offset_visits(plan, offset_idx):
    """``PatternPlan.offset_visits`` as computed before the table."""
    index = plan.index
    take = plan.take_mask(offset_idx)
    visit = np.zeros(index.num_nonempty_cells, dtype=bool)
    ranks = np.full(index.num_nonempty_cells, -1, dtype=np.int64)
    if take.any():
        coords = index.cell_coords_arr[take] + neighbor_offsets(index.ndim)[offset_idx]
        inside = index.spec.in_bounds(coords)
        visit[np.flatnonzero(take)[inside]] = True
        ranks[visit] = index.lookup(index.spec.linearize(coords[inside]))
    return visit, ranks


def reference_cells_for_rank(plan, cell_rank):
    """``PatternPlan.cells_for_rank`` as computed before the table."""
    index = plan.index
    offs = neighbor_offsets(index.ndim)
    take = np.array([plan.take_mask(oi)[cell_rank] for oi in range(len(offs))])
    coords = index.cell_coords_arr[cell_rank] + offs[take]
    inside = index.spec.in_bounds(coords)
    visited = np.flatnonzero(take)[inside]
    ranks = index.lookup(index.spec.linearize(coords[inside]))
    return visited, ranks


def reference_visited_counts(plan):
    """``PatternPlan.visited_counts`` and ``live_offsets`` as the loop of
    one ``offset_visits`` pass per pattern offset computed them before
    offsets were grouped."""
    cells = np.arange(plan.index.num_nonempty_cells)
    total = np.zeros(len(cells), dtype=np.int64)
    live = []
    for o in plan.pattern_offsets():
        visit, ranks = plan.offset_visits(int(o), cells)
        total += visit
        if (ranks >= 0).any():
            live.append(o)
    return total, np.array(live, dtype=plan.pattern_offsets().dtype)


def rank_paths(index):
    """Tables over ``index`` on both rank paths: searchsorted always, and
    dense whenever the virtual grid is small enough to allocate here."""
    with mock.patch.object(neighbors, "DENSE_CELLS_PER_NONEMPTY", 0):
        tables = [NeighborTable(index)]
    if 0 < index.spec.total_cells <= 1 << 20 and index.num_nonempty_cells:
        with mock.patch.object(neighbors, "DENSE_CELLS_PER_NONEMPTY", index.spec.total_cells):
            tables.append(NeighborTable(index))
    assert [t.dense is not None for t in tables] == [False, True][: len(tables)]
    return tables


@st.composite
def grid_indexes(draw, max_dim=6):
    """Small 1–6-D indexes: width-1 dimensions (span 0 or below ε), one
    cell, no points, duplicates, and coarsened specs (tiny ε)."""
    ndim = draw(st.integers(1, max_dim))
    n = draw(st.integers(0, 24))
    spans = np.array(
        draw(st.lists(st.sampled_from([0.0, 0.2, 1.5, 4.0]), min_size=ndim, max_size=ndim))
    )
    eps = draw(st.sampled_from([0.35, 1.0, 1e-9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.uniform(0.0, 1.0, (n, ndim)) * spans
    if n and draw(st.booleans()):
        pts[rng.integers(0, n, n // 2)] = pts[0]  # duplicates
    return GridIndex(pts, eps)


class TestNeighborTable:
    @given(index=grid_indexes())
    def test_ranks_match_per_cell_reference(self, index):
        offs = neighbor_offsets(index.ndim)
        coords = index.cell_coords_arr
        for table in rank_paths(index):
            ranks = np.stack([table.ranks(oi) for oi in range(len(offs))], axis=1)
            inside = np.stack([table.inside(oi) for oi in range(len(offs))], axis=1)
            assert ranks.dtype == np.int32
            assert ranks.shape == (index.num_nonempty_cells, len(offs))
            for r in range(index.num_nonempty_cells):
                in_grid = index.spec.in_bounds(coords[r] + offs)
                np.testing.assert_array_equal(inside[r], in_grid)
                np.testing.assert_array_equal(table.cell_inside(r), in_grid)
                assert (ranks[r][~in_grid] == -1).all()
                np.testing.assert_array_equal(
                    ranks[r][ranks[r] >= 0], neighbor_ranks_of_cell(index, r)
                )
        for oi, off in enumerate(offs):
            np.testing.assert_array_equal(neighbor_ranks_for_offset(index, off), ranks[:, oi])

    @given(index=grid_indexes(), seed=st.integers(0, 2**32 - 1))
    def test_probe_matches_bipartite_reference(self, index, seed):
        # query cells at -1 and w (just outside), inside, and 10**6 cells away
        spec = index.spec
        rng = np.random.default_rng(seed)
        cells = rng.integers(-2, spec.widths + 2, size=(12, index.ndim))
        cells[0] = -1
        cells[1] = spec.widths
        cells[2, 0] = 10**6
        cells[3, -1] = -(10**6)
        queries = spec.mins + (cells + 0.5) * spec.cell_length
        assert (spec.cell_coords(queries, clamp=False) == cells).all()
        want = list(reference_probe(index, queries))
        for table in rank_paths(index):
            got = list(table.probe(queries))
            assert len(got) == len(want) == 3**index.ndim
            for (inside, ranks), (ref_inside, ref_ranks) in zip(got, want):
                np.testing.assert_array_equal(inside, ref_inside)
                np.testing.assert_array_equal(ranks, ref_ranks)
            # one query at a time, every offset in one vector op
            for q, query in enumerate(queries):
                inside, ranks = table.probe_query(query)
                assert ranks.dtype == np.int32
                np.testing.assert_array_equal(inside, [w[0][q] for w in want])
                np.testing.assert_array_equal(ranks, [w[1][q] for w in want])

    @given(
        index=grid_indexes(),
        seed=st.integers(0, 2**32 - 1),
        reach=st.sampled_from([2, 10**6, 2**40, 2**61]),
    )
    def test_probe_of_queries_whose_cells_fit_is_unchanged(self, index, seed, reach):
        # query cells up to ``reach`` outside the grid, anywhere in their cell
        spec = index.spec
        rng = np.random.default_rng(seed)
        cells = rng.integers(-reach, spec.widths + reach, size=(16, index.ndim))
        queries = spec.mins + (cells + rng.uniform(0.0, 1.0, cells.shape)) * spec.cell_length
        for table in rank_paths(index):
            want = list(probe_before_saturation(table, queries))
            for (inside, ranks), (ref_inside, ref_ranks) in zip(table.probe(queries), want):
                np.testing.assert_array_equal(inside, ref_inside)
                np.testing.assert_array_equal(ranks, ref_ranks)
            for q, query in enumerate(queries):
                inside, ranks = table.probe_query(query)
                np.testing.assert_array_equal(inside, [w[0][q] for w in want])
                np.testing.assert_array_equal(ranks, [w[1][q] for w in want])

    @given(index=grid_indexes(max_dim=4), seed=st.integers(0, 2**32 - 1))
    def test_pattern_plans_match_previous_probe(self, index, seed):
        # all cells, and a launch-like subset: unsorted, with repeats
        n = index.num_nonempty_cells
        every = np.arange(n)
        launch = np.random.default_rng(seed).integers(0, max(n, 1), size=min(n, 7) * 2)
        for pattern in PATTERN_NAMES:
            plan = PatternPlan(pattern, index)
            for oi in range(3**index.ndim):
                ref_visit, ref_ranks = reference_offset_visits(plan, oi)
                for cells in (every, launch):
                    visit, ranks = plan.offset_visits(oi, cells)
                    np.testing.assert_array_equal(visit, ref_visit[cells])
                    np.testing.assert_array_equal(ranks, ref_ranks[cells])
            for r in range(index.num_nonempty_cells):
                visited, ranks = plan.cells_for_rank(r)
                ref_visited, ref_ranks = reference_cells_for_rank(plan, r)
                np.testing.assert_array_equal(visited, ref_visited)
                np.testing.assert_array_equal(ranks, ref_ranks)

    @given(index=grid_indexes(max_dim=4))
    def test_live_offsets_are_those_with_a_nonempty_neighbour(self, index):
        for pattern in PATTERN_NAMES:
            plan = PatternPlan(pattern, index)
            live = [
                oi
                for oi in plan.pattern_offsets().tolist()
                if (reference_offset_visits(plan, oi)[1] >= 0).any()
            ]
            assert plan.live_offsets().tolist() == live
            visited = np.zeros(index.num_nonempty_cells, dtype=np.int64)
            for oi in range(3**index.ndim):
                visited += reference_offset_visits(plan, oi)[0]
            np.testing.assert_array_equal(plan.visited_counts(), visited)

    @given(
        index=grid_indexes(max_dim=8),
        entries=st.sampled_from([1, 100, patterns.VISIT_PASS_ENTRIES]),
    )
    @settings(max_examples=50, deadline=None)
    def test_grouped_visit_passes_match_the_offset_loop(self, index, entries):
        # 1 entry per pass is one offset per pass; 100 groups a few
        for pattern in PATTERN_NAMES:
            ref_counts, ref_live = reference_visited_counts(PatternPlan(pattern, index))
            with mock.patch.object(patterns, "VISIT_PASS_ENTRIES", entries):
                plan = PatternPlan(pattern, index)
                counts, live = plan.visited_counts(), plan.live_offsets()
            assert counts.dtype == ref_counts.dtype and live.dtype == ref_live.dtype
            np.testing.assert_array_equal(counts, ref_counts)
            np.testing.assert_array_equal(live, ref_live)

    @given(index=grid_indexes(), seed=st.integers(0, 2**32 - 1))
    def test_sparse_probe_matches_probe_query(self, index, seed):
        # the sparse table sorts the needles; ranks must come back per
        # query, whatever the query order, shared cells and far queries
        spec = index.spec
        rng = np.random.default_rng(seed)
        cells = rng.integers(-2, spec.widths + 2, size=(16, index.ndim))
        cells[0, 0] = 10**6
        cells[1, -1] = -(10**6)
        cells[10:] = cells[2:8]  # shared cells, later in the batch
        queries = spec.mins + (cells + rng.uniform(0.2, 0.8, cells.shape)) * spec.cell_length
        queries = queries[rng.permutation(len(queries))]
        with mock.patch.object(neighbors, "DENSE_CELLS_PER_NONEMPTY", 0):
            table = NeighborTable(index)
        assert table.dense is None
        got = list(table.probe(queries))
        for q, query in enumerate(queries):
            inside, ranks = table.probe_query(query)
            np.testing.assert_array_equal(inside, [w[0][q] for w in got])
            np.testing.assert_array_equal(ranks, [w[1][q] for w in got])

    def test_no_points(self):
        index = GridIndex(np.empty((0, 3)), 1.0)
        assert neighbor_ranks_for_offset(index, neighbor_offsets(3)[0]).shape == (0,)
        probes = list(index.neighbors.probe(np.zeros((2, 3))))
        assert all((ranks == -1).all() for _, ranks in probes)

    def test_single_cell(self):
        index = GridIndex(np.ones((5, 2)), 0.5)
        ranks = [neighbor_ranks_for_offset(index, off) for off in neighbor_offsets(2)]
        assert [int(r[0]) for r in ranks] == [-1] * 4 + [0] + [-1] * 4

    def test_coarsened_spec(self):
        index = GridIndex(np.random.default_rng(0).uniform(0, 1, (50, 3)), 1e-9)
        assert index.spec.is_coarsened and index.neighbors.dense is None
        for r in range(index.num_nonempty_cells):
            got = np.array([neighbor_ranks_for_offset(index, o)[r] for o in neighbor_offsets(3)])
            np.testing.assert_array_equal(got[got >= 0], neighbor_ranks_of_cell(index, r))

    def test_rank_path_follows_grid_density(self):
        rng = np.random.default_rng(0)
        dense = GridIndex(rng.uniform(0, 5, (2000, 2)), 0.5)
        sparse = GridIndex(rng.uniform(0, 50, (100, 2)), 0.5)
        assert dense.spec.total_cells <= DENSE_CELLS_PER_NONEMPTY * dense.num_nonempty_cells
        assert dense.neighbors.dense is not None and sparse.neighbors.dense is None

    def test_rejects_offsets_beyond_adjacent_cells(self):
        index = GridIndex(np.random.default_rng(0).uniform(0, 5, (50, 2)), 0.5)
        with pytest.raises(ValueError, match="neighbor_offsets"):
            neighbor_ranks_for_offset(index, np.array([2, 0]))
        with pytest.raises(ValueError, match="neighbor_offsets"):
            neighbor_ranks_for_offset(index, np.array([1, 0, 0]))


class TestNeighborMemo:
    def test_returned_ranks_are_read_only(self, small_uniform_2d):
        index = GridIndex(small_uniform_2d, 1.0)
        ranks = neighbor_ranks_for_offset(index, neighbor_offsets(2)[0])
        with pytest.raises(ValueError):
            ranks[0] = 5

    def test_threads_fill_the_memo_once(self):
        # four threads ask for the same offsets in the same order, so most
        # lookups race on an empty memo slot
        offs = neighbor_offsets(2)
        for seed in range(8):
            index = GridIndex(np.random.default_rng(seed).uniform(0, 100, (20_000, 2)), 0.5)
            expected = [reference_ranks_for_offset(index, off) for off in offs]
            results = [[] for _ in range(4)]
            barrier = threading.Barrier(4)

            def work(t):
                barrier.wait(timeout=30)
                for off in offs:
                    results[t].append(neighbor_ranks_for_offset(index, off))

            previous = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(previous)
            assert not any(thread.is_alive() for thread in threads)
            for oi, off in enumerate(offs):
                stored = neighbor_ranks_for_offset(index, off)
                for t in range(4):
                    assert results[t][oi] is stored
                    np.testing.assert_array_equal(results[t][oi], expected[oi])
            # 2-D: the nine offsets fit the budget, and each is counted once
            assert index.neighbors.memo_bytes == len(offs) * index.num_nonempty_cells * 4

    def test_memory_bytes_count_table_and_memo(self, small_uniform_2d):
        index = GridIndex(small_uniform_2d, 1.0)
        arrays = index.memory_bytes()
        table = index.neighbors
        assert table.memo_budget == arrays
        for off in neighbor_offsets(2):
            neighbor_ranks_for_offset(index, off)
        assert 0 < table.memo_bytes <= table.nbytes
        assert index.memory_bytes() == arrays + table.nbytes

    def test_memo_stays_within_budget_on_hidim_index(self):
        # the 6-D shape of the hidim benchmark workload: 364 half offsets,
        # each used once by the native pass
        index = GridIndex(np.random.default_rng(0).uniform(0, 100, (30_000, 6)), 15.0)
        arrays = index.memory_bytes()
        for off in neighbor_offsets(6)[3**6 // 2 + 1 :]:
            neighbor_ranks_for_offset(index, off)
        table = index.neighbors
        assert 0 < table.memo_bytes <= table.memo_budget == arrays
        assert index.memory_bytes() == arrays + table.nbytes


    def test_walk_records_then_keeps_then_replays(self, small_uniform_2d):
        table = GridIndex(small_uniform_2d, 1.0).neighbors
        assert table.walk() == (None, False)
        assert table.walk() == (None, True)
        runs = ((np.arange(3), np.arange(3), np.ones(3, dtype=np.int64)),)
        assert table.store_runs(runs)
        got, keep = table.walk()
        assert got is runs and not keep
        assert not any(a.flags.writeable for a in got[0])
        assert table.runs_bytes == table.memo_bytes == 72
        # the index has one stored walk: later runs are not stored again
        assert table.store_runs(((np.arange(5),),))
        assert table.walk()[0] is runs and table.runs_bytes == 72

    def test_runs_beyond_the_budget_are_not_stored(self, small_uniform_2d):
        def filled():
            table = GridIndex(small_uniform_2d, 1.0).neighbors
            for off in range(9):
                table.ranks(off)
            return table, table.memo_budget - table.memo_bytes

        table, room = filled()
        assert table.walk() == (None, False)
        assert table.walk() == (None, True)
        assert not table.store_runs(((np.zeros(room // 8 + 1, dtype=np.int64),),))
        # runs that did not fit are never kept again
        assert table.runs_bytes == 0 and table.walk() == (None, False)
        assert table.walk() == (None, False)
        table, room = filled()
        assert table.walk() == (None, False)
        assert not table.store_runs(None)  # outgrown while being kept
        assert table.walk() == (None, False)
        table, room = filled()
        assert table.store_runs(((np.zeros(room // 8, dtype=np.int64),),))
        assert table.runs_bytes == room // 8 * 8
        assert table.memo_bytes <= table.memo_budget
