"""Unit and property tests for workload quantification and SORTBYWL."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.baselines import brute_force_neighbor_counts
from repro.core.patterns import PATTERN_NAMES, PatternPlan, get_pattern_plan
from repro.core.sortbywl import (
    cell_workloads,
    pattern_workload_components,
    point_workloads,
    sort_by_workload,
)
from repro.grid import (
    GridIndex,
    neighbor_offsets,
    neighbor_ranks_for_offset,
    neighbor_ranks_of_cell,
)
from repro.util import gather_slices


def build_index(seed: int, ndim: int = 2, n: int = 150, eps: float = 0.6):
    rng = np.random.default_rng(seed)
    return GridIndex(rng.exponential(0.7, size=(n, ndim)), eps)


class TestWorkloadComponents:
    def test_full_candidates_match_neighbor_populations(self):
        idx = build_index(0)
        comps = pattern_workload_components(idx, "full")
        for r in range(idx.num_nonempty_cells):
            nbrs = neighbor_ranks_of_cell(idx, r)  # includes self
            expected = idx.cell_counts[nbrs].sum()
            assert comps.candidates[r] == expected

    def test_candidates_upper_bound_neighbor_counts(self):
        """Candidates are a superset of true neighbors: workload >= result."""
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 5, (200, 2))
        idx = GridIndex(pts, 0.5)
        wl = point_workloads(idx, "full")
        true = brute_force_neighbor_counts(pts, 0.5)
        assert (wl >= true).all()

    def test_half_patterns_halve_cross_cell_work(self):
        """Summed over all points, unicomp/lid candidate work equals
        own-cell work plus exactly half the cross-cell work of full."""
        idx = build_index(1)
        full = pattern_workload_components(idx, "full")
        own = idx.cell_counts
        cross_full = (full.candidates - own) * idx.cell_counts  # per-point x points
        for pattern in ("unicomp", "lidunicomp"):
            comps = pattern_workload_components(idx, pattern)
            cross = (comps.candidates - own) * idx.cell_counts
            assert cross.sum() * 2 == cross_full.sum()

    def test_visited_cells_include_own(self):
        idx = build_index(2)
        for pattern in ("full", "unicomp", "lidunicomp"):
            comps = pattern_workload_components(idx, pattern)
            assert (comps.visited_cells >= 1).all()

    def test_full_visited_counts_in_bounds_neighbors(self):
        # single occupied cell in the middle of its own bounding box:
        # the box degenerates to one cell, so only the own cell is in bounds
        idx = GridIndex(np.array([[0.5, 0.5], [0.6, 0.6]]), 1.0)
        comps = pattern_workload_components(idx, "full")
        assert comps.visited_cells[0] == 1


class TestSortByWorkload:
    def test_is_a_permutation(self):
        idx = build_index(3)
        order = sort_by_workload(idx, "full")
        assert sorted(order.tolist()) == list(range(idx.num_points))

    def test_point_workloads_non_increasing_along_order(self):
        idx = build_index(4)
        for pattern in ("full", "lidunicomp"):
            order = sort_by_workload(idx, pattern)
            wl = point_workloads(idx, pattern)[order]
            assert (np.diff(wl) <= 0).all()

    def test_points_stay_grouped_by_cell(self):
        idx = build_index(5)
        order = sort_by_workload(idx, "full")
        ranks = idx.point_cell_rank[order]
        # each cell's points are contiguous in the sorted order
        changes = np.flatnonzero(np.diff(ranks) != 0)
        assert len(np.unique(ranks[np.append(changes, len(ranks) - 1)])) == len(
            np.unique(ranks)
        )

    @given(seed=st.integers(0, 2**31 - 1), ndim=st.integers(1, 3))
    def test_property_permutation_and_monotonicity(self, seed, ndim):
        idx = build_index(seed, ndim=ndim, n=80, eps=0.9)
        order = sort_by_workload(idx, "full")
        assert sorted(order.tolist()) == list(range(idx.num_points))
        wl = point_workloads(idx, "full")[order]
        assert (np.diff(wl) <= 0).all()

    def test_uniform_single_cell_noop(self):
        idx = GridIndex(np.ones((20, 2)) * 0.5, 1.0)
        order = sort_by_workload(idx)
        np.testing.assert_array_equal(order, np.arange(20))

    def test_empty_dataset(self):
        idx = GridIndex(np.empty((0, 2)), 1.0)
        assert len(sort_by_workload(idx)) == 0
        assert len(cell_workloads(idx)) == 0


def _masked_workloads(index, pattern):
    """Per-cell workloads by the boolean-mask loop ``cell_workloads``
    replaced, kept as the reference."""
    plan = PatternPlan(pattern, index)
    cand = index.cell_counts.copy()
    for oi, off in enumerate(neighbor_offsets(index.ndim)):
        mask = plan.take_mask(oi)
        if not mask.any():
            continue
        ranks = neighbor_ranks_for_offset(index, off)
        hit = mask & (ranks >= 0)
        cand[hit] += index.cell_counts[ranks[hit]]
    return cand


class TestCellWorkloadTotals:
    @given(
        seed=st.integers(0, 2**31 - 1),
        ndim=st.integers(1, 4),
        pattern=st.sampled_from(PATTERN_NAMES),
    )
    def test_equal_masked_reference_and_sortbywl_order(self, seed, ndim, pattern):
        idx = build_index(seed, ndim=ndim, n=90, eps=0.8)
        ref = _masked_workloads(idx, pattern)
        got = cell_workloads(idx, pattern)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        # the SORTBYWL permutation: cells by non-increasing workload, stable
        cells = np.argsort(-ref, kind="stable")
        expect = gather_slices(idx.point_order, idx.cell_starts[cells], idx.cell_counts[cells])
        np.testing.assert_array_equal(sort_by_workload(idx, pattern), expect)

    def test_computed_once_per_index_and_pattern(self):
        idx = build_index(6)
        for pattern in PATTERN_NAMES:
            totals = cell_workloads(idx, pattern)
            assert cell_workloads(idx, pattern) is totals
            assert get_pattern_plan(pattern, idx).candidate_counts() is totals
            assert not totals.flags.writeable
