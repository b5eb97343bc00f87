"""Unit tests for WorkloadProfile."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.baselines import brute_force_neighbor_counts
from repro.grid import GridIndex, query
from repro.perfmodel import WorkloadProfile


@pytest.fixture
def profile(rng):
    pts = np.concatenate(
        [rng.normal(2, 0.3, (300, 2)), rng.uniform(0, 8, (300, 2))]
    )
    return WorkloadProfile(GridIndex(pts, 0.4))


class TestNeighborCounts:
    def test_exact(self, profile):
        np.testing.assert_array_equal(
            profile.neighbor_counts(),
            brute_force_neighbor_counts(profile.index.points, 0.4),
        )

    def test_cached(self, profile):
        a = profile.neighbor_counts()
        assert profile.neighbor_counts() is a

    def test_total_result_size(self, profile):
        assert profile.total_result_size() == profile.neighbor_counts().sum()


class TestEstimators:
    def test_full_fraction_exact(self, profile):
        assert profile.estimate_strided(1.0) == profile.total_result_size()

    def test_head_overestimates(self, profile):
        assert profile.estimate_head(0.05, "full") >= profile.total_result_size()

    def test_strided_reasonable(self, profile):
        est = profile.estimate_strided(0.1)
        true = profile.total_result_size()
        assert 0.4 * true <= est <= 2.5 * true


class TestEmittedRows:
    def test_full_equals_neighbor_counts(self, profile):
        np.testing.assert_array_equal(
            profile.emitted_rows("full"), profile.neighbor_counts()
        )

    @pytest.mark.parametrize("pattern", ["unicomp", "lidunicomp"])
    def test_half_pattern_totals_match_result_size(self, profile, pattern):
        """Mirroring redistributes rows across points but conserves the sum."""
        assert profile.emitted_rows(pattern).sum() == profile.total_result_size()

    def test_half_pattern_distribution_differs(self, profile):
        full = profile.emitted_rows("full")
        lid = profile.emitted_rows("lidunicomp")
        assert (full != lid).any()

    def test_own_cell_hits_bounded(self, profile):
        own = profile._own_cell_hits()
        assert (own >= 1).all()  # self pair at minimum
        assert (own <= profile.neighbor_counts()).all()

    def test_own_cell_hits_walk_bounded_blocks(self, rng, monkeypatch):
        """One cell of 1,500 points holds 2.25M own-cell pairs: built at
        once they peak near 100 MB, walked in 20k-pair blocks near 1 MB."""
        pts = rng.uniform(0.0, 0.99, size=(1500, 2))
        index = GridIndex(pts, 1.0)
        assert index.num_nonempty_cells == 1
        monkeypatch.setattr(query, "BLOCK_PAIRS", 20_000)
        profile = WorkloadProfile(index)
        tracemalloc.start()
        try:
            own = profile._own_cell_hits()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(own, brute_force_neighbor_counts(pts, 1.0))
        assert peak < 4 * 2**20

    def test_exclude_self(self, rng):
        pts = rng.uniform(0, 4, (200, 2))
        p = WorkloadProfile(GridIndex(pts, 0.5), include_self=False)
        np.testing.assert_array_equal(
            p.neighbor_counts(),
            brute_force_neighbor_counts(pts, 0.5, include_self=False),
        )
        assert p.emitted_rows("lidunicomp").sum() == p.total_result_size()


class TestComponentsCache:
    def test_components_cached_per_pattern_k(self, profile):
        a = profile.components("full", 1)
        assert profile.components("full", 1) is a
        b = profile.components("full", 8)
        assert b is not a
        assert b.thread_candidates.shape[0] == 8

    def test_sorted_order_cached(self, profile):
        a = profile.sorted_order("full")
        assert profile.sorted_order("full") is a

    def test_total_candidates_halved_by_patterns(self, profile):
        full = profile.total_candidates("full")
        lid = profile.total_candidates("lidunicomp")
        uni = profile.total_candidates("unicomp")
        assert lid == uni  # both take exactly half the cross-cell work
        assert lid < full
