"""End-to-end integration: catalog datasets, replay fidelity, queue
persistence, pipeline consistency."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import brute_force_pairs
from repro.bench.experiments import load_bench_dataset
from repro.core import PRESETS, SelfJoin
from repro.data import CATALOG
from repro.runtime import RuntimeConfig


class TestCatalogDatasets:
    """Every Table I dataset family runs end-to-end and stays exact."""

    @pytest.mark.parametrize(
        "name", ["Unif2D2M", "Expo2D2M", "Unif6D2M", "SW3DA", "Gaia"]
    )
    def test_exact_at_small_scale(self, name):
        pts = load_bench_dataset(name, size=250, seed=3)
        eps = {"Unif2D2M": 0.8, "Expo2D2M": 0.02, "Unif6D2M": 12.0,
               "SW3DA": 8.0, "Gaia": 4.0}[name]
        res = SelfJoin(PRESETS["combined"]).execute(pts, eps)
        np.testing.assert_array_equal(res.sorted_pairs(), brute_force_pairs(pts, eps))

    def test_all_catalog_entries_generate(self):
        for name in CATALOG:
            pts = load_bench_dataset(name, size=80, seed=0)
            assert pts.shape == (80, CATALOG[name].ndim)
            assert np.isfinite(pts).all()


class TestReplayFidelity:
    def test_lockstep_never_faster_than_aggregate(self, rng):
        pts = np.concatenate(
            [rng.normal(1, 0.2, (200, 2)), rng.uniform(0, 5, (200, 2))]
        )
        agg = SelfJoin(runtime=RuntimeConfig(seed=1, replay_mode="aggregate")).execute(pts, 0.3)
        lock = SelfJoin(runtime=RuntimeConfig(seed=1, replay_mode="lockstep")).execute(pts, 0.3)
        np.testing.assert_array_equal(agg.sorted_pairs(), lock.sorted_pairs())
        assert lock.kernel_seconds >= agg.kernel_seconds
        # lockstep serializes per event (pessimistic: every cell visit is a
        # divergence point); the bracket [1x, ~6x] bounds the abstraction
        assert lock.kernel_seconds <= 6.0 * agg.kernel_seconds

    def test_invalid_mode_rejected_at_launch(self, rng):
        pts = rng.uniform(0, 2, (40, 2))
        with pytest.raises(ValueError, match="replay mode"):
            SelfJoin(runtime=RuntimeConfig(replay_mode="quantum")).execute(pts, 0.5)


class TestQueuePersistence:
    def test_counter_spans_batches(self, rng):
        """The queue is persistent across kernel invocations: total fetches
        equal |D| (k=1) even with many batches."""
        pts = np.concatenate(
            [rng.normal(1, 0.15, (300, 2)), rng.uniform(0, 5, (300, 2))]
        )
        cfg = PRESETS["workqueue"].with_(batch_result_capacity=3000)
        res = SelfJoin(cfg).execute(pts, 0.3)
        assert res.num_batches > 2
        # every point appears exactly once as a query of exactly one batch:
        # the one-direction own-cell emissions cover each point at least once
        queried = np.unique(res.pairs[:, 0])
        np.testing.assert_array_equal(queried, np.arange(600))

    def test_workqueue_batches_heavy_first(self, rng):
        """The first batch must carry more result rows per point than the
        last (most-work-first order)."""
        pts = np.concatenate(
            [rng.normal(1, 0.1, (300, 2)), rng.uniform(0, 6, (300, 2))]
        )
        cfg = PRESETS["workqueue"].with_(batch_result_capacity=5000)
        res = SelfJoin(cfg).execute(pts, 0.3)
        assert res.num_batches >= 2
        first_kernel = res.batch_stats[0]
        last_kernel = res.batch_stats[-1]
        # same thread count per batch, but the first batch's warps are
        # heavier
        mean_busy = lambda s: np.mean([w.warp_cycles for w in s.warp_stats])
        assert mean_busy(first_kernel) > mean_busy(last_kernel)


class TestPipelineConsistency:
    def test_total_time_bounds(self, rng):
        pts = rng.uniform(0, 6, (400, 2))
        res = SelfJoin(PRESETS["workqueue"].with_(batch_result_capacity=2000)).execute(
            pts, 0.5
        )
        kern = sum(s.seconds for s in res.batch_stats)
        assert res.total_seconds >= kern
        # transfers can't more than double it at these sizes
        assert res.total_seconds <= kern + res.pipeline.transfer_end[-1]

    def test_stream_count_effect(self, rng):
        pts = np.concatenate(
            [rng.normal(1, 0.15, (250, 2)), rng.uniform(0, 5, (250, 2))]
        )
        base = PRESETS["workqueue"].with_(batch_result_capacity=2500)
        one_stream = RuntimeConfig(optimization=base.with_(num_streams=1), seed=2)
        three_streams = RuntimeConfig(optimization=base.with_(num_streams=3), seed=2)
        one = SelfJoin(runtime=one_stream).execute(pts, 0.3)
        three = SelfJoin(runtime=three_streams).execute(pts, 0.3)
        assert three.total_seconds <= one.total_seconds + 1e-12
        np.testing.assert_array_equal(one.sorted_pairs(), three.sorted_pairs())
