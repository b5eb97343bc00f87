"""Integration-grade unit tests: every kernel configuration returns the
exact result set, and the simulated metrics behave sanely."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import brute_force_pairs, kdtree_pairs
from repro.core import PRESETS, OptimizationConfig, SelfJoin
from repro.runtime import RuntimeConfig
from repro.simt import DeviceSpec


def canon(pairs: np.ndarray) -> np.ndarray:
    if len(pairs) == 0:
        return pairs.reshape(0, 2)
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


@pytest.fixture(scope="module")
def mixed_points():
    rng = np.random.default_rng(99)
    dense = rng.normal(3.0, 0.3, size=(250, 2))
    sparse = rng.uniform(0, 8, size=(250, 2))
    return np.concatenate([dense, sparse])


@pytest.fixture(scope="module")
def oracle_pairs(mixed_points):
    return brute_force_pairs(mixed_points, 0.35)


class TestExactness:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_every_preset_exact(self, preset, mixed_points, oracle_pairs):
        res = SelfJoin(PRESETS[preset]).execute(mixed_points, 0.35)
        np.testing.assert_array_equal(res.sorted_pairs(), oracle_pairs)

    def test_agrees_with_kdtree(self, mixed_points):
        res = SelfJoin().execute(mixed_points, 0.35)
        np.testing.assert_array_equal(
            res.sorted_pairs(), kdtree_pairs(mixed_points, 0.35)
        )

    def test_exclude_self(self, mixed_points):
        res = SelfJoin(runtime=RuntimeConfig(include_self=False)).execute(mixed_points, 0.35)
        assert not (res.pairs[:, 0] == res.pairs[:, 1]).any()
        np.testing.assert_array_equal(
            res.sorted_pairs(),
            brute_force_pairs(mixed_points, 0.35, include_self=False),
        )

    def test_multibatch_exact(self, mixed_points, oracle_pairs):
        for preset in ("gpucalcglobal", "workqueue", "combined"):
            cfg = PRESETS[preset].with_(batch_result_capacity=len(oracle_pairs) // 5 + 1)
            res = SelfJoin(cfg).execute(mixed_points, 0.35)
            assert res.num_batches > 1
            np.testing.assert_array_equal(res.sorted_pairs(), oracle_pairs)

    @settings(max_examples=10)
    @given(
        seed=st.integers(0, 2**31 - 1),
        ndim=st.integers(1, 4),
        eps=st.floats(0.1, 1.0),
        preset=st.sampled_from(["gpucalcglobal", "lidunicomp", "combined"]),
    )
    def test_property_exactness(self, seed, ndim, eps, preset):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 3, size=(120, ndim))
        res = SelfJoin(PRESETS[preset]).execute(pts, eps)
        np.testing.assert_array_equal(
            res.sorted_pairs(), brute_force_pairs(pts, eps)
        )

    def test_duplicate_points(self):
        pts = np.repeat(np.random.default_rng(1).uniform(0, 2, (30, 2)), 3, axis=0)
        res = SelfJoin(PRESETS["lidunicomp"]).execute(pts, 0.2)
        np.testing.assert_array_equal(res.sorted_pairs(), brute_force_pairs(pts, 0.2))

    def test_two_points(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0]])
        res = SelfJoin().execute(pts, 0.5)
        assert res.num_pairs == 4  # 2 self + both directions

    def test_single_point(self):
        res = SelfJoin().execute(np.array([[1.0, 1.0]]), 0.5)
        assert res.num_pairs == 1

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            SelfJoin().execute(np.zeros((3, 2)), -1.0)


def _seeded(preset: str) -> SelfJoin:
    return SelfJoin(runtime=RuntimeConfig(optimization=PRESETS[preset], seed=1))


class TestMetrics:
    def test_wee_in_unit_interval(self, mixed_points):
        for preset in PRESETS.values():
            res = SelfJoin(preset).execute(mixed_points, 0.35)
            assert 0.0 < res.warp_execution_efficiency <= 1.0

    def test_workqueue_raises_wee_on_skewed_data(self, mixed_points):
        base = _seeded("gpucalcglobal").execute(mixed_points, 0.35)
        queued = _seeded("workqueue").execute(mixed_points, 0.35)
        assert queued.warp_execution_efficiency > base.warp_execution_efficiency

    def test_half_pattern_reduces_kernel_time(self, mixed_points):
        full = _seeded("gpucalcglobal").execute(mixed_points, 0.35)
        lid = _seeded("lidunicomp").execute(mixed_points, 0.35)
        assert lid.kernel_seconds < full.kernel_seconds

    def test_times_positive_and_pipeline_consistent(self, mixed_points):
        res = SelfJoin().execute(mixed_points, 0.35)
        assert res.total_seconds >= res.kernel_seconds > 0

    def test_selectivity(self, mixed_points):
        res = SelfJoin().execute(mixed_points, 0.35)
        assert res.selectivity == res.num_pairs / len(mixed_points)

    def test_neighbor_lists_cover_pairs(self, mixed_points):
        res = SelfJoin().execute(mixed_points, 0.35)
        lists = res.neighbor_lists()
        assert sum(len(v) for v in lists.values()) == res.num_pairs
        # each point is its own neighbor
        assert all(int(q) in v.tolist() for q, v in list(lists.items())[:10])

    def test_seed_controls_scheduler_only(self, mixed_points):
        a = SelfJoin(runtime=RuntimeConfig(seed=1)).execute(mixed_points, 0.35)
        b = SelfJoin(runtime=RuntimeConfig(seed=2)).execute(mixed_points, 0.35)
        np.testing.assert_array_equal(a.sorted_pairs(), b.sorted_pairs())


class TestOverflowRecovery:
    def test_tiny_capacity_still_exact(self, mixed_points, oracle_pairs):
        # capacity below a single cell's output forces re-planning
        cfg = OptimizationConfig(batch_result_capacity=max(64, len(oracle_pairs) // 50))
        res = SelfJoin(cfg).execute(mixed_points, 0.35)
        np.testing.assert_array_equal(res.sorted_pairs(), oracle_pairs)

    def test_impossible_capacity_raises(self):
        # one emission larger than the whole buffer can never fit
        pts = np.zeros((40, 2))  # 40 identical points: 1600 pairs in one cell
        cfg = OptimizationConfig(batch_result_capacity=10)
        with pytest.raises(RuntimeError, match="failed to converge"):
            SelfJoin(cfg).execute(pts, 0.5)


class TestDeviceVariation:
    def test_more_slots_never_slower(self, mixed_points):
        slow = SelfJoin(runtime=RuntimeConfig(device=DeviceSpec(num_sms=2), seed=1)).execute(
            mixed_points, 0.35
        )
        fast = SelfJoin(runtime=RuntimeConfig(device=DeviceSpec(num_sms=56), seed=1)).execute(
            mixed_points, 0.35
        )
        assert fast.kernel_seconds <= slow.kernel_seconds
        np.testing.assert_array_equal(fast.sorted_pairs(), slow.sorted_pairs())
