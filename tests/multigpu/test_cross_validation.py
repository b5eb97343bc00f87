"""Satellite: multi-device results are pair-for-pair identical to the
single-device join and to the brute-force oracle, for every shard planner
× access pattern combination (self-join and bipartite)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.bruteforce import brute_force_pairs
from repro.core import OptimizationConfig, SelfJoin, SimilarityJoin
from repro.data.adversarial import dense_core_sparse_halo
from repro.multigpu import SCHEDULE_MODES, SHARD_PLANNERS
from repro.runtime import RuntimeConfig, ShardingConfig

_EPS = 0.9


def pooled(cfg, facade=SelfJoin, **sharding):
    """The pooled facade: ``cfg`` sharded as ``ShardingConfig(**sharding)``."""
    return facade(runtime=RuntimeConfig(optimization=cfg, sharding=ShardingConfig(**sharding)))


@pytest.fixture(scope="module")
def skewed_points() -> np.ndarray:
    return dense_core_sparse_halo(220, 2, seed=5)


@pytest.fixture(scope="module")
def oracle(skewed_points) -> np.ndarray:
    return brute_force_pairs(skewed_points, _EPS)


@pytest.mark.parametrize("planner", SHARD_PLANNERS)
@pytest.mark.parametrize("pattern", ["full", "unicomp", "lidunicomp"])
def test_selfjoin_matches_single_device_and_oracle(
    skewed_points, oracle, planner, pattern
):
    cfg = OptimizationConfig(pattern=pattern)
    single = SelfJoin(cfg).execute(skewed_points, _EPS)
    multi = pooled(cfg, num_devices=3, planner=planner, schedule="dynamic").execute(
        skewed_points, _EPS
    )
    assert np.array_equal(multi.sorted_pairs(), single.sorted_pairs())
    assert np.array_equal(multi.sorted_pairs(), oracle)


@pytest.mark.parametrize("planner", SHARD_PLANNERS)
@pytest.mark.parametrize("schedule", SCHEDULE_MODES)
def test_optimized_config_matches_everywhere(skewed_points, oracle, planner, schedule):
    """The paper's headline stack (queue + k + half-pattern) inside shards."""
    cfg = OptimizationConfig(pattern="lidunicomp", work_queue=True, k=4)
    single = SelfJoin(cfg).execute(skewed_points, _EPS)
    multi = pooled(
        cfg, num_devices=2, planner=planner, schedule=schedule, shards_per_device=3
    ).execute(skewed_points, _EPS)
    assert np.array_equal(multi.sorted_pairs(), single.sorted_pairs())
    assert np.array_equal(multi.sorted_pairs(), oracle)


@pytest.mark.parametrize("planner", SHARD_PLANNERS)
def test_exclude_self_matches(skewed_points, planner):
    cfg = OptimizationConfig(pattern="full")
    rt = RuntimeConfig(optimization=cfg, include_self=False)
    single = SelfJoin(runtime=rt).execute(skewed_points, _EPS)
    multi = SelfJoin(
        runtime=rt.with_(sharding=ShardingConfig(num_devices=3, planner=planner))
    ).execute(skewed_points, _EPS)
    assert np.array_equal(multi.sorted_pairs(), single.sorted_pairs())
    assert np.array_equal(
        multi.sorted_pairs(), brute_force_pairs(skewed_points, _EPS, include_self=False)
    )


@pytest.mark.parametrize("planner", SHARD_PLANNERS)
def test_multibatch_shards_match(skewed_points, oracle, planner):
    """Tiny per-batch capacity forces several batches inside every shard."""
    cfg = OptimizationConfig(work_queue=True, batch_result_capacity=2_000)
    single = SelfJoin(cfg).execute(skewed_points, _EPS)
    multi = pooled(cfg, num_devices=2, planner=planner).execute(skewed_points, _EPS)
    assert multi.num_batches >= multi.trace.num_devices
    assert np.array_equal(multi.sorted_pairs(), single.sorted_pairs())
    assert np.array_equal(multi.sorted_pairs(), oracle)


@pytest.mark.parametrize("planner", SHARD_PLANNERS)
@pytest.mark.parametrize("config", [
    OptimizationConfig(),
    OptimizationConfig(work_queue=True, k=2),
])
def test_bipartite_matches_single_device(rng, planner, config):
    left = rng.uniform(0, 10, size=(130, 2))
    right = np.concatenate(
        [rng.uniform(0, 10, size=(120, 2)), rng.uniform(0, 0.6, size=(60, 2))]
    )
    single = SimilarityJoin(config).execute(left, right, 0.8)
    multi = pooled(config, SimilarityJoin, num_devices=3, planner=planner).execute(
        left, right, 0.8
    )
    assert np.array_equal(multi.sorted_pairs(), single.sorted_pairs())
    assert multi.num_pairs == single.num_pairs


def test_single_device_pool_degenerates_to_selfjoin(skewed_points):
    """N=1 with one shard is byte-for-byte the plain SelfJoin result."""
    cfg = OptimizationConfig(work_queue=True)
    single = SelfJoin(cfg).execute(skewed_points, _EPS)
    multi = pooled(cfg, num_devices=1, planner="balanced", shards_per_device=1).execute(
        skewed_points, _EPS
    )
    assert np.array_equal(multi.sorted_pairs(), single.sorted_pairs())
    assert multi.kernel_seconds == pytest.approx(single.kernel_seconds)
