"""Satellite: same seed + config ⇒ byte-identical merged results and
identical scheduler traces across repeated runs, including under work
stealing (dynamic mode with more shards than devices)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import OptimizationConfig, SelfJoin, SimilarityJoin
from repro.data.adversarial import stride_aliased_hotspots
from repro.grid import GridIndex
from repro.multigpu import SCHEDULE_MODES, SHARD_PLANNERS, DevicePool
from repro.runtime import Runner, RuntimeConfig, ShardingConfig, compile_self_join

_EPS = 1.5


@pytest.fixture(scope="module")
def points() -> np.ndarray:
    return stride_aliased_hotspots(400, 2, period=8, seed=23)


def _run(points, *, planner, schedule, seed=7):
    rt = RuntimeConfig(
        optimization=OptimizationConfig(work_queue=True, k=2),
        seed=seed,
        sharding=ShardingConfig(
            num_devices=3, planner=planner, schedule=schedule, shards_per_device=2
        ),
    )
    return SelfJoin(runtime=rt).execute(points, _EPS)


@pytest.mark.parametrize("planner", SHARD_PLANNERS)
@pytest.mark.parametrize("schedule", SCHEDULE_MODES)
def test_repeated_runs_are_byte_identical(points, planner, schedule):
    first = _run(points, planner=planner, schedule=schedule)
    second = _run(points, planner=planner, schedule=schedule)
    assert first.pairs.tobytes() == second.pairs.tobytes()
    assert first.trace.signature() == second.trace.signature()
    assert first.makespan_seconds == second.makespan_seconds
    assert first.pool_stats.device_execution_efficiency == pytest.approx(
        second.pool_stats.device_execution_efficiency
    )


def test_work_stealing_trace_is_reproducible(points):
    """Dynamic scheduling resolves ties deterministically: the trace — which
    device fetched which shard, and when — must replay exactly."""
    traces = [
        _run(points, planner="strided", schedule="dynamic").trace for _ in range(3)
    ]
    assert traces[0].signature() == traces[1].signature() == traces[2].signature()
    # every device's per-shard assignment is stable, not just the totals
    assignments = [
        tuple((e.shard_id, e.device_id) for e in t.events) for t in traces
    ]
    assert assignments[0] == assignments[1] == assignments[2]


def test_random_issue_order_is_seeded_per_device(points):
    """Shard kernels issue warps in seeded-random order; the per-device seed
    (seed + device_id) must make that reproducible run-to-run."""
    rt = RuntimeConfig(
        optimization=OptimizationConfig(),  # no work queue → "random" issue order
        seed=13,
        sharding=ShardingConfig(num_devices=2, planner="balanced"),
    )
    a = SelfJoin(runtime=rt).execute(points, _EPS)
    b = SelfJoin(runtime=rt).execute(points, _EPS)
    assert a.pairs.tobytes() == b.pairs.tobytes()
    assert a.trace.signature() == b.trace.signature()


def test_explicit_pool_reuse_is_deterministic(points):
    """Reusing one DevicePool across runs must not leak state between them."""
    pool = DevicePool(2, seed=3)
    rt = RuntimeConfig(
        optimization=OptimizationConfig(work_queue=True), sharding=ShardingConfig(num_devices=2)
    )
    plan = compile_self_join(GridIndex(points, _EPS), rt)
    first = Runner(pool=pool).run(plan)
    second = Runner(pool=pool).run(plan)
    assert first.pairs.tobytes() == second.pairs.tobytes()
    assert first.trace.signature() == second.trace.signature()


def test_bipartite_determinism(rng):
    left = rng.uniform(0, 8, size=(120, 2))
    right = rng.uniform(0, 8, size=(150, 2))
    runs = [
        SimilarityJoin(
            runtime=RuntimeConfig(
                optimization=OptimizationConfig(work_queue=True),
                seed=5,
                sharding=ShardingConfig(num_devices=3, planner="balanced", schedule="dynamic"),
            )
        ).execute(left, right, 0.9)
        for _ in range(2)
    ]
    assert runs[0].pairs.tobytes() == runs[1].pairs.tobytes()
    assert runs[0].trace.signature() == runs[1].trace.signature()


def test_different_seeds_same_pairs(points):
    """The seed changes scheduling randomness, never the join answer."""
    a = _run(points, planner="balanced", schedule="dynamic", seed=1)
    b = _run(points, planner="balanced", schedule="dynamic", seed=2)
    assert np.array_equal(a.sorted_pairs(), b.sorted_pairs())
