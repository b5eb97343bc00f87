"""Merging, pool metrics, and the MultiJoinResult surface."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core import OptimizationConfig, SelfJoin
from repro.data.adversarial import stride_aliased_hotspots
from repro.multigpu import (
    DeviceStats,
    PoolStats,
    ScheduleTrace,
    ShardEvent,
    merge_pairs,
    pipeline_from_trace,
    pool_stats_from_trace,
)
from repro.profiling import DeviceReport, device_profile_row
from repro.runtime import RuntimeConfig, ShardingConfig


def test_merge_pairs_is_order_independent():
    a = np.array([[3, 4], [0, 1]], dtype=np.int64)
    b = np.array([[2, 2], [0, 5]], dtype=np.int64)
    merged_ab = merge_pairs([a, b])
    merged_ba = merge_pairs([b, a])
    assert np.array_equal(merged_ab, merged_ba)
    assert np.array_equal(
        merged_ab, np.array([[0, 1], [0, 5], [2, 2], [3, 4]], dtype=np.int64)
    )


def test_merge_pairs_dedup_and_empty():
    dup = np.array([[1, 2], [1, 2], [0, 0]], dtype=np.int64)
    assert np.array_equal(
        merge_pairs([dup, dup], dedup=True),
        np.array([[0, 0], [1, 2]], dtype=np.int64),
    )
    empty = merge_pairs([])
    assert empty.shape == (0, 2)
    assert empty.dtype == np.int64
    assert merge_pairs([np.empty((0, 2), dtype=np.int64)]).shape == (0, 2)


def _reference_merge(pairs_list, *, dedup=False):
    """The two-column merge that the one-key sort replaced."""
    blocks = [np.asarray(p, dtype=np.int64).reshape(-1, 2) for p in pairs_list if len(p)]
    if not blocks:
        return np.empty((0, 2), dtype=np.int64)
    pairs = np.concatenate(blocks, axis=0)
    if dedup:
        return np.unique(pairs, axis=0)
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    return pairs[order]


# a few small ids make duplicate rows likely, within and across blocks
_ids = st.one_of(st.integers(0, 3), st.integers(0, 2**31 - 1))
_blocks = st.lists(
    st.lists(st.tuples(_ids, _ids), max_size=500).map(
        lambda rows: np.array(rows, dtype=np.int64).reshape(-1, 2)
    ),
    max_size=5,
)


@given(blocks=_blocks, repeats=st.lists(st.integers(0, 4), max_size=3), dedup=st.booleans())
@example(blocks=[np.array([[7, 2]])], repeats=[], dedup=False)
@example(blocks=[np.array([[7, 2]])], repeats=[], dedup=True)
@example(blocks=[np.empty((0, 2), dtype=np.int64), np.array([[0, 0]])], repeats=[0, 1], dedup=True)
def test_merge_pairs_matches_two_column_reference(blocks, repeats, dedup):
    if blocks:
        blocks = blocks + [blocks[i % len(blocks)] for i in repeats]
    merged = merge_pairs(blocks, dedup=dedup)
    reference = _reference_merge(blocks, dedup=dedup)
    assert merged.dtype == reference.dtype
    assert merged.shape == reference.shape
    assert merged.tobytes() == reference.tobytes()


def test_merge_pairs_rejects_a_negative_id():
    with pytest.raises(ValueError, match="non-negative"):
        merge_pairs([np.array([[0, 1]]), np.array([[2, -1]])])


def test_merge_pairs_rejects_a_key_that_would_overflow():
    near = 2**32
    with pytest.raises(ValueError, match="overflow"):
        merge_pairs([np.array([[near, near - 1], [near - 2, near]])])


def _trace() -> ScheduleTrace:
    events = [
        ShardEvent(0, 0, 0.0, 3.0, num_pairs=10, num_points=5),
        ShardEvent(1, 1, 0.0, 2.0, num_pairs=6, num_points=4),
        ShardEvent(2, 1, 2.0, 3.5, num_pairs=4, num_points=3),
    ]
    return ScheduleTrace(events=events, mode="dynamic", num_devices=2)


def test_pipeline_from_trace_windows():
    pipe = pipeline_from_trace(_trace())
    assert pipe.total_seconds == pytest.approx(3.5)
    assert np.allclose(pipe.kernel_start, [0.0, 0.0, 2.0])
    assert np.allclose(pipe.kernel_end, [3.0, 2.0, 3.5])
    assert np.allclose(pipe.transfer_end, pipe.kernel_end)


def test_pool_stats_math():
    stats = pool_stats_from_trace(_trace(), [None, None, None], planner="balanced")
    assert stats.num_devices == 2
    assert stats.total_busy_seconds == pytest.approx(6.5)
    # DEE = 6.5 / (2 × 3.5)
    assert stats.device_execution_efficiency == pytest.approx(6.5 / 7.0)
    assert stats.busy_imbalance == pytest.approx(3.5 / 3.25)
    d0, d1 = stats.devices
    assert (d0.num_shards, d1.num_shards) == (1, 2)
    assert d1.num_pairs == 10
    assert d0.utilization(stats.makespan_seconds) == pytest.approx(3.0 / 3.5)
    rendered = stats.render()
    assert "device execution efficiency" in rendered
    assert "balanced" in rendered


def test_pool_stats_degenerate_cases():
    empty = PoolStats(devices=[], makespan_seconds=0.0)
    assert empty.device_execution_efficiency == 1.0
    assert empty.busy_imbalance == 1.0
    idle = DeviceStats(0, 0, 0.0, 0.0, 0)
    assert idle.utilization(0.0) == 1.0


@pytest.fixture(scope="module")
def multi_run():
    pts = stride_aliased_hotspots(300, 2, period=8, seed=9)
    join = SelfJoin(
        runtime=RuntimeConfig(
            optimization=OptimizationConfig(work_queue=True),
            sharding=ShardingConfig(num_devices=2, planner="balanced", schedule="dynamic"),
        )
    )
    return join.execute(pts, 1.5)


def test_multi_join_result_surface(multi_run):
    r = multi_run
    assert r.num_devices == 2
    assert r.planner == "balanced"
    assert r.schedule_mode == "dynamic"
    assert 0.0 < r.device_execution_efficiency <= 1.0
    assert r.makespan_seconds == pytest.approx(r.total_seconds)
    assert r.serial_seconds == pytest.approx(r.pool_stats.total_busy_seconds)
    # the pool can't beat perfect scaling of its own busy time
    assert r.makespan_seconds >= r.serial_seconds / r.num_devices - 1e-12
    assert 0.0 < r.warp_execution_efficiency <= 1.0
    assert "multigpu[2dev balanced/dynamic]" in r.config_description
    assert r.shard_plan.num_shards == len(r.trace.events)


def test_facade_validates_eagerly():
    with pytest.raises(ValueError, match="unknown planner"):
        ShardingConfig(planner="zigzag")
    with pytest.raises(ValueError, match="unknown schedule mode"):
        ShardingConfig(schedule="adaptive")
    with pytest.raises(ValueError, match="shards_per_device"):
        ShardingConfig(shards_per_device=0)


def test_device_profile_row_and_report(multi_run):
    row = device_profile_row(multi_run, dataset="stride_aliased", epsilon=1.5)
    assert row.num_devices == 2
    assert row.dee_percent == pytest.approx(
        100 * multi_run.device_execution_efficiency
    )
    assert row.speedup_vs_serial == pytest.approx(
        multi_run.serial_seconds / multi_run.makespan_seconds
    )
    report = DeviceReport()
    report.add_run(multi_run, dataset="stride_aliased", epsilon=1.5)
    rendered = report.render()
    assert "stride_aliased" in rendered
    scaling = report.scaling("stride_aliased", 1.5, "balanced", "dynamic")
    assert scaling == {2: pytest.approx(multi_run.makespan_seconds)}
