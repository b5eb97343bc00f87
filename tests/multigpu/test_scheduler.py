"""Host scheduler: static assignment, dynamic stealing, trace accounting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.multigpu import DevicePool, HostScheduler, Shard, ShardPlan
from repro.runtime import RuntimeConfig, ShardingConfig
from repro.simt import DeviceSpec


@dataclass
class _StubResult:
    total_seconds: float
    num_pairs: int = 0


def _pool(num_devices: int) -> DevicePool:
    return DevicePool(RuntimeConfig(sharding=ShardingConfig(num_devices=num_devices)))


def _plan(works):
    shards = [
        Shard(shard_id=i, points=np.arange(1), estimated_work=float(w))
        for i, w in enumerate(works)
    ]
    return ShardPlan(shards=shards, planner="stub", num_queries=len(works))


def _runner(seconds_by_shard):
    def run_shard(device, shard):
        return _StubResult(total_seconds=seconds_by_shard[shard.shard_id])

    return run_shard


def test_static_round_robin_assignment():
    pool = _pool(2)
    plan = _plan([4, 3, 2, 1])
    results, trace = HostScheduler(pool, "static").run(
        plan, _runner({0: 4.0, 1: 3.0, 2: 2.0, 3: 1.0})
    )
    assert [e.device_id for e in sorted(trace.events, key=lambda e: e.shard_id)] == [
        0, 1, 0, 1,
    ]
    # device 0 runs shards 0 then 2 back to back
    busy = trace.device_busy_seconds()
    assert busy[0] == pytest.approx(6.0)
    assert busy[1] == pytest.approx(4.0)
    assert trace.makespan_seconds == pytest.approx(6.0)
    assert all(r is not None for r in results)


def test_dynamic_dispatches_most_work_first():
    pool = _pool(2)
    plan = _plan([1, 10, 5, 7])  # estimated work
    seen = []

    def run_shard(device, shard):
        seen.append(shard.shard_id)
        return _StubResult(total_seconds=float(shard.estimated_work))

    HostScheduler(pool, "dynamic").run(plan, run_shard)
    assert seen == [1, 3, 2, 0]  # desc estimated work


def test_dynamic_steals_onto_free_device():
    """One long shard pins a device; the other device drains the rest."""
    pool = _pool(2)
    plan = _plan([100, 1, 1, 1])  # dispatch order: 0 first
    results, trace = HostScheduler(pool, "dynamic").run(
        plan, _runner({0: 100.0, 1: 1.0, 2: 1.0, 3: 1.0})
    )
    by_shard = {e.shard_id: e for e in trace.events}
    assert by_shard[0].device_id == 0
    # everything else lands on device 1 while device 0 is pinned
    assert {by_shard[s].device_id for s in (1, 2, 3)} == {1}
    assert trace.makespan_seconds == pytest.approx(100.0)
    # static would have put shards 2 on device 0 behind the pin
    _, static_trace = HostScheduler(pool, "static").run(
        plan, _runner({0: 100.0, 1: 1.0, 2: 1.0, 3: 1.0})
    )
    assert static_trace.makespan_seconds == pytest.approx(101.0)


def test_trace_event_times_are_consistent():
    pool = _pool(3)
    plan = _plan([3, 2, 2, 1, 1])
    secs = {i: float(s.estimated_work) for i, s in enumerate(plan.shards)}
    _, trace = HostScheduler(pool, "dynamic").run(plan, _runner(secs))
    for e in trace.events:
        assert e.end_seconds >= e.start_seconds
    # per-device events never overlap
    for d in range(pool.num_devices):
        evs = sorted(
            (e for e in trace.events if e.device_id == d),
            key=lambda e: e.start_seconds,
        )
        for a, b in zip(evs, evs[1:]):
            assert b.start_seconds >= a.end_seconds - 1e-12
    assert trace.makespan_seconds == max(e.end_seconds for e in trace.events)


def test_heterogeneous_pool_is_allowed():
    fast = DeviceSpec(name="fast")
    slow = DeviceSpec(name="slow", clock_hz=0.65e9)
    pool = DevicePool(RuntimeConfig(sharding=ShardingConfig()), specs=[fast, slow])
    assert pool.num_devices == 2
    assert pool[0].spec.name == "fast"
    assert pool[1].executor.device.name == "slow"


def test_invalid_mode_and_pool_args():
    with pytest.raises(ValueError, match="unknown schedule mode"):
        HostScheduler(_pool(1), "adaptive")
    with pytest.raises(ValueError, match="num_devices"):
        _pool(0)
    with pytest.raises(ValueError, match="at least one device"):
        DevicePool(RuntimeConfig(sharding=ShardingConfig()), specs=[])
