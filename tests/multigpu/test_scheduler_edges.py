"""Satellite: host-scheduler edge cases — empty plans, one-device pools,
deep queues, and trace-signature determinism under requeue."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.multigpu import (
    DevicePool,
    HostScheduler,
    Shard,
    ShardPlan,
)
from repro.resilience import DeviceLostError, RecoveryPolicy, TransientKernelError


@dataclass
class _StubResult:
    total_seconds: float
    num_pairs: int = 0


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


@pytest.mark.parametrize("mode", ["static", "dynamic"])
@pytest.mark.parametrize("recovery", [None, RecoveryPolicy()])
def test_empty_shard_plan(mode, recovery):
    pool = DevicePool(2)
    results, trace = HostScheduler(pool, mode, recovery=recovery).run(
        _plan([]), _runner({})
    )
    assert results == []
    assert trace.events == []
    assert trace.makespan_seconds == 0.0
    assert trace.signature() == ()


@pytest.mark.parametrize("mode", ["static", "dynamic"])
def test_single_device_pool_serializes(mode):
    pool = DevicePool(1)
    plan = _plan([3, 1, 2])
    results, trace = HostScheduler(pool, mode).run(
        plan, _runner({0: 3.0, 1: 1.0, 2: 2.0})
    )
    assert all(e.device_id == 0 for e in trace.events)
    assert trace.makespan_seconds == pytest.approx(6.0)
    # back-to-back, no gaps
    events = sorted(trace.events, key=lambda e: e.start_seconds)
    for prev, nxt in zip(events, events[1:]):
        assert nxt.start_seconds == pytest.approx(prev.end_seconds)


def test_many_more_shards_than_devices():
    pool = DevicePool(2)
    works = list(range(10, 0, -1))
    plan = _plan(works)
    seconds = {i: float(w) for i, w in enumerate(works)}
    results, trace = HostScheduler(pool, "dynamic").run(plan, _runner(seconds))
    assert len(trace.events) == 10
    assert all(r is not None for r in results)
    busy = trace.device_busy_seconds()
    # 55s of work over 2 devices: the dynamic queue must land close to level
    assert trace.makespan_seconds < 0.6 * sum(seconds.values())
    assert busy.sum() == pytest.approx(sum(seconds.values()))


def test_signature_deterministic_under_requeue():
    """The same fault fired twice gives byte-identical traces — including
    the lost-attempt event and the requeue target."""

    def build():
        pool = DevicePool(3)
        calls = {"n": 0}

        def run_shard(device, shard):
            calls["n"] += 1
            if device.device_id == 1 and device.health.shards_started == 1:
                raise DeviceLostError(1, wasted_seconds=0.25)
            return _StubResult(total_seconds=1.0 + shard.shard_id * 0.125)

        return HostScheduler(pool, "dynamic", recovery=RecoveryPolicy()).run(
            _plan([5, 4, 3, 2, 1, 1]), run_shard
        )

    r1, t1 = build()
    r2, t2 = build()
    assert t1.signature() == t2.signature()
    assert any(e.kind == "lost" for e in t1.events)
    assert t1.recovery.num_requeues == 1
    # the requeued shard still produced its result
    assert all(r is not None for r in r1)
    # signatures reflect recovery fields: kind and attempt are part of them
    lost = [s for s in t1.signature() if s[5] == "lost"]
    assert len(lost) == 1 and lost[0][1] == 1


def test_static_mode_fails_over_preassignment():
    """Static recovery keeps the i % N pre-assignment but skips dead
    devices deterministically."""
    pool = DevicePool(2)

    def run_shard(device, shard):
        if device.device_id == 0 and device.health.shards_started == 1:
            raise DeviceLostError(0, wasted_seconds=0.5)
        return _StubResult(total_seconds=1.0)

    results, trace = HostScheduler(pool, "static", recovery=RecoveryPolicy()).run(
        _plan([1, 1, 1, 1]), run_shard
    )
    assert all(r is not None for r in results)
    productive = [e for e in trace.events if e.kind == "run"]
    assert {e.device_id for e in productive} == {1}
    assert trace.recovery.num_devices_lost == 1


def test_recovery_none_trace_has_no_recovery_log():
    pool = DevicePool(2)
    _, trace = HostScheduler(pool, "dynamic").run(
        _plan([2, 1]), _runner({0: 2.0, 1: 1.0})
    )
    assert trace.recovery is None
    # legacy events carry the new defaulted fields
    assert all(e.kind == "run" and e.attempt == 0 for e in trace.events)


@pytest.mark.parametrize("mode", ["static", "dynamic"])
@pytest.mark.parametrize("error", [DeviceLostError, TransientKernelError])
def test_recovery_none_reraises_device_faults(mode, error):
    """Without a policy a device fault ends the run where it happened:
    no requeue onto the other device, no retry on the same one."""
    pool = DevicePool(2)
    dispatched = []

    def run_shard(device, shard):
        dispatched.append((shard.shard_id, device.device_id))
        if device.device_id == 1:
            raise error(1, wasted_seconds=0.5)
        return _StubResult(total_seconds=1.0)

    with pytest.raises(error):
        HostScheduler(pool, mode).run(_plan([2, 1, 1]), run_shard)
    assert dispatched == [(0, 0), (1, 1)]
