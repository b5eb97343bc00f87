"""The acceptance surface of the resilience tentpole: under every injected
fault the merged result is pair-for-pair identical to the fault-free
single-device join, the trace replays exactly per seed, and the recovery
accounting adds up."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SelfJoin, SimilarityJoin
from repro.data.adversarial import dense_core_sparse_halo
from repro.multigpu import SCHEDULE_MODES, SHARD_PLANNERS
from repro.profiling import resilience_report
from repro.resilience import (
    AllDevicesLostError,
    DeviceFailure,
    FaultPlan,
    ForcedOverflow,
    RecoveryPolicy,
    Straggler,
    TransientFaults,
)
from repro.runtime import RuntimeConfig, ShardingConfig

_EPS = 0.9

_SCENARIOS = {
    "kill-one": FaultPlan(seed=1, failures=[DeviceFailure(1, at_shard=1)]),
    "kill-first-dispatch": FaultPlan(seed=2, failures=[DeviceFailure(0, at_shard=0)]),
    "straggler": FaultPlan(seed=3, stragglers=[Straggler(2, slowdown=6.0)]),
    "flaky": FaultPlan(
        seed=4, transients=[TransientFaults(1, probability=0.7, max_failures=3)]
    ),
    "overflow": FaultPlan(
        seed=5, overflows=[ForcedOverflow(0, times=2, clamp_capacity=16)]
    ),
    "everything": FaultPlan(
        seed=6,
        failures=[DeviceFailure(3, at_shard=1)],
        stragglers=[Straggler(2, slowdown=4.0)],
        transients=[TransientFaults(1, probability=0.5, max_failures=2)],
        overflows=[ForcedOverflow(0, times=1, clamp_capacity=32)],
    ),
}


@pytest.fixture(scope="module")
def points() -> np.ndarray:
    return dense_core_sparse_halo(240, 2, seed=9)


@pytest.fixture(scope="module")
def baseline(points) -> np.ndarray:
    return SelfJoin().execute(points, _EPS).sorted_pairs()


def _join(
    planner="balanced", schedule="dynamic", fault_plan=None, recovery=None
) -> SelfJoin:
    runtime = RuntimeConfig(
        sharding=ShardingConfig(num_devices=4, planner=planner, schedule=schedule),
        fault_plan=fault_plan,
        recovery=recovery,
    )
    return SelfJoin(runtime=runtime)


# ------------------------------------------------------- pair identity
@pytest.mark.parametrize("scenario", sorted(_SCENARIOS))
@pytest.mark.parametrize("schedule", SCHEDULE_MODES)
def test_faulty_run_matches_fault_free(points, baseline, scenario, schedule):
    result = _join(schedule=schedule, fault_plan=_SCENARIOS[scenario]).execute(
        points, _EPS
    )
    assert np.array_equal(result.sorted_pairs(), baseline)


@pytest.mark.parametrize("planner", SHARD_PLANNERS)
def test_kill_scenario_matches_across_planners(points, baseline, planner):
    result = _join(planner=planner, fault_plan=_SCENARIOS["everything"]).execute(
        points, _EPS
    )
    assert np.array_equal(result.sorted_pairs(), baseline)


def test_bipartite_recovery_matches(points):
    left, right = points[:130], points[110:]
    single = SimilarityJoin().execute(left, right, _EPS)
    multi = SimilarityJoin(
        runtime=RuntimeConfig(
            sharding=ShardingConfig(num_devices=3),
            fault_plan=FaultPlan(seed=8, failures=[DeviceFailure(0, at_shard=1)]),
        )
    ).execute(left, right, _EPS)
    assert np.array_equal(multi.sorted_pairs(), single.sorted_pairs())
    assert multi.recovery_log.num_devices_lost == 1


# ------------------------------------------------------- determinism
@pytest.mark.parametrize("scenario", sorted(_SCENARIOS))
def test_seeded_fault_run_replays_exactly(points, scenario):
    plan = _SCENARIOS[scenario]
    first = _join(fault_plan=plan).execute(points, _EPS)
    second = _join(fault_plan=plan).execute(points, _EPS)
    assert first.trace.signature() == second.trace.signature()
    assert np.array_equal(first.sorted_pairs(), second.sorted_pairs())


def test_reused_instance_replays_exactly(points):
    """Health and injection state re-arm per execute(), so one instance
    run twice gives the same trace — not a drifting one."""
    join = _join(fault_plan=_SCENARIOS["everything"])
    first = join.execute(points, _EPS)
    second = join.execute(points, _EPS)
    assert first.trace.signature() == second.trace.signature()


# ------------------------------------------------------- degradation
def test_degrades_to_single_survivor(points, baseline):
    plan = FaultPlan(
        failures=[DeviceFailure(d, at_shard=0) for d in (0, 1, 2)]
    )
    result = _join(fault_plan=plan).execute(points, _EPS)
    assert np.array_equal(result.sorted_pairs(), baseline)
    log = result.recovery_log
    assert log.num_devices_lost == 3
    # every productive event ran on the lone survivor
    survivors = {
        e.device_id for e in result.trace.events if e.kind in ("run", "speculative")
    }
    assert survivors == {3}


def test_all_devices_lost_raises(points):
    plan = FaultPlan(failures=[DeviceFailure(d, at_shard=0) for d in range(4)])
    with pytest.raises(AllDevicesLostError):
        _join(fault_plan=plan).execute(points, _EPS)


def test_hopeless_transients_exhaust_attempt_budget(points):
    plan = FaultPlan(
        transients=[TransientFaults(d, probability=1.0) for d in range(2)]
    )
    join = SelfJoin(
        runtime=RuntimeConfig(
            sharding=ShardingConfig(num_devices=2),
            fault_plan=plan,
            recovery=RecoveryPolicy(max_shard_attempts=4),
        )
    )
    with pytest.raises(RuntimeError, match="attempts"):
        join.execute(points, _EPS)


# ------------------------------------------------------- accounting
def test_recovery_log_records_the_kill(points):
    result = _join(fault_plan=_SCENARIOS["kill-one"]).execute(points, _EPS)
    log = result.recovery_log
    assert log.num_devices_lost == 1
    assert log.device_failures[0].device_id == 1
    assert log.num_requeues >= 1
    assert all(r.from_device == 1 for r in log.requeues[:1])
    lost = [e for e in result.trace.events if e.kind == "lost"]
    assert len(lost) == 1 and lost[0].num_pairs == 0


def test_speculation_beats_no_speculation_on_straggler(points, baseline):
    plan = _SCENARIOS["straggler"]
    with_spec = _join(fault_plan=plan, recovery=RecoveryPolicy()).execute(points, _EPS)
    without = _join(
        fault_plan=plan, recovery=RecoveryPolicy(speculation=False)
    ).execute(points, _EPS)
    assert np.array_equal(with_spec.sorted_pairs(), baseline)
    assert np.array_equal(without.sorted_pairs(), baseline)
    if with_spec.recovery_log.num_speculative_wins:
        assert with_spec.makespan_seconds < without.makespan_seconds


def test_resilience_report_totals(points):
    result = _join(fault_plan=_SCENARIOS["everything"]).execute(points, _EPS)
    rep = resilience_report(result)
    log = result.recovery_log
    assert rep.devices_lost == log.num_devices_lost == 1
    assert rep.degraded
    assert rep.transient_retries == log.num_transient_retries
    assert rep.shard_requeues == log.num_requeues
    assert rep.speculations == log.num_speculations
    assert rep.busy_seconds == pytest.approx(
        result.pool_stats.total_busy_seconds
    )
    assert 0.0 <= rep.waste_fraction < 1.0
    record = rep.to_record()
    assert record["degraded"] is True
    assert record["wasted_seconds"] == pytest.approx(rep.wasted_seconds)


def test_fault_free_resilient_run_reports_zero_waste(points, baseline):
    """The resilient loop with nothing to recover is a clean pass-through."""
    result = _join(recovery=RecoveryPolicy()).execute(points, _EPS)
    assert np.array_equal(result.sorted_pairs(), baseline)
    rep = resilience_report(result)
    assert not rep.degraded
    assert rep.wasted_seconds == 0.0
    assert rep.transient_retries == rep.shard_requeues == 0
