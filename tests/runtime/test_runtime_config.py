"""RuntimeConfig validation, plan compilation and the unified Runner."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    PRESETS,
    JoinPlan,
    Runner,
    RuntimeConfig,
    SelfJoin,
    ShardingConfig,
    compile_self_join,
    compile_similarity_join,
)
from repro.core.executor import DeviceExecutor
from repro.grid import GridIndex
from repro.multigpu import DevicePool, MultiJoinResult
from repro.resilience import FaultPlan, RecoveryPolicy
from repro.resilience.faults import ForcedOverflow, Straggler
from repro.runtime import CheckpointConfig
from repro.runtime.plan import (
    EstimateStage,
    IndexStage,
    LaunchStage,
    MergeStage,
    ResilienceStage,
    ShardStage,
    apply_resilience,
)


def points(n=150, seed=0):
    return np.random.default_rng(seed).uniform(0.0, 10.0, size=(n, 2))


def index(n=150, eps=0.8):
    return GridIndex(points(n), eps)


# -- config validation --------------------------------------------------
def test_rejects_unknown_engine_and_replay_mode():
    with pytest.raises(ValueError, match="engine"):
        RuntimeConfig(engine="jit")
    with pytest.raises(ValueError, match="replay mode"):
        RuntimeConfig(replay_mode="exact")


def test_rejects_bad_sharding_values():
    with pytest.raises(ValueError, match="planner"):
        ShardingConfig(planner="round_robin")
    with pytest.raises(ValueError, match="schedule"):
        ShardingConfig(schedule="greedy")
    with pytest.raises(ValueError, match="num_devices"):
        ShardingConfig(num_devices=0)


def test_overflow_policy_resolution_tracks_recovery():
    # batch-level overflow retry runs exactly when the run can heal
    assert not DeviceExecutor(RuntimeConfig()).retry_overflows
    assert DeviceExecutor(RuntimeConfig(recovery=RecoveryPolicy())).retry_overflows
    pooled = RuntimeConfig(sharding=ShardingConfig(), recovery=RecoveryPolicy())
    assert all(d.executor.retry_overflows for d in DevicePool(pooled))
    assert not any(
        d.executor.retry_overflows for d in DevicePool(pooled.with_(recovery=None))
    )


def test_pooled_fault_plan_implies_recovery():
    rt = RuntimeConfig(sharding=ShardingConfig(), fault_plan=FaultPlan(seed=1))
    assert rt.recovery == RecoveryPolicy()
    # single-device: no scheduler, no implied policy
    assert RuntimeConfig(fault_plan=FaultPlan(seed=1)).recovery is None


def test_with_and_describe():
    rt = RuntimeConfig(optimization=PRESETS["combined"])
    assert rt.with_(engine="vectorized").engine == "vectorized"
    tagged = rt.with_(
        engine="vectorized",
        sharding=ShardingConfig(num_devices=4),
        recovery=RecoveryPolicy(),
    ).describe()
    assert "vectorized" in tagged
    assert "4dev" in tagged
    assert "resilient" in tagged


# -- plan compilation ---------------------------------------------------
def test_single_device_plan_stage_shape():
    plan = compile_self_join(index(), RuntimeConfig(optimization=PRESETS["combined"]))
    kinds = [type(s) for s in plan.stages]
    assert kinds == [IndexStage, EstimateStage, LaunchStage, MergeStage]
    assert not plan.pooled
    assert plan.launch_stage.kernel == "selfjoin_kernel"
    assert plan.merge_stage.dedup is False
    assert "JoinPlan[self]" in plan.describe()


def test_pooled_plan_gains_shard_stage_and_description():
    rt = RuntimeConfig(
        optimization=PRESETS["combined"],
        sharding=ShardingConfig(num_devices=4, planner="balanced"),
    )
    plan = compile_self_join(index(), rt)
    assert plan.pooled
    assert len(plan.shard_stage.plan.shards) == rt.sharding.num_shards
    assert plan.merge_stage.description.startswith("multigpu[4dev balanced/dynamic]")


def test_workqueue_plan_records_fifo_and_head_estimate():
    plan = compile_self_join(
        index(), RuntimeConfig(optimization=PRESETS["workqueue_k8"])
    )
    assert plan.stage(EstimateStage).mode == "head"
    assert plan.launch_stage.issue_order == "fifo"
    assert plan.launch_stage.coop_groups is True


def test_bipartite_compile_rejects_unidirectional_patterns():
    with pytest.raises(ValueError, match="pattern='full'"):
        compile_similarity_join(
            index(), points(40, seed=2), RuntimeConfig(optimization=PRESETS["unicomp"])
        )


def test_apply_resilience_is_a_plan_transform():
    rt = RuntimeConfig(
        optimization=PRESETS["combined"],
        sharding=ShardingConfig(num_devices=2),
        fault_plan=FaultPlan(seed=3, stragglers=[Straggler(device_id=0, slowdown=2.0)]),
    )
    plan = compile_self_join(index(), rt)
    resil = plan.resilience_stage
    assert isinstance(resil, ResilienceStage)
    assert resil.recovery == RecoveryPolicy()
    # the stage sits directly before the merge stage, and the transform
    # is idempotent
    assert isinstance(plan.stages[-2], ResilienceStage)
    assert apply_resilience(plan) is plan


def test_fault_free_plan_has_no_resilience_stage():
    plan = compile_self_join(index(), RuntimeConfig(optimization=PRESETS["combined"]))
    assert plan.resilience_stage is None


# -- the unified runner -------------------------------------------------
def test_runner_executes_single_and_pooled_plans_identically():
    idx = index()
    rt = RuntimeConfig(optimization=PRESETS["combined"])
    single = Runner().run(compile_self_join(idx, rt))
    pooled = Runner().run(
        compile_self_join(idx, rt.with_(sharding=ShardingConfig(num_devices=3)))
    )
    assert isinstance(pooled, MultiJoinResult)
    np.testing.assert_array_equal(single.sorted_pairs(), pooled.sorted_pairs())


def test_runner_accepts_explicit_pool():
    idx = index()
    rt = RuntimeConfig(
        optimization=PRESETS["combined"], sharding=ShardingConfig(num_devices=2)
    )
    plan = compile_self_join(idx, rt)
    result = Runner(pool=DevicePool(rt)).run(plan)
    np.testing.assert_array_equal(
        result.sorted_pairs(), Runner().run(plan).sorted_pairs()
    )


def test_runner_rejects_pool_of_another_size(tmp_path):
    journal_dir = tmp_path / "journal"
    rt = RuntimeConfig(
        optimization=PRESETS["combined"],
        sharding=ShardingConfig(num_devices=2),
        checkpoint=CheckpointConfig(directory=str(journal_dir)),
    )
    plan = compile_self_join(index(), rt)
    runner = Runner(pool=DevicePool(rt.with_(sharding=ShardingConfig(num_devices=3))))
    with pytest.raises(ValueError, match="pool has 3 devices .* compiled for 2"):
        runner.run(plan)
    assert not journal_dir.exists()
    assert runner.last_checkpoint_stats is None


def test_single_device_fault_plan_wraps_executor():
    idx = index()
    plan_cfg = FaultPlan(
        seed=2,
        overflows=[ForcedOverflow(device_id=0, times=1, clamp_capacity=8)],
    )
    rt = RuntimeConfig(
        optimization=PRESETS["combined"],
        recovery=RecoveryPolicy(),
        fault_plan=plan_cfg,
    )
    faulted = Runner().run(compile_self_join(idx, rt))
    clean = Runner().run(
        compile_self_join(idx, RuntimeConfig(optimization=PRESETS["combined"]))
    )
    assert faulted.overflow_retries > 0
    np.testing.assert_array_equal(faulted.sorted_pairs(), clean.sorted_pairs())


def test_facade_compile_returns_plan():
    join = SelfJoin(PRESETS["combined"])
    plan = join.compile(index())
    assert isinstance(plan, JoinPlan)
    result = Runner().run(plan)
    assert result.num_pairs > 0


def test_pool_from_runtime_requires_sharding():
    with pytest.raises(ValueError, match="sharding"):
        DevicePool(RuntimeConfig())
