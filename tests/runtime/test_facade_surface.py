"""The facade surface: one spelling per knob.

The one-cycle shims (``engine=``, ``executor=``, ``fault_plan=``,
``recovery=`` on the facades, and ``repro.runtime.shim``), the kwargs
that mirrored ``RuntimeConfig`` fields (on the facades, the executor and
the device pool), the attributes that re-exported them, the knobs only
tests set (``OverflowConfig``, ``ProfilingOptions``,
``estimate_safety_z``) and the pooled ``MultiGpu*`` facades were
removed; these tests pin the end state — the removed spellings raise,
and the supported spellings (``runtime=RuntimeConfig(...)`` and a
``RuntimeConfig`` in the config slot) carry every knob, pooled or not,
readable as ``join.runtime``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    PRESETS,
    CostParams,
    DeviceSpec,
    RuntimeConfig,
    SelfJoin,
    ShardingConfig,
    SimilarityJoin,
)
from repro.core.executor import DeviceExecutor
from repro.multigpu import DevicePool
from repro.resilience import FaultPlan, RecoveryPolicy
from repro.resilience.faults import Straggler


def points(n=80, seed=0):
    return np.random.default_rng(seed).uniform(0.0, 10.0, size=(n, 2))


# ------------------------------------------------- legacy kwargs are gone
@pytest.mark.parametrize(
    "facade, kwargs",
    [
        (SelfJoin, {"engine": "vectorized"}),
        (SelfJoin, {"executor": None}),
        (SimilarityJoin, {"engine": "vectorized"}),
        (SimilarityJoin, {"executor": None}),
        (SelfJoin, {"fault_plan": FaultPlan()}),
        (SelfJoin, {"recovery": RecoveryPolicy()}),
        (SimilarityJoin, {"fault_plan": FaultPlan()}),
        (SimilarityJoin, {"recovery": RecoveryPolicy()}),
        (SelfJoin, {"device": DeviceSpec()}),
        (SelfJoin, {"costs": CostParams()}),
        (SelfJoin, {"include_self": False}),
        (SelfJoin, {"seed": 1}),
        (SelfJoin, {"replay_mode": "lockstep"}),
        (SelfJoin, {"estimate_safety_z": 1.0}),
        (SimilarityJoin, {"device": DeviceSpec()}),
        (SimilarityJoin, {"costs": CostParams()}),
        (SimilarityJoin, {"seed": 1}),
        (DeviceExecutor, {"seed": 0}),
        (DeviceExecutor, {"engine": "vectorized", "overflow_policy": "retry"}),
        (DevicePool, {"num_devices": 2}),
        (RuntimeConfig, {"estimate_safety_z": 2.0}),
        (RuntimeConfig, {"overflow": None}),
        (RuntimeConfig, {"profiling": None}),
    ],
    ids=lambda p: getattr(p, "__name__", None) or "+".join(sorted(p)),
)
def test_removed_kwargs_raise_typeerror(facade, kwargs):
    with pytest.raises(TypeError):
        facade(**kwargs)


def test_shim_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        import repro.runtime.shim  # noqa: F401


def test_pooled_facades_are_gone():
    with pytest.raises(ImportError):
        from repro import MultiGpuSelfJoin  # noqa: F401


def test_test_only_configs_are_gone():
    with pytest.raises(ImportError):
        from repro import OverflowConfig  # noqa: F401
    with pytest.raises(ImportError):
        from repro import ProfilingOptions  # noqa: F401


def test_pool_takes_a_runtime_config():
    with pytest.raises(TypeError, match="RuntimeConfig"):
        DevicePool(2)
    pool = DevicePool(RuntimeConfig(sharding=ShardingConfig(num_devices=3), seed=4))
    assert [d.executor.seed for d in pool] == [4, 5, 6]


# ------------------------------------------------- supported spellings
def test_runtime_kwarg_carries_engine():
    join = SelfJoin(
        runtime=RuntimeConfig(
            optimization=PRESETS["combined"], engine="vectorized", seed=3
        )
    )
    assert join.runtime.engine == "vectorized"
    assert join.runtime.optimization == PRESETS["combined"]


def test_runtime_config_in_config_slot():
    join = SelfJoin(
        RuntimeConfig(optimization=PRESETS["combined"], engine="vectorized", seed=3)
    )
    explicit = SelfJoin(
        runtime=RuntimeConfig(
            optimization=PRESETS["combined"], engine="vectorized", seed=3
        )
    )
    assert join.runtime == explicit.runtime


def test_runtime_and_config_slots_are_exclusive():
    with pytest.raises(ValueError, match="not both"):
        SelfJoin(RuntimeConfig(), runtime=RuntimeConfig())


def test_executor_moves_to_execute_on_index():
    pts = points()
    cfg = PRESETS["combined"]
    from repro.grid import GridIndex

    index = GridIndex(pts, 0.7)
    default = SelfJoin(cfg).execute_on_index(index)
    explicit = SelfJoin(cfg).execute_on_index(
        index, executor=DeviceExecutor(RuntimeConfig())
    )
    np.testing.assert_array_equal(
        default.sorted_pairs(), explicit.sorted_pairs()
    )


def test_fault_plan_and_recovery_ride_the_runtime():
    plan = FaultPlan(seed=5, stragglers=[Straggler(device_id=0, slowdown=2.0)])
    join = SelfJoin(
        runtime=RuntimeConfig(
            optimization=PRESETS["combined"],
            sharding=ShardingConfig(num_devices=3),
            fault_plan=plan,
        )
    )
    assert join.runtime.fault_plan == plan
    # the fault plan implies the default recovery policy
    assert join.runtime.recovery == RecoveryPolicy()
    assert DevicePool(join.runtime)[0].executor.retry_overflows


def test_recovery_via_runtime_on_bipartite_facade():
    join = SimilarityJoin(
        runtime=RuntimeConfig(
            sharding=ShardingConfig(),
            recovery=RecoveryPolicy(max_shard_attempts=5),
        )
    )
    assert join.runtime.recovery == RecoveryPolicy(max_shard_attempts=5)
    assert DevicePool(join.runtime)[0].executor.retry_overflows


def test_knobs_are_read_from_the_runtime():
    join = SelfJoin(
        runtime=RuntimeConfig(optimization=PRESETS["combined"], seed=7, include_self=False)
    )
    rt = join.runtime
    assert (rt.optimization, rt.seed, rt.include_self) == (PRESETS["combined"], 7, False)
    assert (rt.engine, rt.replay_mode) == ("interpreted", "aggregate")
    for attr in ("config", "device", "costs", "include_self", "seed", "replay_mode", "engine"):
        assert not hasattr(join, attr)
        assert not hasattr(SimilarityJoin(), attr)
    pooled = SelfJoin(
        runtime=RuntimeConfig(
            sharding=ShardingConfig(num_devices=3, planner="strided", schedule="static")
        )
    )
    sharding = pooled.runtime.sharding
    assert (sharding.planner, sharding.schedule, sharding.num_shards) == ("strided", "static", 6)
