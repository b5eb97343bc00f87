"""Multi-device sharded similarity joins with device-level load balancing.

The paper mitigates load imbalance *within* one GPU — SORTBYWL packs
warps with similar workloads, the WORKQUEUE forces most-work-first warp
execution. This package applies the same two ideas one level up, across a
pool of simulated devices:

- :class:`DevicePool` — N independent
  :class:`~repro.simt.GpuMachine`-backed executors, each with private
  buffers, counters and transfer pipeline;
- :mod:`~repro.multigpu.sharding` — point-strided, contiguous-cell-block
  and workload-balanced (greedy LPT over the SORTBYWL per-point workload
  estimates) shard planners;
- :class:`HostScheduler` — static pre-assignment vs a shared
  most-work-first device queue (the WORKQUEUE generalized from warp-slot
  fetch to device-shard fetch);
- :mod:`~repro.multigpu.merge` — deterministic, execution-order-independent
  merging back into a normal :class:`~repro.core.result.JoinResult`;
- :class:`PoolStats` — per-device busy time, makespan, and **device
  execution efficiency**, the pool analogue of the paper's warp execution
  efficiency.

Passing a :class:`~repro.resilience.policy.RecoveryPolicy` (or a
:class:`~repro.resilience.faults.FaultPlan`, which implies one) switches
the scheduler into its self-healing loop: shard requeue off dead devices,
bounded transient retries, straggler speculation — with merged pairs
identical to the fault-free run (see :mod:`repro.resilience`).

A pooled join is the single-device facade with a
:class:`~repro.runtime.config.ShardingConfig` in its runtime; it returns
a :class:`MultiJoinResult`. Quickstart::

    from repro import RuntimeConfig, SelfJoin, ShardingConfig

    join = SelfJoin(runtime=RuntimeConfig(
        sharding=ShardingConfig(num_devices=4, planner="balanced")))
    result = join.execute(points, epsilon=0.5)
    print(result.num_pairs, result.total_seconds,
          result.device_execution_efficiency)

An explicit (e.g. heterogeneous) pool runs a compiled plan directly::

    from repro import GridIndex, Runner, compile_self_join
    from repro.multigpu import DevicePool

    rt = RuntimeConfig(sharding=ShardingConfig(num_devices=2))
    pool = DevicePool(rt, specs=[fast_spec, slow_spec])
    result = Runner(pool=pool).run(compile_self_join(GridIndex(points, 0.5), rt))
"""

from repro.multigpu.join import MultiJoinResult
from repro.multigpu.merge import merge_pairs, merge_shard_results, pipeline_from_trace
from repro.multigpu.metrics import DeviceStats, PoolStats, pool_stats_from_trace
from repro.multigpu.pool import DeviceHealth, DevicePool, PoolDevice
from repro.multigpu.scheduler import (
    EVENT_KINDS,
    SCHEDULE_MODES,
    FailureRecord,
    HostScheduler,
    RecoveryLog,
    RequeueRecord,
    ScheduleTrace,
    ShardEvent,
    SpeculationRecord,
    TransientRecord,
)
from repro.multigpu.sharding import (
    SHARD_PLANNERS,
    Shard,
    ShardPlan,
    plan_query_shards,
    plan_shards,
)

__all__ = [
    "DeviceHealth",
    "DevicePool",
    "DeviceStats",
    "EVENT_KINDS",
    "FailureRecord",
    "HostScheduler",
    "MultiJoinResult",
    "PoolDevice",
    "PoolStats",
    "RecoveryLog",
    "RequeueRecord",
    "SCHEDULE_MODES",
    "SHARD_PLANNERS",
    "ScheduleTrace",
    "Shard",
    "ShardEvent",
    "ShardPlan",
    "SpeculationRecord",
    "TransientRecord",
    "merge_pairs",
    "merge_shard_results",
    "pipeline_from_trace",
    "plan_query_shards",
    "plan_shards",
    "pool_stats_from_trace",
]
