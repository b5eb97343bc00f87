"""Fault injection and self-healing execution for the sharded join.

The paper's pipeline (and our PR-1 multi-GPU layer on top of it) assumes
an infallible machine: the batch estimator never under-guesses, devices
never die, and every device runs at spec. A production join service gets
none of those guarantees, so this package makes failure a first-class,
*deterministic* input:

- :class:`FaultPlan` (:mod:`repro.resilience.faults`) — a seeded,
  declarative description of device failures, stragglers, transient
  kernel errors and forced result-buffer overflows;
- :class:`FaultyExecutor` (:mod:`repro.resilience.executor`) — wraps any
  :class:`~repro.core.executor.BatchExecutor` and injects exactly the
  plan's faults, nothing else;
- :class:`RecoveryPolicy` (:mod:`repro.resilience.policy`) — how the
  :class:`~repro.multigpu.scheduler.HostScheduler` heals: bounded
  transient retries with backoff, shard requeue onto surviving devices,
  straggler speculation with first-result-wins, graceful degradation down
  to one device.

The contract, verified by tests and the resilience benchmark: under every
injected fault the merged :class:`~repro.core.result.JoinResult` is
pair-for-pair identical to the fault-free run, the
:class:`~repro.multigpu.scheduler.ScheduleTrace` is reproducible per seed,
and every second spent recovering is accounted in the
:class:`~repro.profiling.ResilienceReport`.

Quickstart::

    from repro import RuntimeConfig, SelfJoin, ShardingConfig
    from repro.resilience import DeviceFailure, FaultPlan, RecoveryPolicy

    plan = FaultPlan(seed=7, failures=[DeviceFailure(device_id=1, at_shard=1)])
    join = SelfJoin(runtime=RuntimeConfig(
        sharding=ShardingConfig(num_devices=4),
        fault_plan=plan, recovery=RecoveryPolicy()))
    result = join.execute(points, epsilon=0.5)   # pairs identical to fault-free
"""

from repro.resilience.checkpoint import (
    CheckpointError,
    CheckpointStats,
    CheckpointStore,
    RunJournal,
    config_identity,
    run_fingerprint,
)
from repro.resilience.executor import FaultyExecutor
from repro.resilience.faults import (
    AllDevicesLostError,
    CancellationStorm,
    ClientDisconnect,
    CrashPoint,
    DeviceFailure,
    DeviceLostError,
    FaultError,
    FaultPlan,
    ForcedOverflow,
    PoolCollapse,
    RunnerCrash,
    ServiceFaultPlan,
    SimulatedCrashError,
    SlowClient,
    Straggler,
    TransientFaults,
    TransientKernelError,
)
from repro.resilience.policy import RecoveryPolicy

__all__ = [
    "AllDevicesLostError",
    "CancellationStorm",
    "CheckpointError",
    "CheckpointStats",
    "CheckpointStore",
    "ClientDisconnect",
    "CrashPoint",
    "DeviceFailure",
    "DeviceLostError",
    "FaultError",
    "FaultPlan",
    "FaultyExecutor",
    "ForcedOverflow",
    "PoolCollapse",
    "RecoveryPolicy",
    "RunJournal",
    "RunnerCrash",
    "ServiceFaultPlan",
    "SimulatedCrashError",
    "SlowClient",
    "Straggler",
    "TransientFaults",
    "TransientKernelError",
    "config_identity",
    "run_fingerprint",
]
