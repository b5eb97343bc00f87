"""The result of a multi-device sharded join.

A pooled join is a :class:`~repro.core.selfjoin.SelfJoin` or
:class:`~repro.core.join.SimilarityJoin` whose
:class:`~repro.runtime.config.RuntimeConfig` carries a
:class:`~repro.runtime.config.ShardingConfig`. It compiles a pooled
:class:`~repro.runtime.plan.JoinPlan` — whose shard stage partitions the
query points with the chosen planner (:mod:`repro.multigpu.sharding`) —
and the :class:`~repro.runtime.runner.Runner` drives a
:class:`~repro.multigpu.pool.DevicePool` through the shard set with the
chosen scheduler mode (:mod:`repro.multigpu.scheduler`). Every shard runs
the *unchanged* single-device join — same config, same kernels, same
batching — over the one host-side ε-grid index (shared, read-only — as
the replicated index of a real multi-GPU deployment); shard results are
then deterministically merged (:mod:`repro.multigpu.merge`) with
pool-level metrics attached (:mod:`repro.multigpu.metrics`).

The returned :class:`MultiJoinResult` *is a*
:class:`~repro.core.result.JoinResult` — exact pairs in canonical order,
simulated response time (now the pool makespan), WEE over every warp of
every device — plus the device-level trace and efficiency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.result import JoinResult
from repro.multigpu.metrics import PoolStats
from repro.multigpu.scheduler import RecoveryLog, ScheduleTrace
from repro.multigpu.sharding import ShardPlan

__all__ = ["MultiJoinResult"]


@dataclass(frozen=True)
class MultiJoinResult(JoinResult):
    """A :class:`JoinResult` plus the pool-level execution record."""

    planner: str = ""
    schedule_mode: str = ""
    num_devices: int = 1
    pool_stats: PoolStats | None = field(default=None, repr=False)
    trace: ScheduleTrace | None = field(default=None, repr=False)
    shard_plan: ShardPlan | None = field(default=None, repr=False)

    @property
    def device_execution_efficiency(self) -> float:
        """Busy device-time over allocated device-time — the pool's WEE."""
        if self.pool_stats is None:
            return 1.0
        return self.pool_stats.device_execution_efficiency

    @property
    def makespan_seconds(self) -> float:
        return self.trace.makespan_seconds if self.trace is not None else 0.0

    @property
    def serial_seconds(self) -> float:
        """Sum of shard times — what one device of the pool would take."""
        return self.pool_stats.total_busy_seconds if self.pool_stats else 0.0

    @property
    def recovery_log(self) -> RecoveryLog | None:
        """What the resilient scheduler did, or ``None`` on a fail-fast run."""
        return self.trace.recovery if self.trace is not None else None
