"""The host scheduler: static shard assignment vs a shared dynamic queue,
in one run loop that can heal device faults.

This is the WORKQUEUE optimization (Section III-D) lifted one level: where
the paper's queue is an atomic counter over the workload-sorted point
array D' that warps fetch from, the host queue is the workload-sorted
*shard* list that *devices* fetch from, in order. The two modes form the
same ablation the paper runs for warps:

- ``"static"`` — shard ``i`` is pre-assigned to device ``i % N`` (the
  multi-GPU analogue of the static thread→point mapping of Figure 1);
  each device processes its list in shard order.
- ``"dynamic"`` — all shards sit in one shared most-work-first queue
  (:meth:`ShardPlan.dispatch_order`); whenever a device finishes it
  fetches the next shard from the head of the queue. Fast (or lucky)
  devices steal work that a static split would have stranded on a slow
  one.

Execution is simulated but *real*: fetching a shard runs its kernels on
that device's machine, and the fetch order is decided by the simulated
completion times — so the trace is exactly what a host event loop over N
real devices would record. Everything is deterministic: ties on device
free-time break toward the lowest device id.

Without a :class:`~repro.resilience.policy.RecoveryPolicy` the loop fails
fast: every exception from a shard propagates. With one, it survives
injected (or genuine) device faults:

- :class:`~repro.resilience.faults.DeviceLostError` marks the device dead
  in its :class:`~repro.multigpu.pool.DeviceHealth` and requeues the lost
  shard onto a surviving device — degrading gracefully down to one device
  and raising :class:`~repro.resilience.faults.AllDevicesLostError` only
  when none remain;
- :class:`~repro.resilience.faults.TransientKernelError` retries on the
  same device (at most :data:`MAX_TRANSIENT_RETRIES` times), then
  requeues elsewhere;
- in dynamic mode, once the queue drains, the latest-finishing shard is
  checked against the straggler criterion (duration above
  :data:`STRAGGLER_THRESHOLD` × the median) and speculatively re-executed on
  an idle device: the first result wins, the loser is cancelled at the
  winner's finish time, and the loser's spend is recorded as waste.

Every recovery action appears in the trace as a typed
:class:`ShardEvent` (``kind`` ∈ run/transient/lost/preempted/speculative/
cancelled) and in the :class:`RecoveryLog`, so the merged result stays an
execution-order-independent function of the shard set and the trace
remains a deterministic, signature-comparable record per seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.multigpu.pool import DevicePool
from repro.multigpu.sharding import ShardPlan
from repro.resilience.faults import (
    AllDevicesLostError,
    DeviceLostError,
    TransientKernelError,
)
from repro.resilience.policy import RecoveryPolicy

__all__ = [
    "EVENT_KINDS",
    "SCHEDULE_MODES",
    "FailureRecord",
    "HostScheduler",
    "RecoveryLog",
    "RequeueRecord",
    "ScheduleTrace",
    "ShardEvent",
    "SpeculationRecord",
    "TransientRecord",
]

SCHEDULE_MODES = ("static", "dynamic")

#: What one trace event can record. ``run`` finished normally;
#: ``transient`` wasted an attempt; ``lost`` is a shard dying with its
#: device; ``preempted`` is a straggler primary killed by a winning
#: speculative copy; ``speculative`` is that winning copy; ``cancelled``
#: is a losing copy killed at the primary's finish.
EVENT_KINDS = ("run", "transient", "lost", "preempted", "speculative", "cancelled")

#: Event kinds whose result actually contributed pairs/kernel time.
PRODUCTIVE_KINDS = ("run", "speculative")

#: Retries of a transiently failed shard on the same device before it
#: is requeued onto a different one.
MAX_TRANSIENT_RETRIES = 2
#: A completed shard is a straggler when its duration exceeds this many
#: times the median shard duration.
STRAGGLER_THRESHOLD = 1.5
#: Speculate only when the idle device could beat the straggler's
#: finish by more than this many simulated seconds.
SPECULATION_MIN_BENEFIT_SECONDS = 0.0


@dataclass(frozen=True)
class ShardEvent:
    """One shard attempt on one device, in simulated host time."""

    shard_id: int
    device_id: int
    start_seconds: float
    end_seconds: float
    num_pairs: int
    num_points: int
    kind: str = "run"
    attempt: int = 0

    @property
    def duration_seconds(self) -> float:
        return self.end_seconds - self.start_seconds


@dataclass(frozen=True)
class FailureRecord:
    """A device dying, and the shard it took down with it."""

    device_id: int
    at_seconds: float
    shard_id: int


@dataclass(frozen=True)
class TransientRecord:
    """One transiently failed attempt (wasted time includes backoff)."""

    shard_id: int
    device_id: int
    attempt: int
    wasted_seconds: float


@dataclass(frozen=True)
class RequeueRecord:
    """A shard moved to a different device after its first one gave up."""

    shard_id: int
    from_device: int
    to_device: int
    reason: str  # "device_lost" | "transient_exhausted"


@dataclass(frozen=True)
class SpeculationRecord:
    """A speculative re-execution and which copy won."""

    shard_id: int
    primary_device: int
    backup_device: int
    won: bool
    wasted_seconds: float


@dataclass
class RecoveryLog:
    """Everything the resilient scheduler did beyond plain execution."""

    device_failures: list[FailureRecord] = field(default_factory=list)
    transients: list[TransientRecord] = field(default_factory=list)
    requeues: list[RequeueRecord] = field(default_factory=list)
    speculations: list[SpeculationRecord] = field(default_factory=list)

    @property
    def num_devices_lost(self) -> int:
        return len(self.device_failures)

    @property
    def num_transient_retries(self) -> int:
        return len(self.transients)

    @property
    def num_requeues(self) -> int:
        return len(self.requeues)

    @property
    def num_speculations(self) -> int:
        return len(self.speculations)

    @property
    def num_speculative_wins(self) -> int:
        return sum(1 for s in self.speculations if s.won)

    @property
    def wasted_seconds(self) -> float:
        """Device-seconds burned on work that produced no result rows."""
        return float(
            sum(t.wasted_seconds for t in self.transients)
            + sum(s.wasted_seconds for s in self.speculations)
        )


@dataclass(frozen=True)
class ScheduleTrace:
    """Dispatch-ordered record of a pool run — the device-level profiler."""

    events: list[ShardEvent]
    mode: str
    num_devices: int
    recovery: RecoveryLog | None = None

    @property
    def makespan_seconds(self) -> float:
        """Host-observed response time: when the last device went idle."""
        return max((e.end_seconds for e in self.events), default=0.0)

    def device_busy_seconds(self) -> np.ndarray:
        """Per-device busy time, ``(num_devices,)``."""
        busy = np.zeros(self.num_devices, dtype=np.float64)
        for e in self.events:
            busy[e.device_id] += e.duration_seconds
        return busy

    def signature(self) -> tuple:
        """Hashable exact description — determinism tests compare these."""
        return tuple(
            (
                e.shard_id,
                e.device_id,
                e.start_seconds,
                e.end_seconds,
                e.num_pairs,
                e.kind,
                e.attempt,
            )
            for e in self.events
        )


class HostScheduler:
    """Drives a :class:`~repro.multigpu.pool.DevicePool` through a
    :class:`~repro.multigpu.sharding.ShardPlan`.

    ``recovery=None`` (the default) fails fast: any exception from
    ``run_shard`` propagates, and the trace carries no recovery log.
    Passing a :class:`~repro.resilience.policy.RecoveryPolicy` enables the
    recovery documented in the module docstring.
    """

    def __init__(
        self,
        pool: DevicePool,
        mode: str = "dynamic",
        *,
        recovery: RecoveryPolicy | None = None,
    ):
        if mode not in SCHEDULE_MODES:
            raise ValueError(
                f"unknown schedule mode {mode!r}; expected one of {SCHEDULE_MODES}"
            )
        self.pool = pool
        self.mode = mode
        self.recovery = recovery

    def run(self, plan: ShardPlan, run_shard) -> tuple[list, ScheduleTrace]:
        """Execute every shard; return per-shard results and the trace.

        ``run_shard(device, shard)`` must run the shard's join on the given
        :class:`~repro.multigpu.pool.PoolDevice` and return an object with
        ``total_seconds`` and ``num_pairs`` (a ``JoinResult``). Results are
        returned indexed by ``shard_id`` regardless of execution order.
        """
        policy = self.recovery
        n = self.pool.num_devices
        self.pool.reset_health()
        state = _LoopState(
            np.zeros(n, dtype=np.float64), [None] * plan.num_shards, [], RecoveryLog()
        )
        if self.mode == "static":
            shard_seq = [s.shard_id for s in plan.shards]
        else:
            shard_seq = plan.dispatch_order()  # most-work-first, the lifted D'

        for sid in shard_seq:
            d = self._initial_device(sid, state)
            self._execute(plan, run_shard, sid, d, policy, state)

        if policy is not None and policy.speculation and self.mode == "dynamic":
            self._speculate(plan, run_shard, policy, state)

        log = state.log if policy is not None else None
        return state.results, ScheduleTrace(state.events, self.mode, n, recovery=log)

    # -- device selection ----------------------------------------------
    def _alive(self) -> list[int]:
        return self.pool.alive_device_ids()

    def _initial_device(self, sid: int, state: "_LoopState") -> int:
        alive = self._alive()
        if not alive:
            raise AllDevicesLostError("no devices left to dispatch to")
        if self.mode == "static":
            # pre-assignment, failing over to the next alive id
            n = self.pool.num_devices
            for j in range(n):
                d = (sid + j) % n
                if self.pool[d].health.alive:
                    return d
        return min(alive, key=lambda d: (state.clocks[d], d))

    def _next_device(self, exclude: int, state: "_LoopState") -> int:
        """Requeue target: earliest-free surviving device, preferring one
        that is not ``exclude`` (fall back to it if it is the only one)."""
        alive = self._alive()
        if not alive:
            raise AllDevicesLostError("no devices left to requeue onto")
        others = [d for d in alive if d != exclude]
        pool = others if others else alive
        return min(pool, key=lambda d: (state.clocks[d], d))

    # -- one shard, to completion ----------------------------------------
    def _execute(
        self, plan, run_shard, sid, d, policy: RecoveryPolicy | None, state: "_LoopState"
    ) -> None:
        shard = plan.shards[sid]
        attempts_on_device = 0
        total_attempts = 0
        while True:
            total_attempts += 1
            if policy is not None and total_attempts > policy.max_shard_attempts:
                raise RuntimeError(
                    f"shard {sid} failed {policy.max_shard_attempts} attempts; "
                    "fault plan exceeds the recovery policy's budget"
                )
            device = self.pool[d]
            device.health.shards_started += 1
            start = float(state.clocks[d])
            try:
                result = run_shard(device, shard)
            except DeviceLostError as e:
                if policy is None:
                    raise
                end = start + float(e.wasted_seconds)
                state.clocks[d] = end
                device.health.fail(at_seconds=end)
                state.log.device_failures.append(FailureRecord(d, end, sid))
                state.events.append(
                    ShardEvent(
                        sid, d, start, end, 0, shard.num_points,
                        kind="lost", attempt=total_attempts - 1,
                    )
                )
                nd = self._next_device(exclude=d, state=state)
                state.log.requeues.append(RequeueRecord(sid, d, nd, "device_lost"))
                d = nd
                attempts_on_device = 0
                continue
            except TransientKernelError as e:
                if policy is None:
                    raise
                wasted = float(e.wasted_seconds)
                end = start + wasted
                state.clocks[d] = end
                state.events.append(
                    ShardEvent(
                        sid, d, start, end, 0, shard.num_points,
                        kind="transient", attempt=attempts_on_device,
                    )
                )
                state.log.transients.append(
                    TransientRecord(sid, d, attempts_on_device, wasted)
                )
                attempts_on_device += 1
                if attempts_on_device > MAX_TRANSIENT_RETRIES:
                    nd = self._next_device(exclude=d, state=state)
                    if nd != d:
                        state.log.requeues.append(
                            RequeueRecord(sid, d, nd, "transient_exhausted")
                        )
                        d = nd
                    attempts_on_device = 0
                continue
            end = start + float(result.total_seconds)
            state.clocks[d] = end
            state.results[sid] = result
            state.events.append(
                ShardEvent(
                    sid, d, start, end, int(result.num_pairs), shard.num_points,
                    kind="run", attempt=total_attempts - 1,
                )
            )
            return

    # -- straggler speculation -------------------------------------------
    def _speculate(self, plan, run_shard, policy: RecoveryPolicy, state: "_LoopState"):
        """After the queue drains: re-execute the straggling tail shard on
        an idle device; first result wins, the loser is cancelled."""
        tried: set[int] = set()
        while True:
            run_events = [
                (i, e) for i, e in enumerate(state.events) if e.kind == "run"
            ]
            candidates = [
                (i, e) for i, e in run_events if e.shard_id not in tried
            ]
            if not candidates:
                return
            durations = np.array([e.duration_seconds for _, e in run_events])
            median = float(np.median(durations))
            # the latest-finishing shard is the tail; ties to lowest shard id
            idx, tail = max(candidates, key=lambda kv: (kv[1].end_seconds, -kv[1].shard_id))
            tried.add(tail.shard_id)
            if median <= 0 or tail.duration_seconds <= STRAGGLER_THRESHOLD * median:
                return
            # the tail must still be the last thing on its device, or a
            # cancelled copy already occupies it later and preemption would
            # rewind time through another event
            if state.clocks[tail.device_id] != tail.end_seconds:
                return
            backups = [d for d in self._alive() if d != tail.device_id]
            if not backups:
                return
            b = min(backups, key=lambda d: (state.clocks[d], d))
            t0 = float(state.clocks[b])
            if tail.end_seconds - t0 <= SPECULATION_MIN_BENEFIT_SECONDS:
                return
            shard = plan.shards[tail.shard_id]
            self.pool[b].health.shards_started += 1
            try:
                copy = run_shard(self.pool[b], shard)
            except DeviceLostError as e:
                end = t0 + float(e.wasted_seconds)
                state.clocks[b] = end
                self.pool[b].health.fail(at_seconds=end)
                state.log.device_failures.append(FailureRecord(b, end, tail.shard_id))
                state.events.append(
                    ShardEvent(
                        tail.shard_id, b, t0, end, 0, shard.num_points, kind="lost"
                    )
                )
                state.log.speculations.append(
                    SpeculationRecord(
                        tail.shard_id, tail.device_id, b, False, end - t0
                    )
                )
                continue
            except TransientKernelError as e:
                end = t0 + float(e.wasted_seconds)
                state.clocks[b] = end
                state.events.append(
                    ShardEvent(
                        tail.shard_id, b, t0, end, 0, shard.num_points,
                        kind="transient",
                    )
                )
                state.log.transients.append(
                    TransientRecord(tail.shard_id, b, 0, end - t0)
                )
                state.log.speculations.append(
                    SpeculationRecord(
                        tail.shard_id, tail.device_id, b, False, end - t0
                    )
                )
                continue
            end2 = t0 + float(copy.total_seconds)
            if end2 < tail.end_seconds:
                # backup wins: primary is cancelled at the winner's finish
                state.events[idx] = replace(
                    tail, end_seconds=end2, num_pairs=0, kind="preempted"
                )
                state.clocks[tail.device_id] = end2
                state.clocks[b] = end2
                state.results[tail.shard_id] = copy
                state.events.append(
                    ShardEvent(
                        tail.shard_id, b, t0, end2, int(copy.num_pairs),
                        shard.num_points, kind="speculative",
                    )
                )
                state.log.speculations.append(
                    SpeculationRecord(
                        tail.shard_id, tail.device_id, b, True,
                        end2 - tail.start_seconds,
                    )
                )
            else:
                # primary wins: backup is cancelled when the primary finishes
                kill = max(t0, float(tail.end_seconds))
                state.clocks[b] = kill
                state.events.append(
                    ShardEvent(
                        tail.shard_id, b, t0, kill, 0, shard.num_points,
                        kind="cancelled",
                    )
                )
                state.log.speculations.append(
                    SpeculationRecord(
                        tail.shard_id, tail.device_id, b, False, kill - t0
                    )
                )


@dataclass
class _LoopState:
    """Mutable bundle threaded through the run loop's helpers."""

    clocks: np.ndarray
    results: list
    events: list[ShardEvent]
    log: RecoveryLog
