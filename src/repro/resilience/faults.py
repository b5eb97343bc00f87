"""Deterministic fault injection: what can go wrong, and when.

A :class:`FaultPlan` is a *seeded, declarative* description of the faults a
run must survive — the simulated analogue of chaos testing a production
join service. Four fault species cover the failure modes a multi-GPU host
actually sees:

- :class:`DeviceFailure` — a device dies permanently when it starts its
  k-th shard (XID error, fell off the bus, preempted by the cluster);
- :class:`Straggler` — a device runs every kernel slower by a constant
  factor (thermal throttling, a noisy PCIe neighbour);
- :class:`TransientFaults` — a kernel launch fails with probability ``p``
  and can be retried (ECC hiccup, spurious launch failure);
- :class:`ForcedOverflow` — the device's result buffer is clamped so the
  batching estimator's guess *under*-sizes it and the overflow-recovery
  path runs for real.

Everything is deterministic per ``FaultPlan.seed``: the transient draws
come from a per-device ``SeedSequence(seed, device_id)`` stream, and the
other species are purely positional — so a faulty run replays exactly,
which is what lets tests assert the recovered result is pair-identical to
the fault-free one.

The plan is *injected*, never polled: a
:class:`~repro.resilience.executor.FaultyExecutor` wraps a device's
:class:`~repro.core.executor.BatchExecutor` and raises
:class:`DeviceLostError` / :class:`TransientKernelError` (or clamps the
buffer) according to the plan; the
:class:`~repro.multigpu.scheduler.HostScheduler` catches and recovers.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "AllDevicesLostError",
    "CancellationStorm",
    "ClientDisconnect",
    "CrashPoint",
    "DeviceFailure",
    "DeviceLostError",
    "FaultError",
    "FaultPlan",
    "ForcedOverflow",
    "PoolCollapse",
    "RunnerCrash",
    "ServiceFaultPlan",
    "SimulatedCrashError",
    "SlowClient",
    "Straggler",
    "TransientFaults",
    "TransientKernelError",
]


class FaultError(RuntimeError):
    """Base class of injected device faults."""


class DeviceLostError(FaultError):
    """The device failed permanently; its in-flight shard is lost.

    ``wasted_seconds`` is the simulated device time spent on the shard
    before the failure (charged to the device's clock by the scheduler).
    """

    def __init__(self, device_id: int, wasted_seconds: float = 0.0):
        super().__init__(f"device {device_id} lost")
        self.device_id = int(device_id)
        self.wasted_seconds = float(wasted_seconds)


class TransientKernelError(FaultError):
    """A kernel launch failed but the device survives; retry is legal.

    ``wasted_seconds`` is the simulated time the failed attempt burned
    (the full attempt: the error surfaces at completion, as a real launch
    failure is observed at synchronization).
    """

    def __init__(self, device_id: int, wasted_seconds: float = 0.0):
        super().__init__(f"transient kernel error on device {device_id}")
        self.device_id = int(device_id)
        self.wasted_seconds = float(wasted_seconds)


class AllDevicesLostError(FaultError):
    """Every device in the pool has failed; the join cannot complete."""


class SimulatedCrashError(FaultError):
    """The *host process* died mid-run (a :class:`CrashPoint` fired).

    Unlike device faults this is not recoverable in-process — the
    scheduler's recovery loop deliberately lets it propagate. The run's
    durable state is whatever the checkpoint journal holds; resume with
    :meth:`repro.runtime.runner.Runner.resume`.
    """

    def __init__(self, at_shard: int):
        super().__init__(
            f"simulated host crash at shard dispatch {at_shard} "
            "(resume from the checkpoint journal)"
        )
        self.at_shard = int(at_shard)


@dataclass(frozen=True)
class DeviceFailure:
    """Device ``device_id`` dies when it *starts* its ``at_shard``-th shard
    (0-based count of shard dispatches on that device)."""

    device_id: int
    at_shard: int = 0

    def __post_init__(self):
        if self.at_shard < 0:
            raise ValueError("at_shard must be >= 0")


@dataclass(frozen=True)
class Straggler:
    """Device ``device_id`` runs ``slowdown`` times slower than its spec."""

    device_id: int
    slowdown: float = 4.0

    def __post_init__(self):
        if self.slowdown < 1.0:
            raise ValueError("slowdown must be >= 1 (use 1.0 for no fault)")


@dataclass(frozen=True)
class TransientFaults:
    """Each shard dispatch on ``device_id`` fails with probability
    ``probability``; at most ``max_failures`` failures are injected
    (``None`` = unbounded)."""

    device_id: int
    probability: float = 0.5
    max_failures: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.max_failures is not None and self.max_failures < 0:
            raise ValueError("max_failures must be >= 0 or None")


@dataclass(frozen=True)
class ForcedOverflow:
    """The first ``times`` shard dispatches on ``device_id`` run with the
    result buffer clamped to ``clamp_capacity`` pairs (``None`` = an eighth
    of the requested capacity), forcing the overflow-recovery path."""

    device_id: int
    times: int = 1
    clamp_capacity: int | None = None

    def __post_init__(self):
        if self.times < 0:
            raise ValueError("times must be >= 0")
        if self.clamp_capacity is not None and self.clamp_capacity < 0:
            raise ValueError("clamp_capacity must be >= 0 or None")

    def clamp(self, result_capacity: int) -> int:
        if self.clamp_capacity is not None:
            return min(result_capacity, self.clamp_capacity)
        return max(1, result_capacity // 8)


@dataclass(frozen=True)
class CrashPoint:
    """The host process dies when it dispatches its ``at_shard``-th shard
    execution (0-based count of shard dispatches across the whole run).

    The runner raises :class:`SimulatedCrashError` *before* that dispatch
    executes, so exactly ``at_shard`` shard executions completed — the
    crash-at-shard-k scenario the checkpoint/resume acceptance pins. A
    single-device run counts as one dispatch: ``at_shard=0`` crashes it
    before any work, ``at_shard>=1`` never fires.
    """

    at_shard: int = 0

    def __post_init__(self):
        if self.at_shard < 0:
            raise ValueError("at_shard must be >= 0")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, declarative set of faults to inject into one run.

    The empty plan (``FaultPlan()``) injects nothing — a run under it is
    byte-identical to an unwrapped run, which tests rely on.
    """

    seed: int = 0
    failures: tuple[DeviceFailure, ...] = ()
    stragglers: tuple[Straggler, ...] = ()
    transients: tuple[TransientFaults, ...] = ()
    overflows: tuple[ForcedOverflow, ...] = ()
    crashes: tuple[CrashPoint, ...] = ()

    def __post_init__(self):
        # accept lists for ergonomics; store tuples so the plan stays hashable
        for name in ("failures", "stragglers", "transients", "overflows", "crashes"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    # -- per-device views ------------------------------------------------
    def failure_for(self, device_id: int) -> DeviceFailure | None:
        """The earliest-scheduled permanent failure of this device, if any."""
        hits = [f for f in self.failures if f.device_id == device_id]
        return min(hits, key=lambda f: f.at_shard) if hits else None

    def straggler_factor(self, device_id: int) -> float:
        """Combined slowdown of this device (product of matching faults)."""
        factor = 1.0
        for s in self.stragglers:
            if s.device_id == device_id:
                factor *= s.slowdown
        return factor

    def transient_for(self, device_id: int) -> TransientFaults | None:
        for t in self.transients:
            if t.device_id == device_id:
                return t
        return None

    def overflow_for(self, device_id: int) -> ForcedOverflow | None:
        for o in self.overflows:
            if o.device_id == device_id:
                return o
        return None

    def crash_point(self) -> CrashPoint | None:
        """The earliest host crash of this plan, if any."""
        return min(self.crashes, key=lambda c: c.at_shard) if self.crashes else None

    @property
    def is_empty(self) -> bool:
        return not (
            self.failures
            or self.stragglers
            or self.transients
            or self.overflows
            or self.crashes
        )

    @property
    def has_device_faults(self) -> bool:
        """Whether the plan injects faults the scheduler must *heal* from.

        Host crashes are excluded: a :class:`CrashPoint` kills the whole
        process (recovery happens via checkpoint resume, not requeue), so
        a crash-only plan does not imply a :class:`RecoveryPolicy` — the
        surviving execution stays byte-identical to the fault-free run.
        """
        return bool(
            self.failures or self.stragglers or self.transients or self.overflows
        )

    def describe(self) -> str:
        parts = []
        for f in self.failures:
            parts.append(f"kill(dev{f.device_id}@shard{f.at_shard})")
        for s in self.stragglers:
            parts.append(f"slow(dev{s.device_id}x{s.slowdown:g})")
        for t in self.transients:
            parts.append(f"flaky(dev{t.device_id} p={t.probability:g})")
        for o in self.overflows:
            parts.append(f"overflow(dev{o.device_id}x{o.times})")
        for c in self.crashes:
            parts.append(f"crash(@shard{c.at_shard})")
        return " ".join(parts) if parts else "fault-free"


# ----------------------------------------------------------------------
# Service-level fault species: what can go wrong *above* the device seam.
# Each is keyed by ``at_request`` — the 0-based dispatch ordinal at the
# JoinService (the n-th request leaving the queue for execution) — so an
# injection schedule is deterministic for a deterministic request sequence.


@dataclass(frozen=True)
class CancellationStorm:
    """When dispatch ordinal ``at_request`` fires, ``count`` queued
    requests (chosen by the plan's seeded RNG from the current backlog)
    are cancelled at once — the thundering-herd of client timeouts."""

    at_request: int
    count: int = 1

    def __post_init__(self):
        if self.at_request < 0:
            raise ValueError("at_request must be >= 0")
        if self.count < 1:
            raise ValueError("count must be >= 1")


@dataclass(frozen=True)
class ClientDisconnect:
    """The client of dispatch ordinal ``at_request`` goes away the moment
    its request starts executing; the service must discard the result and
    resolve the ticket terminally."""

    at_request: int

    def __post_init__(self):
        if self.at_request < 0:
            raise ValueError("at_request must be >= 0")


@dataclass(frozen=True)
class SlowClient:
    """The client of dispatch ordinal ``at_request`` consumes its result
    stream with ``delay_seconds`` of real wall-time stall per block — the
    backpressure case: a slow reader must not stall the service."""

    at_request: int
    delay_seconds: float = 0.01

    def __post_init__(self):
        if self.at_request < 0:
            raise ValueError("at_request must be >= 0")
        if self.delay_seconds < 0:
            raise ValueError("delay_seconds must be >= 0")


@dataclass(frozen=True)
class PoolCollapse:
    """Mid-request pool collapse: while dispatch ordinal ``at_request``
    runs pooled, every device above the first ``keep_devices`` dies at its
    ``at_shard``-th shard (merged into the request's device fault plan)."""

    at_request: int
    keep_devices: int = 1
    at_shard: int = 1

    def __post_init__(self):
        if self.at_request < 0:
            raise ValueError("at_request must be >= 0")
        if self.keep_devices < 1:
            raise ValueError("keep_devices must be >= 1")
        if self.at_shard < 0:
            raise ValueError("at_shard must be >= 0")


@dataclass(frozen=True)
class RunnerCrash:
    """Crash-at-shard-k through the service: dispatch ordinal
    ``at_request`` gets a :class:`CrashPoint` at ``at_shard`` merged into
    its fault plan on its *first* attempt only — retries (which resume
    from the checkpoint journal when the request checkpoints) run clean."""

    at_request: int
    at_shard: int = 0

    def __post_init__(self):
        if self.at_request < 0:
            raise ValueError("at_request must be >= 0")
        if self.at_shard < 0:
            raise ValueError("at_shard must be >= 0")


#: the service fault species, in the order one dispatch ordinal injects them
_SERVICE_SPECIES = ("storms", "disconnects", "slow_clients", "collapses", "crashes")


@dataclass(frozen=True)
class ServiceFaultPlan:
    """A seeded, declarative set of *service* faults — the serving mirror
    of :class:`FaultPlan`, consumed by
    :class:`~repro.serve.chaos.ChaosController` via
    ``ServeConfig(chaos=...)``.

    Deterministic per ``seed``: the only random choice (storm victims) is
    drawn from a ``default_rng(seed)`` stream in injection order, so the
    same request sequence under the same plan produces the same
    ``ServiceLog`` signature.
    """

    seed: int = 0
    storms: tuple[CancellationStorm, ...] = ()
    disconnects: tuple[ClientDisconnect, ...] = ()
    slow_clients: tuple[SlowClient, ...] = ()
    collapses: tuple[PoolCollapse, ...] = ()
    crashes: tuple[RunnerCrash, ...] = ()

    def __post_init__(self):
        for name in _SERVICE_SPECIES:
            object.__setattr__(self, name, tuple(getattr(self, name)))

    def faults_at(self, ordinal: int) -> list:
        """The faults injected at one dispatch ordinal: the first fault of
        each species that names it, in species order (storms first)."""
        firsts = (
            next((f for f in getattr(self, name) if f.at_request == ordinal), None)
            for name in _SERVICE_SPECIES
        )
        return [f for f in firsts if f is not None]

    @property
    def is_empty(self) -> bool:
        return not any(getattr(self, name) for name in _SERVICE_SPECIES)

    def describe(self) -> str:
        parts = []
        for s in self.storms:
            parts.append(f"storm(@r{s.at_request} x{s.count})")
        for d in self.disconnects:
            parts.append(f"disconnect(@r{d.at_request})")
        for s in self.slow_clients:
            parts.append(f"slow_client(@r{s.at_request})")
        for c in self.collapses:
            parts.append(f"collapse(@r{c.at_request} keep{c.keep_devices})")
        for c in self.crashes:
            parts.append(f"crash(@r{c.at_request}@shard{c.at_shard})")
        return " ".join(parts) if parts else "fault-free"
