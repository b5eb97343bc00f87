"""`RuntimeConfig`: every cross-cutting execution knob, in one frozen value.

A :class:`RuntimeConfig` composes the paper's
:class:`~repro.core.config.OptimizationConfig` (the *what* — pattern, k,
SORTBYWL, WORKQUEUE, batching) with every *how* knob — engine, replay
fidelity, device, sharding, recovery, fault injection, checkpointing —
so facades compile it into a :class:`~repro.runtime.plan.JoinPlan` and
hand it to one :class:`~repro.runtime.runner.Runner`, and the device
layer builds from it too:
:class:`~repro.core.executor.DeviceExecutor` and
:class:`~repro.multigpu.pool.DevicePool` take a ``RuntimeConfig`` and
nothing that copies its fields. One ``RuntimeConfig`` serves every
operation (:mod:`repro.runtime.ops`): the kNN driver threads it
unchanged into each expansion round's sub-plan, so sharding, recovery,
fault and checkpoint knobs apply per round without kNN-specific
spellings.

Sub-configs group the knobs that travel together:
:class:`ShardingConfig` — pool size and the device-level load-balancing
strategy (:mod:`repro.multigpu`), ``None`` meaning single-device — and
:class:`CheckpointConfig` — the durable journal of a resumable run.

Everything is frozen and hashable (fault plans and policies already are),
so a ``RuntimeConfig`` can key caches and appear in golden fingerprints.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.config import OptimizationConfig
from repro.resilience.faults import FaultPlan
from repro.resilience.policy import RecoveryPolicy
from repro.simt import ENGINES, CostParams, DeviceSpec

__all__ = [
    "CheckpointConfig",
    "NATIVE_ENGINE",
    "REPLAY_MODES",
    "RUNTIME_ENGINES",
    "RuntimeConfig",
    "ShardingConfig",
]

REPLAY_MODES = ("aggregate", "lockstep")

#: the fidelity-free array engine: exact pair sets via pure NumPy passes,
#: no SIMT machine, no warp/cycle accounting (``JoinResult.fidelity="none"``)
NATIVE_ENGINE = "native"

#: engines a RuntimeConfig accepts: the two simulated SIMT engines
#: (``repro.simt.ENGINES``) plus the native array engine
RUNTIME_ENGINES = (*ENGINES, NATIVE_ENGINE)


@dataclass(frozen=True)
class ShardingConfig:
    """How one join spreads over a :class:`~repro.multigpu.pool.DevicePool`.

    ``num_devices`` copies of the runtime's device spec form the pool;
    ``planner`` partitions the query points (strided / cell_blocks /
    balanced LPT) and ``schedule`` drives dispatch (static pre-assignment
    vs the dynamic most-work-first device queue). ``shards_per_device``
    is the queue depth — the dynamic scheduler's stealing granularity.
    Shards run one at a time in this process.
    """

    num_devices: int = 2
    planner: str = "balanced"
    schedule: str = "dynamic"
    shards_per_device: int = 2

    def __post_init__(self):
        # multigpu modules sit above this one in the import graph; pull the
        # canonical name lists at validation time, not import time
        from repro.multigpu.scheduler import SCHEDULE_MODES
        from repro.multigpu.sharding import SHARD_PLANNERS

        if self.num_devices < 1:
            raise ValueError("num_devices must be >= 1")
        if self.planner not in SHARD_PLANNERS:
            raise ValueError(
                f"unknown planner {self.planner!r}; expected one of {SHARD_PLANNERS}"
            )
        if self.schedule not in SCHEDULE_MODES:
            raise ValueError(
                f"unknown schedule mode {self.schedule!r}; "
                f"expected one of {SCHEDULE_MODES}"
            )
        if self.shards_per_device < 1:
            raise ValueError("shards_per_device must be >= 1")

    @property
    def num_shards(self) -> int:
        return self.num_devices * self.shards_per_device


@dataclass(frozen=True)
class CheckpointConfig:
    """Durable checkpoint/resume for one run (see
    :mod:`repro.resilience.checkpoint`).

    ``directory`` roots the :class:`~repro.resilience.checkpoint.CheckpointStore`;
    each run journals under its own fingerprint subdirectory, so many
    runs (and many configs) share one directory safely. ``keep=False``
    (the default) deletes the journal when the run completes —
    checkpoints exist to survive *interruption*; ``keep=True`` retains
    the fragments with a ``done`` marker for audit or re-reads.

    Checkpointing never changes what a run computes, so this config is
    excluded from run identity (``describe()``, golden fingerprints,
    :func:`~repro.resilience.checkpoint.config_identity`).
    """

    directory: str
    keep: bool = False

    def __post_init__(self):
        directory = str(self.directory)
        if not directory:
            raise ValueError("checkpoint directory must be a non-empty path")
        object.__setattr__(self, "directory", directory)


@dataclass(frozen=True)
class RuntimeConfig:
    """The complete execution recipe of one join.

    Parameters
    ----------
    optimization:
        The paper's optimization selection (pattern, k, SORTBYWL,
        WORKQUEUE, batching) — the *algorithm* half of the recipe.
    engine:
        Kernel execution engine: ``"interpreted"`` or ``"vectorized"``
        (bit-identical simulated results; see :mod:`repro.simt.vectorized`),
        or ``"native"`` — exact pair sets through pure NumPy array passes
        with no SIMT simulation (see :mod:`repro.runtime.native`; results
        carry ``fidelity="none"``).
    replay_mode:
        Warp replay fidelity: ``"aggregate"`` (region-boundary
        reconvergence; matches the analytic model) or ``"lockstep"``
        (event-by-event divergence serialization; slower-or-equal warp
        times, see :mod:`repro.simt.warp`).
    seed:
        Hardware-scheduler issue-order shuffle seed (only used when the
        work-queue is off); pooled device ``d`` runs with ``seed + d``.
    include_self:
        Self-join only: whether each point pairs with itself
        (``dist = 0 <= eps``).
    device, costs:
        Simulated hardware; ``None`` means the paper's testbed class.
    sharding:
        ``None`` runs single-device; a :class:`ShardingConfig` runs the
        join sharded over a device pool.
    recovery:
        Optional :class:`~repro.resilience.policy.RecoveryPolicy` enabling
        the self-healing scheduler loop on pooled runs. A run that
        carries one also recovers a result-buffer overflow batch by batch
        (see :class:`~repro.core.executor.DeviceExecutor`) instead of
        re-planning the whole plan.
    fault_plan:
        Optional seeded :class:`~repro.resilience.faults.FaultPlan` to
        inject. On pooled runs a plan with *device* faults implies the
        default ``RecoveryPolicy`` unless one is given explicitly
        (host :class:`~repro.resilience.faults.CrashPoint`\\ s do not —
        their recovery story is checkpoint resume, not requeue).
    checkpoint:
        Optional :class:`CheckpointConfig`: journal completed shards
        durably so an interrupted run resumes via ``Runner.resume``.
    """

    optimization: OptimizationConfig = field(default_factory=OptimizationConfig)
    engine: str = "interpreted"
    replay_mode: str = "aggregate"
    seed: int = 0
    include_self: bool = True
    device: DeviceSpec | None = None
    costs: CostParams | None = None
    sharding: ShardingConfig | None = None
    recovery: RecoveryPolicy | None = None
    fault_plan: FaultPlan | None = None
    checkpoint: CheckpointConfig | None = None

    def __post_init__(self):
        if self.engine not in RUNTIME_ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of {RUNTIME_ENGINES}"
            )
        if self.replay_mode not in REPLAY_MODES:
            raise ValueError(
                f"unknown replay mode {self.replay_mode!r}; "
                f"expected one of {REPLAY_MODES}"
            )
        if self.engine == NATIVE_ENGINE:
            # the native engine has no simulated device seam: device-level
            # fault injection and the self-healing scheduler loop both live
            # inside the SIMT executor it bypasses. Host crash points (and
            # checkpoint resume) stay available — they are engine-independent.
            if self.recovery is not None:
                raise ValueError(
                    "engine='native' does not support recovery policies: "
                    "device-level healing runs inside the simulated executor "
                    "the native engine bypasses"
                )
            fp = self.fault_plan
            if fp is not None and (
                fp.failures or fp.stragglers or fp.transients or fp.overflows
            ):
                raise ValueError(
                    "engine='native' only supports host CrashPoint faults; "
                    "device failures/stragglers/transients/overflows inject "
                    "at the simulated executor seam"
                )
        # injecting device faults into a pool without a recovery story would
        # just crash the run, so such a fault plan implies the default policy
        # there; crash-only plans don't — a host crash must propagate so the
        # run can resume from its checkpoint journal
        if (
            self.engine != NATIVE_ENGINE
            and self.fault_plan is not None
            and (self.fault_plan.has_device_faults or not self.fault_plan.crashes)
            and self.recovery is None
            and self.sharding is not None
        ):
            object.__setattr__(self, "recovery", RecoveryPolicy())

    # ------------------------------------------------------------------
    @property
    def pooled(self) -> bool:
        """Whether this recipe runs on a device pool."""
        return self.sharding is not None

    def with_(self, **changes) -> "RuntimeConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    def describe(self) -> str:
        """Short human-readable tag, composing the optimization tag."""
        parts = [self.optimization.describe()]
        if self.engine != "interpreted":
            parts.append(self.engine)
        if self.sharding is not None:
            s = self.sharding
            parts.append(f"{s.num_devices}dev {s.planner}/{s.schedule}")
        if self.recovery is not None:
            parts.append("resilient")
        if self.fault_plan is not None and not self.fault_plan.is_empty:
            parts.append(self.fault_plan.describe())
        return " | ".join(parts)


def _split_config(config, runtime, facade: str):
    """Let a :class:`RuntimeConfig` ride in a facade's ``config`` slot.

    Facades accept ``Facade(RuntimeConfig(...))`` as a convenience; this
    normalizes the two slots and rejects giving both. Private to the
    facades — the supported public spellings are ``Facade(optimization)``
    and ``Facade(runtime=RuntimeConfig(...))``.
    """
    if isinstance(config, RuntimeConfig):
        if runtime is not None:
            raise ValueError(
                f"{facade}: pass either a RuntimeConfig positionally or "
                "runtime=..., not both"
            )
        return None, config
    return config, runtime
