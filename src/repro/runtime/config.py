"""`RuntimeConfig`: every cross-cutting execution knob, in one frozen value.

Before this package existed each knob travelled its own path: ``engine=``
was threaded through :class:`~repro.core.selfjoin.SelfJoin`,
:class:`~repro.core.executor.DeviceExecutor` *and*
:class:`~repro.multigpu.pool.DevicePool`; ``overflow_policy=`` took a
different route; ``recovery=`` a third. A :class:`RuntimeConfig` composes
the paper's :class:`~repro.core.config.OptimizationConfig` (the *what* —
pattern, k, SORTBYWL, WORKQUEUE, batching) with every *how* knob — engine,
replay fidelity, overflow handling, sharding, recovery, fault injection,
profiling retention — so facades compile it into a
:class:`~repro.runtime.plan.JoinPlan` and hand it to one
:class:`~repro.runtime.runner.Runner` instead of forwarding keyword
arguments layer by layer. One ``RuntimeConfig`` serves every
operation (:mod:`repro.runtime.ops`): the kNN driver threads it
unchanged into each expansion round's sub-plan, so sharding, recovery,
fault and checkpoint knobs apply per round without kNN-specific
spellings.

Sub-configs group the knobs that travel together:

- :class:`OverflowConfig` — what happens when a batch overflows its result
  buffer (the :class:`~repro.core.executor.DeviceExecutor` retry knobs);
- :class:`ShardingConfig` — pool size and the device-level load-balancing
  strategy (:mod:`repro.multigpu`); ``None`` means single-device;
- :class:`ProfilingOptions` — which execution artifacts the result keeps.

Everything is frozen and hashable (fault plans and policies already are),
so a ``RuntimeConfig`` can key caches and appear in golden fingerprints.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.config import OptimizationConfig
from repro.core.executor import OVERFLOW_POLICIES
from repro.resilience.faults import FaultPlan
from repro.resilience.policy import RecoveryPolicy
from repro.simt import ENGINES, CostParams, DeviceSpec

__all__ = [
    "CheckpointConfig",
    "NATIVE_ENGINE",
    "OverflowConfig",
    "ProfilingOptions",
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
class OverflowConfig:
    """Result-buffer overflow handling, resolved per run.

    ``policy=None`` (the default) picks automatically: ``"retry"`` when a
    :class:`~repro.resilience.policy.RecoveryPolicy` is active (a healing
    run should not abandon a whole plan over one under-sized buffer) and
    ``"raise"`` otherwise (the paper's re-plan-and-restart recovery).
    The remaining knobs parameterize the ``"retry"`` path — see
    :class:`~repro.core.executor.DeviceExecutor`.
    """

    policy: str | None = None
    growth: float = 4.0
    max_retries: int = 6
    backoff_seconds: float = 0.0

    def __post_init__(self):
        if self.policy is not None and self.policy not in OVERFLOW_POLICIES:
            raise ValueError(
                f"unknown overflow policy {self.policy!r}; "
                f"expected one of {OVERFLOW_POLICIES} or None (auto)"
            )
        if self.growth <= 1.0:
            raise ValueError("growth must be > 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_seconds < 0:
            raise ValueError("backoff_seconds must be >= 0")

    def resolved_policy(self, recovery: RecoveryPolicy | None) -> str:
        """The effective executor policy under the given recovery setting."""
        if self.policy is not None:
            return self.policy
        return "retry" if recovery is not None else "raise"


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
class ProfilingOptions:
    """Which execution artifacts the returned result retains.

    ``keep_fragments`` preserves the per-batch pair blocks that back
    :meth:`~repro.core.result.JoinResult.iter_pairs` streaming. In memory
    they are row views of ``pairs``, but pickling a result (a journaled
    shard) copies them: turn them off to keep the journal at one copy of
    the pairs. ``keep_trace`` preserves the pooled run's
    :class:`~repro.multigpu.scheduler.ScheduleTrace` (pool statistics are
    computed either way); turn it off to shed memory on huge runs.
    """

    keep_fragments: bool = True
    keep_trace: bool = True


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
    estimate_safety_z:
        Pad the result-size estimate by this many standard errors before
        planning batches (0 = the paper's point estimate). A caller that
        cannot afford an overflow re-plan sizes its margin here instead
        of hoping the sample was representative.
    device, costs:
        Simulated hardware; ``None`` means the paper's testbed class.
    overflow:
        Buffer-overflow handling (see :class:`OverflowConfig`).
    sharding:
        ``None`` runs single-device; a :class:`ShardingConfig` runs the
        join sharded over a device pool.
    recovery:
        Optional :class:`~repro.resilience.policy.RecoveryPolicy` enabling
        the self-healing scheduler loop on pooled runs.
    fault_plan:
        Optional seeded :class:`~repro.resilience.faults.FaultPlan` to
        inject. On pooled runs a plan with *device* faults implies the
        default ``RecoveryPolicy`` unless one is given explicitly
        (host :class:`~repro.resilience.faults.CrashPoint`\\ s do not —
        their recovery story is checkpoint resume, not requeue).
    profiling:
        Artifact-retention switches (see :class:`ProfilingOptions`).
    checkpoint:
        Optional :class:`CheckpointConfig`: journal completed shards
        durably so an interrupted run resumes via ``Runner.resume``.
    """

    optimization: OptimizationConfig = field(default_factory=OptimizationConfig)
    engine: str = "interpreted"
    replay_mode: str = "aggregate"
    seed: int = 0
    include_self: bool = True
    estimate_safety_z: float = 0.0
    device: DeviceSpec | None = None
    costs: CostParams | None = None
    overflow: OverflowConfig = field(default_factory=OverflowConfig)
    sharding: ShardingConfig | None = None
    recovery: RecoveryPolicy | None = None
    fault_plan: FaultPlan | None = None
    profiling: ProfilingOptions = field(default_factory=ProfilingOptions)
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
        if self.estimate_safety_z < 0:
            raise ValueError("estimate_safety_z must be >= 0")
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

    @property
    def overflow_policy(self) -> str:
        """The effective executor overflow policy."""
        return self.overflow.resolved_policy(self.recovery)

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
