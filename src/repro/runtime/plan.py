"""The declarative :class:`JoinPlan` IR: what a join *will* do, as data.

One generic :func:`compile_join` turns (op, index,
:class:`~repro.runtime.config.RuntimeConfig`) into a linear stage list —

    index build → op planning stages → [shard plan] → batch launches
    → [resilience] → [checkpoint] → merge

— without executing anything. The op (a strategy from
:mod:`repro.runtime.ops`) declares its planning stages (a
result-size :class:`EstimateStage` for single-pass joins, an
:class:`ExpansionStage` for the multi-round kNN driver), how its query
side shards across devices, and which kernel the launch stage records;
``compile_self_join`` / ``compile_similarity_join`` /
``compile_knn_join`` are thin op-constructing wrappers over the one
pipeline. The :class:`~repro.runtime.runner.Runner` then walks the
stages; facades no longer own execution logic. Because a plan is plain
data, it can be inspected, printed (``describe()``), and transformed:
:func:`apply_resilience` is such a transform, splicing a
:class:`ResilienceStage` into a compiled plan when the runtime carries a
fault plan or a recovery policy.

The sharded case is compiled here too (the shard plan is computed at
compile time, the device schedule is resolved by the runner), so a
single-device run is simply the plan without a :class:`ShardStage` — one
shard covering every query.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.grid import GridIndex
from repro.runtime.config import NATIVE_ENGINE, RuntimeConfig
from repro.runtime.ops import BipartiteOp, JoinOp, KnnJoinOp, SelfJoinOp

if TYPE_CHECKING:
    from repro.multigpu.sharding import ShardPlan
    from repro.resilience.faults import FaultPlan
    from repro.resilience.policy import RecoveryPolicy

__all__ = [
    "CheckpointStage",
    "EstimateStage",
    "ExpansionStage",
    "IndexStage",
    "JoinPlan",
    "LaunchStage",
    "MergeStage",
    "NativeLaunchStage",
    "ResilienceStage",
    "ShardStage",
    "apply_checkpoint",
    "apply_resilience",
    "compile_join",
    "compile_knn_join",
    "compile_self_join",
    "compile_similarity_join",
]


@dataclass(frozen=True)
class IndexStage:
    """Record of the ε-grid build this plan runs against.

    ``reused=True`` marks a plan compiled against a pre-built index (a
    session-cache hit in :mod:`repro.serve`): the grid build — and any
    :class:`~repro.core.patterns.PatternPlan` geometry memoized on the
    index — was skipped, not performed by this plan.
    """

    epsilon: float
    num_points: int
    ndim: int
    num_cells: int
    reused: bool = False


@dataclass(frozen=True)
class EstimateStage:
    """How the result size is estimated before batch planning."""

    mode: str  # "head" (WORKQUEUE) or "strided"
    sample_fraction: float
    safety_z: float


@dataclass(frozen=True)
class ExpansionStage:
    """The kNN driver's ε-schedule: multi-round residual sub-plans.

    Replaces the single-pass :class:`EstimateStage`: instead of one
    estimated launch, the runner loops rounds ``r = 0, 1, …`` at radius
    ``epsilon0 * growth**r``, compiling a residual bipartite sub-plan
    over the still-pending queries each time, until every query has k
    in-radius neighbors (or ``max_rounds`` is exhausted).
    """

    k: int
    epsilon0: float
    growth: float
    max_rounds: int


@dataclass(frozen=True)
class ShardStage:
    """Device-level partitioning: present only on pooled plans."""

    plan: "ShardPlan"
    schedule: str
    num_devices: int


@dataclass(frozen=True)
class LaunchStage:
    """How each planned batch is launched on an executor."""

    kernel: str
    engine: str
    replay_mode: str
    issue_order: str  # "fifo" (WORKQUEUE) or seeded "random"
    coop_groups: bool
    num_streams: int
    result_capacity: int


@dataclass(frozen=True)
class NativeLaunchStage:
    """The fidelity-free array-engine launch (``engine="native"``).

    No batches, no streams, no warp accounting: the runner hands the op
    to :mod:`repro.runtime.native`, which walks ``chunk_pairs``-bounded
    cell-pair blocks over the grid's neighbor topology (a self-join's
    queries in slot order, a bipartite sweep's in query-id order, under
    every config) and refines them with vectorized distance passes.
    """

    kernel: str
    chunk_pairs: int


@dataclass(frozen=True)
class ResilienceStage:
    """Fault injection and/or self-healing wrapped around execution."""

    fault_plan: "FaultPlan | None"
    recovery: "RecoveryPolicy | None"


@dataclass(frozen=True)
class CheckpointStage:
    """Durable shard journaling wrapped around execution.

    ``fingerprint`` is the run's content identity
    (:func:`repro.resilience.checkpoint.run_fingerprint`), computed at
    compile time so the runner — and anyone inspecting the plan — knows
    exactly which journal the run writes and resumes from.
    """

    directory: str
    keep: bool
    fingerprint: str


@dataclass(frozen=True)
class MergeStage:
    """How shard/batch results become the final canonical result."""

    dedup: bool
    description: str


Stage = (
    IndexStage
    | EstimateStage
    | ExpansionStage
    | ShardStage
    | LaunchStage
    | NativeLaunchStage
    | ResilienceStage
    | CheckpointStage
    | MergeStage
)


@dataclass(frozen=True)
class JoinPlan:
    """A compiled join: op + index + config + the declarative stage list."""

    op: JoinOp
    index: GridIndex
    config: RuntimeConfig
    stages: tuple[Stage, ...]
    subset: np.ndarray | None = field(default=None, repr=False)

    def stage(self, kind: type) -> Stage | None:
        """The first stage of the given type, or ``None``."""
        for s in self.stages:
            if isinstance(s, kind):
                return s
        return None

    @property
    def pooled(self) -> bool:
        return self.stage(ShardStage) is not None

    @property
    def shard_stage(self) -> ShardStage | None:
        return self.stage(ShardStage)

    @property
    def launch_stage(self) -> LaunchStage | NativeLaunchStage:
        stage = self.stage(LaunchStage)
        return stage if stage is not None else self.stage(NativeLaunchStage)

    @property
    def expansion_stage(self) -> ExpansionStage | None:
        return self.stage(ExpansionStage)

    @property
    def resilience_stage(self) -> ResilienceStage | None:
        return self.stage(ResilienceStage)

    @property
    def checkpoint_stage(self) -> CheckpointStage | None:
        return self.stage(CheckpointStage)

    @property
    def merge_stage(self) -> MergeStage:
        return self.stage(MergeStage)

    def describe(self) -> str:
        """One line per stage — the plan as a human reads it."""
        lines = [f"JoinPlan[{self.op.kind}] {self.merge_stage.description}"]
        for s in self.stages:
            if isinstance(s, IndexStage):
                reused = " (reused)" if s.reused else ""
                lines.append(
                    f"  index    eps={s.epsilon:g} n={s.num_points} "
                    f"dim={s.ndim} cells={s.num_cells}{reused}"
                )
            elif isinstance(s, EstimateStage):
                z = f" z={s.safety_z:g}" if s.safety_z else ""
                lines.append(
                    f"  estimate {s.mode} sample={s.sample_fraction:g}{z}"
                )
            elif isinstance(s, ExpansionStage):
                lines.append(
                    f"  expand   k={s.k} eps0={s.epsilon0:g} "
                    f"growth={s.growth:g} max_rounds={s.max_rounds}"
                )
            elif isinstance(s, ShardStage):
                lines.append(
                    f"  shard    {len(s.plan.shards)} shards "
                    f"{s.plan.planner}/{s.schedule} over {s.num_devices} devices"
                )
            elif isinstance(s, LaunchStage):
                coop = " coop" if s.coop_groups else ""
                lines.append(
                    f"  launch   {s.kernel} engine={s.engine} "
                    f"issue={s.issue_order}{coop} streams={s.num_streams} "
                    f"capacity={s.result_capacity}"
                )
            elif isinstance(s, NativeLaunchStage):
                lines.append(f"  launch   {s.kernel} engine=native chunk={s.chunk_pairs}")
            elif isinstance(s, ResilienceStage):
                parts = []
                if s.fault_plan is not None and not s.fault_plan.is_empty:
                    parts.append(f"faults[{s.fault_plan.describe()}]")
                if s.recovery is not None:
                    parts.append("recovery")
                lines.append(f"  resil    {' '.join(parts) or 'none'}")
            elif isinstance(s, CheckpointStage):
                keep = " keep" if s.keep else ""
                lines.append(
                    f"  ckpt     dir={s.directory} run={s.fingerprint[:12]}…{keep}"
                )
            elif isinstance(s, MergeStage):
                lines.append(f"  merge    dedup={s.dedup}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
def _index_stage(index: GridIndex, *, reused: bool = False) -> IndexStage:
    return IndexStage(
        epsilon=float(index.epsilon),
        num_points=index.num_points,
        ndim=index.ndim,
        num_cells=index.num_nonempty_cells,
        reused=reused,
    )


def _launch_stage(op, runtime: RuntimeConfig) -> LaunchStage | NativeLaunchStage:
    if runtime.engine == NATIVE_ENGINE:
        from repro.runtime.native import NATIVE_CHUNK_PAIRS

        return NativeLaunchStage(kernel=op.kernel_name, chunk_pairs=NATIVE_CHUNK_PAIRS)
    opt = runtime.optimization
    return LaunchStage(
        kernel=op.kernel_name,
        engine=runtime.engine,
        replay_mode=runtime.replay_mode,
        issue_order="fifo" if opt.work_queue else "random",
        coop_groups=opt.work_queue and opt.k > 1,
        num_streams=opt.num_streams,
        result_capacity=opt.batch_result_capacity,
    )


def _pooled_description(runtime: RuntimeConfig, inner: str) -> str:
    s = runtime.sharding
    tag = " resilient" if runtime.recovery is not None else ""
    return f"multigpu[{s.num_devices}dev {s.planner}/{s.schedule}{tag}] {inner}"


def compile_join(
    op: JoinOp,
    index: GridIndex,
    runtime: RuntimeConfig,
    *,
    subset: np.ndarray | None = None,
    index_reused: bool = False,
) -> JoinPlan:
    """Compile any op over a prebuilt index into a plan.

    The one generic pipeline: the op validates the runtime, contributes
    its planning stages (estimate or expansion), and — on pooled
    runtimes, when the op is shardable and no ``subset`` narrows the
    query side — its device-level shard plan. Resilience and
    checkpointing are applied as plan transforms at the end, so every
    operation inherits them uniformly.

    ``subset`` restricts the query side (one shard of a larger join) and
    forces a single-device plan — sharding a shard is not a thing.
    ``index_reused`` marks the index as served from a cache (the plan
    skips the build cost; see :class:`IndexStage`).
    """
    op.validate(runtime)
    opt = runtime.optimization
    stages: list[Stage] = [_index_stage(index, reused=index_reused)]
    stages.extend(op.plan_stages(index, runtime))
    dedup = False
    description = op.describe(opt)
    if runtime.pooled and subset is None and op.shardable:
        shard_plan = op.shard_plan(index, runtime)
        stages.append(
            ShardStage(
                plan=shard_plan,
                schedule=runtime.sharding.schedule,
                num_devices=runtime.sharding.num_devices,
            )
        )
        dedup = shard_plan.may_duplicate
        description = _pooled_description(runtime, description)
    elif runtime.pooled and not op.shardable:
        # driver ops shard their per-round sub-plans, not the plan itself;
        # the description still records the pooled execution shape
        description = _pooled_description(runtime, description)
    stages.append(_launch_stage(op, runtime))
    stages.append(MergeStage(dedup=dedup, description=description))
    plan = JoinPlan(
        op=op, index=index, config=runtime, stages=tuple(stages), subset=subset
    )
    return apply_checkpoint(apply_resilience(plan))


def compile_self_join(
    index: GridIndex,
    runtime: RuntimeConfig,
    *,
    subset: np.ndarray | None = None,
    index_reused: bool = False,
) -> JoinPlan:
    """Compile a self-join over a prebuilt index into a :class:`JoinPlan`.

    A thin wrapper over :func:`compile_join` with a
    :class:`~repro.runtime.ops.SelfJoinOp`.
    """
    return compile_join(
        SelfJoinOp(include_self=runtime.include_self),
        index,
        runtime,
        subset=subset,
        index_reused=index_reused,
    )


def compile_similarity_join(
    index: GridIndex,
    queries,
    runtime: RuntimeConfig,
    *,
    subset: np.ndarray | None = None,
    index_reused: bool = False,
) -> JoinPlan:
    """Compile a bipartite join (``queries`` ⋈ indexed dataset).

    A thin wrapper over :func:`compile_join` with a
    :class:`~repro.runtime.ops.BipartiteOp`. The configuration must use
    ``pattern="full"`` — the unidirectional patterns exploit self-join
    symmetry the bipartite join does not have. ``index_reused`` marks
    B's index as served from a cache.
    """
    return compile_join(
        BipartiteOp(queries),
        index,
        runtime,
        subset=subset,
        index_reused=index_reused,
    )


def compile_knn_join(
    points,
    k: int,
    runtime: RuntimeConfig,
    *,
    epsilon0: float | None = None,
    growth: float = 2.0,
    max_rounds: int | None = None,
    index_factory=None,
    index_reused: bool = False,
) -> JoinPlan:
    """Compile the k-nearest-neighbor join of ``points`` with itself.

    The plan is a multi-round *driver*: an :class:`ExpansionStage`
    records the ε-schedule (``epsilon0 * growth**r``, defaulting
    ``epsilon0`` to the density heuristic of
    :func:`~repro.runtime.ops.default_knn_epsilon`), and the runner
    compiles, executes and journals one residual bipartite sub-plan per
    round — each round re-queries only the still-pending points and
    inherits the runtime's engine/sharding/recovery/fault/checkpoint
    configuration unchanged. ``index_factory`` (``epsilon ->
    GridIndex``) lets a caching caller supply each round's grid;
    ``index_reused`` marks the round-0 index as cache-served.
    """
    kwargs = {"epsilon0": epsilon0, "growth": growth, "index_factory": index_factory}
    if max_rounds is not None:
        kwargs["max_rounds"] = max_rounds
    op = KnnJoinOp(points, k, **kwargs)
    index = op.build_index(op.epsilon0)
    return compile_join(op, index, runtime, index_reused=index_reused)


def apply_resilience(plan: JoinPlan) -> JoinPlan:
    """Splice a :class:`ResilienceStage` in front of the merge stage.

    A plan transform, not an execution flag: the returned plan *is* the
    resilient plan. No-op when the runtime carries neither a non-empty
    fault plan nor (on pooled plans) a recovery policy, or when the stage
    is already present.
    """
    rc = plan.config
    if plan.resilience_stage is not None:
        return plan
    faults = rc.fault_plan if rc.fault_plan is not None and not rc.fault_plan.is_empty else None
    recovery = rc.recovery if plan.pooled else None
    if faults is None and recovery is None:
        return plan
    stage = ResilienceStage(fault_plan=faults, recovery=recovery)
    stages = list(plan.stages)
    stages.insert(len(stages) - 1, stage)  # just before MergeStage
    return replace(plan, stages=tuple(stages))


def apply_checkpoint(plan: JoinPlan) -> JoinPlan:
    """Splice a :class:`CheckpointStage` in front of the merge stage.

    Like :func:`apply_resilience`, a plan transform: the returned plan
    journals each completed shard durably under the run's content
    fingerprint and is what ``Runner.resume`` accepts. No-op when the
    runtime carries no :class:`~repro.runtime.config.CheckpointConfig`
    or the stage is already present.
    """
    rc = plan.config
    if rc.checkpoint is None or plan.checkpoint_stage is not None:
        return plan
    from repro.resilience.checkpoint import run_fingerprint

    stage = CheckpointStage(
        directory=rc.checkpoint.directory,
        keep=rc.checkpoint.keep,
        fingerprint=run_fingerprint(plan),
    )
    stages = list(plan.stages)
    stages.insert(len(stages) - 1, stage)  # just before MergeStage
    return replace(plan, stages=tuple(stages))
