"""The compiled :class:`JoinPlan`: what a join *will* run, as data.

One generic :func:`compile_join` turns (op, index,
:class:`~repro.runtime.config.RuntimeConfig`) into a plan without
executing anything. The plan holds the op (a strategy from
:mod:`repro.runtime.ops`), the index, the config and the query subset,
plus the three values compiling computes: a pooled run's shard plan, a
checkpointed run's journal fingerprint, and the result description.
Every execution knob — engine, schedule, device count, fault plan,
recovery, checkpoint directory — stays on the config, where the
:class:`~repro.runtime.runner.Runner` reads it.
``compile_self_join`` / ``compile_similarity_join`` /
``compile_knn_join`` are thin op-constructing wrappers over the one
pipeline.

A single-device run is the plan without a shard plan: one shard
covering every query (or ``subset``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.grid import GridIndex
from repro.runtime.config import RuntimeConfig
from repro.runtime.ops import BipartiteOp, JoinOp, KnnJoinOp, SelfJoinOp

if TYPE_CHECKING:
    from repro.multigpu.sharding import ShardPlan

__all__ = [
    "ExpansionStage",
    "JoinPlan",
    "compile_join",
    "compile_knn_join",
    "compile_self_join",
    "compile_similarity_join",
]


@dataclass(frozen=True)
class ExpansionStage:
    """The kNN driver's ε-schedule: multi-round residual sub-plans.

    Instead of one estimated launch, the runner loops rounds
    ``r = 0, 1, …`` at radius ``epsilon0 * growth**r``, compiling a
    residual bipartite sub-plan over the still-pending queries each
    time, until every query has k in-radius neighbors (or ``max_rounds``
    is exhausted).
    """

    k: int
    epsilon0: float
    growth: float
    max_rounds: int


@dataclass(frozen=True)
class JoinPlan:
    """A compiled join: op, index, config and query subset, plus what
    compiling computed — the pooled run's ``shard_plan``, the
    checkpointed run's journal ``fingerprint`` and the result
    ``description``."""

    op: JoinOp
    index: GridIndex
    config: RuntimeConfig
    description: str
    subset: np.ndarray | None = field(default=None, repr=False)
    shard_plan: ShardPlan | None = field(default=None, repr=False)
    fingerprint: str | None = None

    @property
    def pooled(self) -> bool:
        """Whether the plan runs its shard plan on a device pool."""
        return self.shard_plan is not None

    @property
    def expansion_stage(self) -> ExpansionStage | None:
        """The kNN op's ε-schedule; ``None`` for single-pass joins."""
        op = self.op
        if not isinstance(op, KnnJoinOp):
            return None
        return ExpansionStage(op.k, op.epsilon0, op.growth, op.max_rounds)

    def describe(self) -> str:
        """The plan as a human reads it: one line per part."""
        index = self.index
        lines = [
            f"JoinPlan[{self.op.kind}] {self.description}",
            f"  index    eps={index.epsilon:g} n={index.num_points} "
            f"dim={index.ndim} cells={index.num_nonempty_cells}",
            f"  config   {self.config.describe()}",
        ]
        expansion = self.expansion_stage
        if expansion is not None:
            lines.append(
                f"  expand   k={expansion.k} eps0={expansion.epsilon0:g} "
                f"growth={expansion.growth:g} max_rounds={expansion.max_rounds}"
            )
        if self.shard_plan is not None:
            s = self.shard_plan
            lines.append(f"  shard    {s.num_shards} shards {s.planner}")
        if self.fingerprint is not None:
            lines.append(f"  ckpt     run={self.fingerprint[:12]}…")
        return "\n".join(lines)


# ----------------------------------------------------------------------
def compile_join(
    op: JoinOp,
    index: GridIndex,
    runtime: RuntimeConfig,
    *,
    subset: np.ndarray | None = None,
) -> JoinPlan:
    """Compile any op over a prebuilt index into a plan.

    The one generic pipeline: the op validates the runtime and names the
    result; on pooled runtimes, when the op is shardable and no
    ``subset`` narrows the query side, it plans the device-level shards;
    and a checkpointing runtime gets the run's journal fingerprint
    (:func:`~repro.resilience.checkpoint.run_fingerprint`).

    ``subset`` restricts the query side (one shard of a larger join) and
    forces a single-device plan — sharding a shard is not a thing.
    """
    op.validate(runtime)
    description = op.describe(runtime.optimization)
    shard_plan = None
    if runtime.pooled and (subset is None or not op.shardable):
        # driver ops shard their per-round sub-plans, not the plan itself;
        # the description still records the pooled execution shape
        if op.shardable:
            shard_plan = op.shard_plan(index, runtime)
        s = runtime.sharding
        tag = " resilient" if runtime.recovery is not None else ""
        description = f"multigpu[{s.num_devices}dev {s.planner}/{s.schedule}{tag}] {description}"
    plan = JoinPlan(
        op=op,
        index=index,
        config=runtime,
        description=description,
        subset=subset,
        shard_plan=shard_plan,
    )
    if runtime.checkpoint is not None:
        from repro.resilience.checkpoint import run_fingerprint

        plan = replace(plan, fingerprint=run_fingerprint(plan))
    return plan


def compile_self_join(
    index: GridIndex,
    runtime: RuntimeConfig,
    *,
    subset: np.ndarray | None = None,
) -> JoinPlan:
    """Compile a self-join over a prebuilt index into a :class:`JoinPlan`.

    A thin wrapper over :func:`compile_join` with a
    :class:`~repro.runtime.ops.SelfJoinOp`.
    """
    return compile_join(
        SelfJoinOp(include_self=runtime.include_self), index, runtime, subset=subset
    )


def compile_similarity_join(
    index: GridIndex,
    queries,
    runtime: RuntimeConfig,
    *,
    subset: np.ndarray | None = None,
) -> JoinPlan:
    """Compile a bipartite join (``queries`` ⋈ indexed dataset).

    A thin wrapper over :func:`compile_join` with a
    :class:`~repro.runtime.ops.BipartiteOp`. The configuration must use
    ``pattern="full"`` — the unidirectional patterns exploit self-join
    symmetry the bipartite join does not have.
    """
    return compile_join(BipartiteOp(queries), index, runtime, subset=subset)


def compile_knn_join(
    points,
    k: int,
    runtime: RuntimeConfig,
    *,
    epsilon0: float | None = None,
    growth: float = 2.0,
    max_rounds: int | None = None,
    index_factory=None,
) -> JoinPlan:
    """Compile the k-nearest-neighbor join of ``points`` with itself.

    The plan is a multi-round *driver*: its :class:`ExpansionStage`
    is the ε-schedule (``epsilon0 * growth**r``, defaulting
    ``epsilon0`` to the density heuristic of
    :func:`~repro.runtime.ops.default_knn_epsilon`), and the runner
    compiles, executes and journals one residual bipartite sub-plan per
    round — each round re-queries only the still-pending points and
    inherits the runtime's engine/sharding/recovery/fault/checkpoint
    configuration unchanged. ``index_factory`` (``epsilon ->
    GridIndex``) lets a caching caller supply each round's grid.
    """
    kwargs = {"epsilon0": epsilon0, "growth": growth, "index_factory": index_factory}
    if max_rounds is not None:
        kwargs["max_rounds"] = max_rounds
    op = KnnJoinOp(points, k, **kwargs)
    index = op.build_index(op.epsilon0)
    return compile_join(op, index, runtime)
