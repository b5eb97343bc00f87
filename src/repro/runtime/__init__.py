"""repro.runtime — compile joins to declarative plans, execute with one runner.

The plan/compile/execute split of the codebase:

- :class:`RuntimeConfig` holds every cross-cutting execution knob
  (engine, device, sharding, recovery, fault injection, checkpointing)
  alongside the paper's :class:`~repro.core.config.OptimizationConfig`;
- :mod:`repro.runtime.ops` holds one declarative strategy per
  operation (``self``, ``bipartite``, ``knn``), and the generic
  ``compile_join(op, index, runtime)`` turns any of them into a
  declarative :class:`JoinPlan` (index build → op planning stages →
  shard plan → batch launches → merge), with resilience and
  checkpointing applied as plan transforms; ``compile_self_join`` /
  ``compile_similarity_join`` / ``compile_knn_join`` are thin
  op-constructing wrappers;
- one :class:`Runner` executes any plan, on a lone
  :class:`~repro.core.executor.DeviceExecutor` or a
  :class:`~repro.multigpu.pool.DevicePool` — single-device is simply the
  one-shard case, and the kNN driver loop runs its per-round sub-plans
  through the same runner.

The public facades (:class:`~repro.core.selfjoin.SelfJoin`,
:class:`~repro.core.join.SimilarityJoin`) are thin compilers over this
package.
"""

from repro.runtime.config import (
    NATIVE_ENGINE,
    REPLAY_MODES,
    RUNTIME_ENGINES,
    CheckpointConfig,
    RuntimeConfig,
    ShardingConfig,
)
from repro.runtime.native import execute_shard_native
from repro.runtime.ops import (
    BipartiteOp,
    JoinOp,
    KnnConvergenceError,
    KnnJoinOp,
    KnnResult,
    SelfJoinOp,
    default_knn_epsilon,
)
from repro.runtime.plan import (
    CheckpointStage,
    EstimateStage,
    ExpansionStage,
    IndexStage,
    JoinPlan,
    LaunchStage,
    MergeStage,
    NativeLaunchStage,
    ResilienceStage,
    ShardStage,
    apply_checkpoint,
    apply_resilience,
    compile_join,
    compile_knn_join,
    compile_self_join,
    compile_similarity_join,
)
from repro.runtime.runner import DeadlineExceededError, Runner, execute_shard

__all__ = [
    "NATIVE_ENGINE",
    "REPLAY_MODES",
    "RUNTIME_ENGINES",
    "BipartiteOp",
    "CheckpointConfig",
    "CheckpointStage",
    "DeadlineExceededError",
    "EstimateStage",
    "ExpansionStage",
    "IndexStage",
    "JoinOp",
    "JoinPlan",
    "KnnConvergenceError",
    "KnnJoinOp",
    "KnnResult",
    "LaunchStage",
    "MergeStage",
    "NativeLaunchStage",
    "ResilienceStage",
    "Runner",
    "RuntimeConfig",
    "SelfJoinOp",
    "ShardStage",
    "ShardingConfig",
    "apply_checkpoint",
    "apply_resilience",
    "compile_join",
    "compile_knn_join",
    "compile_self_join",
    "compile_similarity_join",
    "default_knn_epsilon",
    "execute_shard",
    "execute_shard_native",
]
