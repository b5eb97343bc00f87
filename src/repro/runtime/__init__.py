"""repro.runtime — compile joins to declarative plans, execute with one runner.

The plan/compile/execute split of the codebase:

- :class:`RuntimeConfig` holds every cross-cutting execution knob
  (engine, device, sharding, recovery, fault injection, checkpointing)
  alongside the paper's :class:`~repro.core.config.OptimizationConfig`;
- :mod:`repro.runtime.ops` holds one declarative strategy per
  operation (``self``, ``bipartite``, ``knn``), and the generic
  ``compile_join(op, index, runtime)`` turns any of them into a
  :class:`JoinPlan`: the op, index and config, plus what compiling
  computes (a pooled run's shard plan, a checkpointed run's journal
  fingerprint, the result description); ``compile_self_join`` /
  ``compile_similarity_join`` / ``compile_knn_join`` are thin
  op-constructing wrappers;
- one :class:`Runner` executes any plan, reading every execution knob
  from its config, on a lone
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
    ExpansionStage,
    JoinPlan,
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
    "DeadlineExceededError",
    "ExpansionStage",
    "JoinOp",
    "JoinPlan",
    "KnnConvergenceError",
    "KnnJoinOp",
    "KnnResult",
    "Runner",
    "RuntimeConfig",
    "SelfJoinOp",
    "ShardingConfig",
    "compile_join",
    "compile_knn_join",
    "compile_self_join",
    "compile_similarity_join",
    "default_knn_epsilon",
    "execute_shard",
    "execute_shard_native",
]
