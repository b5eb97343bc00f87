"""The bipartite similarity join A ⋈_ε B on the simulated GPU.

The paper treats the self-join; this module generalizes the same
optimization stack to joining two different datasets — the "similarity
join" of the literature the paper builds on (and the self-join's parent
operation):

- the ε-grid indexes the inner dataset B; queries come from A;
- the unidirectional patterns do **not** apply (they exploit the symmetry
  of the self-join's duplicate work, which a bipartite join does not
  have), so the access pattern is always the full ≤3**n probe and the
  configuration must use ``pattern="full"``;
- k-granularity, SORTBYWL (sorting A's queries by quantified workload),
  the WORKQUEUE and the batching scheme all carry over unchanged.

Result pairs are ``(a_index, b_index)`` — one direction only.

The device-side kernels live in :mod:`repro.core.bipartite_kernels` (and
are re-exported here); like :class:`~repro.core.selfjoin.SelfJoin`, the
facade itself is a thin compiler: it validates input, builds B's index,
compiles a :class:`~repro.runtime.plan.JoinPlan` and hands it to the
:class:`~repro.runtime.runner.Runner`.
"""

from __future__ import annotations

import numpy as np

from repro.core.bipartite_kernels import (
    BipartiteKernelArgs,
    bipartite_bulk,
    bipartite_kernel,
)
from repro.core.config import OptimizationConfig
from repro.core.executor import BatchExecutor
from repro.core.result import JoinResult
from repro.core.validation import validate_inputs
from repro.grid import GridIndex
from repro.runtime.config import RuntimeConfig, _split_config
from repro.runtime.plan import compile_similarity_join
from repro.runtime.runner import Runner

__all__ = [
    "BipartiteKernelArgs",
    "SimilarityJoin",
    "bipartite_bulk",
    "bipartite_kernel",
]


class SimilarityJoin:
    """Bipartite ε-join of two datasets on the simulated GPU.

    Accepts the same :class:`OptimizationConfig` as :class:`SelfJoin`
    (``pattern`` must stay ``"full"``) — or a full
    :class:`~repro.runtime.config.RuntimeConfig`, positionally or as
    ``runtime=``; a ``ShardingConfig`` in it shards A's queries over a
    device pool while every device reads B's index. ``execute(left,
    right, eps)`` returns a :class:`JoinResult` whose pairs are
    ``(left_idx, right_idx)``.
    """

    def __init__(
        self,
        config: OptimizationConfig | RuntimeConfig | None = None,
        *,
        runtime: RuntimeConfig | None = None,
    ):
        config, runtime = _split_config(config, runtime, "SimilarityJoin")
        if runtime is None:
            runtime = RuntimeConfig()
        if config is not None:
            runtime = runtime.with_(optimization=config)
        if runtime.optimization.pattern != "full":
            raise ValueError(
                "unidirectional patterns exploit self-join symmetry; the "
                "bipartite join requires pattern='full'"
            )
        self.runtime = runtime

    def execute(self, left, right, epsilon: float) -> JoinResult:
        """Join ``left`` against ``right``: all pairs within ``epsilon``.

        Both datasets and ``epsilon`` are validated at the entry point:
        non-finite coordinates and non-positive or non-finite thresholds
        raise :class:`ValueError` here — locating the offending row and
        naming the side — not as a wrong answer deep in the grid layer.
        """
        left, right, epsilon = validate_inputs(
            left, right, epsilon=epsilon, names=("left", "right")
        )
        index = GridIndex(right, epsilon)
        return self.execute_on_index(index, left)

    def execute_on_index(
        self,
        index: GridIndex,
        queries: np.ndarray,
        *,
        subset: np.ndarray | None = None,
        executor: BatchExecutor | None = None,
    ) -> JoinResult:
        """Run the join over a prebuilt index of B, optionally for a subset
        of A's query ids (a shard of the full bipartite join)."""
        plan = self.compile(index, queries, subset=subset)
        return Runner(executor=executor, pool=None).run(plan)

    def compile(
        self,
        index: GridIndex,
        queries: np.ndarray,
        *,
        subset: np.ndarray | None = None,
    ):
        """Compile this facade's :class:`~repro.runtime.plan.JoinPlan`."""
        return compile_similarity_join(index, queries, self.runtime, subset=subset)
