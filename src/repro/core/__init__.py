"""The paper's contribution: load-imbalance-mitigated GPU self-join.

Composable optimizations (Section III of the paper):

- **cell access patterns** (:mod:`repro.core.patterns`) — ``full`` (the
  GPUCALCGLOBAL 3**n search), ``unicomp`` (Gowanlock & Karsin's
  parity-based unidirectional comparison) and ``lidunicomp`` (the paper's
  linear-id unidirectional comparison);
- **query granularity** ``k`` (:mod:`repro.core.granularity`) — k threads
  share one query point's candidate set;
- **SORTBYWL** (:mod:`repro.core.sortbywl`) — reorder points by quantified
  workload so warps hold similar workloads;
- **WORKQUEUE** (:mod:`repro.core.workqueue`) — an atomic-counter queue over
  the workload-sorted array, forcing most-work-first warp execution;
- the **batching scheme** (:mod:`repro.core.batching`) — result-size
  estimation by sampling and bounded per-kernel result buffers.

:class:`SelfJoin` is the public facade: configure with
:class:`OptimizationConfig` (or a named preset), call
:meth:`~repro.core.selfjoin.SelfJoin.execute`, receive a
:class:`~repro.core.result.JoinResult` carrying the exact pair set plus the
simulated profiler statistics.
"""

from repro.core.batching import (
    BatchPlan,
    ResultSizeEstimate,
    estimate_result_size,
    estimate_result_size_detailed,
    plan_batches,
    plan_batches_balanced,
)
from repro.core.config import PRESETS, OptimizationConfig
from repro.core.executor import (
    BatchExecutor,
    BatchOutcome,
    DeviceExecutor,
    OverflowRetry,
)
from repro.core.granularity import thread_share_counts
from repro.core.join import SimilarityJoin
from repro.core.patterns import (
    PATTERN_NAMES,
    pattern_cells_for_query,
)
from repro.core.result import JoinResult
from repro.core.selfjoin import SelfJoin
from repro.core.sortbywl import cell_workloads, point_workloads, sort_by_workload
from repro.core.validation import validate_inputs

__all__ = [
    "BatchExecutor",
    "BatchOutcome",
    "BatchPlan",
    "DeviceExecutor",
    "JoinResult",
    "OptimizationConfig",
    "OverflowRetry",
    "PATTERN_NAMES",
    "PRESETS",
    "ResultSizeEstimate",
    "SelfJoin",
    "SimilarityJoin",
    "cell_workloads",
    "estimate_result_size",
    "estimate_result_size_detailed",
    "pattern_cells_for_query",
    "plan_batches",
    "plan_batches_balanced",
    "point_workloads",
    "sort_by_workload",
    "thread_share_counts",
    "validate_inputs",
]
