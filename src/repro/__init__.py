"""repro — Load-imbalance-mitigated GPU similarity self-join, reproduced.

A full reproduction of Gallet & Gowanlock, *Load Imbalance Mitigation
Optimizations for GPU-Accelerated Similarity Joins* (2019), on a simulated
SIMT substrate:

- :class:`SelfJoin` / :class:`OptimizationConfig` — the self-join with the
  paper's optimizations (LID-UNICOMP, SORTBYWL, WORKQUEUE, k-granularity);
- :mod:`repro.grid` — the ε-grid index;
- :mod:`repro.simt` — the warp-level GPU simulator;
- :mod:`repro.perfmodel` — the vectorized performance model for
  paper-scale datasets;
- :mod:`repro.multigpu` — the device pool, shard planners, scheduler and
  merge behind a sharded join (``RuntimeConfig(sharding=...)``), with
  device-level load balancing;
- :mod:`repro.resilience` — seeded fault injection (device death,
  stragglers, transient errors, forced overflows) and the recovery policy
  that lets the sharded join survive it with an identical result;
- :mod:`repro.ego` — the SUPER-EGO CPU baseline;
- :mod:`repro.data` — paper dataset generators;
- :mod:`repro.bench` — the per-figure/table experiment harness.

Quickstart::

    import numpy as np
    from repro import SelfJoin, PRESETS

    points = np.random.default_rng(0).uniform(0, 10, (2000, 2))
    result = SelfJoin(PRESETS["combined"]).execute(points, epsilon=0.5)
    print(result.num_pairs, result.total_seconds, result.warp_execution_efficiency)
"""

from repro.core import JoinResult, OptimizationConfig, PRESETS, SelfJoin, SimilarityJoin
from repro.grid import GridIndex
from repro.resilience import FaultPlan, RecoveryPolicy
from repro.runtime import (
    JoinPlan,
    Runner,
    RuntimeConfig,
    ShardingConfig,
    compile_join,
    compile_knn_join,
    compile_self_join,
    compile_similarity_join,
)
from repro.simt import CostParams, DeviceSpec

__version__ = "1.0.0"

__all__ = [
    "CostParams",
    "DeviceSpec",
    "FaultPlan",
    "GridIndex",
    "JoinPlan",
    "JoinResult",
    "OptimizationConfig",
    "PRESETS",
    "RecoveryPolicy",
    "Runner",
    "RuntimeConfig",
    "SelfJoin",
    "SimilarityJoin",
    "ShardingConfig",
    "compile_join",
    "compile_knn_join",
    "compile_self_join",
    "compile_similarity_join",
    "__version__",
]
