"""The public self-join facade: compile a plan, hand it to the runner.

:class:`SelfJoin` no longer owns execution logic — it validates input,
builds the ε-grid index, compiles a declarative
:class:`~repro.runtime.plan.JoinPlan` (estimate → batch plan → launches →
merge) from its :class:`~repro.runtime.config.RuntimeConfig`, and hands
the plan to the one :class:`~repro.runtime.runner.Runner`:

1. build the ε-grid index;
2. if SORTBYWL / WORKQUEUE: quantify workloads and produce D';
3. estimate the result size (strided sample, or head-of-D' for WORKQUEUE)
   and derive the batch plan;
4. launch one kernel per batch on the VM — FIFO issue order when the
   work-queue forces most-work-first, a seeded random order otherwise (the
   hardware scheduler guarantees nothing);
5. feed per-batch kernel and transfer durations through the 3-stream
   pipeline model for the end-to-end simulated response time.

If a batch overflows its result buffer (the estimator under-guessed), the
run is re-planned with a doubled estimate — the same recovery a production
implementation needs, and a tested code path here.

:meth:`SelfJoin.execute_on_index` can run any *subset* of the query points
against a prebuilt index on any executor. A pooled self-join is this same
facade with ``RuntimeConfig(sharding=ShardingConfig(...))``: its plan
gains a shard stage and the runner drives a
:class:`~repro.multigpu.pool.DevicePool` through it.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import OptimizationConfig
from repro.core.executor import BatchExecutor
from repro.core.result import JoinResult
from repro.core.validation import validate_inputs
from repro.grid import GridIndex
from repro.runtime.config import RuntimeConfig, _split_config
from repro.runtime.plan import compile_self_join
from repro.runtime.runner import Runner

__all__ = ["SelfJoin"]


class SelfJoin:
    """Distance-similarity self-join on the simulated GPU.

    Parameters
    ----------
    config:
        The optimization selection; defaults to the GPUCALCGLOBAL
        baseline. A full :class:`~repro.runtime.config.RuntimeConfig` is
        also accepted here (or via ``runtime=``), carrying every
        execution knob in one value.
    runtime:
        Explicit :class:`~repro.runtime.config.RuntimeConfig` — engine,
        seed, device, ``include_self``, sharding and every other
        execution knob; mutually exclusive with passing one as
        ``config``. Read the knobs back as ``join.runtime.<field>``.
    """

    def __init__(
        self,
        config: OptimizationConfig | RuntimeConfig | None = None,
        *,
        runtime: RuntimeConfig | None = None,
    ):
        config, runtime = _split_config(config, runtime, "SelfJoin")
        if runtime is None:
            runtime = RuntimeConfig()
        if config is not None:
            runtime = runtime.with_(optimization=config)
        self.runtime = runtime

    def execute(self, points, epsilon: float) -> JoinResult:
        """Run the self-join; returns exact pairs plus simulated metrics.

        Input is validated at the entry point: non-finite coordinates and
        non-positive or non-finite ``epsilon`` raise :class:`ValueError`
        here, not as a wrong answer deep in the grid layer.
        """
        points, epsilon = validate_inputs(points, epsilon=epsilon)
        index = GridIndex(points, epsilon)
        return self.execute_on_index(index)

    def execute_on_index(
        self,
        index: GridIndex,
        *,
        subset: np.ndarray | None = None,
        executor: BatchExecutor | None = None,
    ) -> JoinResult:
        """Run the join over a prebuilt index, optionally for a query subset.

        ``subset`` restricts the *query* side to the given point ids — the
        candidate side always sees the whole index, so the result is exactly
        the full join's rows whose query point lies in the subset. The
        sorted order D', the result-size estimate and the batch plan are all
        computed for the subset alone; WORKQUEUE state (the atomic counter
        over the subset's D' slice) is private to this call.
        """
        plan = self.compile(index, subset=subset)
        return Runner(executor=executor, pool=None).run(plan)

    def compile(self, index: GridIndex, *, subset: np.ndarray | None = None):
        """Compile this facade's :class:`~repro.runtime.plan.JoinPlan`."""
        return compile_self_join(index, self.runtime, subset=subset)
