"""The pluggable batch-execution seam between joins and devices.

:class:`SelfJoin` and :class:`SimilarityJoin` plan *what* to run — the
grid index, the sorted order D', the batch plan — but delegate *where and
how* the batch kernels run to a :class:`BatchExecutor`. The default
:class:`DeviceExecutor` reproduces the single-device behaviour the paper
evaluates: one :class:`~repro.simt.GpuMachine` per plan, a fresh
capacity-checked result buffer per batch, and the 3-stream transfer
pipeline over that device's PCIe link.

The seam exists so other execution substrates can be swapped in without
touching the join logic; :mod:`repro.multigpu` uses it to run shards of
one join on a pool of independent simulated devices, each with its own
executor, buffers and counters, and :mod:`repro.resilience` wraps it to
inject faults.

Overflow handling follows the run's recovery story. Without a
:class:`~repro.resilience.policy.RecoveryPolicy`,
:class:`~repro.simt.BufferOverflowError` propagates to the caller, whose
re-plan doubles the estimate and restarts the whole plan — the paper's
recovery. A run that carries one recovers *at batch granularity*
instead: the failed batch alone is relaunched with a buffer
``OVERFLOW_GROWTH`` times larger (at most ``MAX_OVERFLOW_RETRIES``
times), the wasted attempt time is charged to the pipeline in simulated
seconds, and every retry is recorded as an :class:`OverflowRetry` so
recovery overhead is measurable. An aborted launch's work-queue fetches
are rolled back to the batch's entry state, exactly as a fresh relaunch
of the kernel would observe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from repro.simt import (
    BufferOverflowError,
    CostParams,
    DeviceSpec,
    GpuMachine,
    KernelStats,
    ResultBuffer,
)
from repro.simt.streams import PipelineResult, simulate_stream_pipeline

__all__ = [
    "BatchExecutor",
    "BatchOutcome",
    "DeviceExecutor",
    "MAX_OVERFLOW_RETRIES",
    "OVERFLOW_GROWTH",
    "OverflowRetry",
    "PAIR_BYTES",
]

#: Device bytes per result pair (two int64 indices) — transfer modeling.
PAIR_BYTES = 16

#: batch-level overflow retry: each relaunch grows the failed batch's
#: buffer this many times over, at most this many times per batch
OVERFLOW_GROWTH = 4
MAX_OVERFLOW_RETRIES = 6


@dataclass(frozen=True)
class OverflowRetry:
    """Record of one batch's recovered overflow(s).

    ``attempts`` failed launches preceded the success; ``final_capacity``
    is the buffer size that fit; ``wasted_seconds`` is the simulated time
    the failed attempts burned (charged to the pipeline).
    """

    batch_index: int
    attempts: int
    final_capacity: int
    wasted_seconds: float


@dataclass(frozen=True)
class BatchOutcome:
    """What one executor run of a batch plan produced.

    ``pairs_per_batch`` preserves batch order so callers can keep the
    stable concatenation order the single-device path has always used.
    ``overflow_retries`` records any batch-level overflow recoveries (empty
    unless the run carries a recovery policy).
    """

    pairs_per_batch: list[np.ndarray] = field(repr=False)
    batch_stats: list[KernelStats] = field(repr=False)
    kernel_seconds: list[float]
    transfer_seconds: list[float]
    pipeline: PipelineResult = field(repr=False)
    overflow_retries: list[OverflowRetry] = field(default_factory=list, repr=False)

    @property
    def num_batches(self) -> int:
        return len(self.batch_stats)

    @property
    def num_overflow_retries(self) -> int:
        return sum(r.attempts for r in self.overflow_retries)

    @property
    def overflow_wasted_seconds(self) -> float:
        return float(sum(r.wasted_seconds for r in self.overflow_retries))


class BatchExecutor(Protocol):
    """Anything that can run a planned sequence of batch kernels."""

    def run_batches(
        self,
        kernel: Callable,
        batches: list[np.ndarray],
        make_args: Callable[[np.ndarray], object],
        *,
        result_capacity: int,
        num_streams: int,
        issue_order: str = "random",
        coop_groups: bool = False,
    ) -> BatchOutcome: ...


class DeviceExecutor:
    """Runs batch kernels on one simulated device.

    Built from a :class:`~repro.runtime.config.RuntimeConfig`, which has
    already checked its values: the device spec and cost model (the
    paper's testbed class when unset), the warp replay fidelity, the
    execution engine (``"interpreted"`` or ``"vectorized"`` — see
    :mod:`repro.simt.vectorized`; both produce identical results, the
    vectorized engine is just fast) and the scheduler seed
    ``seed + device_index`` (pooled device ``d`` is built with
    ``device_index=d``). One executor is one device — buffer allocation,
    kernel launch and transfer timing all happen against ``self.device``.

    ``retry_overflows`` is whether the runtime carries a recovery policy:
    then a failed batch is relaunched with capacity grown
    ``OVERFLOW_GROWTH``-fold per attempt, up to ``MAX_OVERFLOW_RETRIES``
    attempts.
    """

    def __init__(self, runtime, *, device_index: int = 0):
        self.device = runtime.device if runtime.device is not None else DeviceSpec()
        self.costs = runtime.costs if runtime.costs is not None else CostParams()
        self.seed = runtime.seed + device_index
        self.replay_mode = runtime.replay_mode
        self.engine = runtime.engine
        self.retry_overflows = runtime.recovery is not None

    def run_batches(
        self,
        kernel: Callable,
        batches: list[np.ndarray],
        make_args: Callable[[np.ndarray], object],
        *,
        result_capacity: int,
        num_streams: int,
        issue_order: str = "random",
        coop_groups: bool = False,
    ) -> BatchOutcome:
        """Launch ``kernel`` once per batch; feed durations through the
        stream pipeline. ``make_args(batch)`` must return the kernel's
        argument bundle exposing ``num_threads``.

        A batch exceeding ``result_capacity`` raises
        :class:`~repro.simt.BufferOverflowError` — the caller re-plans,
        exactly as on the single-device path — unless ``retry_overflows``:
        then the batch alone is relaunched with a geometrically grown
        buffer and the recovery is recorded on the outcome.
        """
        machine = GpuMachine(
            self.device,
            self.costs,
            issue_order=issue_order,
            seed=self.seed,
            replay_mode=self.replay_mode,
            engine=self.engine,
        )
        pairs_per_batch: list[np.ndarray] = []
        batch_stats: list[KernelStats] = []
        kernel_secs: list[float] = []
        transfer_secs: list[float] = []
        retries: list[OverflowRetry] = []
        for batch_index, batch in enumerate(batches):
            args = make_args(batch)
            # the work-queue counter is the only cross-batch mutable device
            # state; snapshot it so an aborted launch can be rolled back
            counter = getattr(args, "queue_counter", None)
            capacity = result_capacity
            attempts = 0
            while True:
                mark = counter.value if counter is not None else 0
                buffer = ResultBuffer(capacity)
                try:
                    stats = machine.launch(
                        kernel,
                        args.num_threads,
                        args,
                        result_buffer=buffer,
                        coop_groups=coop_groups,
                    )
                except BufferOverflowError:
                    if not self.retry_overflows or attempts >= MAX_OVERFLOW_RETRIES:
                        raise
                    if counter is not None:
                        counter.reset(mark)
                    attempts += 1
                    capacity = max(capacity * OVERFLOW_GROWTH, capacity + 1)
                    continue
                break
            pairs = buffer.drain()
            pairs_per_batch.append(pairs)
            batch_stats.append(stats)
            kernel_seconds = stats.seconds
            if attempts:
                # each failed attempt ran to (approximately) the kernel's
                # full duration before aborting
                wasted = attempts * stats.seconds
                kernel_seconds += wasted
                retries.append(
                    OverflowRetry(
                        batch_index=batch_index,
                        attempts=attempts,
                        final_capacity=capacity,
                        wasted_seconds=wasted,
                    )
                )
            kernel_secs.append(kernel_seconds)
            transfer_secs.append(len(pairs) * PAIR_BYTES / self.device.pcie_bandwidth)

        pipeline = simulate_stream_pipeline(
            kernel_secs, transfer_secs, num_streams=num_streams
        )
        return BatchOutcome(
            pairs_per_batch=pairs_per_batch,
            batch_stats=batch_stats,
            kernel_seconds=kernel_secs,
            transfer_seconds=transfer_secs,
            pipeline=pipeline,
            overflow_retries=retries,
        )
