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

Overflow handling is a policy. ``overflow_policy="raise"`` (the default)
propagates :class:`~repro.simt.BufferOverflowError` to the caller, whose
re-plan doubles the estimate and restarts the whole plan — the paper's
recovery. ``"retry"`` instead recovers *at batch granularity*: the failed
batch alone is relaunched with a geometrically grown buffer (bounded
retries, optional backoff), the wasted attempt time is charged to the
pipeline in simulated seconds, and every retry is recorded as an
:class:`OverflowRetry` so recovery overhead is measurable. An aborted
launch's work-queue fetches are rolled back to the batch's entry state,
exactly as a fresh relaunch of the kernel would observe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from repro.simt import (
    ENGINES,
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
    "OVERFLOW_POLICIES",
    "OverflowRetry",
    "PAIR_BYTES",
]

#: Device bytes per result pair (two int64 indices) — transfer modeling.
PAIR_BYTES = 16

OVERFLOW_POLICIES = ("raise", "retry")


@dataclass(frozen=True)
class OverflowRetry:
    """Record of one batch's recovered overflow(s).

    ``attempts`` failed launches preceded the success; ``final_capacity``
    is the buffer size that fit; ``wasted_seconds`` is the simulated time
    the failed attempts and backoff burned (charged to the pipeline).
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
    under the default ``"raise"`` policy).
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

    Parameters mirror the hardware knobs :class:`SelfJoin` used to own:
    the device spec, the cost model, the scheduler seed, the warp replay
    fidelity and the execution engine (``"interpreted"`` or
    ``"vectorized"`` — see :mod:`repro.simt.vectorized`; both produce
    identical results, the vectorized engine is just fast). One executor
    is one device — buffer allocation, kernel launch and transfer timing
    all happen against ``self.device``.

    Overflow parameters (only consulted under ``overflow_policy="retry"``):
    a failed batch is relaunched with capacity grown by ``overflow_growth``
    per attempt, up to ``max_overflow_retries`` attempts, each retry adding
    ``overflow_backoff_seconds`` of simulated backoff on top of the failed
    attempt's own duration.
    """

    def __init__(
        self,
        device: DeviceSpec | None = None,
        costs: CostParams | None = None,
        *,
        seed: int = 0,
        replay_mode: str = "aggregate",
        engine: str = "interpreted",
        overflow_policy: str = "raise",
        overflow_growth: float = 4.0,
        max_overflow_retries: int = 6,
        overflow_backoff_seconds: float = 0.0,
    ):
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
        if overflow_policy not in OVERFLOW_POLICIES:
            raise ValueError(
                f"unknown overflow policy {overflow_policy!r}; "
                f"expected one of {OVERFLOW_POLICIES}"
            )
        if overflow_growth <= 1.0:
            raise ValueError("overflow_growth must be > 1")
        if max_overflow_retries < 0:
            raise ValueError("max_overflow_retries must be >= 0")
        if overflow_backoff_seconds < 0:
            raise ValueError("overflow_backoff_seconds must be >= 0")
        self.device = device if device is not None else DeviceSpec()
        self.costs = costs if costs is not None else CostParams()
        self.seed = seed
        self.replay_mode = replay_mode
        self.engine = engine
        self.overflow_policy = overflow_policy
        self.overflow_growth = overflow_growth
        self.max_overflow_retries = max_overflow_retries
        self.overflow_backoff_seconds = overflow_backoff_seconds

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

        Under ``overflow_policy="raise"``, a batch exceeding
        ``result_capacity`` raises :class:`~repro.simt.BufferOverflowError`
        — the caller re-plans, exactly as on the single-device path. Under
        ``"retry"``, the batch alone is relaunched with a geometrically
        grown buffer and the recovery is recorded on the outcome.
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
                    if (
                        self.overflow_policy != "retry"
                        or attempts >= self.max_overflow_retries
                    ):
                        raise
                    if counter is not None:
                        counter.reset(mark)
                    attempts += 1
                    capacity = max(
                        int(np.ceil(capacity * self.overflow_growth)), capacity + 1
                    )
                    continue
                break
            pairs = buffer.drain()
            pairs_per_batch.append(pairs)
            batch_stats.append(stats)
            kernel_seconds = stats.seconds
            if attempts:
                # each failed attempt ran to (approximately) the kernel's
                # full duration before aborting, plus configured backoff
                wasted = attempts * (stats.seconds + self.overflow_backoff_seconds)
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
