"""Deterministic merging of per-shard results into one ``JoinResult``.

Shards execute in whatever order the scheduler's simulated clock dictates,
so the merge must not depend on execution order: pairs are gathered in
*shard-id* order and then put into canonical lexicographic order, giving a
byte-identical result for any interleaving of the same shard set. The
order comes from one int64 key sort per merge,
:func:`~repro.core.result.merge_pairs` — the same sort that puts a single
result in canonical form. Planners that shard cell-granularly under a
mirrored half-pattern are additionally deduped — single-coverage
emission makes this a no-op in practice, but the merge enforces the
invariant rather than assuming it.

The merged pipeline is synthesized from the scheduler trace: per-shard
kernel windows in dispatch order, total time = pool makespan. That keeps
``JoinResult.total_seconds`` meaning what it always means — the simulated
end-to-end response time — now of the whole pool.
"""

from __future__ import annotations

import numpy as np

from repro.core.result import JoinResult, merge_pairs
from repro.multigpu.scheduler import ScheduleTrace
from repro.simt.streams import PipelineResult

__all__ = ["merge_pairs", "merge_shard_results", "pipeline_from_trace"]


def pipeline_from_trace(trace: ScheduleTrace) -> PipelineResult:
    """A pool-level pipeline view: one 'kernel window' per shard event.

    Transfers are already accounted inside each shard's own 3-stream
    pipeline (their exposed time is part of the event duration), so the
    pool view sets ``transfer_end = kernel_end`` per event and reports the
    pool makespan as the total.
    """
    starts = np.array([e.start_seconds for e in trace.events], dtype=np.float64)
    ends = np.array([e.end_seconds for e in trace.events], dtype=np.float64)
    return PipelineResult(
        total_seconds=trace.makespan_seconds,
        kernel_start=starts,
        kernel_end=ends,
        transfer_end=ends.copy(),
    )


def merge_shard_results(
    shard_results: list,
    trace: ScheduleTrace,
    *,
    epsilon: float,
    num_points: int,
    dedup: bool = False,
    config_description: str = "",
) -> JoinResult:
    """Fold shard ``JoinResult``s into one pool-wide ``JoinResult``.

    ``shard_results`` is indexed by shard id; ``None`` entries (skipped or
    empty shards) contribute nothing. Batch stats concatenate in shard-id
    order so the merged warp execution efficiency aggregates every warp of
    every device, exactly as the single-device result does per batch.
    """
    present = [r for r in shard_results if r is not None]
    pairs = merge_pairs([r.pairs for r in present], dedup=dedup)
    batch_stats = [s for r in present for s in r.batch_stats]
    # a merged result is only as faithful as its least faithful shard:
    # any native ("none") shard means the pool-level cycle statistics
    # cannot be trusted as simulated
    fidelities = {getattr(r, "fidelity", "simulated") for r in present}
    fidelity = "none" if "none" in fidelities else "simulated"
    return JoinResult(
        pairs=pairs,
        epsilon=float(epsilon),
        num_points=int(num_points),
        batch_stats=batch_stats,
        pipeline=pipeline_from_trace(trace),
        config_description=config_description,
        overflow_retries=sum(getattr(r, "overflow_retries", 0) for r in present),
        overflow_wasted_seconds=float(
            sum(getattr(r, "overflow_wasted_seconds", 0.0) for r in present)
        ),
        fidelity=fidelity,
    )
