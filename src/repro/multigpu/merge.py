"""Deterministic merging of per-shard results into one ``JoinResult``.

Shards execute in whatever order the scheduler's simulated clock dictates,
so the merge must not depend on execution order: pairs are gathered in
*shard-id* order and then put into canonical lexicographic order, giving a
byte-identical result for any interleaving of the same shard set. The
order comes from sorting one int64 key per pair, ``q · width + c`` with
``width`` the largest second-column id + 1, built block by block and
decoded straight into the output — the ``(N, 2)`` concatenation and a
sort permutation are never allocated. Planners that shard
cell-granularly under a mirrored half-pattern are additionally deduped
(an adjacent-difference mask on the sorted key) — single-coverage
emission makes this a no-op in practice, but the merge enforces the
invariant rather than assuming it.

The merged pipeline is synthesized from the scheduler trace: per-shard
kernel windows in dispatch order, total time = pool makespan. That keeps
``JoinResult.total_seconds`` meaning what it always means — the simulated
end-to-end response time — now of the whole pool.
"""

from __future__ import annotations

import numpy as np

from repro.core.result import JoinResult
from repro.multigpu.scheduler import ScheduleTrace
from repro.simt.streams import PipelineResult

__all__ = ["merge_pairs", "merge_shard_results", "pipeline_from_trace"]


def merge_pairs(pairs_list: list[np.ndarray], *, dedup: bool = False) -> np.ndarray:
    """Merge pair blocks into one lexicographically sorted ``(N, 2)`` int64 array.

    ``dedup=True`` also removes duplicate rows — required when a shard
    plan could emit one pair from two shards. A negative id, or ids so
    large that the sort key ``q · width + c`` could overflow int64, raise
    ``ValueError``.
    """
    blocks = [np.asarray(p, dtype=np.int64).reshape(-1, 2) for p in pairs_list if len(p)]
    if not blocks:
        return np.empty((0, 2), dtype=np.int64)
    if min(int(b.min()) for b in blocks) < 0:
        raise ValueError("pair ids must be non-negative")
    width = max(int(b[:, 1].max()) for b in blocks) + 1
    if (max(int(b[:, 0].max()) for b in blocks) + 1) * width > 2**63:
        raise ValueError("pair ids would overflow the int64 merge key")
    key = np.empty(sum(len(b) for b in blocks), dtype=np.int64)
    start = 0
    for b in blocks:
        part = key[start : start + len(b)]
        np.multiply(b[:, 0], width, out=part)
        part += b[:, 1]
        start += len(b)
    key.sort()
    if dedup:
        keep = np.empty(len(key), dtype=bool)
        keep[0] = True
        np.not_equal(key[1:], key[:-1], out=keep[1:])
        key = key[keep]
    out = np.empty((len(key), 2), dtype=np.int64)
    np.divmod(key, width, out=(out[:, 0], out[:, 1]))
    return out


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
