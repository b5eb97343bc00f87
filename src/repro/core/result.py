"""Join results: exact pairs plus simulated execution statistics."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.simt import KernelStats
from repro.simt.streams import PipelineResult

__all__ = ["JoinResult", "merge_pairs", "stack_fragments"]


def stack_fragments(blocks) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """``(pairs, fragments)``: the ``(M, 2)`` concatenation of pair blocks,
    and the blocks again as row views into it, so each pair is stored once."""
    blocks = list(blocks)
    if not blocks:
        return np.empty((0, 2), dtype=np.int64), ()
    pairs = np.concatenate(blocks, axis=0)
    bounds = np.cumsum([len(b) for b in blocks[:-1]], dtype=np.int64)
    return pairs, tuple(np.split(pairs, bounds))


def merge_pairs(pairs_list: list[np.ndarray], *, dedup: bool = False) -> np.ndarray:
    """Merge pair blocks into one lexicographically sorted ``(N, 2)`` int64 array.

    The order comes from sorting one int64 key per pair, ``q · width + c``
    with ``width`` the largest second-column id + 1, built block by block
    and decoded straight into the output — the ``(N, 2)`` concatenation
    and a sort permutation are never allocated. ``dedup=True`` also
    removes duplicate rows (an adjacent-difference mask on the sorted
    key). A negative id, or ids so large that the key could overflow
    int64, raise ``ValueError``.
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


@dataclass(frozen=True)
class JoinResult:
    """Outcome of a simulated self-join execution.

    ``pairs`` is the exact ordered result set: every ``(i, j)`` with
    ``dist(p_i, p_j) <= eps`` (including ``(i, i)`` unless the join was run
    with ``include_self=False``). Times are simulated device seconds.
    """

    pairs: np.ndarray
    epsilon: float
    num_points: int
    batch_stats: list[KernelStats] = field(repr=False)
    pipeline: PipelineResult = field(repr=False)
    config_description: str = ""
    #: batch-level overflow recoveries (runs with a recovery policy): failed
    #: launch attempts and the simulated time they wasted, already included
    #: in the pipeline's ``total_seconds``.
    overflow_retries: int = 0
    overflow_wasted_seconds: float = 0.0
    #: per-batch pair blocks in buffer order (their concatenation equals
    #: ``pairs``), kept by the runner for streaming consumption; ``None``
    #: on a pooled run's shards and on the merged result, whose pairs the
    #: multi-device merge re-ordered.
    fragments: tuple[np.ndarray, ...] | None = field(default=None, repr=False)
    #: simulation fidelity of the execution statistics: ``"simulated"``
    #: when the pairs came through the SIMT machine (cycle-accurate
    #: ``batch_stats``, WEE, warp replay), ``"none"`` for the native array
    #: engine — the pair *set* is exact either way, but a ``"none"`` result
    #: carries no warp/cycle accounting and its times are host wall-clock.
    fidelity: str = "simulated"

    @property
    def num_pairs(self) -> int:
        return len(self.pairs)

    @property
    def num_batches(self) -> int:
        return len(self.batch_stats)

    @property
    def total_seconds(self) -> float:
        """End-to-end simulated response time (kernels + exposed transfers)."""
        return self.pipeline.total_seconds

    @property
    def kernel_seconds(self) -> float:
        """Kernel-only simulated time, summed over batches."""
        return float(sum(s.seconds for s in self.batch_stats))

    @property
    def warp_execution_efficiency(self) -> float:
        """Cycle-weighted WEE across every warp of every batch (the
        profiler metric of Tables III–VI)."""
        active = 0.0
        busy = 0.0
        warp_size = 32
        for stats in self.batch_stats:
            for w in stats.warp_stats:
                active += w.active_cycles
                busy += w.warp_cycles
                warp_size = w.warp_size
        if busy == 0:
            return 1.0
        return active / (warp_size * busy)

    @property
    def selectivity(self) -> float:
        """Average result rows per query point."""
        if self.num_points == 0:
            return 0.0
        return self.num_pairs / self.num_points

    def neighbor_lists(self) -> dict[int, np.ndarray]:
        """Result set grouped by query point: ``{i: sorted neighbor ids}``."""
        out: dict[int, np.ndarray] = {}
        if self.num_pairs == 0:
            return out
        sorted_pairs = self.sorted_pairs()
        qs, starts = np.unique(sorted_pairs[:, 0], return_index=True)
        bounds = np.append(starts, len(sorted_pairs))
        for q, a, b in zip(qs, bounds[:-1], bounds[1:]):
            out[int(q)] = sorted_pairs[a:b, 1]
        return out

    def iter_pairs(self, chunk: int | None = None):
        """Yield the result pairs in blocks, without copying the whole set.

        Backed by the per-batch ``fragments`` when the runner kept them
        (single-device runs), falling back to views of ``pairs`` otherwise
        — either way the concatenation of every yielded block equals
        ``pairs`` exactly, rows in the same order.

        Without ``chunk``, blocks are the natural fragments (empty ones
        skipped). With ``chunk``, blocks hold exactly ``chunk`` rows apiece
        (the last one short), re-slicing across fragment boundaries.
        """
        blocks = self.fragments if self.fragments is not None else (self.pairs,)
        if chunk is None:
            for block in blocks:
                if len(block):
                    yield block
            return
        if chunk < 1:
            raise ValueError("chunk must be >= 1")
        pending: list[np.ndarray] = []
        have = 0
        for block in blocks:
            while len(block):
                take = min(chunk - have, len(block))
                pending.append(block[:take])
                have += take
                block = block[take:]
                if have == chunk:
                    yield pending[0] if len(pending) == 1 else np.concatenate(pending)
                    pending, have = [], 0
        if have:
            yield pending[0] if len(pending) == 1 else np.concatenate(pending)

    def sorted_pairs(self) -> np.ndarray:
        """Pairs in lexicographic order — the canonical form for comparisons.

        Engines and shard layouts emit pairs in different buffer orders;
        two results answer the same join iff their sorted pairs are
        array-equal. One key sort (:func:`merge_pairs`); the pairs' dtype
        is kept.
        """
        if self.num_pairs == 0:
            return self.pairs
        return merge_pairs([self.pairs]).astype(self.pairs.dtype, copy=False)
