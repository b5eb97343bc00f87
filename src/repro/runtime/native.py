"""``engine="native"``: the fidelity-free array-native join backend.

The simulated engines (``"interpreted"``, ``"vectorized"``) reconstruct
the paper's SIMT machine cycle-for-cycle; this module computes the same
exact pair *set* with pure NumPy array passes and nothing else — no warp
accounting, no replay, no batch planning. Candidate blocks come from
:func:`repro.grid.query.candidate_blocks` over the same
:class:`~repro.grid.GridIndex` neighbor topology the kernels walk, but
only the lexicographically-positive half of the ``3**n`` offsets is
searched (plus, within each cell, the later slots of the query's own
cell): every hit is emitted with its mirror, which restores the kernels'
full directed pair set at half the candidate volume. Every pass visits
its queries in one order under every optimization config: a self-join
in slot order, cell by cell, which reads the cell-ordered columns
forward; the bipartite sweep in query-id order (a shard: its subset as
given). SORTBYWL gives a GPU warp's threads similar work, and a host
core has no warps.

The self-join refines in slot space. A slot is a position in the
index's ``point_order``, so each candidate cell is one run of slots, and
each block is refined with the package's one ε test,
:func:`repro.grid.query.epsilon_filter`, against the points in cell
order (per-dimension columns for resident points, row gathers through
``point_order`` for memory-mapped ones). Hits map back to ids through
``point_order``, and the ``(M, 2)`` result is written once: the
identity rows, then each block's rows followed by their mirror, with
each block's rows a fragment view. The bipartite sweep walks one stage
per neighbour offset of the queries' cells and refines id candidates:
each block's slots map through ``point_order`` before the ε test.
Results carry ``fidelity="none"``: ``batch_stats`` is empty, WEE is
undefined, and the pipeline times are host wall-clock seconds.

Every pass refines its blocks on a process-wide pool of host threads,
one per usable core, started on first use; NumPy's gathers, ufuncs and
``flatnonzero`` release the GIL. The calling thread walks the grid: it
generates each stage (the within-cell half, one offset) and cuts its
block bounds (:func:`~repro.grid.query.block_cuts`), and a pool task
builds one block (:func:`~repro.grid.query.candidate_block`), refines it
and maps its hits to ids. Results are taken back in submission order,
so pairs and fragments are byte-identical to an inline pass. A stage of
one block and a process with one usable core refine inline.

Dispatch is by the op's ``kind`` (:mod:`repro.runtime.ops`): ``"self"``
walks the half-neighborhood scheme above, every other kind is executed
through the op's ``queries`` attribute as a bipartite sweep.
The kNN driver never reaches this module directly — each of its
expansion rounds compiles to a bipartite sub-plan, so kNN-on-native is
just this backend run once per round.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from repro.core.result import JoinResult

# bound, never called: perfbench's core.sortbywl span wraps it, and
# Tracer.install resolves every wrap target before it wraps any
from repro.core.sortbywl import sort_by_workload  # noqa: F401
from repro.grid import GridIndex
from repro.grid.neighbors import neighbor_offsets, neighbor_ranks_for_offset
from repro.grid.query import block_cuts, candidate_block, cell_runs, epsilon_filter
from repro.simt.streams import PipelineResult

__all__ = ["NATIVE_CHUNK_PAIRS", "execute_shard_native"]

#: candidate pairs refined per block by every native pass — the
#: self-join and the bipartite sweep (similarity joins and kNN rounds);
#: the runner always runs at this bound (``execute_shard_native``'s
#: default), and direct callers may pass another.
#: A block's int64 and float64 intermediates are 512 KiB each, so the few
#: live at once stay near a core's 2 MiB L2 instead of streaming through
#: DRAM as :data:`~repro.grid.query.BLOCK_PAIRS`-sized (32 MB) arrays;
#: the block sweep is in ``docs/performance.md``
NATIVE_CHUNK_PAIRS = 65_536


# ----------------------------------------------------------------------
# the refinement pool
# ----------------------------------------------------------------------
#: the process-wide refinement pool once sized: ``(executor, width)``,
#: with no executor where the passes run inline (one usable core)
_POOL: tuple[ThreadPoolExecutor | None, int] | None = None
_POOL_LOCK = threading.Lock()


def _usable_cores() -> int:
    """How many cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _refine_pool() -> tuple[ThreadPoolExecutor | None, int]:
    """``(executor, width)``: the host threads that refine the native
    passes' blocks, one per usable core, started on first use; no
    executor with one usable core."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            width = _usable_cores()
            executor = (
                ThreadPoolExecutor(width, thread_name_prefix="repro-native")
                if width > 1
                else None
            )
            _POOL = executor, width
        return _POOL


def _drop_pool() -> None:
    """Forget an inherited pool in a forked child: its threads stayed in
    the parent, and a parent thread may have held the lock."""
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


class _Tasks:
    """One native pass's calls, on the refinement pool or the calling thread.

    ``used`` tells whether any call went to the pool. Results come back in
    call order. Tasks carry no context variables, so the calls that walk
    the grid (neighbour ranks, the run memo) stay on the calling thread.
    """

    def __init__(self) -> None:
        self.executor, self.width = _refine_pool()
        self.used = False

    def results(self, calls):
        """Yield ``fn(*args)`` for each ``(spread, fn, *args)`` of ``calls``,
        in order: on the pool when ``spread`` and there is one, at most two
        calls per worker in flight, else on the calling thread once every
        earlier result is in. On an error, or when closed early, queued
        calls are cancelled and running ones finish before this returns."""
        pending = collections.deque()
        try:
            for spread, fn, *args in calls:
                if spread and self.executor is not None:
                    self.used = True
                    if len(pending) == 2 * self.width:
                        yield pending.popleft().result()
                    pending.append(self.executor.submit(fn, *args))
                    continue
                while pending:
                    yield pending.popleft().result()
                yield fn(*args)
            while pending:
                yield pending.popleft().result()
        finally:
            for call in pending:
                call.cancel()
            wait(pending)

    def refined(self, stages, refine, chunk_pairs):
        """``refine(queries, slots)`` of each candidate block of ``stages``
        (``(queries, starts, lengths)`` runs), in walk order. A stage of
        one block is refined on the calling thread, a larger one's blocks
        on the pool."""

        def calls():
            for stage in stages:
                runs, cuts = block_cuts(*stage, chunk_pairs=chunk_pairs)
                del stage  # its runs without candidates die here
                for lo, hi in itertools.pairwise(cuts):
                    yield len(cuts) > 2, _refine_block, refine, runs, lo, hi

        return self.results(calls())


def _refine_block(refine, runs, lo, hi):
    return refine(*candidate_block(runs, lo, hi))


# ----------------------------------------------------------------------
# the passes
# ----------------------------------------------------------------------
def _query_slots(index: GridIndex, subset) -> np.ndarray:
    """The slots of a self-join's queries (all without a ``subset``), increasing."""
    if subset is None:
        return np.arange(index.num_points, dtype=np.int64)
    mask = np.zeros(index.num_points, dtype=bool)
    mask[np.asarray(subset, dtype=np.int64)] = True
    return np.flatnonzero(mask.take(index.point_order))


def _half_offsets(ndim: int) -> np.ndarray:
    """The ``(3**n - 1) / 2`` lexicographically-positive neighbor offsets.

    For distinct adjacent cells A and B exactly one of ``B - A`` / ``A - B``
    is lex-positive, so walking only these offsets (plus, within each
    cell, the later slots of the query's own cell) visits every unordered
    candidate pair exactly once from the query side; mirrored emission
    restores the full directed pair set. Because the relation is defined
    purely by the query's cell and slot, a union over any query-subset
    partition (shards) still covers every pair exactly once. The
    canonical offset order is lexicographic, so they are the offsets
    after the zero offset.
    """
    return neighbor_offsets(ndim)[3**ndim // 2 + 1 :]


def _stage_runs(index, slots):
    """The half-neighbourhood walk's ``(query slots, starts, lengths)`` runs,
    one stage at a time: the later slots of each query's own cell, then
    one lex-positive offset per unordered cell pair. The query cells are
    gathered now, the stages as they are consumed."""
    counts = index.cell_counts
    q_rank = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    if len(slots) < len(q_rank):  # a shard's slots
        q_rank = q_rank.take(slots)

    def stages():
        cell_end = index.cell_starts.take(q_rank) + counts.take(q_rank)
        yield slots, slots + 1, cell_end - slots - 1
        for off in _half_offsets(index.ndim):
            nbr = neighbor_ranks_for_offset(index, off).take(q_rank)
            yield cell_runs(index, slots, nbr)

    return stages()


def _kept_runs(stages, table):
    """Pass ``stages`` through, keeping their non-empty runs for
    ``table.store_runs``; once they outgrow the memo budget's room, the
    table is told and the rest pass through untouched."""
    kept, size = [], 0
    room = table.memo_budget - table.memo_bytes
    for stage in stages:
        if kept is not None:
            runs = np.flatnonzero(stage[2] > 0)
            if len(runs) < len(stage[2]):
                stage = tuple(a.take(runs) for a in stage)
            size += sum(a.nbytes for a in stage)
            if size <= room:
                kept.append(stage)
            else:
                kept = None
                table.store_runs(None)
        yield stage
    if kept is not None:
        table.store_runs(tuple(kept))


def _self_join_blocks(index, slots, tasks, *, include_self, chunk_pairs, whole=False):
    """``(qi, cj, mirror)`` blocks of the half-neighborhood self-join over
    query ``slots`` (increasing): the identity pairs (unmirrored), then
    every refined block's hits as ids, to be emitted with their mirror;
    ``None`` for a block without hits.

    A ``whole``-index walk registers on the index's neighbour table, and
    its runs come from the table once a second walk has kept them
    (:meth:`~repro.grid.neighbors.NeighborTable.walk`); blocks are the
    same either way, because every stage is chunked on its own.
    """
    if len(slots) == 0:
        return
    point_order = index.point_order
    if include_self:
        ids = point_order if whole else point_order.take(slots)
        for start in range(0, len(ids), max(chunk_pairs, 1)):
            q = ids[start : start + chunk_pairs]
            yield q, q, False
    stored, keep_runs = index.neighbors.walk() if whole else (None, False)
    if stored is not None:
        stages = stored
    else:
        stages = _stage_runs(index, slots)
        if keep_runs:
            stages = _kept_runs(stages, index.neighbors)
    keep = epsilon_filter(index.points, index.points, index.epsilon, order=point_order)

    def refine(qs, cs):
        hit = np.flatnonzero(keep(qs, cs))
        if hit.size:
            return point_order.take(qs.take(hit)), point_order.take(cs.take(hit)), True
        return None

    yield from tasks.refined(stages, refine, chunk_pairs)


def _bipartite_blocks(op, index, ids, tasks, *, chunk_pairs):
    """``(qi, cj, False)`` blocks of the bipartite sweep over query ``ids``,
    in the order given: one stage per neighbour offset of each query's
    cell; ``None`` for a block without hits."""
    if len(ids) == 0 or index.num_points == 0:
        return
    queries = op.queries
    point_order = index.point_order
    keep = epsilon_filter(queries, index.points, index.epsilon)
    probes = index.neighbors.probe(queries.take(ids, axis=0))
    stages = (cell_runs(index, ids, ranks) for _, ranks in probes)

    def refine(qi, slots):
        cj = point_order.take(slots)
        hit = np.flatnonzero(keep(qi, cj))
        if hit.size:
            return qi.take(hit), cj.take(hit), False
        return None

    yield from tasks.refined(stages, refine, chunk_pairs)


def _write_rows(rows, qi, cj, mirror):
    n = len(qi)
    rows[:n, 0] = qi
    rows[:n, 1] = cj
    if mirror:
        rows[n:, 0] = cj
        rows[n:, 1] = qi


def _assemble(blocks: list, tasks: _Tasks) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """``(pairs, fragments)`` from ``(qi, cj, mirror)`` blocks, written once.

    Each block's rows ``(qi, cj)`` follow the previous block's, then their
    mirror ``(cj, qi)`` when ``mirror``; its fragment is a row view of
    ``pairs`` over both. Blocks are released from the list as they are
    handed out, so the pairs are never held twice. When the pass refined
    on the pool, the rows are copied on it too: strided copies release
    the GIL.
    """
    sizes = [len(qi) * (2 if mirror else 1) for qi, _, mirror in blocks]
    pairs = np.empty((sum(sizes), 2), dtype=np.int64)
    ends = itertools.accumulate(sizes)
    fragments = tuple(pairs[end - size : end] for size, end in zip(sizes, ends))

    def copies():
        for i, rows in enumerate(fragments):
            block, blocks[i] = blocks[i], None
            yield tasks.used, _write_rows, rows, *block

    for _ in tasks.results(copies()):
        pass
    return pairs, fragments


def execute_shard_native(
    op,
    index: GridIndex,
    cfg,
    *,
    subset: np.ndarray | None = None,
    description: str | None = None,
    keep_fragments: bool = True,
    chunk_pairs: int = NATIVE_CHUNK_PAIRS,
) -> JoinResult:
    """Run one shard (or the whole join: ``subset=None``) natively.

    The returned pair set equals the simulated engines' merged set
    order-normalized (compare via
    :meth:`~repro.core.result.JoinResult.sorted_pairs`); fragments are
    row views of ``pairs``, one per refined block, so streaming
    consumption works unchanged. Blocks are refined on the refinement
    pool, and ``pairs`` is the same bytes on any number of cores. ``cfg``
    only names the result (``config_description``): the walk is the same
    under every optimization config, and so are the bytes of ``pairs``.
    Pipeline times are host wall-clock, ``fidelity="none"``.
    """
    tasks = _Tasks()
    if op.kind == "self":
        queries = _query_slots(index, subset)
        walk = _self_join_blocks(
            index,
            queries,
            tasks,
            include_self=getattr(op, "include_self", True),
            chunk_pairs=chunk_pairs,
            whole=subset is None,
        )
    else:
        queries = (
            np.asarray(subset, dtype=np.int64)
            if subset is not None
            else np.arange(len(op.queries), dtype=np.int64)
        )
        walk = _bipartite_blocks(op, index, queries, tasks, chunk_pairs=chunk_pairs)
    t0 = time.perf_counter()
    blocks: list = []
    starts: list[float] = []
    ends: list[float] = []
    prev = 0.0
    with contextlib.closing(walk):
        for block in walk:
            if block is None:
                continue
            now = time.perf_counter() - t0
            blocks.append(block)
            starts.append(prev)
            ends.append(now)
            prev = now
    wall = time.perf_counter() - t0
    pairs, views = _assemble(blocks, tasks)
    pipeline = PipelineResult(
        total_seconds=wall,
        kernel_start=np.array(starts, dtype=np.float64),
        kernel_end=np.array(ends, dtype=np.float64),
        transfer_end=np.array(ends, dtype=np.float64),
    )
    return JoinResult(
        pairs=pairs,
        epsilon=op.result_epsilon(index),
        num_points=len(queries),
        batch_stats=[],
        pipeline=pipeline,
        config_description=description if description is not None else op.describe(cfg),
        fragments=views if keep_fragments else None,
        fidelity="none",
    )
