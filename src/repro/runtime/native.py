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
full directed pair set at half the candidate volume. Queries visit in
the paper's SORTBYWL heaviest-cells-first order when the optimization
config asks for it.

The self-join refines in slot space. A slot is a position in the
index's ``point_order``, so each candidate cell is one run of slots, and
each block is refined with the package's one ε test,
:func:`repro.grid.query.epsilon_filter`, against the points in cell
order (per-dimension columns for resident points, row gathers through
``point_order`` for memory-mapped ones). Hits map back to ids through
``point_order``, and the ``(M, 2)`` result is written once: the
identity rows, then each block's rows followed by their mirror, with
each block's rows a fragment view. The bipartite sweep keeps id
candidates (:func:`~repro.grid.bipartite.iter_bipartite_blocks`).
Results carry ``fidelity="none"``: ``batch_stats`` is empty, WEE is
undefined, and the pipeline times are host wall-clock seconds.

Dispatch is by the registry op's ``kind`` (:mod:`repro.runtime.ops`):
``"self"`` walks the half-neighborhood scheme above, every other kind is
executed through the op's ``queries`` attribute as a bipartite sweep.
The kNN driver never reaches this module directly — each of its
expansion rounds compiles to a bipartite sub-plan, so kNN-on-native is
just this backend run once per round.

The module also hosts the process worker backend
(``ShardingConfig(workers="process")``): shards of a pooled native join
fan out over a ``ProcessPoolExecutor`` whose workers share the dataset
through ``multiprocessing.shared_memory`` — or by re-opening the same
``.npy`` file when the dataset is a :class:`numpy.memmap`
(``load_dataset(..., mmap=True)``), in which case no process ever holds
a full resident copy. Each worker rebuilds the op and its grid index
once (the bulk ``method="sorted"`` build) and then answers shard subsets
with :func:`execute_shard_native`, the function the inline backend calls.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.result import JoinResult
from repro.core.sortbywl import sort_by_workload
from repro.grid import GridIndex
from repro.grid.bipartite import bipartite_workloads, iter_bipartite_blocks
from repro.grid.neighbors import neighbor_offsets, neighbor_ranks_for_offset
from repro.grid.query import (
    candidate_blocks,
    cell_runs,
    epsilon_filter,
    point_slots,
    refine_blocks,
)
from repro.resilience.faults import DeviceLostError
from repro.runtime.ops import BipartiteOp, SelfJoinOp
from repro.simt.streams import PipelineResult
from repro.util import stable_argsort_desc

__all__ = [
    "NATIVE_CHUNK_PAIRS",
    "SharedArray",
    "execute_shard_native",
    "native_query_order",
    "run_shards_process",
    "share_array",
]

#: candidate pairs refined per block by every native pass — the
#: self-join, the bipartite sweep (similarity joins and kNN rounds) and
#: the process workers — recorded in the plan's ``NativeLaunchStage``.
#: A block's int64 and float64 intermediates are 512 KiB each, so the few
#: live at once stay near a core's 2 MiB L2 instead of streaming through
#: DRAM as :data:`~repro.grid.query.BLOCK_PAIRS`-sized (32 MB) arrays;
#: the block sweep is in ``docs/performance.md``
NATIVE_CHUNK_PAIRS = 65_536


# ----------------------------------------------------------------------
# in-process execution
# ----------------------------------------------------------------------
def native_query_order(
    op, index: GridIndex, cfg, *, subset: np.ndarray | None = None
) -> np.ndarray:
    """The shard's query visiting order D' for the native engine.

    Mirrors the ops' ``prepare`` ordering — SORTBYWL heaviest-cells-first
    when ``cfg.uses_sorted_points``, dataset/subset order otherwise — but
    skips the result-size estimation the batch planner needs and the
    native engine does not.
    """
    if op.kind == "self":
        if cfg.uses_sorted_points:
            order = sort_by_workload(index, cfg.pattern)
            if subset is not None:
                keep = np.zeros(index.num_points, dtype=bool)
                keep[np.asarray(subset, dtype=np.int64)] = True
                order = order[keep[order]]
            return order
        if subset is not None:
            return np.asarray(subset, dtype=np.int64)
        return np.arange(index.num_points, dtype=np.int64)
    ids = (
        np.asarray(subset, dtype=np.int64)
        if subset is not None
        else np.arange(len(op.queries), dtype=np.int64)
    )
    if cfg.uses_sorted_points and len(ids):
        workloads, _ = bipartite_workloads(index, op.queries[ids])
        return ids[stable_argsort_desc(workloads)]
    return ids


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


def _walk_key(op, cfg, subset):
    """The visiting order of a whole-index self-join, as the key of its
    candidate runs on the index's neighbour table; ``None`` for a shard
    subset or another op, whose runs are never stored."""
    if op.kind != "self" or subset is not None:
        return None
    return ("sortbywl", cfg.pattern) if cfg.uses_sorted_points else ("natural",)


def _stage_runs(index, queries):
    """The half-neighbourhood walk's ``(query slots, starts, lengths)`` runs,
    one stage at a time: the later slots of each query's own cell, then
    one lex-positive offset per unordered cell pair. The query slots and
    cells are gathered now, the stages as they are consumed."""
    q_slot = point_slots(index, queries)
    q_rank = index.point_cell_rank[queries]

    def stages():
        cell_end = index.cell_starts[q_rank] + index.cell_counts[q_rank]
        yield q_slot, q_slot + 1, cell_end - q_slot - 1
        for off in _half_offsets(index.ndim):
            nbr = neighbor_ranks_for_offset(index, off)[q_rank]
            yield cell_runs(index, q_slot, nbr)

    return stages()


def _stage_blocks(stages, chunk_pairs):
    """``candidate_blocks`` over each stage in turn. A stage's arrays are
    released once ``candidate_blocks`` holds them, so its runs without
    candidates die when it drops them, as in a stage built in place."""
    for stage in stages:
        blocks = candidate_blocks(*stage, chunk_pairs=chunk_pairs)
        del stage
        yield from blocks


def _kept_runs(stages, table, key):
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
                table.store_runs(key, None)
        yield stage
    if kept is not None:
        table.store_runs(key, tuple(kept))


def _self_join_blocks(index, order, *, include_self, chunk_pairs, key=None):
    """``(qi, cj, mirror)`` blocks of the half-neighborhood self-join: the
    identity pairs (unmirrored), then every refined block's hits as ids,
    to be emitted with their mirror.

    With a ``key`` (the visiting order of a whole-index walk), the walk
    registers on the index's neighbour table, and its runs come from the
    table once a second walk has kept them
    (:meth:`~repro.grid.neighbors.NeighborTable.walk`); blocks are the
    same either way, because every stage is chunked on its own.
    """
    queries = np.asarray(order, dtype=np.int64)
    if queries.size == 0 or index.num_points == 0:
        return
    if include_self:
        for start in range(0, len(queries), max(chunk_pairs, 1)):
            q = queries[start : start + chunk_pairs]
            yield q, q, False
    point_order = index.point_order
    table = index.neighbors if key is not None else None
    stored, keep_runs = table.walk(key) if table is not None else (None, False)
    if stored is not None:
        stages = stored
    else:
        stages = _stage_runs(index, queries)
        if keep_runs:
            stages = _kept_runs(stages, table, key)
    keep = epsilon_filter(index.points, index.points, index.epsilon, order=point_order)
    for qs, cs in refine_blocks(_stage_blocks(stages, chunk_pairs), keep):
        yield point_order[qs], point_order[cs], True


def _bipartite_blocks(op, index, order, *, chunk_pairs):
    queries = op.queries
    keep = epsilon_filter(queries, index.points, index.epsilon)
    blocks = iter_bipartite_blocks(
        index, queries[order], query_ids=order, chunk_pairs=chunk_pairs
    )
    for qi, cj in refine_blocks(blocks, keep):
        yield qi, cj, False


def _assemble(blocks: list) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """``(pairs, fragments)`` from ``(qi, cj, mirror)`` blocks, written once.

    Each block's rows ``(qi, cj)`` follow the previous block's, then their
    mirror ``(cj, qi)`` when ``mirror``; its fragment is a row view of
    ``pairs`` over both. Blocks are released from the list as they are
    copied, so the pairs are never held twice.
    """
    sizes = [len(qi) * (2 if mirror else 1) for qi, _, mirror in blocks]
    pairs = np.empty((sum(sizes), 2), dtype=np.int64)
    fragments = []
    at = 0
    for i, size in enumerate(sizes):
        qi, cj, mirror = blocks[i]
        blocks[i] = None
        rows = pairs[at : at + size]
        n = len(qi)
        rows[:n, 0] = qi
        rows[:n, 1] = cj
        if mirror:
            rows[n:, 0] = cj
            rows[n:, 1] = qi
        fragments.append(rows)
        at += size
    return pairs, tuple(fragments)


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
    :meth:`~repro.core.result.JoinResult.canonical_pairs`); fragments are
    row views of ``pairs``, one per refined block, so streaming
    consumption works unchanged.
    Pipeline times are host wall-clock, ``fidelity="none"``.
    """
    order = native_query_order(op, index, cfg, subset=subset)
    include_self = getattr(op, "include_self", True)
    t0 = time.perf_counter()
    blocks: list = []
    starts: list[float] = []
    ends: list[float] = []
    if op.kind == "self":
        walk = _self_join_blocks(
            index,
            order,
            include_self=include_self,
            chunk_pairs=chunk_pairs,
            key=_walk_key(op, cfg, subset),
        )
    else:
        walk = _bipartite_blocks(op, index, order, chunk_pairs=chunk_pairs)
    prev = 0.0
    for block in walk:
        now = time.perf_counter() - t0
        blocks.append(block)
        starts.append(prev)
        ends.append(now)
        prev = now
    wall = time.perf_counter() - t0
    pairs, views = _assemble(blocks)
    pipeline = PipelineResult(
        total_seconds=wall,
        kernel_start=np.array(starts, dtype=np.float64),
        kernel_end=np.array(ends, dtype=np.float64),
        transfer_end=np.array(ends, dtype=np.float64),
    )
    return JoinResult(
        pairs=pairs,
        epsilon=op.result_epsilon(index),
        num_points=len(order),
        batch_stats=[],
        pipeline=pipeline,
        config_description=description if description is not None else op.describe(cfg),
        fragments=views if keep_fragments else None,
        fidelity="none",
    )


# ----------------------------------------------------------------------
# process worker backend
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SharedArray:
    """A picklable handle to an array workers can open without copying it.

    ``kind="shm"`` names a ``multiprocessing.shared_memory`` segment the
    host filled; ``kind="mmap"`` names the ``.npy``-backing file of a
    :class:`numpy.memmap` — workers re-open the file read-only, so a
    memory-mapped dataset is never made resident anywhere.
    """

    kind: str  # "shm" or "mmap"
    name: str  # segment name / file path
    shape: tuple
    dtype: str
    offset: int = 0


def _backing_memmap(arr: np.ndarray) -> np.memmap | None:
    """The file-backed memmap whose full buffer ``arr`` views, if any.

    Validation helpers (``as_points_array``) return base-ndarray *views*
    of a loaded memmap, so the walk follows ``.base``; the view must
    cover the map exactly — same start address, shape and dtype — for
    by-path sharing to be equivalent.
    """
    candidate = arr
    while candidate is not None:
        if isinstance(candidate, np.memmap) and getattr(candidate, "filename", None):
            same_data = (
                candidate.shape == arr.shape
                and candidate.dtype == arr.dtype
                and candidate.__array_interface__["data"][0]
                == arr.__array_interface__["data"][0]
            )
            return candidate if same_data else None
        candidate = getattr(candidate, "base", None)
    return None


def share_array(arr: np.ndarray):
    """Publish ``arr`` for worker processes: ``(handle, segment-or-None)``.

    File-backed memmaps (including validated views of one) are shared by
    path — no copy anywhere; anything else is copied once into a fresh
    shared-memory segment the caller must ``close()``/``unlink()`` after
    the pool shuts down.
    """
    mm = _backing_memmap(arr)
    if mm is not None:
        return (
            SharedArray(
                kind="mmap",
                name=str(mm.filename),
                shape=tuple(mm.shape),
                dtype=str(mm.dtype),
                offset=int(mm.offset),
            ),
            None,
        )
    from multiprocessing import shared_memory

    arr = np.ascontiguousarray(arr)
    shm = shared_memory.SharedMemory(create=True, size=arr.nbytes)
    view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
    view[:] = arr
    return (
        SharedArray(kind="shm", name=shm.name, shape=tuple(arr.shape), dtype=str(arr.dtype)),
        shm,
    )


def _attach_array(handle: SharedArray):
    """Open a :class:`SharedArray` in this process; returns (array, keepalive)."""
    if handle.kind == "mmap":
        arr = np.memmap(
            handle.name,
            dtype=np.dtype(handle.dtype),
            mode="r",
            shape=handle.shape,
            offset=handle.offset,
        )
        return arr, arr
    from multiprocessing import shared_memory

    # under the fork start method workers share the host's resource
    # tracker, so attach-time registrations dedup against the creator's
    # and the host's unlink() retires the segment exactly once
    shm = shared_memory.SharedMemory(name=handle.name)
    arr = np.ndarray(handle.shape, dtype=np.dtype(handle.dtype), buffer=shm.buf)
    return arr, shm


# per-worker state, set once by the pool initializer
_WORKER: dict = {}


def _worker_init(points_handle, queries_handle, epsilon, spec, cfg, include_self):
    pts, pts_keep = _attach_array(points_handle)
    if queries_handle is None:
        op, q_keep = SelfJoinOp(include_self=include_self), None
    else:
        queries, q_keep = _attach_array(queries_handle)
        op = BipartiteOp(queries)
    _WORKER.clear()
    _WORKER.update(
        op=op,
        index=GridIndex.build(pts, epsilon, spec=spec, method="sorted"),
        cfg=cfg,
        keepalive=(pts_keep, q_keep),
    )


def _worker_run(subset, chunk_pairs):
    return execute_shard_native(
        _WORKER["op"],
        _WORKER["index"],
        _WORKER["cfg"],
        subset=subset,
        keep_fragments=False,
        chunk_pairs=chunk_pairs,
    )


def run_shards_process(
    op,
    index: GridIndex,
    cfg,
    stage,
    *,
    guard,
    chunk_pairs: int = NATIVE_CHUNK_PAIRS,
):
    """Fan a pooled native join's shards over real worker processes.

    ``stage`` is the plan's :class:`~repro.runtime.plan.ShardStage`: one
    worker per device, shards dispatched in the schedule's order (the
    most-work-first queue when dynamic). At most one shard per worker is
    in flight, so ``guard.before`` — deadline, crash point, resume cache
    — runs at real dispatch boundaries, and ``guard.after`` journals each
    shard as it completes. When the guard raises, dispatching stops, the
    in-flight shards finish and journal, and the shared-memory segments
    are unlinked before the error propagates. A worker process that dies
    (killed, out of memory) breaks the pool and loses every in-flight
    shard: the run raises :class:`~repro.resilience.faults.DeviceLostError`
    for the worker of the first lost shard, after the same unlink, and
    ``Runner.resume`` re-executes only the shards not yet journaled.

    Returns ``(results, trace)``: results indexed by shard id, and a
    :class:`~repro.multigpu.scheduler.ScheduleTrace` in host wall-clock
    seconds since pool start.
    """
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool

    from repro.multigpu.scheduler import ScheduleTrace, ShardEvent

    shards = stage.plan.shards
    order = (
        stage.plan.dispatch_order()
        if stage.schedule == "dynamic"
        else [s.shard_id for s in shards]
    )
    num_workers = stage.num_devices
    results: list[JoinResult | None] = [None] * len(shards)
    events: list[ShardEvent] = []
    running: dict = {}  # future -> (shard, worker)
    idle = list(range(num_workers))

    def retire(fut):
        shard, worker = running.pop(fut)
        idle.append(worker)
        try:
            result = fut.result()
        except BrokenProcessPool as exc:
            raise DeviceLostError(worker) from exc
        end = time.perf_counter() - t0
        results[shard.shard_id] = result
        guard.after(shard.shard_id, result)
        events.append(
            ShardEvent(
                shard.shard_id, worker, max(end - result.total_seconds, 0.0), end,
                result.num_pairs, shard.num_points,
            )
        )

    points_handle, points_seg = share_array(index.points)
    queries_handle, queries_seg = (None, None)
    if op.kind != "self":
        queries_handle, queries_seg = share_array(op.queries)
    t0 = time.perf_counter()
    try:
        with ProcessPoolExecutor(
            max_workers=num_workers,
            initializer=_worker_init,
            initargs=(
                points_handle,
                queries_handle,
                float(index.epsilon),
                index.spec,
                cfg,
                getattr(op, "include_self", True),
            ),
        ) as pool:
            try:
                for shard_id in order:
                    if not idle:
                        retire(next(as_completed(running)))
                    shard, worker = shards[shard_id], min(idle)
                    cached = guard.before(shard_id)
                    if cached is not None:
                        results[shard_id] = cached
                        events.append(
                            ShardEvent(
                                shard_id, worker, 0.0, cached.total_seconds,
                                cached.num_pairs, shard.num_points,
                            )
                        )
                        continue
                    idle.remove(worker)
                    fut = pool.submit(
                        _worker_run, np.asarray(shard.points, dtype=np.int64), chunk_pairs
                    )
                    running[fut] = (shard, worker)
            finally:
                for fut in as_completed(list(running)):
                    retire(fut)
    finally:
        for seg in (points_seg, queries_seg):
            if seg is not None:
                seg.close()
                seg.unlink()
    return results, ScheduleTrace(events, mode=stage.schedule, num_devices=num_workers)
