"""``engine="native"``: the fidelity-free array-native join backend.

The simulated engines (``"interpreted"``, ``"vectorized"``) reconstruct
the paper's SIMT machine cycle-for-cycle; this module computes the same
exact pair *set* with pure NumPy array passes and nothing else — no warp
accounting, no replay, no batch planning. Cell-pair blocks come from the
same :class:`~repro.grid.GridIndex` neighbor topology the kernels walk,
but only the lexicographically-positive half of the ``3**n`` offsets is
searched (plus each cell's id-increasing half internally): every hit is
emitted with its mirror, which restores the kernels' full directed pair
set at half the candidate volume. Queries visit in the paper's SORTBYWL
heaviest-cells-first order when the optimization config asks for it, and
each block is refined with one vectorized distance pass.
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
from repro.runtime.ops import BipartiteOp, SelfJoinOp
from repro.simt.streams import PipelineResult
from repro.util import gather_slices, stable_argsort_desc

__all__ = [
    "NATIVE_CHUNK_PAIRS",
    "SharedArray",
    "execute_shard_native",
    "native_query_order",
    "run_shards_process",
    "share_array",
]

#: candidate pairs refined per vectorized block — bounds peak memory of
#: one distance pass (~64 MB of intermediates at the default)
NATIVE_CHUNK_PAIRS = 4_000_000


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


def _file_backed(arr) -> bool:
    base = arr
    while base is not None:
        if isinstance(base, np.memmap):
            return True
        base = getattr(base, "base", None)
    return False


def _refiner(left, right, eps2):
    """``hits(qi, cj) -> kept indices`` for the ε distance predicate.

    Resident datasets get contiguous per-dimension columns (1-D gathers,
    no row materialization, no axis reduction); file-backed datasets keep
    row gathers so only the touched pages ever become resident.
    """
    if _file_backed(left) or _file_backed(right):

        def hits(qi, cj):
            d2 = ((left[qi] - right[cj]) ** 2).sum(axis=1)
            return np.flatnonzero(d2 <= eps2)

        return hits

    lcols = [np.ascontiguousarray(left[:, k]) for k in range(left.shape[1])]
    rcols = (
        lcols
        if right is left
        else [np.ascontiguousarray(right[:, k]) for k in range(right.shape[1])]
    )

    def hits(qi, cj):
        d2 = None
        for lc, rc in zip(lcols, rcols):
            d = lc[qi]
            d -= rc[cj]
            d *= d
            if d2 is None:
                d2 = d
            else:
                d2 += d
        return np.flatnonzero(d2 <= eps2)

    return hits


def _half_offsets(ndim: int) -> list[np.ndarray]:
    """The ``(3**n - 1) / 2`` lexicographically-positive neighbor offsets.

    For distinct adjacent cells A and B exactly one of ``B - A`` / ``A - B``
    is lex-positive, so walking only these offsets (plus the zero offset's
    id-increasing half within each cell) visits every unordered candidate
    pair exactly once from the query side; mirrored emission restores the
    full directed pair set. Because the relation is defined purely by the
    query's cell and id, a union over any query-subset partition (shards)
    still covers every pair exactly once.
    """
    out = []
    for off in neighbor_offsets(ndim):
        nz = np.flatnonzero(off)
        if nz.size and off[nz[0]] > 0:
            out.append(off)
    return out


def _offset_blocks(index, queries, nbr, *, chunk_pairs):
    """``(query_idx, candidate_idx)`` blocks for one neighbor-rank mapping."""
    valid = nbr >= 0
    if not valid.any():
        return
    q_sel = queries[valid]
    n_sel = nbr[valid]
    lengths = index.cell_counts[n_sel]
    csum = np.cumsum(lengths)
    start = 0
    while start < len(q_sel):
        base = csum[start - 1] if start > 0 else 0
        # largest stop with csum[stop-1] - base <= chunk_pairs, but at
        # least one query per block so oversized cells still progress
        stop = int(np.searchsorted(csum, base + chunk_pairs, side="right"))
        stop = min(max(stop, start + 1), len(q_sel))
        sl = slice(start, stop)
        lens = lengths[sl]
        qi = np.repeat(q_sel[sl], lens)
        cj = gather_slices(index.point_order, index.cell_starts[n_sel[sl]], lens)
        if qi.size:
            yield qi, cj
        start = stop


def _mirrored(qi, cj):
    out = np.empty((2 * len(qi), 2), dtype=np.int64)
    out[: len(qi), 0] = qi
    out[: len(qi), 1] = cj
    out[len(qi) :, 0] = cj
    out[len(qi) :, 1] = qi
    return out


def _self_join_blocks(index, order, *, include_self, chunk_pairs):
    eps2 = index.epsilon * index.epsilon
    queries = np.asarray(order, dtype=np.int64)
    if queries.size == 0 or index.num_points == 0:
        return
    hits = _refiner(index.points, index.points, eps2)
    if include_self:
        for start in range(0, len(queries), max(chunk_pairs, 1)):
            q = queries[start : start + chunk_pairs]
            yield np.stack([q, q], axis=1)
    q_rank = index.point_cell_rank[queries]
    # within-cell: the id-increasing half of each cell's pairs, mirrored
    for qi, cj in _offset_blocks(index, queries, q_rank, chunk_pairs=chunk_pairs):
        upper = np.flatnonzero(cj > qi)
        if not upper.size:
            continue
        qi = qi[upper]
        cj = cj[upper]
        keep = hits(qi, cj)
        if keep.size:
            yield _mirrored(qi[keep], cj[keep])
    # cross-cell: one lex-positive offset per unordered cell pair, mirrored
    for off in _half_offsets(index.ndim):
        nbr = neighbor_ranks_for_offset(index, off)[q_rank]
        for qi, cj in _offset_blocks(index, queries, nbr, chunk_pairs=chunk_pairs):
            keep = hits(qi, cj)
            if keep.size:
                yield _mirrored(qi[keep], cj[keep])


def _bipartite_blocks(op, index, order, *, chunk_pairs):
    eps2 = index.epsilon * index.epsilon
    queries = op.queries
    hits = _refiner(queries, index.points, eps2)
    for qi, cj in iter_bipartite_blocks(
        index, queries[order], query_ids=order, chunk_pairs=chunk_pairs
    ):
        keep = hits(qi, cj)
        if keep.size:
            yield np.stack([qi[keep], cj[keep]], axis=1)


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
    the per-block pair buffers, so streaming consumption works unchanged.
    Pipeline times are host wall-clock, ``fidelity="none"``.
    """
    order = native_query_order(op, index, cfg, subset=subset)
    include_self = getattr(op, "include_self", True)
    t0 = time.perf_counter()
    fragments: list[np.ndarray] = []
    starts: list[float] = []
    ends: list[float] = []
    if op.kind == "self":
        blocks = _self_join_blocks(
            index, order, include_self=include_self, chunk_pairs=chunk_pairs
        )
    else:
        blocks = _bipartite_blocks(op, index, order, chunk_pairs=chunk_pairs)
    prev = 0.0
    for block in blocks:
        now = time.perf_counter() - t0
        fragments.append(block)
        starts.append(prev)
        ends.append(now)
        prev = now
    wall = time.perf_counter() - t0
    pairs = (
        np.concatenate(fragments, axis=0)
        if fragments
        else np.empty((0, 2), dtype=np.int64)
    )
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
        fragments=tuple(fragments) if keep_fragments else None,
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
    are unlinked before the error propagates.

    Returns ``(results, trace)``: results indexed by shard id, and a
    :class:`~repro.multigpu.scheduler.ScheduleTrace` in host wall-clock
    seconds since pool start.
    """
    from concurrent.futures import ProcessPoolExecutor, as_completed

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
        result = fut.result()
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
