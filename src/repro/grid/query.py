"""Candidate blocks and the ε test: the refinement every join shares.

Every join walks the cells adjacent to each query's cell and keeps the
candidates within ε; patterns, SORTBYWL, the WORKQUEUE and ``k`` only
change which cells are walked and in what order. This module owns both
halves for every engine, estimator and model: the walker
:func:`candidate_blocks`, and the ε test :func:`within_epsilon` (whose
docstring is the boundary contract), applied to index pairs by
:func:`epsilon_filter`.

The walker works in slot space. A slot is a position in the index's
``point_order``, which groups point ids by cell, so every non-empty cell
is one run of slots (:func:`cell_runs`) and a block's candidates are
runs, not gathered ids. The native self-join and the VM's bulk kernels
refine slots against the points in cell order
(``epsilon_filter(..., order=point_order)``); the id-level walks
(:func:`iter_candidate_blocks`, the bipartite ``iter_bipartite_blocks``)
map slots through ``point_order``.

On top of them sit the host-side reference queries with the FULL access
pattern. They serve three roles:

1. the batching scheme's result-size estimator (Section II-C2) runs them
   on a sample of points;
2. tests cross-check every VM kernel against them;
3. examples use them when they only need results, not simulated hardware
   metrics.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

import numpy as np

from repro.grid.index import GridIndex
from repro.grid.neighbors import neighbor_offsets, neighbor_ranks_for_offset

__all__ = [
    "BLOCK_PAIRS",
    "block_cuts",
    "candidate_block",
    "candidate_blocks",
    "cell_runs",
    "epsilon_filter",
    "grid_neighbor_counts",
    "grid_selfjoin_pairs",
    "iter_candidate_blocks",
    "pair_array",
    "point_slots",
    "refine_blocks",
    "within_epsilon",
]

#: candidate pairs per block unless the caller bounds it (read at call
#: time) — caps one refinement pass at ~64 MB of intermediates. The VM's
#: bulk kernels, the estimator's reference queries and the performance
#: model's hit counts walk blocks this large: they run once per launch or
#: sample, where fewer blocks mean less per-block Python, and 64k blocks
#: there cost ``sharded_durable`` 5 % of its op time and 4 % of its peak
#: RSS. The native passes bound theirs by the cache-sized
#: ``repro.runtime.native.NATIVE_CHUNK_PAIRS``.
BLOCK_PAIRS = 4_000_000


def block_cuts(
    queries: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    *,
    chunk_pairs: int | None = None,
) -> tuple[tuple[np.ndarray, ...], list[int]]:
    """Where :func:`candidate_blocks` cuts a walk's runs: ``(runs, cuts)``.

    ``runs`` are the non-empty runs with their running candidate total,
    ``(queries, starts, lengths, csum)``; block ``b`` pairs runs
    ``cuts[b] … cuts[b + 1] − 1`` (:func:`candidate_block` builds it). A
    block holds at most ``chunk_pairs`` pairs (default
    :data:`BLOCK_PAIRS`), or one query's whole run.
    """
    bound = BLOCK_PAIRS if chunk_pairs is None else chunk_pairs
    if bound < 1:
        raise ValueError("chunk_pairs must be >= 1")
    nonempty = lengths > 0
    if not nonempty.all():
        runs = np.flatnonzero(nonempty)
        queries, starts, lengths = queries.take(runs), starts.take(runs), lengths.take(runs)
    csum = np.cumsum(lengths)
    cuts = [0]
    while cuts[-1] < len(queries):
        start = cuts[-1]
        base = csum[start - 1] if start > 0 else 0
        # largest stop with csum[stop-1] - base <= bound, but at least one
        # query per block so oversized runs still progress
        stop = int(np.searchsorted(csum, base + bound, side="right"))
        cuts.append(min(max(stop, start + 1), len(queries)))
    return (queries, starts, lengths, csum), cuts


def candidate_block(
    runs: tuple[np.ndarray, ...], lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(queries, slots)``: runs ``lo … hi − 1`` of :func:`block_cuts`'s
    ``runs`` as one block. The query side is one ``np.repeat``; the slot
    side is an ``arange`` plus one repeat of the run starts."""
    queries, starts, lengths, csum = runs
    base = csum[lo - 1] if lo > 0 else 0
    lens = lengths[lo:hi]
    # slot = block position + (run start - the run's offset in the block)
    slots = np.repeat(starts[lo:hi] - (csum[lo:hi] - lens - base), lens)
    slots += np.arange(len(slots), dtype=np.int64)
    return np.repeat(queries[lo:hi], lens), slots


def candidate_blocks(
    queries: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    *,
    chunk_pairs: int | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(queries, slots)`` blocks pairing each query with a run of slots.

    A slot is a position in an index's ``point_order``. ``queries[i]``
    meets slots ``starts[i] … starts[i] + lengths[i] − 1`` (nothing when
    ``lengths[i] <= 0``); every pair appears in exactly one block, in query
    order. Blocks hold at most ``chunk_pairs`` pairs (default
    :data:`BLOCK_PAIRS`), or one query's whole run: :func:`block_cuts`
    cuts them and :func:`candidate_block` builds each one.
    :func:`cell_runs` turns cells into runs.
    """
    runs, cuts = block_cuts(queries, starts, lengths, chunk_pairs=chunk_pairs)
    for lo, hi in itertools.pairwise(cuts):
        yield candidate_block(runs, lo, hi)


def cell_runs(
    index: GridIndex, queries: np.ndarray, cells: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(queries, starts, lengths)``: each query's cell as a slot run.

    Non-empty cell ``c`` owns slots ``cell_starts[c] … cell_starts[c] +
    cell_counts[c] − 1``; ``c < 0`` (no cell) is an empty run, and its
    query is dropped.
    """
    valid = np.flatnonzero(cells >= 0)  # integer takes beat boolean masks 2×
    ranks = cells.take(valid)
    return queries.take(valid), index.cell_starts.take(ranks), index.cell_counts.take(ranks)


def within_epsilon(diffs, epsilon: float) -> np.ndarray:
    """The ε test: ``True`` for every pair of points within ``epsilon``.

    ``diffs`` yields the pairs' coordinate differences one dimension at a
    time, dimension 0 first — ``(a - b).T`` for gathered rows ``a`` and
    ``b``. Each array is squared in place.

    This is the boundary contract of every join in the package: the
    squared differences are summed over dimensions 0…n−1 in that order,
    and a pair is kept iff ``d2 <= epsilon * epsilon``. Both halves
    matter at exactly ε. NumPy's ``.sum(axis=1)`` adds in another order
    from n = 8 up, and ``epsilon**2`` rounds one ulp below
    ``epsilon * epsilon`` for some ε.
    """
    d2 = None
    for d in diffs:
        d *= d
        if d2 is None:
            d2 = d
        else:
            d2 += d
    return d2 <= epsilon * epsilon


def epsilon_filter(
    left: np.ndarray,
    right: np.ndarray,
    epsilon: float,
    *,
    order: np.ndarray | None = None,
    left_ids: bool = False,
):
    """``keep(qi, cj)``: :func:`within_epsilon` of the pairs ``(left[qi], right[cj])``.

    With ``order`` (an index's ``point_order``), ``cj`` are slots: slot
    ``s`` is the point ``order[s]``. So are ``qi``, unless ``left_ids``:
    then ``qi`` index ``left`` directly (external queries against an
    index over ``right``).

    Two storage strategies, the same bits. Memory-mapped arrays are
    gathered by rows with ``take(axis=0)``, so only the touched pages ever
    become resident. Resident arrays are split once into per-dimension
    columns with ``take`` (in slot order when ``order`` is given, so each
    candidate run is a contiguous slice); their 1-D gathers refine 3–4×
    faster than row gathers.
    """
    left_order = None if left_ids else order
    bases = [left, right]  # memory-mapped: an np.memmap in either base chain
    while bases:
        arr = bases.pop()
        if isinstance(arr, np.memmap):

            def rows(points, ids, s):
                return points.take(s if ids is None else ids.take(s), axis=0)

            return lambda qi, cj: within_epsilon(
                (rows(left, left_order, qi) - rows(right, order, cj)).T, epsilon
            )
        if getattr(arr, "base", None) is not None:
            bases.append(arr.base)

    def columns(points, ids):
        if ids is None:
            return np.ascontiguousarray(points.T)
        return [points[:, d].take(ids) for d in range(points.shape[1])]

    rcols = columns(right, order)
    lcols = rcols if right is left and left_order is order else columns(left, left_order)

    def diffs(qi, cj):
        for lc, rc in zip(lcols, rcols):
            d = lc[qi]
            d -= rc[cj]
            yield d

    return lambda qi, cj: within_epsilon(diffs(qi, cj), epsilon)


def point_slots(index: GridIndex, ids: np.ndarray) -> np.ndarray:
    """Each point id's slot: its position in ``index.point_order``."""
    slot_of = np.empty(index.num_points, dtype=np.int64)
    slot_of[index.point_order] = np.arange(index.num_points, dtype=np.int64)
    return slot_of.take(ids)


def refine_blocks(blocks, keep, *, include_self: bool = True):
    """Yield each block's ``(qi, cj)`` pairs that pass ``keep`` (an
    :func:`epsilon_filter`), identity pairs dropped unless
    ``include_self``; blocks left empty are skipped."""
    for qi, cj in blocks:
        hit = np.flatnonzero(keep(qi, cj) if include_self else keep(qi, cj) & (qi != cj))
        if hit.size:
            yield qi[hit], cj[hit]


def pair_array(blocks) -> np.ndarray:
    """Stack ``(qi, cj)`` blocks into one ``(M, 2)`` pair array."""
    found = list(map(np.column_stack, blocks))
    if not found:
        return np.empty((0, 2), dtype=np.int64)
    return np.concatenate(found, axis=0)


def iter_candidate_blocks(
    index: GridIndex,
    point_ids: np.ndarray | None = None,
    *,
    chunk_pairs: int | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(query_idx, candidate_idx)`` blocks covering all candidates.

    Every (query, candidate-in-adjacent-cell) index pair — including the
    query's own cell and the identity pair — appears in exactly one yielded
    block. ``point_ids`` restricts the query side (default: all points).

    The whole-index walk reads each offset's memoized all-cells ranks.
    A walk of ``point_ids`` (the estimator's sample) probes only the
    distinct cells of those ids and memoizes nothing, so it costs its
    sample, not the grid.
    """
    if point_ids is None:
        queries = np.arange(index.num_points, dtype=np.int64)
    else:
        queries = np.asarray(point_ids, dtype=np.int64)
    if queries.size == 0 or index.num_points == 0:
        return
    q_rank = index.point_cell_rank[queries]
    if point_ids is not None:
        table = index.neighbors
        cells, q_cell = np.unique(q_rank, return_inverse=True)
        cell_ids = index.cell_ids.take(cells)
    for oi, off in enumerate(neighbor_offsets(index.ndim)):
        if point_ids is None:
            nbr = neighbor_ranks_for_offset(index, off)[q_rank]
        else:
            inside = np.flatnonzero(table.inside(oi, cells))
            ranks = np.full(len(cells), -1, dtype=np.int32)
            ranks[inside] = table.lookup(cell_ids.take(inside) + table.deltas[oi])
            nbr = ranks.take(q_cell)
        runs = cell_runs(index, queries, nbr)
        for qi, slots in candidate_blocks(*runs, chunk_pairs=chunk_pairs):
            yield qi, index.point_order[slots]


def grid_neighbor_counts(
    index: GridIndex,
    point_ids: np.ndarray | None = None,
    *,
    include_self: bool = True,
    chunk_pairs: int | None = None,
) -> np.ndarray:
    """Exact ε-neighbor count of each requested point (result-set row count).

    Returned counts align with ``point_ids`` order (or all points).
    """
    if point_ids is None:
        queries = np.arange(index.num_points, dtype=np.int64)
    else:
        queries = np.asarray(point_ids, dtype=np.int64)
    # Accumulate over the sample only, not all N points: the estimator
    # calls this on a ~1% sample, and an O(N) scratch array would force a
    # full-resident allocation even for memory-mapped datasets.
    unique_queries, inverse = np.unique(queries, return_inverse=True)
    counts_unique = np.zeros(len(unique_queries), dtype=np.int64)
    keep = epsilon_filter(index.points, index.points, index.epsilon)
    walked = None if point_ids is None else unique_queries
    blocks = iter_candidate_blocks(index, walked, chunk_pairs=chunk_pairs)
    for qi, _ in refine_blocks(blocks, keep, include_self=include_self):
        np.add.at(counts_unique, np.searchsorted(unique_queries, qi), 1)
    return counts_unique[inverse]


def grid_selfjoin_pairs(
    index: GridIndex,
    *,
    include_self: bool = True,
    chunk_pairs: int | None = None,
) -> np.ndarray:
    """The exact self-join result: all ordered pairs within ε, shape (M, 2)."""
    keep = epsilon_filter(index.points, index.points, index.epsilon)
    blocks = iter_candidate_blocks(index, chunk_pairs=chunk_pairs)
    return pair_array(refine_blocks(blocks, keep, include_self=include_self))
