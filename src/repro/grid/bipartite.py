"""Bipartite (two-dataset) range queries over the ε-grid.

The self-join is the special case A = B of the general similarity join
A ⋈_ε B. Here the grid indexes the inner dataset B and the queries come
from an external dataset A: query cell coordinates are *unclamped*, so
queries outside B's bounding box probe exactly the boundary cells their
ε-ball can reach (or nothing, if they are farther than one cell away).

:meth:`NeighborTable.probe <repro.grid.neighbors.NeighborTable.probe>` of
the index is the one per-query probe, shared with the bipartite kernels;
the helpers power the bipartite join's estimator, workload quantification
and reference results through :mod:`repro.grid.query`.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.grid.index import GridIndex
from repro.grid.query import candidate_blocks, cell_runs, epsilon_filter, pair_array, refine_blocks
from repro.util import as_points_array

__all__ = [
    "bipartite_neighbor_counts",
    "bipartite_pairs",
    "bipartite_workloads",
    "iter_bipartite_blocks",
]


def iter_bipartite_blocks(
    index: GridIndex,
    queries: np.ndarray,
    query_ids: np.ndarray | None = None,
    *,
    chunk_pairs: int | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(query_id, b_point_idx)`` candidate blocks for A ⋈ B.

    ``queries`` are A's coordinates (``query_ids`` defaults to their row
    numbers); every (query, candidate) pair appears exactly once.
    """
    queries = as_points_array(queries)
    if query_ids is None:
        query_ids = np.arange(len(queries), dtype=np.int64)
    else:
        query_ids = np.asarray(query_ids, dtype=np.int64)
    if len(queries) == 0 or index.num_points == 0:
        return
    for _, ranks in index.neighbors.probe(queries):
        runs = cell_runs(index, query_ids, ranks)
        for qi, slots in candidate_blocks(*runs, chunk_pairs=chunk_pairs):
            yield qi, index.point_order[slots]


def bipartite_neighbor_counts(
    index: GridIndex,
    queries: np.ndarray,
    *,
    chunk_pairs: int | None = None,
) -> np.ndarray:
    """Exact |{b ∈ B : dist(a, b) <= ε}| for each query ``a``."""
    queries = as_points_array(queries)
    counts = np.zeros(len(queries), dtype=np.int64)
    keep = epsilon_filter(queries, index.points, index.epsilon)
    blocks = iter_bipartite_blocks(index, queries, chunk_pairs=chunk_pairs)
    for qi, _ in refine_blocks(blocks, keep):
        np.add.at(counts, qi, 1)
    return counts


def bipartite_pairs(
    index: GridIndex,
    queries: np.ndarray,
    *,
    chunk_pairs: int | None = None,
) -> np.ndarray:
    """All pairs ``(a_idx, b_idx)`` with ``dist <= ε``, shape ``(M, 2)``."""
    queries = as_points_array(queries)
    keep = epsilon_filter(queries, index.points, index.epsilon)
    blocks = iter_bipartite_blocks(index, queries, chunk_pairs=chunk_pairs)
    return pair_array(refine_blocks(blocks, keep))


def bipartite_workloads(
    index: GridIndex, queries: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-query ``(candidates, visited_cells)`` — the workload ingredients.

    ``visited_cells`` counts the in-bounds neighbor probes, matching the
    kernel.
    """
    queries = as_points_array(queries)
    nq = len(queries)
    cand = np.zeros(nq, dtype=np.int64)
    visited = np.zeros(nq, dtype=np.int64)
    if nq == 0 or index.num_points == 0:
        return cand, visited
    for inside, ranks in index.neighbors.probe(queries):
        visited += inside
        hit = ranks >= 0
        cand[hit] += index.cell_counts[ranks[hit]]
    return cand, visited
