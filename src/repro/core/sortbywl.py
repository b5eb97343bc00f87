"""Workload quantification and the SORTBYWL optimization (Section III-C).

The workload of a query point is the number of candidate distance
computations it must perform — its own cell's population plus the population
of every pattern cell it visits. All points of one cell share the same
workload, so quantification is per *cell* (as in the paper, which sorts by
the per-cell neighbor population) and broadcast to points.

:func:`sort_by_workload` produces the reordered array D' used by both
SORTBYWL and WORKQUEUE: points grouped by cell, cells in non-increasing
workload order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.patterns import get_pattern_plan
from repro.grid import GridIndex, neighbor_offsets, neighbor_ranks_for_offset
from repro.util import gather_slices, stable_argsort_desc

__all__ = [
    "WorkloadComponents",
    "cell_workloads",
    "pattern_workload_components",
    "point_workloads",
    "sort_by_workload",
]


@dataclass(frozen=True)
class WorkloadComponents:
    """Per-non-empty-cell workload ingredients under one access pattern.

    Attributes
    ----------
    thread_candidates:
        Shape ``(k, num_cells)``: distance computations performed by thread
        rank ``r`` of a query point in each cell, under the strided
        candidate split of Section III-A (row 0 is the heaviest share;
        ``k = 1`` makes row 0 the full per-point workload).
    visited_cells:
        Cells probed per query point (own cell plus *in-bounds* pattern
        offsets — probing an empty cell still costs the binary search).
        Every one of the k threads pays this in full.
    """

    thread_candidates: np.ndarray
    visited_cells: np.ndarray

    @property
    def candidates(self) -> np.ndarray:
        """Total distance computations per query point of each cell."""
        return self.thread_candidates.sum(axis=0)


def pattern_workload_components(
    index: GridIndex, pattern: str, k: int = 1
) -> WorkloadComponents:
    """Vectorized workload ingredients for every non-empty cell.

    Streams the 3**n neighbor offsets (memory O(k·cells), not
    O(cells·3**n)). The per-cell strided split is applied cell by cell —
    thread r's share of a cell with ``c`` candidates is
    ``len(candidates[r::k])`` — exactly what the kernel does.
    """
    from repro.core.granularity import thread_share_counts

    num_cells = index.num_nonempty_cells
    counts = index.cell_counts.astype(np.int64)
    cand = thread_share_counts(counts, k)  # own cell, all patterns
    visited = np.ones(num_cells, dtype=np.int64)  # own cell

    plan = get_pattern_plan(pattern, index)
    for oi, off in enumerate(neighbor_offsets(index.ndim)):
        mask = plan.take_mask(oi)
        if not mask.any():
            continue
        visited += mask & index.neighbors.inside(oi)
        ranks = neighbor_ranks_for_offset(index, off)
        hit = mask & (ranks >= 0)
        cand[:, hit] += thread_share_counts(counts[ranks[hit]], k)
    return WorkloadComponents(thread_candidates=cand, visited_cells=visited)


def cell_workloads(index: GridIndex, pattern: str = "full") -> np.ndarray:
    """Distance computations per query point, for each non-empty cell.

    The ``k = 1`` totals of :func:`pattern_workload_components`: each
    cell's own count plus, per pattern offset, ``counts.take(ranks)`` of
    its neighbour, zero where the neighbour is empty or outside the grid
    (rank -1 reads the appended zero) and, under UNICOMP, where the cell
    does not take the offset. Computed once per index and pattern and
    kept, read-only, on the index's :class:`~repro.core.patterns.PatternPlan`
    (which returns the same array from ``candidate_counts``).
    """
    plan = get_pattern_plan(pattern, index)
    totals = plan.workloads
    if totals is None:
        counts = index.cell_counts
        padded = np.append(counts, 0)  # rank -1 (no neighbour) reads 0
        totals = counts.copy()
        offsets = neighbor_offsets(index.ndim)
        for oi in plan.pattern_offsets().tolist():
            add = padded.take(neighbor_ranks_for_offset(index, offsets[oi]))
            if plan.pattern == "unicomp":  # membership varies per cell
                add *= plan.take_mask(oi)
            totals += add
        totals.setflags(write=False)
        plan.workloads = totals
    return totals


def point_workloads(index: GridIndex, pattern: str = "full") -> np.ndarray:
    """Per-point workload: the point's cell workload, point-indexed."""
    return cell_workloads(index, pattern)[index.point_cell_rank]


def sort_by_workload(index: GridIndex, pattern: str = "full") -> np.ndarray:
    """The SORTBYWL permutation: point indices of D' (most work first).

    Cells are ordered by non-increasing per-point workload (stable, so equal
    cells keep index order); points stay grouped by cell.
    """
    wl = cell_workloads(index, pattern)
    cell_order = stable_argsort_desc(wl)
    return gather_slices(
        index.point_order,
        index.cell_starts[cell_order],
        index.cell_counts[cell_order],
    )
