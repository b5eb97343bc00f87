"""Workload profiling of a dataset under the grid index.

A :class:`WorkloadProfile` wraps a :class:`~repro.grid.GridIndex` and
lazily computes (and caches) everything the performance model needs:

- per-cell pattern workload components for each (pattern, k) requested;
- exact per-point ε-neighbor counts (result-set row counts), used for
  emission costs, transfer sizes, and the result-size estimators;
- both estimator variants of the batching scheme.

Profiles are computed once per (dataset, ε) and shared across all the
optimization configurations of an experiment — the dominant cost of a
benchmark sweep is here, not in the per-config model evaluation.
"""

from __future__ import annotations

import numpy as np

from repro.core.patterns import get_pattern_plan
from repro.core.sortbywl import (
    WorkloadComponents,
    pattern_workload_components,
    sort_by_workload,
)
from repro.grid import GridIndex, neighbor_offsets, neighbor_ranks_for_offset
from repro.grid.query import (
    candidate_blocks,
    cell_runs,
    epsilon_filter,
    grid_neighbor_counts,
    refine_blocks,
)

__all__ = ["BipartiteProfile", "WorkloadProfile"]


class WorkloadProfile:
    """Cached workload quantities of one (dataset, ε) pair."""

    def __init__(self, index: GridIndex, *, include_self: bool = True):
        self.index = index
        self.include_self = include_self
        self._components: dict[tuple[str, int], WorkloadComponents] = {}
        self._neighbor_counts: np.ndarray | None = None
        self._orders: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    def components(self, pattern: str, k: int = 1) -> WorkloadComponents:
        """Per-cell workload components under (pattern, k), cached."""
        key = (pattern, k)
        if key not in self._components:
            self._components[key] = pattern_workload_components(
                self.index, pattern, k
            )
        return self._components[key]

    def neighbor_counts(self) -> np.ndarray:
        """Exact per-point result-set row counts (one vectorized join pass)."""
        if self._neighbor_counts is None:
            self._neighbor_counts = grid_neighbor_counts(
                self.index, include_self=self.include_self
            )
        return self._neighbor_counts

    def total_result_size(self) -> int:
        """Exact total result rows |R|."""
        return int(self.neighbor_counts().sum())

    def sorted_order(self, pattern: str) -> np.ndarray:
        """The SORTBYWL permutation D' under ``pattern``, cached."""
        if pattern not in self._orders:
            self._orders[pattern] = sort_by_workload(self.index, pattern)
        return self._orders[pattern]

    # ------------------------------------------------------------------
    def estimate_strided(self, sample_fraction: float) -> int:
        """The Section II-C2 estimator: strided sample, scaled up.

        Uses the already-computed exact counts — statistically identical to
        re-running the sample's range queries.
        """
        n = self.index.num_points
        if n == 0:
            return 0
        counts = self.neighbor_counts()
        sample_size = max(1, int(round(n * sample_fraction)))
        step = max(1, n // sample_size)
        sample = counts[::step]
        return int(np.ceil(sample.sum() * (n / len(sample))))

    def estimate_head(self, sample_fraction: float, pattern: str) -> int:
        """The WORKQUEUE estimator: first 1 % of D' (heaviest points)."""
        n = self.index.num_points
        if n == 0:
            return 0
        counts = self.neighbor_counts()
        order = self.sorted_order(pattern)
        sample_size = max(1, int(round(n * sample_fraction)))
        head = counts[order[:sample_size]]
        return int(np.ceil(head.sum() * (n / len(head))))

    # ------------------------------------------------------------------
    def emitted_rows(self, pattern: str) -> np.ndarray:
        """Result rows *emitted by each point's thread group* under
        ``pattern`` — what sizes a batch's output buffer.

        FULL emits one direction per thread, so a point emits exactly its
        neighbor count. The half-patterns emit the own-cell hits once and
        *mirror* every hit found in a pattern cell, so a point emits
        ``own_hits + 2 · pattern_cell_hits``. Summed over the dataset this
        equals the total result size for every pattern — per batch it does
        not, which is why the batch planner needs this exact breakdown.
        """
        if pattern == "full":
            return self.neighbor_counts()
        key = f"_emit_{pattern}"
        cached = getattr(self, key, None)
        if cached is None:
            own = self._own_cell_hits()
            cross = self._pattern_cell_hits(pattern)
            cached = own + 2 * cross
            setattr(self, key, cached)
        return cached

    def _own_cell_hits(self) -> np.ndarray:
        """Per-point ε-hits within the point's own cell."""
        if getattr(self, "_own_hits", None) is None:
            index = self.index
            self._own_hits = self._cell_hits(
                np.arange(index.num_nonempty_cells, dtype=np.int64),
                self._slot_filter(),
                include_self=self.include_self,
            )
        return self._own_hits

    def _pattern_cell_hits(self, pattern: str) -> np.ndarray:
        """Per-point ε-hits found in the point's *pattern* cells (the cells
        whose results get mirrored)."""
        index = self.index
        keep = self._slot_filter()
        plan = get_pattern_plan(pattern, index)
        counts = np.zeros(index.num_points, dtype=np.int64)
        for oi, off in enumerate(neighbor_offsets(index.ndim)):
            mask = plan.take_mask(oi)
            if mask.any():
                ranks = neighbor_ranks_for_offset(index, off)
                counts += self._cell_hits(np.where(mask, ranks, -1), keep)
        return counts

    def _slot_filter(self):
        """The ε test over slot pairs (positions in ``point_order``)."""
        index = self.index
        return epsilon_filter(index.points, index.points, index.epsilon, order=index.point_order)

    def _cell_hits(self, cell_nbr, keep, *, include_self: bool = True) -> np.ndarray:
        """Per-point ε-hits among the points of cell ``cell_nbr[c]``, ``c``
        the point's own cell (-1: none), walked over slots (``keep`` is a
        :meth:`_slot_filter`) in :data:`~repro.grid.query.BLOCK_PAIRS`-bounded
        blocks."""
        index = self.index
        slots = np.arange(index.num_points, dtype=np.int64)
        cells = cell_nbr[index.point_cell_rank[index.point_order]]
        per_slot = np.zeros(index.num_points, dtype=np.int64)
        blocks = candidate_blocks(*cell_runs(index, slots, cells))
        for qs, _ in refine_blocks(blocks, keep, include_self=include_self):
            per_slot += np.bincount(qs, minlength=index.num_points)
        counts = np.empty_like(per_slot)
        counts[index.point_order] = per_slot
        return counts

    # ------------------------------------------------------------------
    def total_candidates(self, pattern: str) -> int:
        """Total candidate distance computations under ``pattern``
        (the quantity the half-patterns halve)."""
        comps = self.components(pattern, 1)
        return int(
            (comps.candidates * self.index.cell_counts).sum()
        )


class BipartiteProfile:
    """Cached workload quantities of one (A, B, ε) bipartite join.

    The bipartite analogue of :class:`WorkloadProfile`: per-*query*
    candidate totals, probed-cell counts, exact result counts and the
    workload-sorted query order. Always full-pattern (the unidirectional
    patterns do not apply without self-join symmetry).
    """

    def __init__(self, index: GridIndex, queries: np.ndarray):
        from repro.grid.bipartite import (
            bipartite_neighbor_counts,
            bipartite_workloads,
        )
        from repro.util import as_points_array, stable_argsort_desc

        self.index = index
        self.queries = as_points_array(queries)
        self.candidates, self.visited_cells = bipartite_workloads(
            index, self.queries
        )
        self.counts = bipartite_neighbor_counts(index, self.queries)
        self.sorted_order = stable_argsort_desc(self.candidates)

    @property
    def num_queries(self) -> int:
        return len(self.queries)

    def total_result_size(self) -> int:
        return int(self.counts.sum())

    def estimate(self, sample_fraction: float, *, head: bool) -> int:
        """The batching estimators over the query side (strided or
        heaviest-first), evaluated on the exact per-query counts."""
        if not 0 < sample_fraction <= 1:
            raise ValueError("sample_fraction must be in (0, 1]")
        nq = self.num_queries
        if nq == 0:
            return 0
        sample_size = max(1, int(round(nq * sample_fraction)))
        if head:
            sample = self.counts[self.sorted_order[:sample_size]]
        else:
            step = max(1, nq // sample_size)
            sample = self.counts[::step]
        return int(np.ceil(sample.sum() * (nq / len(sample))))
