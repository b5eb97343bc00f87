"""Cell access patterns: FULL, UNICOMP and LID-UNICOMP.

A pattern decides, for every (origin cell, neighbor offset) pair, whether the
origin's points compare against the neighbor's points. Patterns other than
``full`` visit roughly half of the neighboring cells and *mirror* each found
pair — exploiting the symmetry of the Euclidean distance — so the emitted
pair set is identical across patterns.

- ``full``      — visit all ≤3**n adjacent cells including the origin
                  (Algorithm 1, GPUCALCGLOBAL). No mirroring: the symmetric
                  pair is produced by the other point's own thread.
- ``unicomp``   — Gowanlock & Karsin's parity pattern (Algorithm 2,
                  generalized to n dimensions): a non-zero offset δ is taken
                  iff the origin cell's coordinate is odd in the *last*
                  dimension where δ is non-zero. Odd-coordinate cells
                  compare to many neighbors, even-coordinate cells to none —
                  the imbalance the paper's Figure 2 shows.
- ``lidunicomp``— the paper's contribution (Algorithm 3): take δ iff the
                  neighbor's linear id is greater than the origin's. Linear
                  ids are affine in cell coordinates, so the selected offsets
                  are the same for *every* cell — each inner cell compares to
                  exactly (3**n - 1) / 2 neighbors (Figure 5), removing the
                  per-cell variance of UNICOMP.

Both half-patterns handle the origin cell itself the same way FULL does
(each thread scans its own cell and emits one direction), which keeps
per-thread work self-contained on the GPU.
"""

from __future__ import annotations

import numpy as np

from repro.grid import GridIndex, neighbor_offsets
from repro.grid.neighbors import offset_linear_deltas

__all__ = [
    "PATTERN_NAMES",
    "PatternPlan",
    "get_pattern_plan",
    "pattern_cells_for_query",
    "unicomp_pivot_dims",
]

PATTERN_NAMES = ("full", "unicomp", "lidunicomp")

#: (offsets × cells) entries per pass of :meth:`PatternPlan.visited_counts`,
#: which bounds a pass's index and id arrays at a few MB
VISIT_PASS_ENTRIES = 1 << 18


def unicomp_pivot_dims(ndim: int) -> np.ndarray:
    """For each non-zero neighbor offset, the dimension whose parity decides
    UNICOMP membership: the last dimension where the offset is non-zero.

    Returns an int array of length ``3**ndim`` with -1 at the zero offset.
    """
    offs = neighbor_offsets(ndim)
    pivot = np.full(len(offs), -1, dtype=np.int64)
    nz = offs != 0
    has_nz = nz.any(axis=1)
    # last nonzero dimension = ndim - 1 - argmax over reversed axes
    rev_first = np.argmax(nz[:, ::-1], axis=1)
    pivot[has_nz] = ndim - 1 - rev_first[has_nz]
    return pivot


class PatternPlan:
    """Memoized per-cell pattern geometry for one ``(pattern, index)`` pair.

    The kernels ask the same two questions for every thread: *which offsets
    does my cell probe* and *which non-empty cell sits behind each probe*.
    Both depend only on ``(pattern, cell_rank)``; the plan answers them
    through the index's :class:`~repro.grid.neighbors.NeighborTable`:

    - :meth:`cells_for_rank` — the single-cell view the interpreted kernel
      consumes, computed once per origin cell;
    - :meth:`offset_visits` — the transposed view the bulk engine
      consumes: one offset seen from a launch's query cells, computed per
      launch at a cost linear in those cells, for the
      :meth:`live_offsets` only;
    - :meth:`visited_counts` / :meth:`candidate_counts` — the per-cell
      probe and candidate totals every analytic cycle charge reduces to,
      computed once per plan (the probes for groups of offsets at once).

    Plans are obtained through :func:`get_pattern_plan`, which memoizes
    them on ``index.plan_cache`` so all engines (and the perf model) share
    one copy per pattern.
    """

    def __init__(self, pattern: str, index: GridIndex):
        if pattern not in PATTERN_NAMES:
            raise ValueError(
                f"unknown pattern {pattern!r}; expected one of {PATTERN_NAMES}"
            )
        self.pattern = pattern
        self.index = index
        self._offs = neighbor_offsets(index.ndim)
        self._zero_idx = len(self._offs) // 2
        self._cell_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._visited_counts: np.ndarray | None = None
        self._live_offsets: np.ndarray | None = None
        #: per-cell SORTBYWL workloads, set once by
        #: :func:`repro.core.sortbywl.cell_workloads`
        self.workloads: np.ndarray | None = None
        if pattern == "full":
            self._take_all = np.ones(len(self._offs), dtype=bool)
            self._take_all[self._zero_idx] = False
            self._pivots = None
        elif pattern == "lidunicomp":
            self._take_all = offset_linear_deltas(index, self._offs) > 0
            self._pivots = None
        else:  # unicomp — membership varies per cell via coordinate parity
            self._pivots = unicomp_pivot_dims(index.ndim)
            self._take_all = self._pivots >= 0
        self._offset_candidates = np.flatnonzero(self._take_all)

    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Stable cache key: the pattern name bound to the index identity.

        Two plans fingerprint equal iff they describe the same pattern
        over byte-identical index inputs (dataset, ε, grid geometry) —
        the invariant a cross-request plan cache needs to reuse memoized
        geometry safely.
        """
        return f"{self.pattern}:{self.index.fingerprint()}"

    def pattern_offsets(self) -> np.ndarray:
        """Offset indices any cell could take under this pattern, ascending
        — the traversal order of the kernels' pattern-cell loop."""
        return self._offset_candidates

    def take_mask(self, offset_idx: int, cells: np.ndarray | slice = slice(None)) -> np.ndarray:
        """Pattern membership of one neighbor offset for every non-empty
        cell, or for the cell ranks ``cells`` (bounds not yet applied). The
        origin offset is always all-False: callers scan the origin cell
        themselves, with one-directional emission."""
        take = self._take_all[offset_idx]
        if self._pivots is None or not take:
            return np.full(self.index.cell_ids[cells].shape, take)
        piv = self._pivots[offset_idx]
        return (self.index.cell_coords_arr[cells, piv] & 1) == 1

    def offset_visits(self, offset_idx: int, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One offset seen from the origin cell ranks ``cells``:
        ``(visit_mask, neighbor_ranks)``.

        ``visit_mask[i]`` — cell ``cells[i]`` probes this offset (member
        and in-bounds, so it pays a cell-visit charge);
        ``neighbor_ranks[i]`` — rank of the non-empty cell behind the
        probe, or -1 (empty neighbor or no probe). The cost is linear in
        ``len(cells)``, so the bulk kernel asks for its launch's query
        cells only.
        """
        table = self.index.neighbors
        visit = self.take_mask(offset_idx, cells)
        ranks = np.full(len(visit), -1, dtype=np.int32)
        if visit.any():
            visit &= table.inside(offset_idx, cells)
            probes = self.index.cell_ids[cells[visit]] + table.deltas[offset_idx]
            ranks[visit] = table.lookup(probes)
        return visit, ranks

    def cells_for_rank(self, cell_rank: int) -> tuple[np.ndarray, np.ndarray]:
        """Single-cell view (see :func:`pattern_cells_for_query`), memoized
        per origin cell so repeated threads share one computation."""
        got = self._cell_cache.get(cell_rank)
        if got is not None:
            return got
        index = self.index
        table = index.neighbors
        take = self._take_all.copy()
        if self._pivots is not None:
            cand = self._offset_candidates
            take[cand] = (index.cell_coords_arr[cell_rank, self._pivots[cand]] & 1) == 1
        visited = np.flatnonzero(take & table.cell_inside(cell_rank))
        ranks = table.lookup(index.cell_ids[cell_rank] + table.deltas[visited])
        got = (visited, ranks)
        self._cell_cache[cell_rank] = got
        return got

    def visited_counts(self) -> np.ndarray:
        """Per-cell number of probed pattern offsets (origin excluded).

        The pattern offsets are evaluated in groups of at most
        :data:`VISIT_PASS_ENTRIES` ``// cells``: one pass per group forms
        the (offsets × cells) pattern membership and in-grid bits, and
        looks up every probed neighbour, which also records
        :meth:`live_offsets`.
        """
        if self._visited_counts is None:
            index = self.index
            table = index.neighbors
            cands = self._offset_candidates
            num_cells = index.num_nonempty_cells
            total = np.zeros(num_cells, dtype=np.int64)
            live = np.zeros(len(cands), dtype=bool)
            odd = None
            if self._pivots is not None:  # UNICOMP: parity rows, one per dimension
                coords = index.cell_coords_arr
                odd = np.stack([(coords[:, d] & 1) == 1 for d in range(index.ndim)])
            group = max(1, VISIT_PASS_ENTRIES // max(num_cells, 1))
            for lo in range(0, len(cands), group):
                offs = cands[lo : lo + group]
                visit = (table.words.take(offs)[:, None] & table.edges[None, :]) == 0
                if odd is not None:
                    visit &= odd.take(self._pivots.take(offs), axis=0)
                total += visit.sum(axis=0)
                g, c = np.nonzero(visit)
                ids = index.cell_ids.take(c) + table.deltas.take(offs).take(g)
                found = np.bincount(g[table.lookup(ids) >= 0], minlength=len(offs))
                live[lo : lo + len(offs)] = found > 0
            self._live_offsets = cands[live]
            self._visited_counts = total
        return self._visited_counts

    def live_offsets(self) -> np.ndarray:
        """The :meth:`pattern_offsets` whose neighbour is a non-empty cell
        for at least one cell, ascending: the only offsets that yield
        candidates (recorded by the same walk as :meth:`visited_counts`)."""
        self.visited_counts()
        return self._live_offsets

    def candidate_counts(self) -> np.ndarray:
        """Per-cell candidate total: own points plus the points of every
        visited non-empty pattern neighbor — the array
        :func:`repro.core.sortbywl.cell_workloads` computes once per plan."""
        from repro.core.sortbywl import cell_workloads  # sortbywl imports this module

        return cell_workloads(self.index, self.pattern)


def get_pattern_plan(pattern: str, index: GridIndex) -> PatternPlan:
    """The memoized :class:`PatternPlan` for ``(pattern, index)``."""
    plan = index.plan_cache.get(pattern)
    if plan is None:
        plan = PatternPlan(pattern, index)
        index.plan_cache[pattern] = plan
    return plan


def pattern_cells_for_query(
    pattern: str, index: GridIndex, cell_rank: int
) -> tuple[np.ndarray, np.ndarray]:
    """Kernel-facing single-cell view of a pattern.

    Returns ``(visited_offsets, neighbor_ranks)`` for the origin cell
    ``cell_rank``:

    - ``visited_offsets`` — indices (into :func:`neighbor_offsets`) of the
      *in-bounds* pattern offsets the thread will probe (each probe costs a
      cell lookup even when the neighbor turns out empty);
    - ``neighbor_ranks`` — rank of the non-empty cell behind each visited
      offset, or -1 when that cell is empty.

    The origin cell itself is never included (see
    :meth:`PatternPlan.take_mask`). Delegates to the
    :class:`PatternPlan` memoized on the index, so every thread of a batch
    pointing at the same cell shares one computation.
    """
    return get_pattern_plan(pattern, index).cells_for_rank(cell_rank)
