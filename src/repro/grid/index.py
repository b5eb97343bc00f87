"""The non-empty-cell ε-grid index.

Array layout mirrors the GPU index of Gowanlock & Karsin (2018):

- ``cell_ids``      — sorted unique linear ids of the non-empty cells
                      (``C`` of them), so a cell lookup is a binary search;
- ``cell_starts`` / ``cell_counts``
                    — per non-empty cell, the slice of ``point_order`` that
                      holds its points;
- ``point_order``   — a permutation of ``range(N)`` grouping points by cell;
- ``point_cell_rank`` — for each point, the rank (index into ``cell_ids``)
                      of its cell.

Total extra storage is ``O(N + C)`` with ``C <= N`` — the O(|D|) footprint
the paper relies on.
"""

from __future__ import annotations

import hashlib
import threading

import numpy as np

from repro.grid.cells import GridSpec
from repro.grid.neighbors import NeighborTable
from repro.util import as_points_array

__all__ = ["BUILD_METHODS", "GridIndex", "dataset_fingerprint"]

#: grid build strategies: ``"sorted"`` is the vectorized bulk build
#: (sort by cell rank + run-length encode via boundary scan, after
#: "Building An Efficient Grid On GPU"); ``"unique"`` is the original
#: ``np.unique``-based build, kept as a cross-check oracle. Both produce
#: byte-identical index arrays.
BUILD_METHODS = ("sorted", "unique")


def dataset_fingerprint(points) -> str:
    """Stable content hash of a dataset: shape, dtype and every byte.

    Two arrays fingerprint equal iff they hold the same values in the
    same shape — independent of contiguity or of *when* the hash is
    taken. This is the cache identity of a registered dataset (see
    :class:`repro.serve.SessionCache`); a single perturbed coordinate
    changes the digest.
    """
    pts = np.ascontiguousarray(as_points_array(points))
    h = hashlib.sha256()
    h.update(str(pts.shape).encode())
    h.update(str(pts.dtype).encode())
    h.update(pts.tobytes())
    return h.hexdigest()


class GridIndex:
    """ε-grid over a dataset, storing only non-empty cells.

    Parameters
    ----------
    points:
        ``(N, n)`` array of points.
    epsilon:
        Cell edge length / query distance threshold.
    spec:
        Optional pre-built :class:`GridSpec`; by default the spec is derived
        from the dataset's bounding box.
    method:
        Build strategy, one of :data:`BUILD_METHODS`. ``"sorted"``
        (default) run-length encodes the cell-sorted ids with a boundary
        scan — a single pass with no re-sorting, the fastest path on
        large datasets. ``"unique"`` is the original ``np.unique`` build;
        the two produce identical arrays and ``"unique"`` survives as the
        oracle the equivalence tests compare against.

    Both methods order the points with one sort of the unique int64 key
    ``linear · N + i`` (cell id, then point id) and decode
    ``point_order = key % N``; because the keys are unique this equals
    ``np.argsort(linear, kind="stable")`` byte for byte, so each cell's
    points stay in increasing id order. When a key could overflow int64
    — ``(largest linear id + 1) · N > 2⁶³ − 1``, e.g. ε = 1e-9 over a
    unit box — the build falls back to that stable argsort.
    """

    def __init__(
        self,
        points,
        epsilon: float,
        *,
        spec: GridSpec | None = None,
        method: str = "sorted",
    ):
        if method not in BUILD_METHODS:
            raise ValueError(f"unknown build method {method!r}; expected one of {BUILD_METHODS}")
        self.points = as_points_array(points)
        self.spec = spec if spec is not None else GridSpec.from_points(self.points, epsilon)
        if spec is not None and float(spec.epsilon) != float(epsilon):
            raise ValueError("explicit spec epsilon disagrees with epsilon argument")

        coords = self.spec.cell_coords(self.points)
        linear = self.spec.linearize(coords)

        # Group points by cell, then run-length encode. The unique key
        # linear · N + i sorts to the stable argsort's order in one plain
        # sort; a key that could overflow int64 falls back to the argsort.
        n = len(linear)
        if n and (int(linear.max()) + 1) * n > np.iinfo(np.int64).max:
            order = np.argsort(linear, kind="stable")
            sorted_ids = linear[order]
        else:
            key = linear * n
            key += np.arange(n, dtype=np.int64)
            key.sort()
            sorted_ids, order = np.divmod(key, n)
        if method == "sorted":
            # Bulk build: cell boundaries fall wherever the sorted ids
            # change, so starts/counts/ranks all come from one boundary
            # scan — no second sort, no hash table. Handles the degenerate
            # all-points-in-one-cell case (no boundaries → a single run).
            if n == 0:
                starts = np.empty(0, dtype=np.int64)
                cell_ids = np.empty(0, dtype=np.int64)
                counts = np.empty(0, dtype=np.int64)
                ranks_sorted = np.empty(0, dtype=np.int64)
            else:
                boundaries = np.flatnonzero(sorted_ids[1:] != sorted_ids[:-1]) + 1
                starts = np.concatenate(([0], boundaries)).astype(np.int64)
                cell_ids = sorted_ids[starts]
                counts = np.diff(np.append(starts, n)).astype(np.int64)
                ranks_sorted = np.repeat(np.arange(len(starts), dtype=np.int64), counts)
            inverse = ranks_sorted
        else:
            cell_ids, starts, inverse, counts = np.unique(
                sorted_ids, return_index=True, return_inverse=True, return_counts=True
            )

        self.point_order: np.ndarray = order
        self.cell_ids: np.ndarray = np.asarray(cell_ids, dtype=np.int64)
        self.cell_starts: np.ndarray = np.asarray(starts, dtype=np.int64)
        self.cell_counts: np.ndarray = np.asarray(counts, dtype=np.int64)
        # dense point → cell-rank array, scattered from the per-sorted-slot
        # ranks so the hot-path cell_of_point lookup never binary-searches
        rank_of_point = np.empty(len(order), dtype=np.int64)
        rank_of_point[order] = np.asarray(inverse, dtype=np.int64).reshape(-1)
        self.point_cell_rank: np.ndarray = rank_of_point
        self.cell_coords_arr: np.ndarray = self.spec.delinearize(cell_ids)
        # memoized per-pattern geometry (see repro.core.patterns.PatternPlan)
        # and the join service's admission estimates (keyed ("cost", ...));
        # a plain dict so both live exactly as long as the index they describe
        self.plan_cache: dict = {}
        self._fingerprint: str | None = None
        self._neighbors: NeighborTable | None = None
        self._neighbors_lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def num_points(self) -> int:
        return self.points.shape[0]

    @property
    def ndim(self) -> int:
        return self.spec.ndim

    @property
    def epsilon(self) -> float:
        return self.spec.epsilon

    @property
    def num_nonempty_cells(self) -> int:
        return len(self.cell_ids)

    # ------------------------------------------------------------------
    def lookup(self, linear_ids: np.ndarray) -> np.ndarray:
        """Rank of each linear id among the non-empty cells, or -1 if empty.

        Vectorized binary search; accepts any shape and returns the same
        shape of int64 ranks.
        """
        ids = np.asarray(linear_ids, dtype=np.int64)
        pos = np.searchsorted(self.cell_ids, ids)
        pos_clipped = np.minimum(pos, len(self.cell_ids) - 1) if len(self.cell_ids) else pos
        if len(self.cell_ids) == 0:
            return np.full(ids.shape, -1, dtype=np.int64)
        found = self.cell_ids[pos_clipped] == ids
        return np.where(found, pos_clipped, -1).astype(np.int64)

    @property
    def neighbors(self) -> NeighborTable:
        """The index's one :class:`~repro.grid.neighbors.NeighborTable`,
        built on first use and kept for the index's lifetime."""
        if self._neighbors is None:
            with self._neighbors_lock:
                if self._neighbors is None:
                    self._neighbors = NeighborTable(self)
        return self._neighbors

    def points_in_cell(self, rank: int) -> np.ndarray:
        """Original indices of the points stored in non-empty cell ``rank``."""
        if not 0 <= rank < self.num_nonempty_cells:
            raise IndexError(f"cell rank {rank} out of range")
        s = self.cell_starts[rank]
        return self.point_order[s : s + self.cell_counts[rank]]

    def cell_of_point(self, i: int) -> int:
        """Rank of the non-empty cell containing point ``i``."""
        return int(self.point_cell_rank[i])

    def fingerprint(self) -> str:
        """Stable cache key of this built index.

        Combines the dataset's content hash with every grid parameter
        that shapes the build (ε, bounding-box origin, cell counts), so
        equal inputs fingerprint equal and any perturbation — a moved
        point, a different ε, an explicit non-default spec — does not.
        Memoized: the arrays are immutable once built.
        """
        if self._fingerprint is None:
            h = hashlib.sha256()
            h.update(dataset_fingerprint(self.points).encode())
            h.update(repr(float(self.spec.epsilon)).encode())
            h.update(repr(float(self.spec.cell_length)).encode())
            h.update(np.ascontiguousarray(self.spec.mins).tobytes())
            h.update(np.ascontiguousarray(self.spec.maxs).tobytes())
            h.update(np.ascontiguousarray(self.spec.widths).tobytes())
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def memory_bytes(self) -> int:
        """Bytes used by the index arrays and, once built, its neighbour
        table with the table's memo (excluding the point data itself)."""
        arrays = (
            self.point_order,
            self.cell_ids,
            self.cell_starts,
            self.cell_counts,
            self.point_cell_rank,
            self.cell_coords_arr,
        )
        table = self._neighbors
        return int(sum(a.nbytes for a in arrays)) + (table.nbytes if table is not None else 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GridIndex(N={self.num_points}, n={self.ndim}, eps={self.epsilon}, "
            f"nonempty_cells={self.num_nonempty_cells})"
        )
