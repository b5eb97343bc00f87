"""Grid geometry: mapping points to cells and cells to linear ids.

A :class:`GridSpec` is pure arithmetic — it knows the bounding box, the cell
edge length (ε) and the per-dimension cell counts, and converts between point
coordinates, n-D cell coordinates, and row-major linear cell ids. It holds no
point data; :class:`repro.grid.index.GridIndex` layers the non-empty-cell
storage on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util import as_points_array, check_epsilon

__all__ = ["GridSpec"]

# Safety margin below 2**63 when checking that the virtual (dense) grid's cell
# count is linearizable in int64. The grid is never materialized densely; the
# bound only protects the linear-id arithmetic.
_MAX_LINEAR_CELLS = np.iinfo(np.int64).max // 4


@dataclass(frozen=True)
class GridSpec:
    """Geometry of an ε-grid over a bounding box.

    Attributes
    ----------
    epsilon:
        The query distance threshold.
    cell_length:
        Cell edge length. Normally equals ``epsilon``; when ε is so small
        that the virtual dense grid would not linearize in int64 (e.g.
        ε = 1e-9 over a unit box), cells are *coarsened* — the 3**n
        adjacency guarantee only needs ``cell_length >= epsilon``, so
        results stay exact while candidate sets grow (an honest cost the
        performance model then charges).
    mins, maxs:
        Bounding box of the indexed data, shape ``(n,)`` each.
    widths:
        Number of cells along each dimension, shape ``(n,)`` int64.
    strides:
        Row-major strides such that ``linear_id = coords @ strides``.
    """

    epsilon: float
    mins: np.ndarray
    maxs: np.ndarray
    cell_length: float = field(init=False)
    widths: np.ndarray = field(init=False)
    strides: np.ndarray = field(init=False)

    def __post_init__(self):
        eps = check_epsilon(self.epsilon)
        mins = np.asarray(self.mins, dtype=np.float64)
        maxs = np.asarray(self.maxs, dtype=np.float64)
        if mins.ndim != 1 or mins.shape != maxs.shape:
            raise ValueError("mins and maxs must be 1-D arrays of equal length")
        if np.any(maxs < mins):
            raise ValueError("maxs must be >= mins in every dimension")
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "mins", mins)
        object.__setattr__(self, "maxs", maxs)

        with np.errstate(over="ignore"):  # infinite spans and counts are caught below
            spans = maxs - mins
            unbounded = np.flatnonzero(~np.isfinite(spans))
            if unbounded.size:
                d = int(unbounded[0])
                raise ValueError(
                    f"dimension {d} spans {float(mins[d])!r} to {float(maxs[d])!r}, "
                    "a width that is not a finite float64"
                )
            length = eps
            while True:
                # Count cells in float first: a count of 2**63 or more has
                # no int64 cast. A finite span always ends the loop, since
                # its count halves with every doubling (at most ~2100 of
                # them, from the smallest ε to the widest span).
                cells = np.floor(spans / length)
                if cells.max(initial=0.0) < _MAX_LINEAR_CELLS:
                    # At least one cell per dimension; +1 guards the point
                    # sitting exactly on the upper boundary.
                    widths = cells.astype(np.int64) + 1
                    total = 1
                    for w in widths.tolist():
                        total *= int(w)
                        if total > _MAX_LINEAR_CELLS:
                            break
                    if total <= _MAX_LINEAR_CELLS:
                        break
                length *= 2.0  # coarsen until the virtual grid linearizes
        strides = np.empty_like(widths)
        strides[-1] = 1
        for j in range(len(widths) - 2, -1, -1):
            strides[j] = strides[j + 1] * widths[j + 1]
        object.__setattr__(self, "cell_length", float(length))
        object.__setattr__(self, "widths", widths)
        object.__setattr__(self, "strides", strides)

    @property
    def is_coarsened(self) -> bool:
        """True when cells are larger than ε (tiny-ε degradation mode)."""
        return self.cell_length > self.epsilon

    # ------------------------------------------------------------------
    @classmethod
    def from_points(cls, points, epsilon: float) -> "GridSpec":
        """Build the spec from a dataset's bounding box.

        The box is reduced one column at a time: a reduction of an
        ``(N, n)`` array over its rows runs its inner loop ``N`` times over
        the ``n`` elements of the narrow trailing axis, several times
        slower than ``n`` passes over the columns.
        """
        pts = as_points_array(points)
        n = pts.shape[1]
        if pts.shape[0] == 0:
            return cls(epsilon, np.zeros(n), np.zeros(n))
        mins = np.array([pts[:, d].min() for d in range(n)])
        maxs = np.array([pts[:, d].max() for d in range(n)])
        if not (mins.all() and maxs.all()):
            # a column's extreme is one value whatever the reduction order,
            # except that -0.0 and 0.0 tie: which zero survives depends on
            # the order, so a zero extreme keeps the row-wise reduction's
            mins, maxs = pts.min(axis=0), pts.max(axis=0)
        return cls(epsilon, mins, maxs)

    @property
    def ndim(self) -> int:
        """Dimensionality of the indexed space."""
        return len(self.widths)

    @property
    def total_cells(self) -> int:
        """Number of cells of the *virtual* dense grid (never materialized)."""
        return int(np.prod(self.widths))

    # ------------------------------------------------------------------
    def cell_coords(self, points: np.ndarray, *, clamp: bool = True) -> np.ndarray:
        """n-D cell coordinates of each point, shape ``(N, n)`` int64.

        With ``clamp=True`` (the default, used when indexing), points
        outside the bounding box are clamped to the boundary cells. Pass
        ``clamp=False`` for *external query points* (the bipartite join):
        their true — possibly out-of-grid — coordinates are returned, so a
        query just outside the box still probes the boundary cells via its
        in-bounds neighbor offsets, while a far-away query probes nothing
        (a coordinate past ±2**62 cells comes back as ±2**62).
        """
        pts = as_points_array(points)
        if pts.shape[1] != self.ndim:
            raise ValueError(
                f"points have {pts.shape[1]} dimensions, grid has {self.ndim}"
            )
        # one column at a time, each element through the same subtract,
        # divide, floor, cast and clamp as a broadcast over the whole array
        coords = np.empty(pts.shape, dtype=np.int64)
        for d in range(self.ndim):
            with np.errstate(over="ignore"):  # an infinite cell is clipped below
                col = pts[:, d] - self.mins[d]
                col /= self.cell_length
            np.floor(col, out=col)
            if not clamp:  # ±2**62 cells: outside every grid, inside int64
                np.clip(col, -(2.0**62), 2.0**62, out=col)
            cells = col.astype(np.int64)
            if clamp:
                np.clip(cells, 0, self.widths[d] - 1, out=cells)
            coords[:, d] = cells
        return coords

    def linearize(self, coords: np.ndarray) -> np.ndarray:
        """Row-major linear id of cell coordinates (``(..., n)`` → ``(...,)``).

        This is the unique linear id the LID-UNICOMP pattern orders cells by.
        """
        coords = np.asarray(coords, dtype=np.int64)
        return coords @ self.strides

    def delinearize(self, linear_ids: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`linearize` (``(...,)`` → ``(..., n)``)."""
        ids = np.asarray(linear_ids, dtype=np.int64)
        out = np.empty(ids.shape + (self.ndim,), dtype=np.int64)
        rem = ids
        for j in range(self.ndim):
            out[..., j] = rem // self.strides[j]
            rem = rem % self.strides[j]
        return out

    def in_bounds(self, coords: np.ndarray) -> np.ndarray:
        """Boolean mask of cell coordinates inside the grid, shape ``(...,)``."""
        coords = np.asarray(coords)
        return np.logical_and(coords >= 0, coords < self.widths).all(axis=-1)
