"""Neighbor-cell enumeration for ε-grid range queries.

In ``n`` dimensions a query point's ε-neighborhood is contained in the
≤ 3**n cells whose coordinates differ from the query's cell by -1/0/+1 in
every dimension. Two access paths are provided:

- per-cell (:func:`neighbor_ranks_of_cell`) — the single-cell reference
  the tests check the kernels' pattern geometry against;
- per-offset over *all* cells at once (:func:`neighbor_ranks_for_offset`) —
  the cell mapping the walker of :mod:`repro.grid.query` consumes, which
  streams the 3**n offsets instead of materializing a (cells × 3**n) table.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.grid.index import GridIndex

__all__ = [
    "neighbor_offsets",
    "neighbor_ranks_for_offset",
    "neighbor_ranks_of_cell",
    "offset_linear_deltas",
]


@lru_cache(maxsize=None)
def _neighbor_offsets_cached(ndim: int) -> np.ndarray:
    if ndim < 1:
        raise ValueError("ndim must be >= 1")
    grids = np.meshgrid(*([np.array([-1, 0, 1], dtype=np.int64)] * ndim), indexing="ij")
    out = np.stack([g.ravel() for g in grids], axis=1)
    out.setflags(write=False)
    return out


def neighbor_offsets(ndim: int) -> np.ndarray:
    """All ``3**ndim`` coordinate offsets in canonical row-major order.

    Row ``3**ndim // 2`` is the zero offset (the cell itself). The returned
    array is cached and read-only.
    """
    return _neighbor_offsets_cached(ndim)


def offset_linear_deltas(index: GridIndex, offsets: np.ndarray | None = None) -> np.ndarray:
    """Linear-id delta contributed by each offset: ``delta = offset @ strides``.

    Because linear ids are affine in cell coordinates, the sign of an
    offset's delta alone decides whether a neighbor has a higher linear id
    than the origin cell — the fact LID-UNICOMP exploits.
    """
    if offsets is None:
        offsets = neighbor_offsets(index.ndim)
    return np.asarray(offsets, dtype=np.int64) @ index.spec.strides


def neighbor_ranks_for_offset(index: GridIndex, offset: np.ndarray) -> np.ndarray:
    """For every non-empty cell, the rank of the cell at ``coords + offset``.

    Returns an int64 array of length ``num_nonempty_cells`` where entries are
    -1 when the neighbor is outside the grid or empty.
    """
    offset = np.asarray(offset, dtype=np.int64)
    coords = index.cell_coords_arr + offset
    inside = index.spec.in_bounds(coords)
    ranks = np.full(index.num_nonempty_cells, -1, dtype=np.int64)
    if inside.any():
        ids = index.spec.linearize(coords[inside])
        ranks[inside] = index.lookup(ids)
    return ranks


def neighbor_ranks_of_cell(index: GridIndex, rank: int, *, include_self: bool = True) -> np.ndarray:
    """Ranks of the non-empty cells adjacent to non-empty cell ``rank``.

    The kernel-facing single-cell variant. ``include_self`` controls whether
    the origin cell itself appears in the result (it does for the standard
    3**n search).
    """
    offsets = neighbor_offsets(index.ndim)
    coords = index.cell_coords_arr[rank] + offsets
    inside = index.spec.in_bounds(coords)
    ids = index.spec.linearize(coords[inside])
    ranks = index.lookup(ids)
    ranks = ranks[ranks >= 0]
    if not include_self:
        ranks = ranks[ranks != rank]
    return ranks
