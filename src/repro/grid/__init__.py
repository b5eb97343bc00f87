"""ε-grid spatial index (Gowanlock & Karsin 2018 style).

The index partitions an ``n``-dimensional dataset into cells of side length
``epsilon`` and stores **only the non-empty cells**, giving the O(|D|) memory
footprint the paper relies on for GPU residency. A range query around a point
only needs the ≤ 3**n cells adjacent to (and including) the point's own cell.

Public surface:

- :class:`GridSpec` — pure geometry: coordinates ↔ cell coordinates ↔ linear
  cell ids.
- :class:`GridIndex` — the built index: sorted unique linear ids of non-empty
  cells, per-cell point ranges, and point lookup.
- :mod:`repro.grid.neighbors` — neighbor-offset enumeration and the
  index's one :class:`~repro.grid.neighbors.NeighborTable`
  (``index.neighbors``) behind every cell probe of the kernels, walkers,
  estimators and the performance model.
- :mod:`repro.grid.query` — the one candidate-block walker and the one ε
  test every engine, estimator and model refines through.
- :mod:`repro.grid.bipartite` — external-query range queries over the
  table's per-query probe, and the reference similarity join built on it.
"""

from repro.grid.cells import GridSpec
from repro.grid.index import BUILD_METHODS, GridIndex, dataset_fingerprint
from repro.grid.neighbors import (
    neighbor_offsets,
    neighbor_ranks_for_offset,
    neighbor_ranks_of_cell,
)

__all__ = [
    "BUILD_METHODS",
    "GridIndex",
    "GridSpec",
    "dataset_fingerprint",
    "neighbor_offsets",
    "neighbor_ranks_for_offset",
    "neighbor_ranks_of_cell",
]
