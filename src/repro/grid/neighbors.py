"""Neighbor-cell enumeration for ε-grid range queries.

In ``n`` dimensions a query point's ε-neighborhood is contained in the
≤ 3**n cells whose coordinates differ from the query's cell by -1/0/+1 in
every dimension. Every probe of those cells goes through the index's one
:class:`NeighborTable` (``index.neighbors``):

- per offset over *all* cells at once (:func:`neighbor_ranks_for_offset`,
  :meth:`NeighborTable.ranks`) — the cell mapping the walker of
  :mod:`repro.grid.query` and SORTBYWL consume, which streams the 3**n
  offsets instead of materializing a (cells × 3**n) table;
- per offset over some cells (:meth:`NeighborTable.inside`,
  :meth:`NeighborTable.lookup`) — the pattern plans' view of one launch's
  query cells, and the estimator's view of its sample's cells;
- per offset over external queries (:meth:`NeighborTable.probe`) — the
  bipartite join's probe from unclamped query cells;
- per external query over all offsets (:meth:`NeighborTable.probe_query`)
  — the same probe for one thread of the interpreted bipartite kernel;
- per cell (:meth:`NeighborTable.cell_inside`, :meth:`NeighborTable.lookup`)
  — the single-cell view of the interpreted kernels.

:func:`neighbor_ranks_of_cell` stays the independent per-cell reference the
tests check the table and the kernels' pattern geometry against.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.grid.index import GridIndex

__all__ = [
    "DENSE_CELLS_PER_NONEMPTY",
    "NeighborTable",
    "neighbor_offsets",
    "neighbor_ranks_for_offset",
    "neighbor_ranks_of_cell",
    "offset_linear_deltas",
]

#: ranks come from a dense id → rank array while the virtual grid has at
#: most this many cells per non-empty cell (its int32 entries then cost at
#: most 32 B per non-empty cell); sparser grids binary-search the sorted ids
DENSE_CELLS_PER_NONEMPTY = 8

#: coordinate shift of each bit block of an edge word: block ``k`` bit ``j``
#: is set when coordinate ``j`` moved by ``_SIDES[k]`` leaves the grid. Cells
#: of the index only need the first two blocks (their own coordinate is
#: always inside); external queries need all three.
_SIDES = (-1, 1, 0)


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


def _word_dtype(bits: int):
    for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
        if bits <= np.iinfo(dtype).bits:
            return dtype
    raise ValueError(f"{bits} edge bits do not fit one 64-bit word")


def _edge_words(coords: np.ndarray, widths: np.ndarray, sides: int) -> np.ndarray:
    """Per row of cell coordinates, the word whose bit ``k*n + j`` is set
    when coordinate ``j`` moved by ``_SIDES[k]`` (``k < sides``) leaves
    ``[0, widths[j])``. Built one dimension at a time."""
    n = len(widths)
    dtype = _word_dtype(sides * n)
    words = np.zeros(len(coords), dtype=dtype)
    for j, w in enumerate(widths.tolist()):
        c = coords[:, j]
        for k, shift in enumerate(_SIDES[:sides]):
            outside = (c < -shift) | (c >= w - shift)
            np.bitwise_or(words, dtype(1 << (k * n + j)), out=words, where=outside)
    return words


def _offset_words(offsets: np.ndarray, sides: int) -> np.ndarray:
    """Per offset, the edge-word bits that block it: an offset leaves the
    grid from a row exactly when ``row_word & offset_word != 0``."""
    n = offsets.shape[1]
    dtype = _word_dtype(sides * n)
    hits = np.concatenate([offsets == s for s in _SIDES[:sides]], axis=1)
    weights = np.array([1 << b for b in range(sides * n)], dtype=np.uint64)
    return (hits * weights).sum(axis=1, dtype=np.uint64).astype(dtype)


class NeighborTable:
    """Every neighbour probe of one :class:`~repro.grid.GridIndex`.

    Linear cell ids are affine in cell coordinates, so the neighbour of
    cell ``c`` at offset ``o`` has id ``cell_ids[c] + deltas[o]``. The
    table keeps what turns that into a rank without coordinates:

    - ``edges`` — one word per non-empty cell with a bit per (dimension,
      side) for "on the low edge" and "on the high edge" (uint8 up to 4-D,
      uint16 up to 8-D). An offset stays in the grid from a cell iff
      ``edges & words[o] == 0``: one AND.
    - ``dense`` — an int32 id → rank array (-1 for empty cells) when the
      virtual grid has at most :data:`DENSE_CELLS_PER_NONEMPTY` cells per
      non-empty cell; otherwise ``None`` and ranks come from
      ``searchsorted`` over the sorted ``cell_ids``.

    Each offset's all-cells ranks are memoized as a read-only int32 array
    while the memo stays within ``memo_budget``, the bytes of the index's
    own arrays, so every layer that walks all cells of an index (SORTBYWL,
    the native pass, the perf model's counts) shares one computation; the
    estimator's sample probes only its own cells and memoizes nothing.
    The same budget holds the native self-join's candidate runs of an
    index walked again as a whole (:meth:`walk`). The memo is
    filled under a lock: the serving layer probes a cached index from
    several threads at once.

    Obtain the table through ``index.neighbors``, which builds it on first
    use and keeps it on the index.
    """

    def __init__(self, index: GridIndex):
        # no reference back to the index: the index owns its table
        self.spec = spec = index.spec
        self.cell_ids = index.cell_ids
        num_cells = index.num_nonempty_cells
        offsets = neighbor_offsets(index.ndim)
        self.deltas = offset_linear_deltas(index, offsets)
        self.edges = _edge_words(index.cell_coords_arr, spec.widths, 2)
        self.words = _offset_words(offsets, 2)
        self._query_words = _offset_words(offsets, 3)
        self.dense: np.ndarray | None = None
        if spec.total_cells <= DENSE_CELLS_PER_NONEMPTY * num_cells:
            self.dense = np.full(spec.total_cells, -1, dtype=np.int32)
            self.dense[index.cell_ids] = np.arange(num_cells, dtype=np.int32)
        # the table is not on the index yet, so this counts only its arrays
        self.memo_budget = index.memory_bytes()
        #: bytes of memoized per-offset ranks and candidate runs, at most
        #: ``memo_budget``
        self.memo_bytes = 0
        #: the part of ``memo_bytes`` that holds candidate runs
        self.runs_bytes = 0
        self._memo: dict[int, np.ndarray] = {}
        #: ``None`` before the first whole-index walk, then whether a walk
        #: may keep its runs
        self._walked: bool | None = None
        self._runs: tuple | None = None
        self._lock = threading.Lock()

    @property
    def nbytes(self) -> int:
        """Bytes retained by the table: masks, dense ranks and the memo."""
        arrays = (self.deltas, self.edges, self.words, self._query_words)
        dense = self.dense.nbytes if self.dense is not None else 0
        return int(sum(a.nbytes for a in arrays)) + dense + self.memo_bytes

    # ------------------------------------------------------------------
    def lookup(self, ids: np.ndarray) -> np.ndarray:
        """int32 rank of each in-grid linear cell id, or -1 when empty."""
        if self.dense is not None:
            return self.dense[ids]
        cell_ids = self.cell_ids
        if len(cell_ids) == 0:
            return np.full(np.shape(ids), -1, dtype=np.int32)
        pos = np.minimum(np.searchsorted(cell_ids, ids), len(cell_ids) - 1)
        return np.where(cell_ids[pos] == ids, pos, -1).astype(np.int32)

    def inside(self, offset_idx: int, cells: np.ndarray | slice = slice(None)) -> np.ndarray:
        """Per non-empty cell, or per cell rank in ``cells``: is the cell
        at this offset inside the grid?"""
        return (self.edges[cells] & self.words[offset_idx]) == 0

    def cell_inside(self, rank: int) -> np.ndarray:
        """Per offset: is that neighbour of cell ``rank`` inside the grid?"""
        return (self.words & self.edges[rank]) == 0

    def ranks(self, offset_idx: int) -> np.ndarray:
        """Per non-empty cell, the int32 rank of its neighbour at offset
        ``offset_idx`` (a row of :func:`neighbor_offsets`), -1 when that
        cell is outside the grid or empty. Read-only and memoized."""
        got = self._memo.get(offset_idx)
        if got is not None:
            return got
        inside = np.flatnonzero(self.inside(offset_idx))
        out = np.full(len(self.cell_ids), -1, dtype=np.int32)
        # cell_ids are sorted, so these needles are too
        out[inside] = self.lookup(self.cell_ids[inside] + self.deltas[offset_idx])
        out.setflags(write=False)
        with self._lock:
            got = self._memo.get(offset_idx)
            if got is not None:
                return got
            if self.memo_bytes + out.nbytes <= self.memo_budget:
                self._memo[offset_idx] = out
                self.memo_bytes += out.nbytes
        return out

    def walk(self) -> tuple[tuple | None, bool]:
        """Register one whole-index self-join walk: ``(runs, keep)``.

        ``runs`` are the walk's candidate runs stored by :meth:`store_runs`,
        or ``None``. Without them, ``keep`` tells whether the walk should
        keep its runs: the first walk only records itself, so an index
        walked once (every batch op builds a fresh one) never pays for
        keeping runs, and once runs have not fit, no later walk keeps them
        again.
        """
        with self._lock:
            if self._runs is not None:
                return self._runs, False
            keep = bool(self._walked)
            if self._walked is None:
                self._walked = True
            return None, keep

    def store_runs(self, runs: tuple | None) -> bool:
        """Store a walk's runs (a tuple of array tuples, made read-only)
        for :meth:`walk` if they fit the memo budget; whether they are
        stored. Runs that do not fit, or ``None`` for runs that outgrew
        the room while being kept, stop later walks from keeping theirs."""
        size = 0 if runs is None else sum(a.nbytes for stage in runs for a in stage)
        with self._lock:
            if self._runs is not None:
                return True
            if runs is None or self.memo_bytes + size > self.memo_budget:
                self._walked = False
                return False
            for stage in runs:
                for a in stage:
                    a.setflags(write=False)
            self._runs = runs
            self.memo_bytes += size
            self.runs_bytes += size
        return True

    def probe(self, queries: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Per neighbour offset of each external query's *unclamped* cell:
        ``(inside, ranks)`` — whether the probed cell is in the grid (even
        an empty one costs the lookup), and the int32 rank of the non-empty
        cell there, or -1.

        Only queries with at least one in-grid probe — every coordinate
        within one cell of the grid — are linearized: a far-away query's
        id could overflow int64. Without a dense rank array, those queries
        are visited in the order of their cell ids, so every offset's
        needles reach ``searchsorted`` sorted.
        """
        spec = self.spec
        coords = spec.cell_coords(queries, clamp=False)
        edges = _edge_words(coords, spec.widths, 3)
        near = np.flatnonzero(((coords >= -1) & (coords <= spec.widths)).all(axis=1))
        base = np.zeros(len(coords), dtype=np.int64)
        base[near] = spec.linearize(coords.take(near, axis=0))
        by_id = None if self.dense is not None else near[np.argsort(base[near], kind="stable")]
        for oi, word in enumerate(self._query_words):
            inside = (edges & word) == 0
            ranks = np.full(len(coords), -1, dtype=np.int32)
            hit = np.flatnonzero(inside) if by_id is None else by_id[inside[by_id]]
            if len(hit):
                ranks[hit] = self.lookup(base[hit] + self.deltas[oi])
            yield inside, ranks

    def probe_query(self, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One external query's :meth:`probe` over all offsets at once:
        ``(inside, ranks)``, one entry per row of :func:`neighbor_offsets`
        — what :meth:`cell_inside` and :meth:`lookup` give for a cell."""
        spec = self.spec
        coords = spec.cell_coords(np.reshape(query, (1, -1)), clamp=False)
        inside = (self._query_words & _edge_words(coords, spec.widths, 3)[0]) == 0
        ranks = np.full(len(inside), -1, dtype=np.int32)
        hit = np.flatnonzero(inside)
        if len(hit):  # an in-grid probe puts every coordinate within one cell
            ranks[hit] = self.lookup(spec.linearize(coords[0]) + self.deltas.take(hit))
        return inside, ranks


def _offset_index(offset: np.ndarray, ndim: int) -> int:
    """Row of ``offset`` in :func:`neighbor_offsets`."""
    off = np.asarray(offset, dtype=np.int64)
    if off.shape != (ndim,) or np.abs(off).max(initial=0) > 1:
        raise ValueError(f"offset must be a row of neighbor_offsets({ndim}), got {offset!r}")
    return int((off + 1) @ (3 ** np.arange(ndim - 1, -1, -1)))


def neighbor_ranks_for_offset(index: GridIndex, offset: np.ndarray) -> np.ndarray:
    """For every non-empty cell, the rank of the cell at ``coords + offset``.

    ``offset`` is a row of :func:`neighbor_offsets`. Returns a read-only
    int32 array of length ``num_nonempty_cells`` where entries are -1 when
    the neighbor is outside the grid or empty, memoized on the index's
    :class:`NeighborTable`.
    """
    return index.neighbors.ranks(_offset_index(offset, index.ndim))


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
