"""EGO-join: recursive sequence joining with cell-distance pruning.

Two contiguous sequences of the EGO-sorted array are joined by:

- **prune** — if the sequences' cell bounding boxes are more than one cell
  apart in *any* dimension, no pair can be within ε (each cell is ε wide);
- **simple join** — below a size threshold, refine all cross pairs with one
  vectorized pass of the package's ε test (SUPER-EGO's unrolled inner
  loop), in the dataset's dimension order, not the reordered one;
- **recurse** — otherwise split (both halves for a self block, the longer
  sequence for a cross block) and join the sub-sequences.

The self-join is seeded with ``join(D, D)``; self blocks recurse as
(L,L), (L,H), (H,H) so every unordered pair is produced exactly once.

Note on pruning strength: the original EGO prune compares sequences
lexicographically (dimension d participates only while earlier dimensions
are equal); we use the bounding-box relaxation, which is equally *correct*
(never prunes a producing pair) but occasionally visits sequence pairs the
original would cut. The operation counts therefore slightly overestimate
SUPER-EGO's work — a conservative bias for the CPU baseline the paper
beats. See DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ego.egosort import EgoSorted
from repro.grid.query import within_epsilon

__all__ = ["EgoOpCounts", "ego_join"]

_DEFAULT_SIMPLE_JOIN_SIZE = 16


@dataclass
class EgoOpCounts:
    """Work performed by one EGO-join execution (drives the CPU time model)."""

    distance_computations: int = 0
    sequence_comparisons: int = 0
    simple_joins: int = 0
    prunes: int = 0
    result_pairs: int = 0  # unordered pairs (i < j), before mirroring

    def merge(self, other: "EgoOpCounts") -> None:
        self.distance_computations += other.distance_computations
        self.sequence_comparisons += other.sequence_comparisons
        self.simple_joins += other.simple_joins
        self.prunes += other.prunes
        self.result_pairs += other.result_pairs


@dataclass
class _JoinState:
    sorted_data: EgoSorted
    dims: np.ndarray  # column of each dataset dimension in the reordered points
    threshold: int
    collect: bool
    counts: EgoOpCounts = field(default_factory=EgoOpCounts)
    pairs: list[np.ndarray] = field(default_factory=list)
    # per-dimension prefix min/max of cell coords would cost O(N n) memory;
    # recomputing per call on slices is vectorized and cheap.


def _bbox_prunable(state: _JoinState, a: slice, b: slice) -> bool:
    """True if no point of A can be within ε of any point of B."""
    cells = state.sorted_data.cells
    ca, cb = cells[a], cells[b]
    lo_a, hi_a = ca.min(axis=0), ca.max(axis=0)
    lo_b, hi_b = cb.min(axis=0), cb.max(axis=0)
    return bool(((lo_b > hi_a + 1) | (lo_a > hi_b + 1)).any())


def _simple_join(state: _JoinState, a: slice, b: slice, self_block: bool) -> None:
    """Vectorized all-pairs refinement of two small sequences."""
    pts = state.sorted_data.points
    pa, pb = pts[a], pts[b]
    state.counts.simple_joins += 1
    state.counts.distance_computations += len(pa) * len(pb)
    diff = pa[:, None, :] - pb[None, :, :]
    hit = within_epsilon((diff[..., d] for d in state.dims), state.sorted_data.epsilon)
    i_loc, j_loc = np.nonzero(hit)
    i = i_loc + a.start
    j = j_loc + b.start
    if self_block:
        keep = i < j  # unordered, no self
        i, j = i[keep], j[keep]
    state.counts.result_pairs += len(i)
    if state.collect and len(i):
        state.pairs.append(np.stack([i, j], axis=1))


def _join(state: _JoinState, a: slice, b: slice) -> None:
    na = a.stop - a.start
    nb = b.stop - b.start
    if na == 0 or nb == 0:
        return
    self_block = a == b
    state.counts.sequence_comparisons += 1
    if not self_block and _bbox_prunable(state, a, b):
        state.counts.prunes += 1
        return
    if na <= state.threshold and nb <= state.threshold:
        _simple_join(state, a, b, self_block)
        return
    if self_block:
        mid = a.start + na // 2
        lo, hi = slice(a.start, mid), slice(mid, a.stop)
        _join(state, lo, lo)
        _join(state, lo, hi)
        _join(state, hi, hi)
        return
    # split the longer sequence
    if na >= nb:
        mid = a.start + na // 2
        _join(state, slice(a.start, mid), b)
        _join(state, slice(mid, a.stop), b)
    else:
        mid = b.start + nb // 2
        _join(state, a, slice(b.start, mid))
        _join(state, a, slice(mid, b.stop))


def ego_join(
    sorted_data: EgoSorted,
    *,
    simple_join_size: int = _DEFAULT_SIMPLE_JOIN_SIZE,
    collect_pairs: bool = True,
) -> tuple[np.ndarray, EgoOpCounts]:
    """Self-join an EGO-sorted dataset.

    Returns ``(pairs, counts)`` where ``pairs`` holds each unordered pair
    ``(i, j)``, ``i < j``, as *sorted-array positions* (empty when
    ``collect_pairs=False``, which is the op-counting mode the CPU time
    model uses at scale).
    """
    if simple_join_size < 1:
        raise ValueError("simple_join_size must be >= 1")
    n = sorted_data.num_points
    state = _JoinState(
        sorted_data=sorted_data,
        dims=np.argsort(sorted_data.dim_order),
        threshold=simple_join_size,
        collect=collect_pairs,
    )
    _join(state, slice(0, n), slice(0, n))
    if state.pairs:
        pairs = np.concatenate(state.pairs, axis=0)
    else:
        pairs = np.empty((0, 2), dtype=np.int64)
    return pairs, state.counts
