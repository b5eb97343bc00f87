"""Blocked O(N²) brute-force self-join — the correctness oracle.

The double loop of the paper's introduction, vectorized in row blocks to
keep peak memory at ``block × N`` distances. The oracle shares no code
with the grid, but it follows the package's boundary contract
(:func:`repro.grid.query.within_epsilon`): squared differences summed
over dimensions 0…n−1 in that order, a pair kept iff
``d2 <= epsilon * epsilon``.
"""

from __future__ import annotations

import numpy as np

from repro.util import as_points_array, check_epsilon

__all__ = ["brute_force_neighbor_counts", "brute_force_pairs"]

_DEFAULT_BLOCK = 512


def _within(rows: np.ndarray, pts: np.ndarray, eps: float) -> np.ndarray:
    """``(len(rows), N)`` mask of the pairs within ``eps``."""
    # a difference or square past float64 is inf, which is above every
    # ε², so the pair is dropped as it should be: nothing to warn about
    with np.errstate(over="ignore"):
        d2 = (rows[:, None, 0] - pts[None, :, 0]) ** 2
        for k in range(1, pts.shape[1]):
            d2 += (rows[:, None, k] - pts[None, :, k]) ** 2
    return d2 <= eps * eps


def brute_force_pairs(
    points,
    epsilon: float,
    *,
    include_self: bool = True,
    block: int = _DEFAULT_BLOCK,
) -> np.ndarray:
    """All ordered pairs ``(i, j)`` with ``dist(p_i, p_j) <= epsilon``.

    Returned in lexicographic order, shape ``(M, 2)`` int64.
    """
    pts = as_points_array(points)
    eps = check_epsilon(epsilon)
    if block < 1:
        raise ValueError("block must be >= 1")
    n = len(pts)
    out: list[np.ndarray] = []
    for start in range(0, n, block):
        i_loc, j = np.nonzero(_within(pts[start : start + block], pts, eps))
        i = i_loc + start
        if not include_self:
            keep = i != j
            i, j = i[keep], j[keep]
        if len(i):
            out.append(np.stack([i, j], axis=1))
    if not out:
        return np.empty((0, 2), dtype=np.int64)
    return np.concatenate(out, axis=0).astype(np.int64)


def brute_force_neighbor_counts(
    points,
    epsilon: float,
    *,
    include_self: bool = True,
    block: int = _DEFAULT_BLOCK,
) -> np.ndarray:
    """Exact ε-neighbor count per point, shape ``(N,)`` int64."""
    pts = as_points_array(points)
    eps = check_epsilon(epsilon)
    n = len(pts)
    counts = np.zeros(n, dtype=np.int64)
    for start in range(0, n, block):
        rows = pts[start : start + block]
        hit = _within(rows, pts, eps)
        if not include_self:
            hit[np.arange(len(rows)), start + np.arange(len(rows))] = False
        counts[start : start + len(rows)] = hit.sum(axis=1)
    return counts
