"""The oracle every op is checked against, computed with scipy's cKDTree.

Self and similarity joins are checked by pair count plus an
order-independent checksum of the ``(i, j)`` rows, so checking a 28M-pair
result costs one O(pairs) pass and no sort. kNN joins are checked by their
neighbor distances. ``run.py`` computes the oracle before the measured
process starts, so the oracle's memory never counts toward it.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

__all__ = ["knn_distances", "pair_checksum", "self_join", "similarity_join"]

_CHUNK = 1 << 20  # rows mixed per pass: bounds the checksum's temporaries


def _mix(i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """splitmix64 of each packed row ``(i << 32) | j``; ids are below 2**32."""
    z = (i.astype(np.uint64) << np.uint64(32)) | j.astype(np.uint64)
    z += np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def pair_checksum(blocks) -> tuple[int, int]:
    """``(rows, checksum)`` over blocks of ``(i, j)`` rows, in any row order.

    The checksum is the sum of a 64-bit mix of every row, modulo 2**64: a
    dropped, duplicated or altered row changes it.
    """
    rows = 0
    total = 0
    for block in blocks:
        for start in range(0, len(block), _CHUNK):
            part = block[start : start + _CHUNK]
            rows += len(part)
            total += int(_mix(part[:, 0], part[:, 1]).sum(dtype=np.uint64))
    return rows, total % (1 << 64)


def self_join(points: np.ndarray, epsilon: float) -> dict:
    """Count and checksum of the directed self-join, self pairs included."""
    half = cKDTree(points).query_pairs(epsilon, output_type="ndarray")
    ids = np.arange(len(points), dtype=np.int64)
    rows, checksum = pair_checksum([half, half[:, ::-1], np.stack([ids, ids], axis=1)])
    return {"pairs": rows, "checksum": checksum}


def similarity_join(queries: np.ndarray, points: np.ndarray, epsilon: float) -> dict:
    """Count and checksum of the ``(query, point)`` rows within ``epsilon``."""
    hits = cKDTree(points).query_ball_point(queries, epsilon, return_sorted=False)
    lengths = np.fromiter(map(len, hits), dtype=np.int64, count=len(hits))
    found = np.empty((int(lengths.sum()), 2), dtype=np.int64)
    found[:, 0] = np.repeat(np.arange(len(queries), dtype=np.int64), lengths)
    found[:, 1] = np.fromiter((j for h in hits for j in h), dtype=np.int64, count=len(found))
    rows, checksum = pair_checksum([found])
    return {"pairs": rows, "checksum": checksum}


def knn_distances(points: np.ndarray, k: int) -> np.ndarray:
    """Distances to each point's ``k`` nearest other points, nearest first."""
    distances, _ = cKDTree(points).query(points, k=k + 1)
    return distances[:, 1:]
