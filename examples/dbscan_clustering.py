"""DBSCAN clustering built on the similarity self-join.

The paper motivates the self-join as "a building block of other
algorithms, such as ... clustering algorithms". This example implements
DBSCAN exactly that way: one self-join call produces every ε-neighborhood,
then the classic core-point / density-reachability pass labels clusters —
no per-point range queries needed.

Run:  python examples/dbscan_clustering.py
"""

from __future__ import annotations

import numpy as np

from repro import PRESETS, RuntimeConfig, SelfJoin

NOISE = -1


def dbscan_from_selfjoin(points: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """DBSCAN labels via a single simulated-GPU self-join."""
    runtime = RuntimeConfig(optimization=PRESETS["combined"], include_self=True)
    result = SelfJoin(runtime=runtime).execute(points, eps)
    neighbors = result.neighbor_lists()
    n = len(points)
    core = np.array([len(neighbors.get(i, ())) >= min_pts for i in range(n)])

    labels = np.full(n, NOISE, dtype=np.int64)
    cluster = 0
    for seed_point in range(n):
        if labels[seed_point] != NOISE or not core[seed_point]:
            continue
        # BFS over density-reachable points
        labels[seed_point] = cluster
        frontier = [seed_point]
        while frontier:
            q = frontier.pop()
            if not core[q]:
                continue
            for nb in neighbors[q]:
                if labels[nb] == NOISE:
                    labels[nb] = cluster
                    frontier.append(int(nb))
        cluster += 1
    return labels


def main() -> None:
    rng = np.random.default_rng(7)
    blobs = [
        rng.normal(center, 0.35, size=(400, 2))
        for center in ((2.0, 2.0), (7.0, 7.5), (2.5, 8.0))
    ]
    noise = rng.uniform(0.0, 10.0, size=(150, 2))
    points = np.concatenate(blobs + [noise])

    labels = dbscan_from_selfjoin(points, eps=0.4, min_pts=8)

    found = sorted(set(labels) - {NOISE})
    print(f"DBSCAN over {len(points)} points (eps=0.4, min_pts=8)")
    print(f"clusters found: {len(found)} (expected 3)")
    for c in found:
        members = np.flatnonzero(labels == c)
        centroid = points[members].mean(axis=0)
        print(
            f"  cluster {c}: {len(members):4d} points, "
            f"centroid ({centroid[0]:.2f}, {centroid[1]:.2f})"
        )
    print(f"noise points: {(labels == NOISE).sum()}")

    assert len(found) == 3, "the three planted blobs must be recovered"
    # each blob's 400 members should land in one cluster almost entirely
    for b, blob in enumerate(blobs):
        blob_labels = labels[b * 400 : (b + 1) * 400]
        majority = np.bincount(blob_labels[blob_labels != NOISE]).max()
        assert majority > 380
    print("ok: planted blobs recovered")


if __name__ == "__main__":
    main()
