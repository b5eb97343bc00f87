"""Shard planners: how one join's query points split across devices.

The paper quantifies per-point workloads to balance warps *within* one
GPU (SORTBYWL, Section III-C); here the identical signal balances work
*across* devices. Three planners, mirroring the intra-GPU design space:

- ``"strided"`` — shard ``s`` takes query ids ``s::num_shards``, the
  device-level analogue of the batching scheme's round-robin (Figure 1).
  Statistically even, but blind to workload: heavy points land wherever
  their ids happen to fall.
- ``"cell_blocks"`` — contiguous runs of grid cells with roughly equal
  point counts. Preserves spatial locality (each device touches a compact
  region of the index) at the cost of workload skew: a dense region's
  cells travel together.
- ``"balanced"`` — greedy LPT bin-packing over the SORTBYWL per-point
  workload estimates: points are taken in non-increasing estimated-work
  order (D' itself) and each is assigned to the currently lightest shard.
  The classic longest-processing-time guarantee carries over: shard totals
  stay within a small factor of optimal even under adversarial skew.

Every planner *partitions* the query ids — each query lives in exactly
one shard — so merged results need no dedup for the ``"full"`` pattern;
cell-granular shards under the mirrored half-patterns are flagged
(``may_duplicate``) so the merge can defensively dedup.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.core.sortbywl import point_workloads
from repro.grid import GridIndex
from repro.util import gather_slices, stable_argsort_desc

__all__ = [
    "SHARD_PLANNERS",
    "Shard",
    "ShardPlan",
    "plan_query_shards",
    "plan_shards",
]

SHARD_PLANNERS = ("strided", "cell_blocks", "balanced")


@dataclass(frozen=True)
class Shard:
    """One device-sized slice of a join's query points."""

    shard_id: int
    points: np.ndarray  # query point ids served by this shard
    estimated_work: float  # summed per-point workload estimate

    @property
    def num_points(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class ShardPlan:
    """A partition of the query ids into shards, plus dispatch metadata."""

    shards: list[Shard]
    planner: str
    num_queries: int
    may_duplicate: bool = False

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def total_work(self) -> float:
        return float(sum(s.estimated_work for s in self.shards))

    @property
    def estimated_imbalance(self) -> float:
        """Max/mean estimated shard work — 1.0 is a perfectly level plan."""
        works = [s.estimated_work for s in self.shards]
        if not works:
            return 1.0
        mean = float(np.mean(works))
        if mean == 0:
            return 1.0
        return float(max(works) / mean)

    def dispatch_order(self) -> list[int]:
        """Shard ids in most-work-first order (stable on ties) — the
        device-level generalization of the WORKQUEUE's sorted array D'."""
        works = np.array([s.estimated_work for s in self.shards])
        return [int(i) for i in stable_argsort_desc(works)]


def _build(shard_members, weights, planner, num_queries, *, may_duplicate=False):
    shards = [
        Shard(
            shard_id=s,
            points=np.asarray(members, dtype=np.int64),
            estimated_work=float(weights[members].sum()) if len(members) else 0.0,
        )
        for s, members in enumerate(shard_members)
    ]
    return ShardPlan(
        shards=shards,
        planner=planner,
        num_queries=num_queries,
        may_duplicate=may_duplicate,
    )


def _lpt_partition(ids: np.ndarray, weights: np.ndarray, num_shards: int):
    """Greedy LPT: heaviest id first, into the currently lightest bin.

    Deterministic: ties on bin load break toward the lowest shard id
    (heap keyed on ``(load, shard_id)``), ids of equal weight keep their
    relative order (stable sort).
    """
    order = ids[stable_argsort_desc(weights[ids])]
    heap = [(0.0, s) for s in range(num_shards)]
    heapq.heapify(heap)
    members: list[list[int]] = [[] for _ in range(num_shards)]
    # Python ints and floats: NumPy scalars cost a boxing per item
    for q, w in zip(order.tolist(), weights[order].tolist()):
        load, s = heap[0]
        heapq.heapreplace(heap, (load + w, s))
        members[s].append(q)
    return members


def plan_query_shards(
    weights: np.ndarray,
    num_shards: int,
    planner: str = "balanced",
    *,
    may_duplicate: bool = False,
) -> ShardPlan:
    """Partition query ids ``0..len(weights)-1`` into ``num_shards`` shards.

    ``weights`` is the per-query workload estimate (any non-negative
    signal; the self-join uses SORTBYWL's quantified candidate counts, the
    bipartite join its query workloads). ``"cell_blocks"`` degrades to
    contiguous equal-count id blocks — the caller partitions by cell runs
    itself when it has a grid (see :func:`plan_shards`).
    """
    weights = np.asarray(weights, dtype=np.float64)
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    if (weights < 0).any():
        raise ValueError("weights must be non-negative")
    nq = len(weights)
    ids = np.arange(nq, dtype=np.int64)

    if planner == "strided":
        members = [ids[s::num_shards] for s in range(num_shards)]
    elif planner == "cell_blocks":
        bounds = np.linspace(0, nq, num_shards + 1).round().astype(np.int64)
        members = [ids[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    elif planner == "balanced":
        members = _lpt_partition(ids, weights, num_shards)
    else:
        raise ValueError(
            f"unknown planner {planner!r}; expected one of {SHARD_PLANNERS}"
        )
    return _build(members, weights, planner, nq, may_duplicate=may_duplicate)


def plan_shards(
    index: GridIndex,
    num_shards: int,
    planner: str = "balanced",
    *,
    pattern: str = "full",
) -> ShardPlan:
    """Partition a self-join's query points into ``num_shards`` shards.

    The workload signal is :func:`~repro.core.sortbywl.point_workloads`
    under the configured access pattern — the same quantification SORTBYWL
    sorts by, reused one level up. Empty shards are legal (more shards
    than points): they carry zero work and produce zero rows.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    n = index.num_points
    weights = (
        point_workloads(index, pattern).astype(np.float64)
        if n
        else np.zeros(0, dtype=np.float64)
    )
    ids = np.arange(n, dtype=np.int64)

    if planner == "strided":
        members = [ids[s::num_shards] for s in range(num_shards)]
    elif planner == "cell_blocks":
        members = _cell_block_partition(index, num_shards)
    elif planner == "balanced":
        members = _lpt_partition(ids, weights, num_shards)
    else:
        raise ValueError(
            f"unknown planner {planner!r}; expected one of {SHARD_PLANNERS}"
        )
    # cell-granular shards under a mirrored half-pattern: flag for the
    # merge's defensive dedup (emission is still single-coverage, but the
    # invariant is cheap to enforce and the plan records the risk).
    may_duplicate = planner == "cell_blocks" and pattern != "full"
    return _build(members, weights, planner, n, may_duplicate=may_duplicate)


def _cell_block_partition(index: GridIndex, num_shards: int) -> list[np.ndarray]:
    """Contiguous cell runs of roughly equal point counts."""
    counts = index.cell_counts
    if len(counts) == 0:
        return [np.empty(0, dtype=np.int64) for _ in range(num_shards)]
    cum = np.cumsum(counts)
    total = int(cum[-1])
    # cell run boundaries at the count quantiles
    targets = np.linspace(0, total, num_shards + 1)[1:-1]
    cuts = np.searchsorted(cum, targets, side="left") + 1
    bounds = np.concatenate([[0], cuts, [len(counts)]])
    bounds = np.maximum.accumulate(bounds)  # degenerate runs stay empty
    members = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        if b > a:
            members.append(
                gather_slices(
                    index.point_order, index.cell_starts[a:b], index.cell_counts[a:b]
                )
            )
        else:
            members.append(np.empty(0, dtype=np.int64))
    return members
