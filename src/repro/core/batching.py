"""The batching scheme (Section II-C2) and its WORKQUEUE variant.

The self-join result set can exceed device memory, so the join runs as a
sequence of batches, each a kernel invocation bounded by the result-buffer
capacity bs. The number of batches comes from an estimate of the total
result size obtained by *exactly* solving a small sample of range queries:

- GPUCALCGLOBAL / SORTBYWL sample the dataset with a stride (representative
  sample → accurate estimate) and assign points to batches in a strided
  round-robin (Figure 1), so each batch holds a similar mix of workloads;
- WORKQUEUE instead samples the *first* 1 % of the workload-sorted array D'
  — the heaviest points — which deliberately overestimates the total so the
  front-loaded first batch cannot overflow; batches are then contiguous
  slices of D' (Section III-D).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.grid import GridIndex
from repro.grid.query import grid_neighbor_counts
from repro.util import ceil_div

__all__ = [
    "BatchPlan",
    "ResultSizeEstimate",
    "estimate_result_size",
    "estimate_result_size_detailed",
    "plan_batches",
    "plan_batches_balanced",
]


@dataclass(frozen=True)
class BatchPlan:
    """Assignment of query points to kernel invocations.

    ``batches[l][t]`` is the point id handled by (query-)thread ``t`` of
    batch ``l``. ``estimated_total`` is the estimator's result-size guess
    used to choose ``num_batches``.
    """

    batches: list[np.ndarray]
    estimated_total: int
    strided: bool

    @property
    def num_batches(self) -> int:
        return len(self.batches)

    @property
    def num_points(self) -> int:
        return int(sum(len(b) for b in self.batches))


@dataclass(frozen=True)
class ResultSizeEstimate:
    """A result-size estimate *with its own error bar*.

    The bare scalar the batching scheme plans from hides how good the
    sample was; on skewed data an underestimate overflows the result
    buffer (and the run re-plans). This carries the point estimate plus
    the sample spread, as read-only diagnostics:

    - ``estimate`` — the scaled point estimate (what
      :func:`estimate_result_size` has always returned);
    - ``variance_per_point`` — sample variance of the per-point neighbor
      counts (ddof=1);
    - ``stderr`` — standard error of the *total*, with finite-population
      correction (the sample is drawn without replacement);
    - ``confident`` — whether the estimate is statistically trustworthy:
      a representative (strided) sample of reasonable size and relative
      error. The WORKQUEUE head-of-D' sample is *deliberately biased*
      upward, so head-mode estimates are never flagged confident — they
      are safe as overestimates, not as measurements.
    """

    estimate: int
    sample_size: int
    population: int
    mode: str
    mean_per_point: float
    variance_per_point: float

    @property
    def stderr(self) -> float:
        """Standard error of the estimated total (0 for full samples)."""
        if self.sample_size <= 1 or self.population <= self.sample_size:
            return 0.0
        fpc = (self.population - self.sample_size) / (self.population - 1)
        sem = math.sqrt(self.variance_per_point / self.sample_size * max(fpc, 0.0))
        return self.population * sem

    @property
    def relative_stderr(self) -> float:
        if self.estimate <= 0:
            return 0.0 if self.stderr == 0 else float("inf")
        return self.stderr / self.estimate

    @property
    def confident(self) -> bool:
        return (
            self.mode == "strided"
            and (self.sample_size >= 30 or self.sample_size == self.population)
            and self.relative_stderr <= 0.25
        )


def estimate_result_size_detailed(
    index: GridIndex,
    *,
    sample_fraction: float = 0.01,
    mode: str = "strided",
    order: np.ndarray | None = None,
    include_self: bool = True,
    subset: np.ndarray | None = None,
) -> ResultSizeEstimate:
    """Estimate the total self-join result size from an exact sample,
    reporting the sample variance alongside the point estimate.

    ``mode="strided"`` samples every (1/fraction)-th point of the dataset;
    ``mode="head"`` samples the first fraction of ``order`` (the
    workload-sorted D'), the WORKQUEUE variant that overestimates by
    sampling the heaviest points. ``subset`` restricts the estimate to the
    given query point ids (a shard of the full join); the estimate then
    covers only that shard's result rows.

    Degenerate inputs are handled rather than divided by: an empty grid,
    an empty ``subset``/``order``, or a sample stride that exceeds the
    population all yield a well-defined (possibly zero) estimate.
    """
    if not 0 < sample_fraction <= 1:
        raise ValueError("sample_fraction must be in (0, 1]")
    if mode not in ("strided", "head"):
        raise ValueError(f"unknown estimator mode {mode!r}")
    if subset is not None:
        queries = np.asarray(subset, dtype=np.int64)
    else:
        queries = np.arange(index.num_points, dtype=np.int64)
    n = len(queries)
    if n == 0 or index.num_points == 0:
        return ResultSizeEstimate(0, 0, n, mode, 0.0, 0.0)
    sample_size = min(n, max(1, int(round(n * sample_fraction))))
    if mode == "strided":
        step = max(1, n // sample_size)
        sample = queries[::step]
    else:
        if order is None:
            raise ValueError("mode='head' requires the sorted order array")
        sample = np.asarray(order, dtype=np.int64)[:sample_size]
    if len(sample) == 0:
        return ResultSizeEstimate(0, 0, n, mode, 0.0, 0.0)
    counts = grid_neighbor_counts(index, sample, include_self=include_self)
    scale = n / len(sample)
    mean = float(counts.mean())
    var = float(counts.var(ddof=1)) if len(counts) > 1 else 0.0
    return ResultSizeEstimate(
        estimate=int(np.ceil(counts.sum() * scale)),
        sample_size=len(sample),
        population=n,
        mode=mode,
        mean_per_point=mean,
        variance_per_point=var,
    )


def estimate_result_size(
    index: GridIndex,
    *,
    sample_fraction: float = 0.01,
    mode: str = "strided",
    order: np.ndarray | None = None,
    include_self: bool = True,
    subset: np.ndarray | None = None,
) -> int:
    """Point-estimate form of :func:`estimate_result_size_detailed` —
    identical sampling, returns only the scaled total."""
    return estimate_result_size_detailed(
        index,
        sample_fraction=sample_fraction,
        mode=mode,
        order=order,
        include_self=include_self,
        subset=subset,
    ).estimate


def plan_batches(
    order: np.ndarray,
    estimated_total: int,
    capacity: int,
    *,
    strided: bool = True,
) -> BatchPlan:
    """Split the query points of ``order`` into batches.

    ``strided=True`` is the Figure 1 round-robin: batch ``l`` handles points
    ``order[l::nb]``. ``strided=False`` (WORKQUEUE) slices ``order``
    contiguously, preserving the most-work-first ordering across batches.
    """
    order = np.asarray(order, dtype=np.int64)
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    if estimated_total < 0:
        raise ValueError("estimated_total must be non-negative")
    n = len(order)
    if n == 0:
        return BatchPlan([], estimated_total, strided)
    nb = max(1, int(ceil_div(estimated_total, capacity)))
    nb = min(nb, n)  # never more batches than points
    if strided:
        batches = [order[l::nb] for l in range(nb)]
    else:
        size = int(ceil_div(n, nb))
        batches = [order[l * size : (l + 1) * size] for l in range(nb)]
        batches = [b for b in batches if len(b)]
    return BatchPlan(batches, estimated_total, strided)


def plan_batches_balanced(
    order: np.ndarray,
    weights: np.ndarray,
    estimated_total: int,
    capacity: int,
    *,
    fill_target: float = 0.75,
) -> BatchPlan:
    """Dynamically grouped work-queue batches with similar result sizes.

    Implements the paper's stated future-work direction (Section V):
    instead of equal point-count slices of D' — whose result sizes vary
    wildly because the heavy points come first — batches are contiguous
    prefix groups cut when their *estimated* result rows reach
    ``fill_target · capacity``. Per-point rows are estimated proportionally
    to ``weights`` (the quantified candidate workload, the only signal
    available before refinement): ``rows_i ≈ estimated_total · w_i / Σw``.

    ``weights`` must align with ``order`` positions (``weights[t]`` belongs
    to point ``order[t]``). Batch sizes therefore *grow* along D' — few
    heavy points per early batch, many light ones later — while every
    batch stays under capacity with headroom ``1 - fill_target`` for
    estimation error.
    """
    order = np.asarray(order, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != order.shape:
        raise ValueError("weights must align with order")
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    if estimated_total < 0:
        raise ValueError("estimated_total must be non-negative")
    if not 0 < fill_target <= 1:
        raise ValueError("fill_target must be in (0, 1]")
    n = len(order)
    if n == 0:
        return BatchPlan([], estimated_total, False)
    total_w = weights.sum()
    if total_w <= 0 or estimated_total == 0:
        return BatchPlan([order], estimated_total, False)

    est_rows = weights * (estimated_total / total_w)
    budget = fill_target * capacity
    # cut points: cumulative estimated rows cross multiples of the budget
    cum = np.cumsum(est_rows)
    bucket = np.minimum((cum / budget).astype(np.int64), np.iinfo(np.int64).max)
    # a batch boundary wherever the bucket index advances
    cuts = np.flatnonzero(np.diff(bucket) > 0) + 1
    bounds = np.concatenate([[0], cuts, [n]])
    batches = [
        order[a:b] for a, b in zip(bounds[:-1], bounds[1:]) if b > a
    ]
    return BatchPlan(batches, estimated_total, False)
