"""The executor seam: pluggable batch execution under SelfJoin/SimilarityJoin."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    BatchOutcome,
    DeviceExecutor,
    OptimizationConfig,
    SelfJoin,
    SimilarityJoin,
)
from repro.core.result import stack_fragments
from repro.data.adversarial import dense_core_sparse_halo
from repro.grid import GridIndex
from repro.runtime import RuntimeConfig
from repro.simt import DeviceSpec

_EPS = 0.8


@pytest.fixture(scope="module")
def points() -> np.ndarray:
    return dense_core_sparse_halo(250, 2, seed=17)


def test_explicit_default_executor_is_identical(points):
    cfg = OptimizationConfig(work_queue=True, k=2)
    index = GridIndex(points, _EPS)
    join = SelfJoin(runtime=RuntimeConfig(optimization=cfg, seed=4))
    implicit = join.execute_on_index(index)
    explicit = join.execute_on_index(
        index, executor=DeviceExecutor(RuntimeConfig(seed=4))
    )
    assert implicit.pairs.tobytes() == explicit.pairs.tobytes()
    assert implicit.kernel_seconds == pytest.approx(explicit.kernel_seconds)
    assert implicit.total_seconds == pytest.approx(explicit.total_seconds)


def test_executor_device_spec_changes_timing_not_answer(points):
    cfg = OptimizationConfig()
    index = GridIndex(points, _EPS)
    base = SelfJoin(cfg).execute_on_index(index)
    small = SelfJoin(cfg).execute_on_index(
        index,
        executor=DeviceExecutor(
            RuntimeConfig(device=DeviceSpec(name="small", num_sms=1, warps_per_sm_slot=2))
        ),
    )
    assert np.array_equal(base.sorted_pairs(), small.sorted_pairs())
    # 2 warp slots instead of 112 must serialize the 8 warps of work
    assert small.kernel_seconds > base.kernel_seconds


def test_subset_union_covers_full_result(points):
    """Running a join as disjoint query subsets over one index reproduces
    the full result — the contract repro.multigpu is built on."""
    cfg = OptimizationConfig(pattern="lidunicomp", work_queue=True)
    join = SelfJoin(cfg)
    index = GridIndex(points, _EPS)
    full = join.execute_on_index(index)
    parts = [
        join.execute_on_index(index, subset=np.arange(s, len(points), 3))
        for s in range(3)
    ]
    union = np.concatenate([p.pairs for p in parts])
    union = union[np.lexsort((union[:, 1], union[:, 0]))]
    assert np.array_equal(union, full.sorted_pairs())
    assert sum(p.num_pairs for p in parts) == full.num_pairs


def test_subset_sees_whole_candidate_side(points):
    """Subsets restrict queries only: each pair (a, b) from a shard has a
    in the shard but b anywhere in the dataset."""
    join = SelfJoin(OptimizationConfig())
    index = GridIndex(points, _EPS)
    subset = np.arange(0, 40, dtype=np.int64)
    part = join.execute_on_index(index, subset=subset)
    assert np.all(np.isin(part.pairs[:, 0], subset))
    assert part.pairs[:, 1].max() >= 40  # candidates outside the shard


def test_bipartite_subset_union(rng):
    left = rng.uniform(0, 6, size=(90, 2))
    right = rng.uniform(0, 6, size=(110, 2))
    join = SimilarityJoin(OptimizationConfig(work_queue=True))
    full = join.execute(left, right, 0.7)
    index = GridIndex(right, 0.7)
    halves = [
        join.execute_on_index(index, left, subset=np.arange(s, len(left), 2))
        for s in range(2)
    ]
    union = np.concatenate([h.pairs for h in halves])
    union = union[np.lexsort((union[:, 1], union[:, 0]))]
    assert np.array_equal(union, full.sorted_pairs())


def test_empty_subset_yields_empty_result(points):
    join = SelfJoin(OptimizationConfig())
    index = GridIndex(points, _EPS)
    result = join.execute_on_index(index, subset=np.array([], dtype=np.int64))
    assert result.num_pairs == 0
    assert result.num_batches == 0
    assert result.total_seconds == 0.0


def test_batch_outcome_merge_empty():
    outcome = BatchOutcome(
        pairs_per_batch=[],
        batch_stats=[],
        kernel_seconds=[],
        transfer_seconds=[],
        pipeline=None,
    )
    pairs, fragments = stack_fragments(outcome.pairs_per_batch)
    assert pairs.shape == (0, 2) and fragments == ()
    assert outcome.num_batches == 0
