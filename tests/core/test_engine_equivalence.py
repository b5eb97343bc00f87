"""End-to-end engine equivalence through the join facades.

The machine-level proof lives in ``tests/simt/test_vectorized_engine.py``;
here the two engines run the *whole* pipeline — planning, batching,
WORKQUEUE state across batches, overflow recovery, the stream pipeline —
and must produce identical results and identical simulated metrics for
every preset the paper evaluates.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    DeviceExecutor,
    OptimizationConfig,
    SelfJoin,
    SimilarityJoin,
)
from repro.core.config import PRESETS
from repro.data.adversarial import dense_core_sparse_halo
from repro.grid import GridIndex
from repro.resilience import FaultPlan, FaultyExecutor, ForcedOverflow
from repro.runtime import RuntimeConfig

_EPS = 0.8


def _self_join(cfg, *, seed, engine, **runtime_kw) -> SelfJoin:
    return SelfJoin(
        runtime=RuntimeConfig(
            optimization=cfg, seed=seed, engine=engine, **runtime_kw
        )
    )


@pytest.fixture(scope="module")
def points() -> np.ndarray:
    return dense_core_sparse_halo(260, 2, seed=17)


@pytest.fixture(scope="module")
def index(points) -> GridIndex:
    return GridIndex(points, _EPS)


def assert_results_equal(a, b):
    np.testing.assert_array_equal(a.pairs, b.pairs)
    assert len(a.batch_stats) == len(b.batch_stats)
    for sa, sb in zip(a.batch_stats, b.batch_stats):
        assert sa.cycles == sb.cycles
        assert sa.seconds == sb.seconds
        assert sa.warp_execution_efficiency == sb.warp_execution_efficiency
    assert a.total_seconds == b.total_seconds
    assert a.overflow_retries == b.overflow_retries
    assert a.overflow_wasted_seconds == b.overflow_wasted_seconds


class TestSelfJoinPresets:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_preset_equivalence(self, index, preset):
        # small batch capacity forces a multi-batch plan, so the queue
        # counter's cross-batch persistence is exercised too
        cfg = PRESETS[preset].with_(batch_result_capacity=1500)
        results = [
            _self_join(cfg, seed=3, engine=engine).execute_on_index(index)
            for engine in ("interpreted", "vectorized")
        ]
        assert_results_equal(*results)
        assert len(results[0].pairs) > 0
        assert len(results[0].batch_stats) > 1

    def test_subset_equivalence(self, index):
        cfg = OptimizationConfig(pattern="lidunicomp", k=2, work_queue=True)
        subset = np.arange(0, index.num_points, 3, dtype=np.int64)
        results = [
            _self_join(cfg, seed=5, engine=engine).execute_on_index(
                index, subset=subset
            )
            for engine in ("interpreted", "vectorized")
        ]
        assert_results_equal(*results)

    def test_exclude_self_equivalence(self, index):
        cfg = OptimizationConfig(pattern="unicomp", k=4, work_queue=True)
        results = [
            _self_join(
                cfg, seed=1, engine=engine, include_self=False
            ).execute_on_index(index)
            for engine in ("interpreted", "vectorized")
        ]
        assert_results_equal(*results)
        assert not np.any(results[0].pairs[:, 0] == results[0].pairs[:, 1])


class TestBipartitePresets:
    @pytest.mark.parametrize(
        "cfg",
        [
            OptimizationConfig(),
            OptimizationConfig(k=4),
            OptimizationConfig(sort_by_workload=True),
            OptimizationConfig(work_queue=True, k=2),
            OptimizationConfig(work_queue=True, k=8, balanced_batches=True),
        ],
        ids=["baseline", "k4", "sortbywl", "queue_k2", "balanced_k8"],
    )
    def test_equivalence(self, points, cfg):
        rng = np.random.default_rng(9)
        queries = rng.uniform(-1.0, 9.0, size=(140, 2))
        cfg = cfg.with_(batch_result_capacity=1200)
        results = [
            SimilarityJoin(
                runtime=RuntimeConfig(optimization=cfg, seed=2, engine=engine)
            ).execute(queries, points, _EPS)
            for engine in ("interpreted", "vectorized")
        ]
        assert_results_equal(*results)
        assert len(results[0].pairs) > 0


class TestOverflowEquivalence:
    def _clamped(self, engine, *, times=1, cap=16) -> FaultyExecutor:
        return FaultyExecutor(
            DeviceExecutor(seed=0, overflow_policy="retry", engine=engine),
            0,
            FaultPlan(overflows=[ForcedOverflow(0, times=times, clamp_capacity=cap)]),
        )

    def test_replan_on_raise_policy(self, index):
        # capacity honored: the vectorized engine must overflow exactly
        # where the interpreter does, propagate under the "raise" policy,
        # and the doubled re-plan must converge to the same answer
        cfg = OptimizationConfig(
            pattern="lidunicomp", work_queue=True, k=2, batch_result_capacity=4000
        )
        results = []
        for engine in ("interpreted", "vectorized"):
            executor = FaultyExecutor(
                DeviceExecutor(seed=0, engine=engine),
                0,
                FaultPlan(overflows=[ForcedOverflow(0, times=1, clamp_capacity=16)]),
            )
            results.append(
                _self_join(cfg, seed=3, engine=engine).execute_on_index(
                    index, executor=executor
                )
            )
        assert_results_equal(*results)

    def test_retry_policy_rolls_back_workqueue(self, index):
        # batch-level recovery: the aborted launch's queue fetches are
        # rolled back, so the retried batch sees the same queue state on
        # both engines and the outcomes match retry-for-retry
        cfg = OptimizationConfig(work_queue=True, k=2, batch_result_capacity=4000)
        join = SelfJoin(runtime=RuntimeConfig(optimization=cfg, seed=0))
        results = [
            join.execute_on_index(
                index, executor=self._clamped(engine, times=2, cap=16)
            )
            for engine in ("interpreted", "vectorized")
        ]
        assert_results_equal(*results)
        assert results[0].overflow_retries > 0


class TestPatternPlanMemoization:
    def test_plan_cached_per_pattern(self, index):
        from repro.core.patterns import get_pattern_plan

        plan = get_pattern_plan("lidunicomp", index)
        assert get_pattern_plan("lidunicomp", index) is plan
        assert get_pattern_plan("full", index) is not plan

    def test_cells_for_rank_matches_uncached_computation(self, index):
        from repro.core.patterns import PatternPlan, pattern_cells_for_query

        for pattern in ("full", "unicomp", "lidunicomp"):
            fresh = PatternPlan(pattern, index)
            for rank in range(0, index.num_nonempty_cells, 7):
                visited, ranks = pattern_cells_for_query(pattern, index, rank)
                v2, r2 = fresh.cells_for_rank(rank)
                np.testing.assert_array_equal(visited, v2)
                np.testing.assert_array_equal(ranks, r2)

    def test_counts_match_offset_visits(self, index):
        from repro.core.patterns import get_pattern_plan

        plan = get_pattern_plan("unicomp", index)
        vc = plan.visited_counts()
        cc = plan.candidate_counts()
        for rank in range(0, index.num_nonempty_cells, 5):
            visited, ranks = plan.cells_for_rank(rank)
            assert vc[rank] == len(visited)
            expected = index.cell_counts[rank] + sum(
                index.cell_counts[r] for r in ranks if r >= 0
            )
            assert cc[rank] == expected


class TestDensePointCellRank:
    def test_matches_lookup(self, points):
        index = GridIndex(points, _EPS)
        coords = index.spec.cell_coords(index.points)
        expected = index.lookup(index.spec.linearize(coords))
        np.testing.assert_array_equal(index.point_cell_rank, expected)
        assert index.point_cell_rank.dtype == np.int64
