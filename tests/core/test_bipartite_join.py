"""Tests for the bipartite similarity join (VM, model, and grid helpers)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PRESETS, SimilarityJoin
from repro.runtime import RuntimeConfig
from repro.core.join import BipartiteKernelArgs
from repro.grid import GridIndex
from repro.grid.bipartite import (
    bipartite_neighbor_counts,
    bipartite_pairs,
    bipartite_workloads,
)
from repro.perfmodel import PerformanceModel
from repro.simt import CostParams


def oracle_pairs(A, B, eps):
    d2 = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=-1)
    i, j = np.nonzero(d2 <= eps * eps)
    return np.stack([i, j], axis=1).astype(np.int64)


@pytest.fixture(scope="module")
def datasets():
    rng = np.random.default_rng(17)
    A = rng.uniform(0, 5, (350, 2))
    B = np.concatenate([rng.normal(2, 0.3, (250, 2)), rng.uniform(-1, 6, (250, 2))])
    return A, B


class TestGridBipartite:
    def test_counts_match_oracle(self, datasets):
        A, B = datasets
        idx = GridIndex(B, 0.3)
        counts = bipartite_neighbor_counts(idx, A)
        d2 = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=-1)
        np.testing.assert_array_equal(counts, (d2 <= 0.09).sum(axis=1))

    def test_pairs_match_oracle(self, datasets):
        A, B = datasets
        idx = GridIndex(B, 0.3)
        got = bipartite_pairs(idx, A)
        got = got[np.lexsort((got[:, 1], got[:, 0]))]
        np.testing.assert_array_equal(got, oracle_pairs(A, B, 0.3))

    def test_queries_outside_box(self):
        """Queries beyond B's bounding box: near ones match boundary cells,
        far ones match nothing."""
        B = np.array([[0.0, 0.0], [1.0, 1.0]])
        idx = GridIndex(B, 0.5)
        A = np.array([[-0.3, 0.0], [50.0, 50.0], [1.2, 1.2]])
        counts = bipartite_neighbor_counts(idx, A)
        np.testing.assert_array_equal(counts, [1, 0, 1])

    def test_empty_sides(self):
        idx = GridIndex(np.empty((0, 2)), 1.0)
        assert bipartite_neighbor_counts(idx, np.zeros((3, 2))).sum() == 0
        idx2 = GridIndex(np.zeros((3, 2)), 1.0)
        assert len(bipartite_pairs(idx2, np.empty((0, 2)))) == 0

    def test_workloads_bound_counts(self, datasets):
        A, B = datasets
        idx = GridIndex(B, 0.3)
        cand, visited = bipartite_workloads(idx, A)
        counts = bipartite_neighbor_counts(idx, A)
        assert (cand >= counts).all()
        assert (visited <= 3 ** idx.ndim).all()

    @given(seed=st.integers(0, 2**31 - 1), ndim=st.integers(1, 3))
    @settings(max_examples=15)
    def test_property_pairs_exact(self, seed, ndim):
        rng = np.random.default_rng(seed)
        A = rng.uniform(0, 3, (60, ndim))
        B = rng.uniform(-0.5, 3.5, (60, ndim))
        idx = GridIndex(B, 0.6)
        got = bipartite_pairs(idx, A)
        got = got[np.lexsort((got[:, 1], got[:, 0]))] if len(got) else got
        np.testing.assert_array_equal(got.reshape(-1, 2), oracle_pairs(A, B, 0.6))


class TestSimilarityJoinVM:
    @pytest.mark.parametrize(
        "preset", ["gpucalcglobal", "k8", "sortbywl", "workqueue", "workqueue_k8"]
    )
    def test_exactness(self, preset, datasets):
        A, B = datasets
        res = SimilarityJoin(PRESETS[preset]).execute(A, B, 0.3)
        np.testing.assert_array_equal(res.sorted_pairs(), oracle_pairs(A, B, 0.3))

    def test_balanced_batches_exact(self, datasets):
        A, B = datasets
        cfg = PRESETS["workqueue"].with_(
            balanced_batches=True, batch_result_capacity=1500
        )
        res = SimilarityJoin(cfg).execute(A, B, 0.3)
        assert res.num_batches > 1
        np.testing.assert_array_equal(res.sorted_pairs(), oracle_pairs(A, B, 0.3))

    def test_multibatch_exact(self, datasets):
        A, B = datasets
        cfg = PRESETS["workqueue_k8"].with_(batch_result_capacity=800)
        res = SimilarityJoin(cfg).execute(A, B, 0.3)
        assert res.num_batches > 3
        np.testing.assert_array_equal(res.sorted_pairs(), oracle_pairs(A, B, 0.3))

    def test_rejects_half_patterns(self):
        with pytest.raises(ValueError, match="pattern='full'"):
            SimilarityJoin(PRESETS["lidunicomp"])

    def test_self_bipartite_equals_selfjoin_pairs(self, datasets):
        """A ⋈ A equals the self-join's result set (with self pairs)."""
        from repro import SelfJoin

        A, _ = datasets
        bi = SimilarityJoin().execute(A, A, 0.25)
        self_join = SelfJoin().execute(A, 0.25)
        np.testing.assert_array_equal(bi.sorted_pairs(), self_join.sorted_pairs())

    def test_disjoint_datasets(self):
        A = np.zeros((10, 2))
        B = np.full((10, 2), 100.0)
        res = SimilarityJoin().execute(A, B, 1.0)
        assert res.num_pairs == 0

    def test_invalid_epsilon(self, datasets):
        A, B = datasets
        with pytest.raises(ValueError):
            SimilarityJoin().execute(A, B, 0.0)

    def test_kernel_args_validation(self, datasets):
        A, B = datasets
        idx = GridIndex(B, 0.3)
        with pytest.raises(ValueError, match="together"):
            BipartiteKernelArgs(
                index=idx,
                queries=A,
                batch=np.arange(3),
                queue_order=np.arange(3),
            )
        with pytest.raises(ValueError, match="k"):
            BipartiteKernelArgs(index=idx, queries=A, batch=np.arange(3), k=0)


class TestSimilarityJoinModel:
    @pytest.mark.parametrize(
        "preset", ["gpucalcglobal", "k8", "workqueue", "workqueue_k8"]
    )
    def test_model_matches_vm(self, preset, datasets):
        A, B = datasets
        cfg = PRESETS[preset].with_(batch_result_capacity=2500)
        costs = CostParams(c_emit=0.0)
        rt = RuntimeConfig(optimization=cfg, costs=costs, seed=9)
        vm = SimilarityJoin(runtime=rt).execute(A, B, 0.3)
        model = PerformanceModel(costs=costs, seed=9)
        run = model.estimate_bipartite(model.profile_bipartite(A, B, 0.3), cfg)
        assert run.num_batches == vm.num_batches
        assert run.kernel_seconds == pytest.approx(vm.kernel_seconds, rel=1e-12)
        assert run.warp_execution_efficiency == pytest.approx(
            vm.warp_execution_efficiency, rel=1e-12
        )
        assert run.total_result_rows == vm.num_pairs

    def test_model_rejects_half_pattern(self, datasets):
        A, B = datasets
        model = PerformanceModel()
        profile = model.profile_bipartite(A, B, 0.3)
        with pytest.raises(ValueError, match="pattern='full'"):
            model.estimate_bipartite(profile, PRESETS["lidunicomp"])

    def test_workqueue_improves_wee_on_skewed_inner(self, datasets):
        A, B = datasets
        model = PerformanceModel(seed=2)
        profile = model.profile_bipartite(A, B, 0.3)
        base = model.estimate_bipartite(profile, PRESETS["gpucalcglobal"])
        queue = model.estimate_bipartite(profile, PRESETS["workqueue_k8"])
        assert queue.warp_execution_efficiency > base.warp_execution_efficiency


class TestBipartiteBalancedModel:
    def test_balanced_model_matches_vm(self, datasets):
        A, B = datasets
        cfg = PRESETS["workqueue"].with_(
            balanced_batches=True, batch_result_capacity=1500
        )
        costs = CostParams(c_emit=0.0)
        rt = RuntimeConfig(optimization=cfg, costs=costs, seed=6)
        vm = SimilarityJoin(runtime=rt).execute(A, B, 0.3)
        model = PerformanceModel(costs=costs, seed=6)
        run = model.estimate_bipartite(model.profile_bipartite(A, B, 0.3), cfg)
        assert run.num_batches == vm.num_batches > 1
        assert run.kernel_seconds == pytest.approx(vm.kernel_seconds, rel=1e-12)

    def test_profile_reuse_across_configs(self, datasets):
        A, B = datasets
        model = PerformanceModel(seed=0)
        profile = model.profile_bipartite(A, B, 0.3)
        runs = [
            model.estimate_bipartite(profile, PRESETS[p])
            for p in ("gpucalcglobal", "workqueue", "workqueue_k8")
        ]
        assert len({r.total_result_rows for r in runs}) == 1

    def test_estimate_validation(self, datasets):
        A, B = datasets
        model = PerformanceModel()
        profile = model.profile_bipartite(A, B, 0.3)
        with pytest.raises(ValueError):
            profile.estimate(0.0, head=False)
