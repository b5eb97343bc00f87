"""Integration: every optimization configuration on pathological inputs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import brute_force_pairs
from repro.core import PRESETS, SelfJoin
from repro.runtime import RuntimeConfig
from repro.data.adversarial import (
    ADVERSARIAL_GENERATORS,
    all_identical,
    cell_boundary_lattice,
    collinear,
    dense_core_sparse_halo,
    two_distant_blobs,
)

CONFIGS = ["gpucalcglobal", "unicomp", "lidunicomp", "combined", "combined_balanced"]


@pytest.mark.parametrize("dataset", sorted(ADVERSARIAL_GENERATORS))
@pytest.mark.parametrize("preset", CONFIGS)
def test_exact_on_adversarial(dataset, preset):
    pts = ADVERSARIAL_GENERATORS[dataset](120, 2, 7)
    eps = 1.0
    res = SelfJoin(PRESETS[preset]).execute(pts, eps)
    np.testing.assert_array_equal(res.sorted_pairs(), brute_force_pairs(pts, eps))


class TestGenerators:
    def test_all_identical(self):
        pts = all_identical(10, 3, seed=0)
        assert (pts == pts[0]).all()

    def test_lattice_shape_and_spacing(self):
        pts = cell_boundary_lattice(4, 2, epsilon=0.5)
        assert pts.shape == (16, 2)
        assert 0.5 in np.unique(pts)

    def test_lattice_validation(self):
        with pytest.raises(ValueError):
            cell_boundary_lattice(0)

    def test_collinear_degenerate_box(self):
        pts = collinear(50, 3, seed=0)
        spans = pts.max(axis=0) - pts.min(axis=0)
        assert np.allclose(spans, spans[0])

    def test_dense_core_fraction(self):
        pts = dense_core_sparse_halo(200, 2, core_fraction=0.5, seed=0)
        in_core = ((pts >= 0) & (pts <= 0.5)).all(axis=1).sum()
        assert in_core >= 100

    def test_dense_core_validation(self):
        with pytest.raises(ValueError):
            dense_core_sparse_halo(10, 2, core_fraction=1.0)

    def test_distant_blobs_span(self):
        pts = two_distant_blobs(40, 2, seed=0)
        assert pts[:, 0].max() - pts[:, 0].min() > 5e3


class TestBoundarySemantics:
    def test_pairs_at_exactly_epsilon_included(self):
        """dist(p, q) == eps must be in the result (<= predicate)."""
        pts = cell_boundary_lattice(3, 2, epsilon=1.0)
        res = SelfJoin().execute(pts, 1.0)
        got = set(map(tuple, res.pairs.tolist()))
        # horizontal lattice neighbors are exactly 1.0 apart
        assert any(
            (i, j) in got
            for i in range(9)
            for j in range(9)
            if i != j and np.isclose(np.linalg.norm(pts[i] - pts[j]), 1.0)
        )
        np.testing.assert_array_equal(res.sorted_pairs(), brute_force_pairs(pts, 1.0))

    def test_identical_points_quadratic_result(self):
        pts = all_identical(30, 2, seed=1)
        res = SelfJoin(PRESETS["combined"]).execute(pts, 0.1)
        assert res.num_pairs == 30 * 30

    def test_distant_blobs_no_cross_pairs(self):
        pts = two_distant_blobs(60, 2, seed=2)
        res = SelfJoin().execute(pts, 2.0)
        half = 30
        cross = (res.pairs[:, 0] < half) != (res.pairs[:, 1] < half)
        assert not cross.any()


class TestModelOnAdversarial:
    @pytest.mark.parametrize("dataset", sorted(ADVERSARIAL_GENERATORS))
    def test_model_agrees_with_vm(self, dataset):
        from repro.perfmodel import PerformanceModel
        from repro.simt import CostParams

        pts = ADVERSARIAL_GENERATORS[dataset](100, 2, 3)
        costs = CostParams(c_emit=0.0)
        cfg = PRESETS["combined"]
        rt = RuntimeConfig(optimization=cfg, costs=costs, seed=1)
        vm = SelfJoin(runtime=rt).execute(pts, 1.0)
        model = PerformanceModel(costs=costs, seed=1)
        run = model.estimate(model.profile(pts, 1.0), cfg)
        assert run.kernel_seconds == pytest.approx(vm.kernel_seconds, rel=1e-12)
        assert run.total_result_rows == vm.num_pairs
