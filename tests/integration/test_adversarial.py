"""Integration: every optimization configuration on pathological inputs."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.baselines import brute_force_pairs
from repro.core import PRESETS, SelfJoin
from repro.ego import SuperEgo
from repro.grid import GridIndex
from repro.grid.bipartite import bipartite_pairs
from repro.grid.query import grid_selfjoin_pairs
from repro.io import load_dataset
from repro.runtime import (
    Runner,
    RuntimeConfig,
    compile_self_join,
    compile_similarity_join,
)
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


def _order_sensitive_pair(*, threshold: str):
    """Two 8-D points and an ε at which summation order decides the pair.

    Draws ``a ~ U(0,1)^8`` and ``b = a + U(-0.3, 0.3)^8`` from
    ``default_rng(1)`` until NumPy's ``.sum`` of the squared differences
    and their dimension-order sum differ, the smaller one is the
    ``threshold`` sum, and it is some float's square: ε is that root.
    """
    rng = np.random.default_rng(1)
    while True:
        a = rng.uniform(0.0, 1.0, 8)
        b = a + rng.uniform(-0.3, 0.3, 8)
        sq = (a - b) ** 2
        numpy_sum = float(sq[None, :].sum(axis=1)[0])
        ordered = 0.0
        for x in sq:
            ordered += float(x)
        sums = {"numpy": numpy_sum, "ordered": ordered}
        low = sums[threshold]
        eps = math.sqrt(low)
        if numpy_sum != ordered and low == min(sums.values()) and eps * eps == low:
            return np.stack([a, b]), eps


def _assert_every_path(points, eps, tmp_path, expected):
    """Every engine, plan, storage and reference join yields ``expected``."""
    path = tmp_path / "points.npy"
    np.save(path, points)
    storages = {"resident": points, "mmap": load_dataset(path, mmap=True)}
    got = {}
    for engine in ("native", "vectorized", "interpreted"):
        rt = RuntimeConfig(engine=engine)
        for storage, data in storages.items():
            if storage == "mmap" and engine != "native":
                continue
            plans = {
                "self": compile_self_join(GridIndex(data, eps), rt),
                "similarity": compile_similarity_join(GridIndex(data, eps), data, rt),
            }
            for kind, plan in plans.items():
                got[f"{engine}/{storage}/{kind}"] = Runner().run(plan).sorted_pairs()
    index = GridIndex(points, eps)
    for name, pairs in (
        ("grid_selfjoin_pairs", grid_selfjoin_pairs(index)),
        ("bipartite_pairs", bipartite_pairs(index, points)),
    ):
        got[name] = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    got["superego"] = SuperEgo().join(points, eps).sorted_pairs()
    got["brute_force"] = brute_force_pairs(points, eps)
    wrong = [name for name, pairs in got.items() if not np.array_equal(pairs, expected)]
    assert not wrong, f"paths disagreeing with {expected.tolist()}: {wrong}"


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

    # Two points, d2 one ulp from ε·ε: every join path must agree on the
    # pair (the contract of repro.grid.query.within_epsilon).
    SELF_ONLY = np.array([[0, 0], [1, 1]])
    BOTH = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])

    def test_pair_where_epsilon_squared_rounds_low_kept_everywhere(self, tmp_path):
        eps = 7.463412840658728
        assert eps**2 == 55.702531230109585 and eps * eps == 55.70253123010959
        pts = np.array([[0.0, 0.0], [eps, 0.0]])
        _assert_every_path(pts, eps, tmp_path, self.BOTH)

    def test_8d_pair_dropped_when_numpy_sum_equals_threshold(self, tmp_path):
        pts, eps = _order_sensitive_pair(threshold="numpy")
        assert eps * eps == 0.2218329852950977
        _assert_every_path(pts, eps, tmp_path, self.SELF_ONLY)

    def test_8d_pair_kept_when_ordered_sum_equals_threshold(self, tmp_path):
        pts, eps = _order_sensitive_pair(threshold="ordered")
        assert eps * eps == 0.38685189996676245
        _assert_every_path(pts, eps, tmp_path, self.BOTH)

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
