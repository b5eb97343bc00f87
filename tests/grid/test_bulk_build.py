"""``GridIndex(..., method="sorted")``: the vectorized bulk construction.

The sorted build derives cell boundaries from one stable argsort instead
of per-cell ``np.unique`` bookkeeping; the ``"unique"`` path stays as the
oracle. Every derived array must be byte-identical between the two.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.grid import BUILD_METHODS, GridIndex

_ARRAYS = ("point_order", "cell_ids", "cell_starts", "cell_counts", "point_cell_rank")


def _datasets():
    rng = np.random.default_rng(42)
    return {
        "uniform_2d": rng.uniform(0.0, 10.0, (500, 2)),
        "uniform_3d": rng.uniform(0.0, 4.0, (300, 3)),
        "clustered": np.concatenate(
            [rng.normal(1.0, 0.05, (200, 2)), rng.uniform(0.0, 9.0, (200, 2))]
        ),
        "single_point": rng.uniform(0.0, 1.0, (1, 2)),
        "duplicates": np.repeat(rng.uniform(0.0, 5.0, (20, 2)), 10, axis=0),
    }


class TestSortedMatchesUnique:
    @pytest.mark.parametrize("name", sorted(_datasets()))
    def test_identical_arrays(self, name):
        points = _datasets()[name]
        built = {
            method: GridIndex(points, 0.5, method=method) for method in BUILD_METHODS
        }
        for attr in _ARRAYS:
            a = getattr(built["sorted"], attr)
            b = getattr(built["unique"], attr)
            assert a.dtype == b.dtype, attr
            assert np.array_equal(a, b), f"{name}: {attr} diverges between builds"

    def test_all_points_in_one_cell(self):
        # epsilon larger than the extent: the whole dataset collapses into
        # a single grid cell — the degenerate boundary case of the
        # flatnonzero boundary derivation (no interior boundaries at all)
        points = np.random.default_rng(7).uniform(0.0, 0.5, (64, 2))
        for method in BUILD_METHODS:
            idx = GridIndex(points, 10.0, method=method)
            assert idx.num_nonempty_cells == 1
            assert idx.cell_counts.tolist() == [64]
            assert idx.cell_starts.tolist() == [0]
            assert np.array_equal(idx.point_cell_rank, np.zeros(64, dtype=np.int64))
        sorted_idx = GridIndex(points, 10.0, method="sorted")
        unique_idx = GridIndex(points, 10.0, method="unique")
        assert np.array_equal(sorted_idx.point_order, unique_idx.point_order)


class TestBuildApi:
    def test_default_method_is_sorted(self):
        assert BUILD_METHODS[0] == "sorted"

    def test_unknown_method_rejected(self):
        points = np.zeros((4, 2))
        with pytest.raises(ValueError, match="method"):
            GridIndex(points, 1.0, method="hashed")

    def test_selfjoin_pairs_identical_between_methods(self):
        from repro.grid.query import grid_selfjoin_pairs

        points = np.random.default_rng(9).uniform(0.0, 5.0, (300, 2))
        pair_sets = {
            method: grid_selfjoin_pairs(GridIndex(points, 0.4, method=method))
            for method in BUILD_METHODS
        }
        assert np.array_equal(pair_sets["sorted"], pair_sets["unique"])


def _linear(index):
    return index.spec.linearize(index.spec.cell_coords(index.points))


def _overflows(linear):
    """The build's fallback condition: a key ``linear · N + i`` could overflow."""
    return len(linear) > 0 and (int(linear.max()) + 1) * len(linear) > np.iinfo(np.int64).max


class TestOneKeySort:
    """``point_order`` comes from one sort of the unique key ``linear · N + i``
    (or the stable argsort when the key could overflow); either way it is
    the stable argsort's permutation, byte for byte."""

    @pytest.mark.parametrize(
        "name, points, epsilon",
        [(name, points, 0.5) for name, points in sorted(_datasets().items())]
        + [
            ("empty", np.empty((0, 2)), 0.5),
            ("one_cell", np.random.default_rng(7).uniform(0.0, 0.5, (64, 2)), 10.0),
            ("one_point", np.array([[0.25, 0.75]]), 0.1),
        ],
    )
    def test_key_sort_equals_stable_argsort(self, name, points, epsilon):
        index = GridIndex(points, epsilon)
        linear = _linear(index)
        assert not _overflows(linear)
        reference = np.argsort(linear, kind="stable")
        assert index.point_order.dtype == reference.dtype
        assert np.array_equal(index.point_order, reference), name

    @pytest.mark.parametrize("n", [10, 500])
    def test_overflowing_key_falls_back_to_stable_argsort(self, n):
        # ε = 1e-9 over a unit box: ~1e18 cells, so linear · N overflows
        rng = np.random.default_rng(n)
        points = np.concatenate([[[0.0, 0.0], [1.0, 1.0]], rng.uniform(0.0, 1.0, (n, 2))])
        points = np.concatenate([points, points[:3]])  # duplicates share a cell
        index = GridIndex(points, 1e-9)
        linear = _linear(index)
        assert _overflows(linear)
        assert np.array_equal(index.point_order, np.argsort(linear, kind="stable"))
        unique = GridIndex(points, 1e-9, method="unique")
        for attr in _ARRAYS:
            assert np.array_equal(getattr(index, attr), getattr(unique, attr)), attr
