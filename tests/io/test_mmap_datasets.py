"""``load_dataset(..., mmap=True)``: memory-mapped dataset IO.

The mmap path must hand back a read-only view of the ``.npy`` file that
the grid build, the sampled result-size estimator and the native engine
can all consume without ever materializing a full resident copy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import PRESETS, Runner, RuntimeConfig, compile_self_join
from repro.baselines.bruteforce import brute_force_neighbor_counts
from repro.core.batching import estimate_result_size_detailed
from repro.grid import GridIndex
from repro.grid.query import grid_neighbor_counts
from repro.io import load_dataset, save_dataset


@pytest.fixture
def points(rng):
    return rng.uniform(0.0, 6.0, (400, 2))


@pytest.fixture
def mapped(tmp_path, points):
    path = tmp_path / "pts.npy"
    save_dataset(path, points)
    return load_dataset(path, mmap=True)


class TestLoadDatasetMmap:
    def test_roundtrip_returns_readonly_memmap(self, mapped, points):
        assert isinstance(mapped, np.memmap)
        assert not mapped.flags.writeable
        np.testing.assert_array_equal(np.asarray(mapped), points)

    def test_mmap_false_delegates_to_load_points(self, tmp_path, points):
        path = tmp_path / "pts.csv"
        save_dataset(path, points)
        loaded = load_dataset(path)
        np.testing.assert_allclose(loaded, points, rtol=1e-12)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nope.npy", mmap=True)

    def test_non_npy_rejected(self, tmp_path, points):
        path = tmp_path / "pts.npz"
        save_dataset(path, points)
        with pytest.raises(ValueError, match="npy"):
            load_dataset(path, mmap=True)

    def test_wrong_dtype_rejected(self, tmp_path):
        path = tmp_path / "f32.npy"
        np.save(path, np.zeros((8, 2), dtype=np.float32))
        with pytest.raises(ValueError, match="float64"):
            load_dataset(path, mmap=True)

    def test_wrong_shape_rejected(self, tmp_path):
        path = tmp_path / "flat.npy"
        np.save(path, np.zeros(16))
        with pytest.raises(ValueError, match="2-D"):
            load_dataset(path, mmap=True)


class TestMmapConsumers:
    def test_grid_build_preserves_backing(self, mapped):
        idx = GridIndex(mapped, 0.5)
        base = idx.points
        while base is not None and not isinstance(base, np.memmap):
            base = getattr(base, "base", None)
        assert isinstance(base, np.memmap)

    def test_estimator_matches_resident_copy(self, mapped, points):
        mm_idx = GridIndex(mapped, 0.5)
        res_idx = GridIndex(points, 0.5)
        a = estimate_result_size_detailed(mm_idx, sample_fraction=0.1)
        b = estimate_result_size_detailed(res_idx, sample_fraction=0.1)
        assert a.estimate == b.estimate

    def test_neighbor_counts_stay_sample_sized(self, mapped, points):
        # a duplicated query id gets its true count at every occurrence —
        # the sample-sized accumulation path, not an O(N) scratch array
        idx = GridIndex(mapped, 0.5)
        sample = np.array([7, 3, 7, 120, 3], dtype=np.int64)
        counts = grid_neighbor_counts(idx, sample)
        assert counts.shape == sample.shape
        assert np.array_equal(counts, brute_force_neighbor_counts(points, 0.5)[sample])

    def test_native_join_on_mmap_matches_resident(self, mapped, points):
        rc = RuntimeConfig(optimization=PRESETS["combined"], engine="native")
        mm = Runner().run(compile_self_join(GridIndex(mapped, 0.5), rc))
        res = Runner().run(compile_self_join(GridIndex(points, 0.5), rc))
        assert np.array_equal(mm.sorted_pairs(), res.sorted_pairs())
