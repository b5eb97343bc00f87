"""Differential property test of the native engine against the brute-force oracle.

Every native path — one device or an inline pool of 2 or 3 shards,
resident or memory-mapped points, ``include_self`` on and off, the
SORTBYWL (``combined``) and natural (``gpucalcglobal``) query orders —
must return ``baselines.bruteforce``'s pair set on small adversarial
datasets: 1–8 dimensions, 0–60 points, duplicated points, a pair at
exactly ε and coordinates offset by 1e6. The three constructions of
``TestBoundarySemantics`` are pinned as examples. Single-device results
must also keep their fragments as row views that tile ``pairs``.
"""

from __future__ import annotations

import itertools
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import (
    PRESETS,
    GridIndex,
    Runner,
    RuntimeConfig,
    ShardingConfig,
    compile_self_join,
    compile_similarity_join,
)
from repro.baselines import brute_force_pairs
from repro.io import load_dataset, save_dataset
from tests.integration.test_adversarial import _order_sensitive_pair

#: 7.463412840658728 is the ε whose ``eps**2`` rounds one ulp below ``eps * eps``
EPSILONS = (0.5, 1.0, 7.463412840658728)
SELF_PRESETS = ("combined", "gpucalcglobal")


@st.composite
def datasets(draw):
    ndim = draw(st.integers(1, 8))
    n = draw(st.integers(0, 60))
    eps = draw(st.sampled_from(EPSILONS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.uniform(0.0, 3.0 * eps, (n, ndim))
    if n >= 2 and draw(st.booleans()):  # duplicated points
        k = draw(st.integers(1, n // 2))
        points[n - k :] = points[:k]
    if n >= 2 and draw(st.booleans()):  # a pair at exactly ε
        points[:2] = 0.0
        points[1, 0] = eps
    if draw(st.booleans()):
        points += 1e6
    return points, eps


def _cross_oracle(queries, points, eps):
    """Brute-force A ⋈ B pairs ``(a, b)``, from the self-join of A ∪ B."""
    pairs = brute_force_pairs(np.concatenate([queries, points]), eps)
    na = len(queries)
    cross = pairs[(pairs[:, 0] < na) & (pairs[:, 1] >= na)]
    return np.column_stack([cross[:, 0], cross[:, 1] - na])


def _assert_fragments_tile(result):
    """Fragments are consecutive row views of ``pairs`` that cover it."""
    if result.fragments is None:  # a pooled merge re-orders the pairs
        return
    at = 0
    for fragment in result.fragments:
        assert fragment.base is result.pairs
        assert np.array_equal(fragment, result.pairs[at : at + len(fragment)])
        if len(fragment):
            offset = fragment.ctypes.data - result.pairs.ctypes.data
            assert offset == at * result.pairs.strides[0]
        at += len(fragment)
    assert at == result.num_pairs


def _runtime(preset, devices, **kw):
    sharding = ShardingConfig(num_devices=devices) if devices > 1 else None
    return RuntimeConfig(
        optimization=PRESETS[preset], engine="native", sharding=sharding, seed=0, **kw
    )


def _storages(points, tmp):
    path = Path(tmp) / "points.npy"
    save_dataset(path, points)
    return {"resident": points, "mmap": load_dataset(path, mmap=True)}


_EPS_SQUARED_LOW = (np.array([[0.0, 0.0], [7.463412840658728, 0.0]]), 7.463412840658728)
#: (storage, devices, include_self, preset) — every native self-join path
PATHS = tuple(itertools.product(("resident", "mmap"), (1, 2, 3), (True, False), SELF_PRESETS))


def _check_self_join(points, eps, path):
    storage, devices, include_self, preset = path
    expect = brute_force_pairs(points, eps, include_self=include_self)
    with tempfile.TemporaryDirectory() as tmp:
        data = _storages(points, tmp)[storage]
        rt = _runtime(preset, devices, include_self=include_self)
        result = Runner().run(compile_self_join(GridIndex(data, eps), rt))
        assert np.array_equal(result.canonical_pairs(), expect), path
        _assert_fragments_tile(result)


# One path per example: the whole matrix costs ~20 s per 8-D dataset
# (3⁸ offsets through SORTBYWL, the shard planner and the pass), so
# Hypothesis draws the path with the data, and the fixed dataset below
# runs every path.
@given(case=datasets(), path=st.sampled_from(PATHS))
@example(case=_EPS_SQUARED_LOW, path=("mmap", 3, True, "combined"))
@example(case=_EPS_SQUARED_LOW, path=("resident", 2, False, "gpucalcglobal"))
@example(case=_order_sensitive_pair(threshold="numpy"), path=("resident", 1, True, "combined"))
@example(case=_order_sensitive_pair(threshold="numpy"), path=("mmap", 2, False, "gpucalcglobal"))
@example(case=_order_sensitive_pair(threshold="ordered"), path=("mmap", 3, True, "gpucalcglobal"))
@example(case=_order_sensitive_pair(threshold="ordered"), path=("resident", 1, False, "combined"))
@settings(max_examples=settings.default.max_examples * 3 // 2)
def test_native_self_join_matches_oracle(case, path):
    _check_self_join(*case, path)


def _fixed_dataset():
    """3-D: dense and sparse cells, duplicates, an exact-ε pair, offset 1e6."""
    rng = np.random.default_rng(18)
    points = np.concatenate([rng.uniform(0.0, 0.6, (30, 3)), rng.uniform(0.0, 3.0, (30, 3))])
    points[50:] = points[:10]
    points[:2] = 0.0
    points[1, 0] = 0.5
    return points + 1e6, 0.5


@pytest.mark.parametrize("path", PATHS, ids=lambda path: "-".join(map(str, path)))
def test_every_self_join_path_on_fixed_dataset(path):
    _check_self_join(*_fixed_dataset(), path)


@given(
    case=datasets(),
    num_queries=st.integers(0, 30),
    seed=st.integers(0, 2**32 - 1),
    path=st.sampled_from(tuple(itertools.product(("resident", "mmap"), (1, 2)))),
)
@example(case=_EPS_SQUARED_LOW, num_queries=0, seed=0, path=("mmap", 2))
@settings(max_examples=settings.default.max_examples * 3 // 4)
def test_native_bipartite_sweep_matches_oracle(case, num_queries, seed, path):
    points, eps = case
    storage, devices = path
    rng = np.random.default_rng(seed)
    ndim = points.shape[1]
    lo = points.min(axis=0) if len(points) else np.zeros(ndim)
    near = lo + rng.uniform(-eps, 4.0 * eps, (num_queries, ndim))
    queries = np.concatenate([points[: num_queries // 2], near])
    expect = _cross_oracle(queries, points, eps)
    with tempfile.TemporaryDirectory() as tmp:
        data = _storages(points, tmp)[storage]
        rt = _runtime("gpucalcglobal", devices)
        result = Runner().run(compile_similarity_join(GridIndex(data, eps), queries, rt))
        assert np.array_equal(result.canonical_pairs(), expect), path
        _assert_fragments_tile(result)


def test_process_backend_matches_oracle():
    points, eps = _fixed_dataset()
    expect = brute_force_pairs(points, eps, include_self=False)
    rt = RuntimeConfig(
        optimization=PRESETS["combined"],
        engine="native",
        sharding=ShardingConfig(num_devices=2, workers="process"),
        include_self=False,
        seed=0,
    )
    with tempfile.TemporaryDirectory() as tmp:
        for storage, data in _storages(points, tmp).items():
            result = Runner().run(compile_self_join(GridIndex(data, eps), rt))
            assert np.array_equal(result.canonical_pairs(), expect), storage
