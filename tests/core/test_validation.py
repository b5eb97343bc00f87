"""Satellite: malformed inputs fail loudly at the join entry points, not
as wrong answers (or NaN-poisoned grids) deep inside the pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SelfJoin, SimilarityJoin
from repro.runtime import RuntimeConfig, ShardingConfig

_POOLED = RuntimeConfig(sharding=ShardingConfig(num_devices=2))


@pytest.fixture
def good() -> np.ndarray:
    return np.random.default_rng(1).uniform(0.0, 5.0, size=(60, 2))


def _nan_poisoned(points: np.ndarray, row: int = 7) -> np.ndarray:
    bad = points.copy()
    bad[row, 0] = np.nan
    return bad


_SELF_FACADES = [
    lambda pts, eps: SelfJoin().execute(pts, eps),
    lambda pts, eps: SelfJoin(runtime=_POOLED).execute(pts, eps),
]
_BIPARTITE_FACADES = [
    lambda l, r, eps: SimilarityJoin().execute(l, r, eps),
    lambda l, r, eps: SimilarityJoin(runtime=_POOLED).execute(l, r, eps),
]


@pytest.mark.parametrize("run", _SELF_FACADES)
def test_selfjoin_rejects_nan_points(good, run):
    with pytest.raises(ValueError, match="NaN/inf"):
        run(_nan_poisoned(good), 0.5)


@pytest.mark.parametrize("run", _SELF_FACADES)
def test_selfjoin_rejects_inf_points(good, run):
    bad = good.copy()
    bad[3, 1] = np.inf
    with pytest.raises(ValueError, match="NaN/inf"):
        run(bad, 0.5)


@pytest.mark.parametrize("run", _SELF_FACADES)
@pytest.mark.parametrize("eps", [0.0, -1.0, np.nan, np.inf])
def test_selfjoin_rejects_bad_epsilon(good, run, eps):
    with pytest.raises(ValueError, match="epsilon"):
        run(good, eps)


@pytest.mark.parametrize("run", _BIPARTITE_FACADES)
def test_bipartite_rejects_nan_on_either_side(good, run):
    other = good + 0.1
    with pytest.raises(ValueError, match="NaN/inf"):
        run(_nan_poisoned(good), other, 0.5)
    with pytest.raises(ValueError, match="NaN/inf"):
        run(good, _nan_poisoned(other), 0.5)


@pytest.mark.parametrize("run", _BIPARTITE_FACADES)
@pytest.mark.parametrize("eps", [0.0, -2.5, np.nan])
def test_bipartite_rejects_bad_epsilon(good, run, eps):
    with pytest.raises(ValueError, match="epsilon"):
        run(good, good + 0.1, eps)


def test_error_message_locates_the_bad_row(good):
    bad = _nan_poisoned(good, row=42)
    with pytest.raises(ValueError, match="row: 42"):
        SelfJoin().execute(bad, 0.5)


def test_non_2d_points_rejected(good):
    with pytest.raises(ValueError, match="2-D"):
        SelfJoin().execute(np.zeros((2, 2, 2)), 0.5)
    with pytest.raises(ValueError, match="dimension"):
        SelfJoin().execute(np.zeros((5, 0)), 0.5)
