"""The walk of an id list (the estimator's sample) against the whole-index walk.

``iter_candidate_blocks`` walks an explicit id list by probing only the
distinct cells of those ids; the whole-index walk reads every offset's
memoized all-cells ranks. For any id list, ``grid_neighbor_counts`` and
``estimate_result_size_detailed`` must equal what the whole-index walk
counts for those ids (:func:`_whole_index_counts`), on sparse
(``searchsorted``) and dense rank tables, in 1–6 dimensions, for ids in
edge cells, repeated ids and the empty list. An estimate on a fresh
index must not build or memoize any all-cells ranks.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batching import estimate_result_size_detailed
from repro.grid import GridIndex, neighbors
from repro.grid.neighbors import neighbor_offsets, neighbor_ranks_for_offset
from repro.grid.query import candidate_blocks, cell_runs, epsilon_filter, grid_neighbor_counts

#: 7.463412840658728 is the ε whose ``eps**2`` rounds one ulp below ``eps * eps``
EPSILONS = (0.5, 1.0, 7.463412840658728)


def _whole_index_counts(index, include_self):
    """Every point's ε-neighbor count from each offset's all-cells ranks."""
    ids = np.arange(index.num_points, dtype=np.int64)
    keep = epsilon_filter(index.points, index.points, index.epsilon)
    counts = np.zeros(index.num_points, dtype=np.int64)
    for off in neighbor_offsets(index.ndim):
        nbr = neighbor_ranks_for_offset(index, off)[index.point_cell_rank]
        for qi, slots in candidate_blocks(*cell_runs(index, ids, nbr)):
            cj = index.point_order[slots]
            hit = keep(qi, cj) if include_self else keep(qi, cj) & (qi != cj)
            np.add.at(counts, qi[hit], 1)
    return counts


def _index(points, eps, sparse):
    """A grid over ``points`` whose neighbor table is sparse or dense."""
    index = GridIndex(points, eps)
    limit = 0 if sparse else index.spec.total_cells
    with mock.patch.object(neighbors, "DENSE_CELLS_PER_NONEMPTY", limit):
        assert (index.neighbors.dense is None) == sparse
    return index


def _edge_ids(points):
    """The points at the low and high end of every dimension."""
    return np.concatenate([points.argmin(axis=0), points.argmax(axis=0)])


@st.composite
def cases(draw):
    """``(points, eps, ids)``: lattice points in 1–6 dimensions, some
    duplicated, and an id list with repeats and every edge point."""
    ndim = draw(st.integers(1, 6))
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    eps = draw(st.sampled_from(EPSILONS))
    side = draw(st.integers(1, 6))
    points = rng.integers(0, side + 1, (n, ndim)) * (eps / 2)
    if draw(st.booleans()):  # off the lattice too
        points = points + rng.uniform(0, eps, (n, ndim))
    copies = draw(st.integers(0, n // 2))
    points[rng.integers(0, n, copies)] = points[rng.integers(0, n, copies)]
    ids = rng.integers(0, n, draw(st.integers(0, 2 * n)))
    if draw(st.booleans()):
        ids = np.concatenate([ids, _edge_ids(points)])
    return points, eps, rng.permutation(ids)


@given(case=cases(), sparse=st.booleans(), include_self=st.booleans())
@settings(max_examples=settings.default.max_examples)
def test_id_list_counts_match_whole_index_walk(case, sparse, include_self):
    points, eps, ids = case
    index = _index(points, eps, sparse)
    counts = grid_neighbor_counts(index, ids, include_self=include_self)
    assert index.neighbors.memo_bytes == 0
    expect = _whole_index_counts(index, include_self)
    assert counts.tobytes() == expect.take(ids).tobytes()
    assert grid_neighbor_counts(index, include_self=include_self).tobytes() == expect.tobytes()

    est = estimate_result_size_detailed(
        _index(points, eps, sparse), sample_fraction=1.0, subset=ids, include_self=include_self
    )
    sample = expect.take(ids)
    assert est.estimate == int(sample.sum())
    assert est.sample_size == est.population == len(ids)
    if len(ids):
        assert est.mean_per_point == float(sample.mean())
        assert est.variance_per_point == (float(sample.var(ddof=1)) if len(ids) > 1 else 0.0)


@pytest.mark.parametrize("sparse", [True, False])
@pytest.mark.parametrize("ndim", [1, 2, 3, 6])
def test_edge_and_repeated_ids(sparse, ndim):
    rng = np.random.default_rng(ndim)
    points = rng.integers(0, 5, (80, ndim)) * 0.5
    index = _index(points, 1.0, sparse)
    ids = np.concatenate([_edge_ids(points), _edge_ids(points)[::-1], [7, 7, 7, 0]])
    expect = _whole_index_counts(index, include_self=True)
    got = grid_neighbor_counts(_index(points, 1.0, sparse), ids)
    assert got.tobytes() == expect.take(ids).tobytes()


def test_empty_id_list():
    index = GridIndex(np.random.default_rng(0).uniform(0, 4, (50, 3)), 1.0)
    assert grid_neighbor_counts(index, np.empty(0, dtype=np.int64)).shape == (0,)
    est = estimate_result_size_detailed(index, subset=np.empty(0, dtype=np.int64))
    assert (est.estimate, est.sample_size, est.population) == (0, 0, 0)
    assert index.neighbors.memo_bytes == 0


@pytest.mark.parametrize("sparse", [True, False])
def test_estimate_on_fresh_index_builds_no_all_cells_ranks(sparse):
    points = np.random.default_rng(1).uniform(0, 30, (3000, 2))
    index = _index(points, 0.5, sparse)
    ranks = mock.Mock(wraps=neighbor_ranks_for_offset)
    with mock.patch("repro.grid.query.neighbor_ranks_for_offset", ranks):
        est = estimate_result_size_detailed(index, sample_fraction=0.01)
        assert est.sample_size == 30 and est.estimate > 0
        assert not ranks.called
        assert index.neighbors.memo_bytes == 0
        # the whole-index walk still reads the memoized ranks, every offset
        grid_neighbor_counts(index)
        assert ranks.call_count == 9
        assert index.neighbors.memo_bytes > 0
