"""Differential test of the kNN rounds' finalization (``KnnExpansion.absorb``).

``absorb`` orders a round's finished rows by (query, distance, neighbor
id) with one argsort of the unique int64 key ``(q · R + rank(d)) · n +
nb`` and falls back to ``np.lexsort`` when that key could overflow.
:func:`_lexsort_absorb` keeps the three-key ``lexsort`` formulation it
replaced as the reference. Both are fed the same brute-force rounds, in a
drawn row order, and must leave ``indices``, ``distances``, ``rounds``
and the pending set equal bit for bit after every round. The draws make
the tie-breaks decide: integer-lattice coordinates (tied distances),
duplicated points (d = 0 between distinct ids), k from 1 to n − 1, 1–9
dimensions (NumPy's ``norm`` sums pairwise from 8 up) and an ε₀ that
keeps the first two rounds below the smallest non-zero distance, so a
query without k exact copies takes at least 3 rounds.
"""

from __future__ import annotations

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid.query import within_epsilon
from repro.runtime import ops
from repro.runtime.ops import KnnJoinOp


def _lexsort_absorb(state, result) -> None:
    """``KnnExpansion.absorb`` as it was with one segmented ``np.lexsort``."""
    op, pending, k = state.op, state.pending, state.op.k
    pairs = result.pairs
    pairs = pairs[pending[pairs[:, 0]] != pairs[:, 1]]  # drop self matches
    counts = np.bincount(pairs[:, 0], minlength=len(pending))
    done_rows = counts[pairs[:, 0]] >= k
    if done_rows.any():
        q = pairs[done_rows, 0]
        nb = pairs[done_rows, 1]
        d = np.linalg.norm(op.points[nb] - op.points[pending[q]], axis=1)
        order = np.lexsort((nb, d, q))
        qs, nbs, ds = q[order], nb[order], d[order]
        pos = np.arange(len(qs)) - np.searchsorted(qs, qs, side="left")
        top = pos < k
        q_global = pending[qs[top]]
        state.indices[q_global, pos[top]] = nbs[top]
        state.distances[q_global, pos[top]] = ds[top]
    state.pending = pending[counts < k]
    state.epsilon *= op.growth
    state.rounds += 1
    state.total_seconds += float(result.total_seconds)


def _round(points, pending, epsilon, rng, dtype):
    """One round's result: every (pending-local query, point id) pair
    within ``epsilon``, self matches included, rows in a random order.
    A round resumed from a journal holds int32 pairs."""
    q, c = np.divmod(np.arange(len(pending) * len(points)), len(points))
    keep = within_epsilon((points[pending[q]] - points[c]).T, epsilon)
    pairs = np.column_stack([q[keep], c[keep]]).astype(dtype)
    return SimpleNamespace(pairs=pairs[rng.permutation(len(pairs))], total_seconds=0.0)


def _assert_rounds_agree(points, k, epsilon0, growth, seed, dtype=np.int64) -> int:
    """Run both finalizations round by round on the same results; return
    the number of rounds."""
    op = KnnJoinOp(points, k, epsilon0=epsilon0, growth=growth, max_rounds=64)
    got, ref = op.expansion(), op.expansion()
    rng = np.random.default_rng(seed)
    while not got.done:
        result = _round(op.points, got.pending, got.epsilon, rng, dtype)
        got.absorb(result)
        _lexsort_absorb(ref, result)
        assert got.rounds == ref.rounds
        assert got.pending.tobytes() == ref.pending.tobytes()
        assert got.indices.tobytes() == ref.indices.tobytes()
        assert got.distances.tobytes() == ref.distances.tobytes()
    assert ref.done
    result = got.result()
    assert result.indices.tobytes() == ref.indices.tobytes()
    assert result.distances.tobytes() == ref.distances.tobytes()
    return result.rounds


@st.composite
def lattices(draw):
    """``(points, k)``: lattice points in 1–9 dimensions, some duplicated."""
    ndim = draw(st.integers(1, 9))
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    side = draw(st.integers(1, 4))
    points = rng.integers(-side, side + 1, (n, ndim)).astype(np.float64)
    copies = draw(st.integers(0, n // 2))
    points[rng.choice(n, copies, replace=False)] = points[rng.integers(0, n, copies)]
    points *= draw(st.sampled_from([1.0, 0.1, 7.463412840658728]))
    return points, draw(st.integers(1, n - 1))


@given(
    case=lattices(),
    growth=st.sampled_from([1.5, 2.0, 3.0]),
    fallback=st.booleans(),
    dtype=st.sampled_from([np.int64, np.int32]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=settings.default.max_examples)
def test_absorb_matches_lexsort_formulation(case, growth, fallback, dtype, seed):
    points, k = case
    diffs = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
    smallest = diffs[diffs > 0].min(initial=1.0)
    # the first two rounds stay below every non-zero distance, and a
    # query finishes early only on k exact copies of itself
    epsilon0 = smallest / (2.0 * growth)
    with mock.patch.object(ops, "_KNN_KEY_MAX", 0 if fallback else ops._KNN_KEY_MAX):
        rounds = _assert_rounds_agree(points, k, epsilon0, growth, seed, dtype)
    assert rounds >= 3 or all(np.sum(diffs == 0, axis=1) > k)


def test_overflow_bound_falls_back_to_lexsort(monkeypatch):
    rng = np.random.default_rng(7)
    num_queries, n = 6, 9
    q, nb = np.divmod(rng.choice(num_queries * n, 40, replace=False), n)
    d = rng.integers(0, 4, 40).astype(np.float64)  # tied distances
    expect = np.lexsort((nb, d, q))
    largest = num_queries * len(np.unique(d)) * n
    lexsort = mock.Mock(wraps=np.lexsort)
    monkeypatch.setattr(np, "lexsort", lexsort)
    for bound, falls_back in ((largest, False), (largest - 1, True)):
        monkeypatch.setattr(ops, "_KNN_KEY_MAX", bound)
        lexsort.reset_mock()
        got = ops._knn_order(q, d, nb, num_queries, n)
        assert got.tobytes() == expect.tobytes()
        assert lexsort.called == falls_back


@pytest.mark.parametrize("fallback", [False, True])
def test_coincident_lattice_rounds(monkeypatch, fallback):
    # 9-D, three copies of each of 12 sites, k = 5: every answer mixes d = 0
    # copies with tied lattice neighbors
    rng = np.random.default_rng(3)
    sites = rng.integers(0, 2, (12, 9)).astype(np.float64)
    points = np.repeat(sites, 3, axis=0)[rng.permutation(36)]
    if fallback:
        monkeypatch.setattr(ops, "_KNN_KEY_MAX", 0)
    assert _assert_rounds_agree(points, 5, 0.25, 2.0, seed=0) >= 3
