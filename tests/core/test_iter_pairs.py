"""`JoinResult.iter_pairs(chunk=)` edge cases.

The streaming serving layer consumes results exclusively through
``iter_pairs`` fragments, so the contract — the concatenation of every
yielded block equals ``pairs`` exactly, rows in order — is pinned here
over every boundary shape: chunk larger than the result, chunk of one,
empty results, and chunks that straddle fragment boundaries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SelfJoin
from repro.data.adversarial import dense_core_sparse_halo
from repro.runtime import RuntimeConfig

_EPS = 0.8


@pytest.fixture(scope="module")
def result():
    points = dense_core_sparse_halo(200, 2, seed=11)
    # small batch capacity → several fragments of uneven sizes
    from repro.core import OptimizationConfig

    cfg = OptimizationConfig(batch_result_capacity=1500)
    return SelfJoin(cfg).execute(points, _EPS)


def _reassemble(blocks):
    blocks = list(blocks)
    if not blocks:
        return np.empty((0, 2), dtype=np.int64)
    return np.concatenate(blocks)


def test_natural_fragments_reassemble_exactly(result):
    assert result.fragments is not None and len(result.fragments) > 1
    np.testing.assert_array_equal(_reassemble(result.iter_pairs()), result.pairs)


def test_chunk_larger_than_result(result):
    blocks = list(result.iter_pairs(chunk=result.num_pairs * 10))
    assert len(blocks) == 1
    np.testing.assert_array_equal(blocks[0], result.pairs)


def test_chunk_exactly_result_size(result):
    blocks = list(result.iter_pairs(chunk=result.num_pairs))
    assert len(blocks) == 1
    np.testing.assert_array_equal(blocks[0], result.pairs)


def test_chunk_of_one(result):
    blocks = list(result.iter_pairs(chunk=1))
    assert len(blocks) == result.num_pairs
    assert all(len(b) == 1 for b in blocks)
    np.testing.assert_array_equal(_reassemble(blocks), result.pairs)


@pytest.mark.parametrize("chunk", [2, 7, 64, 1000])
def test_chunks_straddle_fragment_boundaries(result, chunk):
    # chunk sizes coprime with the fragment sizes force re-slicing across
    # fragment boundaries; every block except the tail is exactly `chunk`
    blocks = list(result.iter_pairs(chunk=chunk))
    assert all(len(b) == chunk for b in blocks[:-1])
    assert 1 <= len(blocks[-1]) <= chunk
    np.testing.assert_array_equal(_reassemble(blocks), result.pairs)


def test_invalid_chunk_raises(result):
    with pytest.raises(ValueError, match="chunk"):
        next(result.iter_pairs(chunk=0))


def test_empty_result_yields_nothing():
    points = np.array([[0.0, 0.0], [100.0, 100.0]])
    result = SelfJoin(runtime=RuntimeConfig(include_self=False)).execute(points, 0.5)
    assert result.num_pairs == 0
    assert list(result.iter_pairs()) == []
    assert list(result.iter_pairs(chunk=5)) == []


def test_fragmentless_result_falls_back_to_pairs_view(result):
    from dataclasses import replace

    merged = replace(result, fragments=None)
    np.testing.assert_array_equal(_reassemble(merged.iter_pairs()), result.pairs)
    blocks = list(merged.iter_pairs(chunk=37))
    assert all(len(b) == 37 for b in blocks[:-1])
    np.testing.assert_array_equal(_reassemble(blocks), result.pairs)
