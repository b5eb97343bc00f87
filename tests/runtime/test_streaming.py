"""`JoinResult.iter_pairs` / `Runner.stream`: blocks ≡ the merged result."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import (
    PRESETS,
    ProfilingOptions,
    Runner,
    RuntimeConfig,
    SelfJoin,
    ShardingConfig,
    SimilarityJoin,
    compile_self_join,
)
from repro.grid import GridIndex
from repro.runtime import CheckpointConfig


def points(n=300, seed=0):
    return np.random.default_rng(seed).uniform(0.0, 10.0, size=(n, 2))


def concat(blocks):
    blocks = list(blocks)
    if not blocks:
        return np.empty((0, 2), dtype=np.int64)
    return np.concatenate(blocks)


@pytest.mark.parametrize("preset", ["gpucalcglobal", "workqueue", "combined"])
def test_fragments_concatenate_to_pairs(preset):
    result = SelfJoin(PRESETS[preset]).execute(points(), 0.7)
    assert result.fragments is not None
    assert len(result.fragments) == result.num_batches
    np.testing.assert_array_equal(concat(result.fragments), result.pairs)


@pytest.mark.parametrize("chunk", [1, 7, 100, 10_000])
def test_chunked_iteration_matches_pairs(chunk):
    result = SelfJoin(PRESETS["combined"]).execute(points(), 0.7)
    blocks = list(result.iter_pairs(chunk=chunk))
    assert all(len(b) == chunk for b in blocks[:-1])
    assert len(blocks[-1]) <= chunk
    np.testing.assert_array_equal(concat(blocks), result.pairs)


def test_natural_blocks_match_pairs_and_skip_empties():
    result = SelfJoin(PRESETS["sortbywl"]).execute(points(), 0.7)
    blocks = list(result.iter_pairs())
    assert all(len(b) for b in blocks)
    np.testing.assert_array_equal(concat(blocks), result.pairs)


def test_bipartite_streaming_matches():
    rng = np.random.default_rng(3)
    left, right = rng.uniform(0, 10, (150, 2)), rng.uniform(0, 10, (200, 2))
    result = SimilarityJoin(PRESETS["gpucalcglobal"]).execute(left, right, 0.8)
    np.testing.assert_array_equal(concat(result.iter_pairs(chunk=64)), result.pairs)


@pytest.mark.parametrize("resumed", [False, True], ids=["run", "resumed"])
@pytest.mark.parametrize("engine", ["vectorized", "native"])
def test_fragments_are_views_of_pairs(engine, resumed, tmp_path):
    # each pair is stored once: the fragments slice the pair array, also
    # when a resumed run reads its shard back from the journal
    cfg = dataclasses.replace(PRESETS["combined"], batch_result_capacity=400)
    journal = CheckpointConfig(directory=str(tmp_path), keep=True)
    rt = RuntimeConfig(optimization=cfg, engine=engine, checkpoint=journal)
    plan = compile_self_join(GridIndex(points(), 0.7), rt)
    runner = Runner()
    result = runner.run(plan)
    if resumed:
        result = runner.resume(plan)
        assert runner.last_checkpoint_stats.loads == 1
    assert len(result.fragments) > 1
    for fragment in result.fragments:
        assert np.shares_memory(fragment, result.pairs)
    np.testing.assert_array_equal(concat(result.fragments), result.pairs)


def test_pooled_result_falls_back_to_merged_pairs():
    rt = RuntimeConfig(optimization=PRESETS["combined"], sharding=ShardingConfig(num_devices=3))
    result = SelfJoin(runtime=rt).execute(points(), 0.7)
    assert result.fragments is None  # merge re-ordered; no per-batch blocks
    np.testing.assert_array_equal(concat(result.iter_pairs(chunk=97)), result.pairs)


def test_runner_stream_yields_result_blocks():
    pts = points()
    rt = RuntimeConfig(optimization=PRESETS["combined"])
    join = SelfJoin(rt)
    index = GridIndex(pts, 0.7)
    plan = join.compile(index)
    streamed = concat(Runner().stream(plan, chunk=50))
    reference = Runner().run(plan)
    np.testing.assert_array_equal(streamed, reference.pairs)


def test_keep_fragments_off_sheds_blocks():
    rt = RuntimeConfig(
        optimization=PRESETS["combined"],
        profiling=ProfilingOptions(keep_fragments=False),
    )
    result = SelfJoin(rt).execute(points(), 0.7)
    assert result.fragments is None
    # iter_pairs still streams, backed by the materialized pairs
    np.testing.assert_array_equal(concat(result.iter_pairs(chunk=33)), result.pairs)


def test_chunk_must_be_positive():
    result = SelfJoin(PRESETS["gpucalcglobal"]).execute(points(60), 0.7)
    with pytest.raises(ValueError, match="chunk"):
        next(result.iter_pairs(chunk=0))
