"""Differential property test of the native engine against the brute-force oracle.

Every native path — one device or an inline pool of 2 or 3 shards,
resident or memory-mapped points, ``include_self`` on and off, the
``combined`` and ``gpucalcglobal`` configs (one slot order for both) —
must return ``baselines.bruteforce``'s pair set on small adversarial
datasets: 1–8 dimensions, 0–60 points, duplicated points, a pair at
exactly ε and coordinates offset by 1e6. The three constructions of
``TestBoundarySemantics`` are pinned as examples. Each example also draws
the block bound of the runner's native launches (``chunk_pairs``) from
1 pair to 4M, and how often one index is walked: the first whole-index
walk is recorded, the second keeps its candidate runs on the neighbour
table if they fit the memo budget, and later walks replay them, so every
walk's pairs and fragments must be byte-identical to the first (a fresh
index). Each example also draws the width of the pool of threads that
refines the blocks (1 runs inline): pairs and fragments must be
byte-identical to an inline run. Single-device results must also keep
their fragments as row views that tile ``pairs``; shard subsets never
store runs. The bipartite sweep draws its preset from the five
full-pattern ones, which all visit the queries in id order, so a
single-device sweep's bytes must equal the ``gpucalcglobal`` run's.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import sys
import tempfile
import threading
import time
from pathlib import Path
from unittest import mock

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
from repro.grid.query import epsilon_filter
from repro.io import load_dataset, save_dataset
from repro.runtime import execute_shard_native, native
from repro.runtime import runner as runner_module
from repro.runtime.native import NATIVE_CHUNK_PAIRS
from repro.runtime.ops import BipartiteOp, SelfJoinOp
from tests.integration.test_adversarial import _order_sensitive_pair

#: 7.463412840658728 is the ε whose ``eps**2`` rounds one ulp below ``eps * eps``
EPSILONS = (0.5, 1.0, 7.463412840658728)
SELF_PRESETS = ("combined", "gpucalcglobal")
#: the full-pattern presets a similarity join accepts (one query order for all)
BIPARTITE_PRESETS = ("gpucalcglobal", "k8", "sortbywl", "workqueue", "workqueue_k8")
#: native block bounds: one pair, tiny, the engine's default, the VM's
CHUNKS = (1, 3, 64, NATIVE_CHUNK_PAIRS, 4_000_000)
#: refinement pool widths: inline, the 2-core host's, more threads than cores
WIDTHS = (1, 2, 3)


@contextlib.contextmanager
def _pool_width(width):
    """Native passes on a fresh refinement pool sized for ``width`` usable
    cores (inline at 1), shut down afterwards; ``None`` keeps the
    process's own pool, sized for the cores it may run on."""
    if width is None:
        yield
        return
    with (
        mock.patch.object(native, "_POOL", None),
        mock.patch.object(native, "_usable_cores", return_value=width),
    ):
        try:
            yield
        finally:
            if native._POOL is not None and native._POOL[0] is not None:
                native._POOL[0].shutdown()


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


@contextlib.contextmanager
def _chunked(chunk):
    """Every native launch of the runner, pooled ones included, bounded
    to ``chunk`` candidate pairs (``None`` keeps the default bound)."""
    if chunk is None:
        yield
        return
    bounded = functools.partial(execute_shard_native, chunk_pairs=chunk)
    with mock.patch.object(runner_module, "execute_shard_native", bounded):
        yield


def _assert_same_bytes(result, reference, *context):
    """``result``'s pairs and fragments are byte-identical to ``reference``'s."""
    assert result.pairs.tobytes() == reference.pairs.tobytes(), context
    if reference.fragments is not None:
        assert [f.tobytes() for f in result.fragments] == [
            f.tobytes() for f in reference.fragments
        ], context


def _check_self_join(points, eps, path, chunk=None, repeats=1, roomy=False, width=None):
    storage, devices, include_self, preset = path
    expect = brute_force_pairs(points, eps, include_self=include_self)
    with tempfile.TemporaryDirectory() as tmp, contextlib.ExitStack() as pool:
        data = _storages(points, tmp)[storage]
        rt = _runtime(preset, devices, include_self=include_self)
        inline = None
        pool.enter_context(_chunked(chunk))
        if width != 1:
            with _pool_width(1):  # inline, on an index of its own
                inline = Runner().run(compile_self_join(GridIndex(data, eps), rt))
        pool.enter_context(_pool_width(width))
        index = GridIndex(data, eps)
        table = index.neighbors
        if roomy:  # small dense datasets' runs rarely fit the index's own budget
            table.memo_budget = 1 << 40
        plan = compile_self_join(index, rt)
        first = Runner().run(plan)
        assert np.array_equal(first.sorted_pairs(), expect), (path, chunk)
        _assert_fragments_tile(first)
        if inline is not None:
            _assert_same_bytes(first, inline, path, chunk, width)
        for walk in range(2, repeats + 1):
            # a walk after the one that kept the runs must not rebuild them
            replay = walk > 2 and devices == 1 and len(points) and (roomy or table.runs_bytes)
            rebuilt = mock.patch.object(
                native, "_stage_runs", side_effect=AssertionError("runs rebuilt")
            )
            with rebuilt if replay else contextlib.nullcontext():
                again = Runner().run(plan)
            _assert_same_bytes(again, first, path, chunk, width, walk)
            assert table.memo_bytes <= table.memo_budget
        if devices > 1:  # shard subsets
            assert table.runs_bytes == 0


# One path per example: the whole matrix costs ~20 s per 8-D dataset
# (3⁸ offsets through the shard planner and the pass), so
# Hypothesis draws the path with the data, and the fixed dataset below
# runs every path.
@given(
    case=datasets(),
    path=st.sampled_from(PATHS),
    chunk=st.sampled_from(CHUNKS),
    repeats=st.sampled_from((1, 3)),
    roomy=st.booleans(),
    width=st.sampled_from(WIDTHS),
)
@example(
    case=_EPS_SQUARED_LOW,
    path=("mmap", 3, True, "combined"),
    chunk=1,
    repeats=3,
    roomy=True,
    width=3,
)
@example(
    case=_EPS_SQUARED_LOW,
    path=("resident", 2, False, "gpucalcglobal"),
    chunk=3,
    repeats=1,
    roomy=False,
    width=2,
)
@example(
    case=_order_sensitive_pair(threshold="numpy"),
    path=("resident", 1, True, "combined"),
    chunk=NATIVE_CHUNK_PAIRS,
    repeats=3,
    roomy=True,
    width=2,
)
@example(
    case=_order_sensitive_pair(threshold="numpy"),
    path=("mmap", 2, False, "gpucalcglobal"),
    chunk=1,
    repeats=1,
    roomy=False,
    width=1,
)
@example(
    case=_order_sensitive_pair(threshold="ordered"),
    path=("mmap", 3, True, "gpucalcglobal"),
    chunk=4_000_000,
    repeats=1,
    roomy=False,
    width=3,
)
@example(
    case=_order_sensitive_pair(threshold="ordered"),
    path=("resident", 1, False, "combined"),
    chunk=64,
    repeats=3,
    roomy=False,
    width=2,
)
@settings(max_examples=settings.default.max_examples * 3 // 2)
def test_native_self_join_matches_oracle(case, path, chunk, repeats, roomy, width):
    _check_self_join(*case, path, chunk, repeats, roomy, width)


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
    # its runs outgrow the index's budget, so a roomy one exercises replay
    for roomy in (False, True):
        _check_self_join(*_fixed_dataset(), path, repeats=3, roomy=roomy)


def _near_queries(points, eps, num_queries, rng):
    """Half copies of indexed points, half uniform around the box's low corner."""
    ndim = points.shape[1]
    lo = points.min(axis=0) if len(points) else np.zeros(ndim)
    near = lo + rng.uniform(-eps, 4.0 * eps, (num_queries, ndim))
    return np.concatenate([points[: num_queries // 2], near])


@given(
    case=datasets(),
    num_queries=st.integers(0, 30),
    seed=st.integers(0, 2**32 - 1),
    path=st.sampled_from(tuple(itertools.product(("resident", "mmap"), (1, 2)))),
    preset=st.sampled_from(BIPARTITE_PRESETS),
    chunk=st.sampled_from(CHUNKS),
    width=st.sampled_from(WIDTHS),
)
@example(
    case=_EPS_SQUARED_LOW,
    num_queries=0,
    seed=0,
    path=("mmap", 2),
    preset="gpucalcglobal",
    chunk=1,
    width=3,
)
@example(
    case=_fixed_dataset(),
    num_queries=30,
    seed=5,
    path=("resident", 1),
    preset="workqueue_k8",
    chunk=3,
    width=2,
)
@settings(max_examples=settings.default.max_examples * 3 // 4)
def test_native_bipartite_sweep_matches_oracle(
    case, num_queries, seed, path, preset, chunk, width
):
    points, eps = case
    storage, devices = path
    queries = _near_queries(points, eps, num_queries, np.random.default_rng(seed))
    expect = _cross_oracle(queries, points, eps)
    with tempfile.TemporaryDirectory() as tmp, _chunked(chunk):
        index = GridIndex(_storages(points, tmp)[storage], eps)

        def plan(preset):
            return compile_similarity_join(index, queries, _runtime(preset, devices))

        with _pool_width(width):
            result = Runner().run(plan(preset))
        assert np.array_equal(result.sorted_pairs(), expect), (path, preset, chunk)
        _assert_fragments_tile(result)
        if width != 1:
            with _pool_width(1):
                _assert_same_bytes(result, Runner().run(plan(preset)), path, preset, chunk, width)
        if devices == 1 and preset != "gpucalcglobal":  # one query order for every preset
            _assert_same_bytes(result, Runner().run(plan("gpucalcglobal")), path, preset, chunk)


def _bounded_runs(op, index, cfg):
    """One ``execute_shard_native`` result per block bound of :data:`CHUNKS`
    on a small index: their pairs agree and fragments tile them at every
    bound. A bound of 1 makes each query's run with hits its own fragment
    and 4M one fragment per walk, so every bound's count lies between."""
    results = [execute_shard_native(op, index, cfg, chunk_pairs=c) for c in CHUNKS]
    for chunk, result in zip(CHUNKS, results):
        assert np.array_equal(result.sorted_pairs(), results[0].sorted_pairs()), chunk
        _assert_fragments_tile(result)
    blocks = [len(result.fragments) for result in results]
    assert blocks[0] == max(blocks) > blocks[-1] == min(blocks), blocks
    return results[0]


@pytest.mark.parametrize("include_self", [True, False])
@pytest.mark.parametrize("storage", ["resident", "mmap"])
def test_block_bound_leaves_self_join_pairs_unchanged(storage, include_self):
    points, eps = _fixed_dataset()
    with tempfile.TemporaryDirectory() as tmp:
        index = GridIndex(_storages(points, tmp)[storage], eps)
        op = SelfJoinOp(include_self=include_self)
        result = _bounded_runs(op, index, PRESETS["combined"])
    expect = brute_force_pairs(points, eps, include_self=include_self)
    assert np.array_equal(result.sorted_pairs(), expect)


@pytest.mark.parametrize("storage", ["resident", "mmap"])
def test_block_bound_leaves_bipartite_sweep_pairs_unchanged(storage):
    points, eps = _fixed_dataset()
    queries = _near_queries(points, eps, 30, np.random.default_rng(5))
    with tempfile.TemporaryDirectory() as tmp:
        index = GridIndex(_storages(points, tmp)[storage], eps)
        result = _bounded_runs(BipartiteOp(queries), index, PRESETS["gpucalcglobal"])
    assert np.array_equal(result.sorted_pairs(), _cross_oracle(queries, points, eps))


def test_chunk_patch_reaches_the_runner():
    """:func:`_chunked` bounds what the runner launches: a chunk-3 run
    refines more blocks than the default bound, and a pooled run sends
    every shard through the patched binding."""
    points, eps = _fixed_dataset()
    plan = compile_self_join(GridIndex(points, eps), _runtime("combined", 1))
    default = Runner().run(plan)
    with _chunked(3):
        bounded = Runner().run(compile_self_join(GridIndex(points, eps), _runtime("combined", 1)))
    assert len(bounded.fragments) > len(default.fragments)
    assert np.array_equal(bounded.sorted_pairs(), default.sorted_pairs())
    pooled = compile_self_join(GridIndex(points, eps), _runtime("combined", 2))
    with _chunked(3):
        bound = runner_module.execute_shard_native
        with mock.patch.object(runner_module, "execute_shard_native", wraps=bound) as launch:
            Runner().run(pooled)
    assert launch.call_count == pooled.shard_plan.num_shards


def test_second_walk_keeps_runs_only_within_the_budget():
    rng = np.random.default_rng(3)
    op = SelfJoinOp(include_self=True)
    cases = (
        # sparse 2-D cells: the runs fit the memo budget
        (rng.uniform(0.0, 100.0, (500, 2)), True),
        # three dense 1-D cells: about 96 kB of runs against a 33 kB budget
        (rng.uniform(0.0, 3.0, (2000, 1)), False),
    )
    for points, fits in cases:
        index = GridIndex(points, 1.0)
        fresh = execute_shard_native(op, GridIndex(points, 1.0), PRESETS["gpucalcglobal"])
        for walk in range(4):
            with (
                mock.patch.object(native, "_stage_runs", wraps=native._stage_runs) as stages,
                mock.patch.object(native, "_kept_runs", wraps=native._kept_runs) as kept,
            ):
                result = execute_shard_native(op, index, PRESETS["gpucalcglobal"])
            assert result.pairs.tobytes() == fresh.pairs.tobytes()
            table = index.neighbors
            assert (table.runs_bytes > 0) == (fits and walk > 0), (fits, walk)
            assert table.memo_bytes <= table.memo_budget
            # record, keep, then replay; runs that outgrew the budget are
            # kept once, and later walks take the plain path
            assert kept.call_count == (walk == 1), (fits, walk)
            assert stages.call_count == (walk < 2 or not fits), (fits, walk)
        # a combined walk replays the runs that the gpucalcglobal walks kept
        with mock.patch.object(native, "_stage_runs", wraps=native._stage_runs) as stages:
            result = execute_shard_native(op, index, PRESETS["combined"])
        assert result.pairs.tobytes() == fresh.pairs.tobytes()
        assert stages.call_count == (not fits), fits


def _pool_threads():
    return [t for t in threading.enumerate() if t.name.startswith("repro-native")]


# ----------------------------------------------------------------------
# the refinement pool: sizing, failures, forks and concurrent passes
# ----------------------------------------------------------------------
def test_pool_is_sized_by_the_usable_cores():
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("no affinity call on this platform")
    cores = len(os.sched_getaffinity(0))
    with mock.patch.object(native, "_POOL", None):
        executor, width = native._refine_pool()
        try:
            assert width == cores
            assert (executor is None) == (cores == 1)  # one core: inline
        finally:
            if executor is not None:
                executor.shutdown()
    with _pool_width(1):
        assert native._refine_pool() == (None, 1)


@contextlib.contextmanager
def _submitted():
    """The futures of every task handed to the refinement pool."""
    executor, _ = native._refine_pool()
    submit, futures = executor.submit, []

    def recorded(*args, **kwargs):
        futures.append(submit(*args, **kwargs))
        return futures[-1]

    with mock.patch.object(executor, "submit", recorded):
        yield futures


def _ops():
    points, eps = _fixed_dataset()
    queries = _near_queries(points, eps, 30, np.random.default_rng(5))
    ops = {"self": SelfJoinOp(include_self=False), "bipartite": BipartiteOp(queries)}
    return GridIndex(points, eps), ops


@pytest.mark.parametrize("kind", ["self", "bipartite"])
def test_one_block_stages_stay_inline(kind):
    index, ops = _ops()
    with _pool_width(2), _submitted() as futures:
        inline = execute_shard_native(ops[kind], index, PRESETS["combined"])
        assert not futures
        spread = execute_shard_native(ops[kind], index, PRESETS["combined"], chunk_pairs=1)
        assert futures and all(f.done() for f in futures)
    assert np.array_equal(spread.sorted_pairs(), inline.sorted_pairs())


def _failing_filter(error, at):
    """An ``epsilon_filter`` whose ``keep`` raises ``error`` on its ``at``-th block."""
    calls = itertools.count(1)

    def make(*args, **kwargs):
        keep = epsilon_filter(*args, **kwargs)

        def flaky(qi, cj):
            if next(calls) == at:
                raise error
            return keep(qi, cj)

        return flaky

    return make


@pytest.mark.parametrize("kind", ["self", "bipartite"])
def test_failing_block_raises_and_leaves_no_task(kind):
    index, ops = _ops()
    error = RuntimeError("the third block")
    failing = mock.patch.object(native, "epsilon_filter", _failing_filter(error, at=3))
    with _pool_width(2), _submitted() as futures, failing:
        with pytest.raises(RuntimeError) as raised:
            execute_shard_native(ops[kind], index, PRESETS["combined"], chunk_pairs=1)
        assert raised.value is error
        # every task handed out is finished or cancelled: none queued or running
        assert len(futures) >= 3 and all(f.done() for f in futures)


def test_closing_the_walk_early_leaves_no_task():
    index, _ = _ops()
    order = np.arange(index.num_points, dtype=np.int64)
    with _pool_width(2), _submitted() as futures:
        walk = native._self_join_blocks(
            index, order, native._Tasks(), include_self=False, chunk_pairs=1
        )
        next(walk)
        next(walk)
        walk.close()
        assert len(futures) > 2 and all(f.done() for f in futures)


def _wait_for_child(pid, seconds=60.0):
    """The forked child's exit status; killed and failed after ``seconds``."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        time.sleep(0.05)
    os.kill(pid, 9)
    os.waitpid(pid, 0)
    pytest.fail("the forked child hung")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_forked_child_starts_its_own_pool():
    index, ops = _ops()
    with _pool_width(2):
        parent = execute_shard_native(ops["self"], index, PRESETS["combined"], chunk_pairs=1)
        inherited = native._POOL
        assert _pool_threads()
        pid = os.fork()
        if pid == 0:  # the inherited executor has no threads: submitting to it would hang
            status = 1
            try:
                child = execute_shard_native(ops["self"], index, PRESETS["combined"], chunk_pairs=1)
                fresh = native._POOL[0] is not inherited[0]
                status = 0 if fresh and child.pairs.tobytes() == parent.pairs.tobytes() else 2
            finally:
                os._exit(status)
        assert _wait_for_child(pid) == 0


def test_concurrent_passes_on_a_shared_index_match_the_serial_run():
    points = np.random.default_rng(7).uniform(0.0, 10.0, (600, 2))
    op, cfg = SelfJoinOp(include_self=False), PRESETS["combined"]
    with _pool_width(1):
        serial = execute_shard_native(op, GridIndex(points, 0.4), cfg, chunk_pairs=1)
    index = GridIndex(points, 0.4)
    index.neighbors.memo_budget = 1 << 40  # record, keep, then replay the runs
    results = []

    def run():
        results.append(execute_shard_native(op, index, cfg, chunk_pairs=1))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with _pool_width(3):  # more threads than the 2-core host has cores
            for _ in range(3):
                threads = [threading.Thread(target=run) for _ in range(2)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 6 and index.neighbors.runs_bytes > 0
    for result in results:
        _assert_same_bytes(result, serial)
