"""Differential property test of the SIMT VM's bulk kernels.

The vectorized engine evaluates a whole launch with array passes over
slot runs; its contract (``repro.simt.vectorized``) is the interpreter's
pairs in buffer order, its cycle totals and warp statistics, and its
queue side effects. On the small adversarial datasets of the native
harness (1–8 dimensions, duplicated points, a pair at exactly ε,
coordinates offset by 1e6), every drawn launch — access pattern ×
k ∈ {1, 2, 4} × WORKQUEUE × ``include_self``, and the bipartite kernel —
must:

- match the interpreted launch: pairs in buffer order, stats, queue;
- return ``baselines.bruteforce``'s pair set, each pair once;
- give the same pairs and stats from a memory-mapped index as from a
  resident one.

The three constructions of ``TestBoundarySemantics`` are pinned as
examples.
"""

from __future__ import annotations

import itertools
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines import brute_force_pairs
from repro.core.bipartite_kernels import BipartiteKernelArgs, bipartite_kernel
from repro.core.kernels import KernelArgs, selfjoin_kernel
from repro.core.sortbywl import sort_by_workload
from repro.grid import GridIndex
from repro.io import load_dataset, save_dataset
from repro.simt import AtomicCounter, GpuMachine, ResultBuffer
from tests.integration.test_adversarial import _order_sensitive_pair
from tests.runtime.test_native_differential import _EPS_SQUARED_LOW, _cross_oracle, datasets
from tests.simt.test_vectorized_engine import assert_stats_equal, small_device

#: (pattern, k, WORKQUEUE, include_self) — every self-join launch drawn
PATHS = tuple(
    itertools.product(("full", "unicomp", "lidunicomp"), (1, 2, 4), (False, True), (True, False))
)
#: interpreted thread × probed-cell budget of one bipartite example: each
#: thread probes all 3ⁿ cells in one vector op and walks the in-grid ones,
#: so 8-D examples draw up to 30 queries at every k ≤ 4 (30 · 4 · 3⁸ cells)
PROBE_BUDGET = 800_000


def _canonical(pairs):
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))] if len(pairs) else pairs


def _mmap_copy(points, tmp):
    path = Path(tmp) / "points.npy"
    save_dataset(path, points)
    return load_dataset(path, mmap=True)


def _launch(engine, kernel, args, *, seed, warp_size):
    """``(stats, pairs)`` of one launch on a device of 4 warp slots."""
    device = small_device(warp_size=warp_size)
    machine = GpuMachine(device, issue_order="random", seed=seed, engine=engine)
    buffer = ResultBuffer(1_000_000)
    coop = args.uses_queue and args.k > 1
    stats = machine.launch(kernel, args.num_threads, args, result_buffer=buffer, coop_groups=coop)
    return stats, buffer.pairs()


def _assert_engines_agree(make_args, kernel, indexes, *, seed, warp_size=8):
    """The interpreted launch on the resident index equals the vectorized
    launch on it and on the memory-mapped one; returns the pairs."""
    resident, mapped = indexes
    runs = {}
    for name, engine, index in (
        ("interpreted", "interpreted", resident),
        ("vectorized", "vectorized", resident),
        ("mmap", "vectorized", mapped),
    ):
        args = make_args(index)
        runs[name] = (*_launch(engine, kernel, args, seed=seed, warp_size=warp_size), args)
    stats, pairs, args = runs["interpreted"]
    for name in ("vectorized", "mmap"):
        other_stats, other_pairs, other_args = runs[name]
        np.testing.assert_array_equal(other_pairs, pairs, err_msg=name)
        assert_stats_equal(other_stats, stats)
        if args.uses_queue:
            assert other_args.queue_counter.value == args.queue_counter.value
            assert other_args.queue_counter.num_ops == args.queue_counter.num_ops
    assert runs["vectorized"][0].engine == "vectorized"
    return pairs


def _check_self_join(points, eps, path, seed, *, warp_size=8):
    pattern, k, use_queue, include_self = path
    with tempfile.TemporaryDirectory() as tmp:
        indexes = (GridIndex(points, eps), GridIndex(_mmap_copy(points, tmp), eps))
        # the queue serves D' (SORTBYWL order), the static mapping id order
        order = (
            sort_by_workload(indexes[0], pattern)
            if use_queue
            else np.arange(len(points), dtype=np.int64)
        )

        def make_args(index):
            return KernelArgs(
                index=index,
                batch=order,
                k=k,
                pattern=pattern,
                include_self=include_self,
                queue_counter=AtomicCounter() if use_queue else None,
                queue_order=order if use_queue else None,
            )

        pairs = _assert_engines_agree(
            make_args, selfjoin_kernel, indexes, seed=seed, warp_size=warp_size
        )
    expect = brute_force_pairs(points, eps, include_self=include_self)
    np.testing.assert_array_equal(_canonical(pairs), expect, err_msg=str(path))


# One launch path per example, as in the native harness: the full matrix
# costs seconds per 8-D dataset, so Hypothesis draws the path with the
# data and the fixed dataset below runs every path.
@given(case=datasets(), path=st.sampled_from(PATHS), seed=st.integers(0, 2**16))
@example(case=_EPS_SQUARED_LOW, path=("full", 2, True, True), seed=0)
@example(case=_EPS_SQUARED_LOW, path=("lidunicomp", 4, False, False), seed=1)
@example(case=_order_sensitive_pair(threshold="numpy"), path=("unicomp", 1, True, True), seed=2)
@example(
    case=_order_sensitive_pair(threshold="numpy"), path=("lidunicomp", 2, False, False), seed=3
)
@example(case=_order_sensitive_pair(threshold="ordered"), path=("full", 4, False, True), seed=4)
@example(
    case=_order_sensitive_pair(threshold="ordered"), path=("unicomp", 2, True, False), seed=5
)
def test_self_join_launch_matches_interpreter_and_oracle(case, path, seed):
    _check_self_join(*case, path, seed)


def _fixed_dataset():
    """3-D: dense and sparse cells, duplicates, an exact-ε pair, offset 1e6."""
    rng = np.random.default_rng(19)
    points = np.concatenate([rng.uniform(0.0, 0.6, (25, 3)), rng.uniform(0.0, 3.0, (25, 3))])
    points[40:] = points[:10]
    points[:2] = 0.0
    points[1, 0] = 0.5
    return points + 1e6, 0.5


@pytest.mark.parametrize("path", PATHS, ids=lambda path: "-".join(map(str, path)))
def test_every_self_join_path_on_fixed_dataset(path):
    _check_self_join(*_fixed_dataset(), path, seed=7)


@pytest.mark.parametrize("use_queue", [False, True])
def test_group_size_not_a_power_of_two(use_queue):
    """k = 3 (the queue needs a warp size that k divides: 6 threads per
    warp); every other test uses k ∈ {1, 2, 4, 8}."""
    _check_self_join(*_fixed_dataset(), ("lidunicomp", 3, use_queue, True), seed=3, warp_size=6)


@st.composite
def bipartite_cases(draw):
    points, eps = draw(datasets())
    ndim = points.shape[1]
    k = draw(st.sampled_from((1, 2, 4)))
    cap = min(30, PROBE_BUDGET // (k * 3**ndim))
    num_queries = draw(st.integers(0, cap))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = points.min(axis=0) if len(points) else np.zeros(ndim)
    near = lo + rng.uniform(-eps, 4.0 * eps, (num_queries, ndim))
    queries = np.concatenate([points[: num_queries // 2], near])[:num_queries]
    return points, eps, queries, k, draw(st.booleans())


@given(case=bipartite_cases(), seed=st.integers(0, 2**16))
@example(case=(*_EPS_SQUARED_LOW, _EPS_SQUARED_LOW[0][::-1].copy(), 2, True), seed=0)
@settings(max_examples=settings.default.max_examples * 3 // 4)
def test_bipartite_launch_matches_interpreter_and_oracle(case, seed):
    points, eps, queries, k, use_queue = case
    order = np.arange(len(queries), dtype=np.int64)

    def make_args(index):
        return BipartiteKernelArgs(
            index=index,
            queries=queries,
            batch=order,
            k=k,
            queue_counter=AtomicCounter() if use_queue else None,
            queue_order=order if use_queue else None,
        )

    with tempfile.TemporaryDirectory() as tmp:
        indexes = (GridIndex(points, eps), GridIndex(_mmap_copy(points, tmp), eps))
        pairs = _assert_engines_agree(make_args, bipartite_kernel, indexes, seed=seed)
    np.testing.assert_array_equal(_canonical(pairs), _cross_oracle(queries, points, eps))
