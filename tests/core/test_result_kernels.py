"""Unit tests for JoinResult methods and kernel argument plumbing."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core import JoinResult, SelfJoin
from repro.core.kernels import KernelArgs, selfjoin_kernel
from repro.grid import GridIndex
from repro.runtime import RuntimeConfig
from repro.simt import AtomicCounter, DeviceSpec, GpuMachine, ResultBuffer
from repro.simt.streams import PipelineResult


@pytest.fixture(scope="module")
def small_result():
    rng = np.random.default_rng(2)
    pts = rng.uniform(0, 4, (150, 2))
    return SelfJoin().execute(pts, 0.5), pts


class TestJoinResult:
    def test_sorted_pairs_lexicographic(self, small_result):
        res, _ = small_result
        sp = res.sorted_pairs()
        keys = sp[:, 0] * (10**6) + sp[:, 1]
        assert (np.diff(keys) > 0).all()  # strictly increasing: no dupes

    def test_neighbor_lists_sorted_and_complete(self, small_result):
        res, _ = small_result
        lists = res.neighbor_lists()
        assert set(lists) == set(np.unique(res.pairs[:, 0]).tolist())
        for q, nbs in lists.items():
            assert (np.diff(nbs) > 0).all()
            assert q in nbs  # self pair

    def test_empty_result_paths(self):
        res = SelfJoin(runtime=RuntimeConfig(include_self=False)).execute(
            np.array([[0.0, 0.0], [100.0, 100.0]]), 0.5
        )
        assert res.num_pairs == 0
        assert res.neighbor_lists() == {}
        assert len(res.sorted_pairs()) == 0
        assert res.selectivity == 0.0
        assert res.warp_execution_efficiency > 0

    def test_selectivity_and_counts(self, small_result):
        res, pts = small_result
        assert res.num_points == len(pts)
        assert res.selectivity == res.num_pairs / len(pts)


def _hand_built(pairs: np.ndarray) -> JoinResult:
    return JoinResult(
        pairs=pairs,
        epsilon=1.0,
        num_points=int(pairs.max()) + 1 if len(pairs) else 0,
        batch_stats=[],
        pipeline=PipelineResult(0.0, np.zeros(0), np.zeros(0), np.zeros(0)),
    )


def _lexsorted(pairs: np.ndarray) -> np.ndarray:
    """The two-key lexsort the canonical order used before its one-key sort."""
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


# a few small ids make duplicate rows likely
_ids = st.one_of(st.integers(0, 3), st.integers(0, 2**31 - 1))


@given(
    rows=st.lists(st.tuples(_ids, _ids), max_size=300),
    dtype=st.sampled_from([np.int64, np.int32]),
)
@example(rows=[], dtype=np.int64)
@example(rows=[], dtype=np.int32)
@example(rows=[(2, 1), (0, 3), (2, 1), (0, 0)], dtype=np.int32)
def test_canonical_order_matches_lexsort(rows, dtype):
    pairs = np.array(rows, dtype=dtype).reshape(-1, 2)
    result = _hand_built(pairs)
    expected = _lexsorted(pairs)
    got = result.sorted_pairs()
    assert got.dtype == pairs.dtype
    assert got.tobytes() == expected.tobytes()
    assert result.sorted_pairs().tobytes() == expected.tobytes()
    lists = result.neighbor_lists()
    assert sorted(lists) == sorted(set(pairs[:, 0].tolist()))
    for q, nbs in lists.items():
        assert nbs.tolist() == expected[expected[:, 0] == q, 1].tolist()


class TestKernelArgs:
    def test_queue_fields_must_pair(self, small_result):
        _, pts = small_result
        idx = GridIndex(pts, 0.5)
        with pytest.raises(ValueError, match="together"):
            KernelArgs(index=idx, batch=np.arange(5), queue_counter=AtomicCounter())

    def test_num_threads_scales_with_k(self, small_result):
        _, pts = small_result
        idx = GridIndex(pts, 0.5)
        args = KernelArgs(index=idx, batch=np.arange(10), k=8)
        assert args.num_threads == 80

    def test_invalid_k(self, small_result):
        _, pts = small_result
        idx = GridIndex(pts, 0.5)
        with pytest.raises(ValueError):
            KernelArgs(index=idx, batch=np.arange(3), k=0)

    def test_guard_thread_beyond_batch_is_noop(self, small_result):
        """Algorithm 1 line 3: a thread past the batch returns untraced."""
        _, pts = small_result
        idx = GridIndex(pts, 0.5)
        args = KernelArgs(index=idx, batch=np.arange(3))
        machine = GpuMachine(DeviceSpec(warp_size=4, num_sms=1))
        buf = ResultBuffer(10**6)
        # launch 8 threads for a 3-query batch: lanes 3..7 are guards
        stats = machine.launch(selfjoin_kernel, 8, args, result_buffer=buf)
        assert stats.warp_stats[1].active_cycles == 0.0  # warp of pure guards

    def test_drained_queue_threads_idle(self, small_result):
        """Queue slots beyond |D'| leave threads idle but traced (they paid
        the fetch)."""
        _, pts = small_result
        idx = GridIndex(pts, 0.5)
        order = np.arange(4)
        counter = AtomicCounter()
        args = KernelArgs(
            index=idx,
            batch=np.arange(8),  # 8 fetches for a 4-slot queue
            queue_counter=counter,
            queue_order=order,
        )
        machine = GpuMachine(DeviceSpec(warp_size=8, num_sms=1))
        buf = ResultBuffer(10**6)
        machine.launch(selfjoin_kernel, 8, args, result_buffer=buf)
        assert counter.value == 8  # everyone fetched
        # only the 4 real slots emitted their own-cell self pair
        assert len(np.unique(buf.pairs()[:, 0])) == 4
