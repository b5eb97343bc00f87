"""Batch-level overflow recovery inside the executor: geometric regrow,
WORKQUEUE counter rollback, and waste accounting. It runs exactly when
the runtime carries a recovery policy."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DeviceExecutor, OptimizationConfig, SelfJoin
from repro.core.executor import MAX_OVERFLOW_RETRIES, OVERFLOW_GROWTH, OverflowRetry
from repro.data.adversarial import dense_core_sparse_halo
from repro.grid import GridIndex
from repro.resilience import FaultPlan, FaultyExecutor, ForcedOverflow, RecoveryPolicy
from repro.runtime import RuntimeConfig
from repro.simt import GpuMachine

_EPS = 0.8


@pytest.fixture(scope="module")
def points() -> np.ndarray:
    return dense_core_sparse_halo(220, 2, seed=23)


def _plain() -> DeviceExecutor:
    return DeviceExecutor(RuntimeConfig())


def _healing() -> DeviceExecutor:
    return DeviceExecutor(RuntimeConfig(recovery=RecoveryPolicy()))


def _clamped(executor: DeviceExecutor, *, times=1, cap=8) -> FaultyExecutor:
    return FaultyExecutor(
        executor,
        0,
        FaultPlan(overflows=[ForcedOverflow(0, times=times, clamp_capacity=cap)]),
    )


def test_retry_recovers_exact_result(points):
    index = GridIndex(points, _EPS)
    join = SelfJoin()
    plain = join.execute_on_index(index, executor=_plain())
    recovered = join.execute_on_index(index, executor=_clamped(_healing()))
    assert np.array_equal(plain.sorted_pairs(), recovered.sorted_pairs())
    assert recovered.overflow_retries > 0


def test_retry_rolls_back_workqueue_counter(points):
    """The work-queue's atomic head is the one piece of cross-batch device
    state; an aborted launch must not leave fetched-but-unprocessed points
    behind, or retried runs silently drop pairs."""
    cfg = OptimizationConfig(work_queue=True, pattern="lidunicomp")
    index = GridIndex(points, _EPS)
    join = SelfJoin(cfg)
    plain = join.execute_on_index(index, executor=_plain())
    recovered = join.execute_on_index(
        index,
        executor=_clamped(_healing(), times=2, cap=16),
    )
    assert recovered.overflow_retries > 0
    assert np.array_equal(plain.sorted_pairs(), recovered.sorted_pairs())


def test_retry_accounts_wasted_time(points):
    index = GridIndex(points, _EPS)
    join = SelfJoin()
    plain = join.execute_on_index(index, executor=_plain())
    recovered = join.execute_on_index(index, executor=_clamped(_healing()))
    assert recovered.overflow_wasted_seconds > 0
    # failed attempts inflate the response time — waste is charged, not free
    assert recovered.total_seconds > plain.total_seconds


def test_bounded_retries_give_up(points, monkeypatch):
    """An overflow the growth can't fix within the budget must surface,
    not loop forever."""
    index = GridIndex(points, _EPS)
    join = SelfJoin()
    plain = join.execute_on_index(index, executor=_plain())
    # one batch holds every pair, more than a 1-pair buffer grown
    # OVERFLOW_GROWTH-fold MAX_OVERFLOW_RETRIES times can take
    assert plain.num_batches == 1
    assert plain.num_pairs > OVERFLOW_GROWTH**MAX_OVERFLOW_RETRIES
    capacities = []
    launch = GpuMachine.launch

    def recording_launch(self, *args, result_buffer, **kw):
        capacities.append(result_buffer.capacity)
        return launch(self, *args, result_buffer=result_buffer, **kw)

    monkeypatch.setattr(GpuMachine, "launch", recording_launch)
    # the executor gives up after its retries; SelfJoin's replan loop then
    # doubles the estimate, and the clamp is spent (times=1), so the second
    # plan runs unclamped — exercising both layers
    result = join.execute_on_index(index, executor=_clamped(_healing(), cap=1))
    grown = [OVERFLOW_GROWTH**a for a in range(MAX_OVERFLOW_RETRIES + 1)]
    unclamped = [OptimizationConfig().batch_result_capacity] * result.num_batches
    assert capacities == grown + unclamped
    assert result.overflow_retries == 0
    assert np.array_equal(result.sorted_pairs(), plain.sorted_pairs())


def test_raise_policy_is_default_and_propagates(points):
    index = GridIndex(points, _EPS)
    join = SelfJoin()
    executor = _plain()
    assert not executor.retry_overflows
    # without a recovery policy, recovery happens one layer up (SelfJoin
    # re-plans) and no batch-level retries are recorded
    result = join.execute_on_index(index, executor=_clamped(executor))
    assert result.overflow_retries == 0
    assert np.array_equal(
        result.sorted_pairs(),
        join.execute_on_index(index, executor=_plain()).sorted_pairs(),
    )


def test_overflow_retry_record_shape():
    r = OverflowRetry(batch_index=3, attempts=2, final_capacity=64, wasted_seconds=0.5)
    assert (r.batch_index, r.attempts, r.final_capacity) == (3, 2, 64)
