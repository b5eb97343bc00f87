"""Fault plans and the injecting executor wrapper: declarative, seeded,
and transparent when empty."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import OptimizationConfig, SelfJoin
from repro.core.executor import DeviceExecutor
from repro.grid import GridIndex
from repro.resilience import (
    DeviceFailure,
    DeviceLostError,
    FaultPlan,
    FaultyExecutor,
    ForcedOverflow,
    RecoveryPolicy,
    Straggler,
    TransientFaults,
    TransientKernelError,
)
from repro.runtime import RuntimeConfig

_EPS = 0.8


@pytest.fixture(scope="module")
def points() -> np.ndarray:
    return np.random.default_rng(11).uniform(0.0, 10.0, size=(150, 2))


def _executor(**kw) -> DeviceExecutor:
    return DeviceExecutor(RuntimeConfig(**kw))


# ---------------------------------------------------------------- plans
class TestFaultPlan:
    def test_empty_plan(self):
        plan = FaultPlan()
        assert plan.is_empty
        assert plan.describe() == "fault-free"
        assert plan.failure_for(0) is None
        assert plan.straggler_factor(0) == 1.0

    def test_lists_coerced_to_tuples(self):
        plan = FaultPlan(failures=[DeviceFailure(0)], stragglers=[Straggler(1)])
        assert isinstance(plan.failures, tuple)
        assert isinstance(plan.stragglers, tuple)
        assert not plan.is_empty

    def test_earliest_failure_wins(self):
        plan = FaultPlan(
            failures=[DeviceFailure(0, at_shard=5), DeviceFailure(0, at_shard=2)]
        )
        assert plan.failure_for(0).at_shard == 2
        assert plan.failure_for(1) is None

    def test_straggler_factors_compose(self):
        plan = FaultPlan(stragglers=[Straggler(0, 2.0), Straggler(0, 3.0)])
        assert plan.straggler_factor(0) == pytest.approx(6.0)

    def test_describe_names_every_fault(self):
        plan = FaultPlan(
            failures=[DeviceFailure(1, at_shard=2)],
            stragglers=[Straggler(2, 4.0)],
            transients=[TransientFaults(3, probability=0.25)],
            overflows=[ForcedOverflow(0, times=2)],
        )
        text = plan.describe()
        for fragment in ("kill(dev1@shard2)", "slow(dev2x4)", "flaky(dev3 p=0.25)",
                         "overflow(dev0x2)"):
            assert fragment in text

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: DeviceFailure(0, at_shard=-1),
            lambda: Straggler(0, slowdown=0.5),
            lambda: TransientFaults(0, probability=1.5),
            lambda: TransientFaults(0, max_failures=-1),
            lambda: ForcedOverflow(0, times=-1),
        ],
    )
    def test_fault_validation(self, bad):
        with pytest.raises(ValueError):
            bad()

    def test_overflow_clamp(self):
        assert ForcedOverflow(0, clamp_capacity=4).clamp(1000) == 4
        assert ForcedOverflow(0).clamp(1000) == 125
        assert ForcedOverflow(0).clamp(3) == 1  # never clamps to zero


# ---------------------------------------------------------- the wrapper
class TestFaultyExecutor:
    def test_empty_plan_is_transparent(self, points):
        """Same seed, same join, wrapped vs not: byte-identical results."""
        index = GridIndex(points, _EPS)
        join = SelfJoin(OptimizationConfig())
        plain = join.execute_on_index(index, executor=_executor())
        wrapped = join.execute_on_index(
            index, executor=FaultyExecutor(_executor(), 0, FaultPlan())
        )
        assert np.array_equal(plain.sorted_pairs(), wrapped.sorted_pairs())
        assert plain.total_seconds == pytest.approx(wrapped.total_seconds)
        assert plain.warp_execution_efficiency == pytest.approx(
            wrapped.warp_execution_efficiency
        )

    def test_device_failure_fires_at_planned_dispatch(self, points):
        index = GridIndex(points, _EPS)
        join = SelfJoin()
        plan = FaultPlan(failures=[DeviceFailure(0, at_shard=1)])
        fx = FaultyExecutor(_executor(), 0, plan)
        join.execute_on_index(index, executor=fx)  # dispatch 0 survives
        with pytest.raises(DeviceLostError):
            join.execute_on_index(index, executor=fx)  # dispatch 1 dies

    def test_straggler_scales_time_not_pairs(self, points):
        index = GridIndex(points, _EPS)
        join = SelfJoin()
        plain = join.execute_on_index(index, executor=_executor())
        slow = join.execute_on_index(
            index,
            executor=FaultyExecutor(
                _executor(), 0, FaultPlan(stragglers=[Straggler(0, 4.0)])
            ),
        )
        assert np.array_equal(plain.sorted_pairs(), slow.sorted_pairs())
        assert slow.total_seconds == pytest.approx(4.0 * plain.total_seconds)

    def test_straggler_only_hits_its_device(self, points):
        index = GridIndex(points, _EPS)
        join = SelfJoin()
        plan = FaultPlan(stragglers=[Straggler(1, 4.0)])
        plain = join.execute_on_index(index, executor=_executor())
        other = join.execute_on_index(
            index, executor=FaultyExecutor(_executor(), 0, plan)
        )
        assert other.total_seconds == pytest.approx(plain.total_seconds)

    def test_transient_stream_is_seed_deterministic(self, points):
        index = GridIndex(points, _EPS)
        join = SelfJoin()
        plan = FaultPlan(seed=5, transients=[TransientFaults(0, probability=0.5)])

        def failure_pattern():
            fx = FaultyExecutor(_executor(), 0, plan)
            pattern = []
            for _ in range(8):
                try:
                    join.execute_on_index(index, executor=fx)
                    pattern.append(False)
                except TransientKernelError as e:
                    assert e.wasted_seconds > 0
                    pattern.append(True)
            return pattern

        first = failure_pattern()
        assert first == failure_pattern()
        assert any(first) and not all(first)  # p=0.5 over 8 draws

    def test_transient_max_failures_budget(self, points):
        index = GridIndex(points, _EPS)
        join = SelfJoin()
        plan = FaultPlan(
            transients=[TransientFaults(0, probability=1.0, max_failures=2)]
        )
        fx = FaultyExecutor(_executor(), 0, plan)
        failures = 0
        for _ in range(5):
            try:
                join.execute_on_index(index, executor=fx)
            except TransientKernelError:
                failures += 1
        assert failures == 2

    def test_forced_overflow_drives_real_recovery(self, points):
        """Clamping the buffer must exercise the genuine retry machinery,
        not a mock — and the answer must still be exact."""
        index = GridIndex(points, _EPS)
        join = SelfJoin()
        plain = join.execute_on_index(index, executor=_executor())
        fx = FaultyExecutor(
            _executor(recovery=RecoveryPolicy()),
            0,
            FaultPlan(overflows=[ForcedOverflow(0, times=1, clamp_capacity=8)]),
        )
        recovered = join.execute_on_index(index, executor=fx)
        assert np.array_equal(plain.sorted_pairs(), recovered.sorted_pairs())
        assert recovered.overflow_retries > 0
        assert recovered.overflow_wasted_seconds > 0
        # the budget is spent: the next dispatch runs unclamped
        clean = join.execute_on_index(index, executor=fx)
        assert clean.overflow_retries == 0
