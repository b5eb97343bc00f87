"""Recovery under cancellation: a pooled request whose shards are being
requeued by the RecoveryPolicy is cancelled mid-flight — the service must
discard the result, keep the incident trail consistent (the degradation
is still surfaced), release the shared pool, and serve the next pooled
request on a whole pool.

``pytest-asyncio`` is not a dependency; tests drive their coroutines
with ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.data import uniform
from repro.resilience import DeviceFailure, FaultPlan
from repro.runtime import Runner, RuntimeConfig, ShardingConfig
from repro.serve import AdmissionPolicy, JoinRequest, JoinService, ServeConfig
from repro.serve import service as service_module

_EPS = 0.08


@pytest.fixture(scope="module")
def points():
    return uniform(220, 2, seed=21, low=0.0, high=1.0)


def _faulty_pooled() -> RuntimeConfig:
    """A pooled config that loses a device mid-run and heals by requeue."""
    return RuntimeConfig(
        sharding=ShardingConfig(num_devices=3),
        fault_plan=FaultPlan(failures=(DeviceFailure(device_id=1, at_shard=1),)),
    )


def test_cancel_during_recovery_keeps_trail_and_pool_consistent(points, monkeypatch):
    # the request's run waits in its worker thread until the cancel is in,
    # so it cannot finish between two polls of its state
    release = threading.Event()

    class GatedRunner(Runner):
        def run(self, plan, **kwargs):
            release.wait()
            return super().run(plan, **kwargs)

    monkeypatch.setattr(service_module, "Runner", GatedRunner)

    async def main():
        cfg = ServeConfig(admission=AdmissionPolicy(max_concurrency=1))
        async with JoinService(cfg) as svc:
            svc.register_dataset("d", points)
            # cancel as soon as the request is running: the execution
            # finishes in its worker thread (cooperative cancellation),
            # recovery requeues the dead device's shards, and the service
            # must then discard the result
            ticket = await svc.submit(
                JoinRequest(dataset="d", epsilon=_EPS, runtime=_faulty_pooled())
            )
            try:
                while ticket.state == "queued":
                    await asyncio.sleep(0.001)
                assert ticket.cancel()
            finally:
                release.set()  # the worker thread must never outlive the test
            response = await svc.result(ticket)
            assert response.state == "cancelled"
            assert response.result is None
            # the trail: degraded (with the discard noted) precedes the
            # terminal cancelled event for the same request
            events = [
                e for e in svc.log.events if e.request_id == ticket.request_id
            ]
            kinds = [e.kind for e in events]
            assert "degraded" in kinds and "cancelled" in kinds
            assert kinds.index("degraded") < kinds.index("cancelled")
            degraded = next(e for e in events if e.kind == "degraded")
            assert "result discarded" in degraded.detail
            assert "lost 1 device(s)" in degraded.detail

            # the pool was released and re-armed: the next pooled request
            # runs clean on the full pool and matches a fault-free run
            follow_up = await svc.run(
                JoinRequest(
                    dataset="d",
                    epsilon=_EPS,
                    runtime=RuntimeConfig(sharding=ShardingConfig(num_devices=3)),
                )
            )
            assert follow_up.state == "done"
            log = follow_up.result.recovery_log
            assert log is None or log.num_devices_lost == 0
            snap = svc.snapshot()
            assert snap["counts"]["cancelled"] == 1
            assert snap["counts"]["completed"] == 1

    asyncio.run(main())


def test_cancel_before_dispatch_skips_execution_entirely(points):
    async def main():
        cfg = ServeConfig(admission=AdmissionPolicy(max_concurrency=1))
        async with JoinService(cfg) as svc:
            svc.pause_dispatch()
            svc.register_dataset("d", points)
            ticket = await svc.submit(
                JoinRequest(dataset="d", epsilon=_EPS, runtime=_faulty_pooled())
            )
            assert ticket.cancel()
            svc.resume_dispatch()
            response = await svc.result(ticket)
            assert response.state == "cancelled"
            # never ran: no degraded event, no recovery trail at all
            assert svc.log.count("degraded") == 0
            assert svc.log.count("dispatch") == 0

    asyncio.run(main())


def test_cancelled_recovery_result_matches_nothing_leaks_between_requests(points):
    """Interleave cancelled faulty runs with clean runs: every clean run
    stays bit-identical to the serial baseline."""

    async def main():
        from repro.runtime import Runner, compile_self_join
        from repro.grid import GridIndex

        index = GridIndex(points, _EPS)
        baseline = Runner().run(
            compile_self_join(index, RuntimeConfig(sharding=ShardingConfig(num_devices=3)))
        )
        cfg = ServeConfig(admission=AdmissionPolicy(max_concurrency=1))
        async with JoinService(cfg) as svc:
            svc.register_dataset("d", points)
            for _ in range(2):
                faulty = await svc.submit(
                    JoinRequest(dataset="d", epsilon=_EPS, runtime=_faulty_pooled())
                )
                faulty.cancel()
                clean = await svc.run(
                    JoinRequest(
                        dataset="d",
                        epsilon=_EPS,
                        runtime=RuntimeConfig(sharding=ShardingConfig(num_devices=3)),
                    )
                )
                await svc.result(faulty)
                assert clean.state == "done"
                np.testing.assert_array_equal(
                    clean.result.sorted_pairs(), baseline.sorted_pairs()
                )

    asyncio.run(main())
