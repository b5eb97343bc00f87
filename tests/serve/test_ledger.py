"""The service log is the service's one ledger.

Every request ends with exactly one terminal event, ``snapshot()`` counts
what the log holds, every index build logs the entries it evicts, and a
settled request's result is the caller's alone to keep.

``pytest-asyncio`` is not a dependency; every test drives its coroutine
with ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import gc
import sys
import threading
import weakref
from collections import Counter

import pytest

import repro.serve.service as service_module
from repro.data import sw_like, uniform
from repro.resilience import (
    CancellationStorm,
    ClientDisconnect,
    PoolCollapse,
    RunnerCrash,
    ServiceFaultPlan,
)
from repro.runtime import Runner, RuntimeConfig, ShardingConfig
from repro.serve import (
    AdmissionPolicy,
    JoinRequest,
    JoinService,
    RetryPolicy,
    ServeConfig,
)

_EPS = 0.08
_TERMINAL = ("complete", "failed", "cancelled", "timeout", "reject", "rate_limited", "circuit_open")


@pytest.fixture(scope="module")
def points():
    return uniform(220, 2, seed=21, low=0.0, high=1.0)


def assert_one_ledger(svc: JoinService) -> None:
    """The snapshot's counts are the log's, and each request ends once."""
    kinds = Counter(e.kind for e in svc.log.events)
    assert svc.snapshot()["counts"] == {
        "submitted": kinds["submit"],
        "completed": kinds["complete"],
        "failed": kinds["failed"],
        "rejected": kinds["reject"] + kinds["rate_limited"] + kinds["circuit_open"],
        "cancelled": kinds["cancelled"],
        "timeout": kinds["timeout"],
        "rate_limited": kinds["rate_limited"],
        "circuit_open": kinds["circuit_open"],
        "retried": kinds["retry"],
    }
    submitted = [e.request_id for e in svc.log.events if e.kind == "submit"]
    ends = Counter(e.request_id for e in svc.log.events if e.kind in _TERMINAL)
    assert {rid: ends[rid] for rid in submitted} == {rid: 1 for rid in submitted}


def test_slot_wait_cancel_is_logged(points, monkeypatch):
    """A ticket the dispatcher holds while it waits for a slot, cancelled
    by ``stop(drain=False)``, ends with a ``cancelled`` event."""
    release = threading.Event()

    class GatedRunner(Runner):
        def run(self, plan, **kwargs):
            release.wait()
            return super().run(plan, **kwargs)

    monkeypatch.setattr(service_module, "Runner", GatedRunner)

    async def until(condition):
        while not condition():
            await asyncio.sleep(0.001)

    async def main():
        svc = JoinService(ServeConfig(admission=AdmissionPolicy(max_concurrency=1)))
        await svc.start()
        svc.register_dataset("d", points)
        try:
            holder = await svc.submit(JoinRequest(dataset="d", epsilon=_EPS, tag="holder"))
            await until(lambda: holder.state == "running")
            waiter = await svc.submit(JoinRequest(dataset="d", epsilon=_EPS, tag="waiter"))
            # popped: the dispatcher now waits for the slot the holder keeps
            await until(lambda: len(svc._queue) == 0)
            assert waiter.state == "queued"
            stopper = asyncio.create_task(svc.stop(drain=False))
            await until(lambda: waiter.done)
        finally:
            release.set()  # the holder's worker thread must never outlive the test
        await stopper
        assert (await svc.result(holder)).state == "done"
        response = await svc.result(waiter)
        assert response.state == "cancelled" and response.error == "service stopped"
        ends = [e for e in svc.log.events if e.request_id == waiter.request_id]
        assert [e.kind for e in ends][-1] == "cancelled"
        assert svc.snapshot()["counts"]["cancelled"] == 1
        assert_one_ledger(svc)

    asyncio.run(asyncio.wait_for(main(), timeout=60))


def test_every_build_logs_its_evictions():
    """kNN rounds build their grids through the session cache too: with one
    entry each round evicts the last, and each eviction is an event."""

    async def main():
        async with JoinService(ServeConfig(cache_entries=1)) as svc:
            svc.register_dataset("rings", sw_like(2000, 2, seed=3))
            response = await svc.run(
                JoinRequest(
                    dataset="rings",
                    epsilon=0.05,
                    kind="knn",
                    k=8,
                    runtime=RuntimeConfig(engine="native"),
                )
            )
            assert response.ok
            evictions = svc.cache.stats.evictions
            assert evictions > 0
            assert svc.log.count("evict") == evictions
            assert_one_ledger(svc)

    asyncio.run(main())


def test_concurrent_builds_log_every_eviction():
    """Worker threads build kNN rounds' grids and rebuild evicted indexes at
    once, under a short switch interval: no eviction or terminal event is
    lost from the log."""

    async def main():
        cfg = ServeConfig(admission=AdmissionPolicy(max_concurrency=4), cache_entries=1)
        async with JoinService(cfg) as svc:
            for seed in (1, 2):
                svc.register_dataset(f"d{seed}", sw_like(600, 2, seed=seed))
            requests = [
                JoinRequest(dataset=f"d{1 + i % 2}", epsilon=0.05, kind="knn", k=4)
                if i % 3
                else JoinRequest(dataset=f"d{1 + i % 2}", epsilon=0.02 * (1 + i % 4))
                for i in range(12)
            ]
            responses = await asyncio.gather(*(svc.run(r) for r in requests))
            assert all(r.ok for r in responses)
            assert svc.log.count("evict") == svc.cache.stats.evictions > 0
            assert_one_ledger(svc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        asyncio.run(asyncio.wait_for(main(), timeout=120))
    finally:
        sys.setswitchinterval(interval)


def test_served_results_are_not_retained(points):
    """Once settled, a response's result lives only as long as its caller
    keeps it (the second request moves the dispatcher's loop variable on
    from the first ticket)."""

    async def main():
        async with JoinService() as svc:
            svc.register_dataset("d", points)
            first = await svc.run(JoinRequest(dataset="d", epsilon=_EPS))
            assert first.ok
            result = weakref.ref(first.result)
            del first
            second = await svc.run(JoinRequest(dataset="d", epsilon=_EPS))
            assert second.ok
            gc.collect()
            assert result() is None
            assert_one_ledger(svc)

    asyncio.run(main())


def test_chaos_run_keeps_one_ledger(points):
    """Storms, disconnects, collapses and crashes with retries: every
    faulted request still ends once, and the counts are the log's."""
    plan = ServiceFaultPlan(
        seed=17,
        storms=(CancellationStorm(at_request=1, count=2),),
        disconnects=(ClientDisconnect(at_request=2),),
        collapses=(PoolCollapse(at_request=3, keep_devices=1, at_shard=1),),
        crashes=(RunnerCrash(at_request=0, at_shard=1),),
    )
    cfg = ServeConfig(
        admission=AdmissionPolicy(max_concurrency=1),
        retry=RetryPolicy(max_attempts=2),
        chaos=plan,
    )

    async def main():
        async with JoinService(cfg) as svc:
            svc.pause_dispatch()
            svc.register_dataset("d", points)
            tickets = [
                await svc.submit(
                    JoinRequest(
                        dataset="d",
                        epsilon=_EPS,
                        runtime=RuntimeConfig(sharding=ShardingConfig(num_devices=3)),
                    )
                )
                for _ in range(7)
            ]
            svc.resume_dispatch()
            for ticket in tickets:
                await svc.result(ticket)
            assert svc.chaos_report().all_resolved
            assert svc.log.count("retry") == 1
            assert_one_ledger(svc)

    asyncio.run(main())
