"""JoinService behaviour: lifecycle, caching, rejection, cancellation,
timeouts, failures, degraded pools, streaming, events and the report.

``pytest-asyncio`` is not a dependency; every test drives its coroutine
with ``asyncio.run`` so the suite runs on a stock pytest.
"""

from __future__ import annotations

import asyncio
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from repro.core import SelfJoin
from repro.data import uniform
from repro.grid import GridIndex, dataset_fingerprint
from repro.resilience import DeviceFailure, FaultPlan
from repro.runtime import Runner, RuntimeConfig, ShardingConfig, compile_self_join
from repro.serve import (
    AdmissionPolicy,
    JoinClient,
    JoinRequest,
    JoinService,
    ServeConfig,
    ServeError,
    estimate_request_cost,
)
from repro.serve import service as service_module

_EPS = 0.08


@pytest.fixture(scope="module")
def points():
    return uniform(220, 2, seed=21, low=0.0, high=1.0)


@pytest.fixture(scope="module")
def expected_pairs(points):
    return SelfJoin().execute(points, _EPS).sorted_pairs()


def serve(coro_fn, config: ServeConfig | None = None):
    """Run one async test body against a started service."""

    async def main():
        async with JoinService(config) as svc:
            return await coro_fn(svc)

    return asyncio.run(main())


# ------------------------------------------------------------ basics
def test_submit_and_result_roundtrip(points, expected_pairs):
    async def body(svc):
        svc.register_dataset("u", points)
        ticket = await svc.submit(JoinRequest(dataset="u", epsilon=_EPS))
        response = await svc.result(ticket)
        assert response.ok and response.state == "done"
        assert ticket.done
        np.testing.assert_array_equal(
            response.result.sorted_pairs(), expected_pairs
        )
        assert response.queue_seconds >= 0.0
        assert response.execute_seconds > 0.0
        return response

    response = serve(body)
    assert not response.cache_hit  # first request builds the index


def test_unknown_dataset_raises(points):
    async def body(svc):
        with pytest.raises(ServeError, match="register"):
            await svc.submit(JoinRequest(dataset="ghost", epsilon=_EPS))

    serve(body)


def test_submit_requires_running_service(points):
    async def body():
        svc = JoinService()
        svc.register_dataset("u", points)
        with pytest.raises(ServeError, match="not running"):
            await svc.submit(JoinRequest(dataset="u", epsilon=_EPS))

    asyncio.run(body())


def test_repeat_requests_hit_the_cache(points):
    async def body(svc):
        svc.register_dataset("u", points)
        first = await svc.run(JoinRequest(dataset="u", epsilon=_EPS))
        second = await svc.run(JoinRequest(dataset="u", epsilon=_EPS))
        assert not first.cache_hit
        assert second.cache_hit
        assert second.num_pairs == first.num_pairs
        assert svc.cache.stats.hit_rate > 0
        assert svc.log.count("cache_miss") == 1
        assert svc.log.count("cache_hit") >= 1
        # a different ε is a different grid — miss again
        third = await svc.run(JoinRequest(dataset="u", epsilon=_EPS * 2))
        assert not third.cache_hit

    serve(body)


# ------------------------------------------------------------ memoized costs
def _counted_estimates():
    """Patch the service's estimator with a call-counting wrapper."""
    return mock.patch.object(
        service_module, "estimate_request_cost", wraps=estimate_request_cost
    )


def test_memoized_cost_equals_a_fresh_estimate(points):
    queries = points[:90]
    requests = [
        JoinRequest(dataset="u", epsilon=_EPS),
        JoinRequest(dataset="u", epsilon=_EPS, runtime=RuntimeConfig(include_self=False)),
        JoinRequest(dataset="u", epsilon=_EPS, kind="similarity", query_dataset="q"),
        JoinRequest(dataset="u", epsilon=_EPS, kind="knn", k=3),
        JoinRequest(dataset="u", epsilon=_EPS, kind="knn", k=5),
    ]

    async def body(svc):
        svc.register_dataset("u", points)
        svc.register_dataset("q", queries)
        with _counted_estimates() as estimator:
            for request in requests:
                first = await svc.submit(request)
                second = await svc.submit(request)
                await svc.result(first), await svc.result(second)
                fresh = estimate_request_cost(
                    GridIndex(points, _EPS),
                    kind=request.kind,
                    queries=queries if request.kind == "similarity" else None,
                    sample_fraction=request.runtime.optimization.sample_fraction,
                    include_self=request.runtime.include_self,
                    k=request.k,
                )
                assert first.estimated_pairs == second.estimated_pairs == fresh
            # every request differs in what its estimate reads, and its
            # repeat on the cached index costs no estimate
            assert estimator.call_count == len(requests)

    serve(body)


def test_reregistered_datasets_get_their_own_estimates(points):
    other = uniform(300, 2, seed=22, low=0.0, high=1.0)

    def fresh(data, kind="self", queries=None):
        return estimate_request_cost(GridIndex(data, _EPS), kind=kind, queries=queries)

    async def body(svc):
        svc.register_dataset("u", points)
        svc.register_dataset("q", points[:60])
        sim = JoinRequest(dataset="u", epsilon=_EPS, kind="similarity", query_dataset="q")
        for request in (JoinRequest(dataset="u", epsilon=_EPS), sim):
            await svc.run(request)
        # new query points against the same cached index
        svc.register_dataset("q", other[:60])
        cross = await svc.submit(sim)
        assert cross.cache_hit
        assert cross.estimated_pairs == fresh(points, "similarity", other[:60])
        assert cross.estimated_pairs != fresh(points, "similarity", points[:60])
        # new indexed points under the same name
        svc.register_dataset("u", other)
        own = await svc.submit(JoinRequest(dataset="u", epsilon=_EPS))
        assert own.estimated_pairs == fresh(other) != fresh(points)
        await svc.result(own), await svc.result(cross)

    serve(body)


def test_evicting_an_index_drops_its_costs(points):
    other = uniform(300, 2, seed=22, low=0.0, high=1.0)
    request = JoinRequest(dataset="u", epsilon=_EPS)

    def costs(index):
        return [key for key in index.plan_cache if key[0] == "cost"]

    async def body(svc):
        svc.register_dataset("u", points)
        svc.register_dataset("v", other)
        fp = dataset_fingerprint(points)
        with _counted_estimates() as estimator:
            await svc.run(request)
            index = svc.cache.get(fp, _EPS)
            assert len(costs(index)) == 1
            await svc.run(JoinRequest(dataset="v", epsilon=_EPS))  # evicts u
            assert svc.cache.stats.evictions == 1
            await svc.run(request)  # a rebuilt index estimates afresh
            assert estimator.call_count == 3
            rebuilt = svc.cache.get(fp, _EPS)
            assert rebuilt is not index and len(costs(rebuilt)) == 1

    serve(body, ServeConfig(cache_entries=1))


def test_rejection_over_budget(points):
    config = ServeConfig(admission=AdmissionPolicy(max_estimated_pairs=1))

    async def body(svc):
        svc.register_dataset("u", points)
        ticket = await svc.submit(JoinRequest(dataset="u", epsilon=_EPS))
        response = await svc.result(ticket)
        assert ticket.state == "rejected"
        assert not response.ok
        assert "over_budget" in response.error
        assert svc.log.count("reject") == 1

    serve(body, config)


def test_cancel_while_queued(points):
    # one slot, a long request in front: the second ticket is still queued
    # when cancelled, so it must terminate without running
    config = ServeConfig(admission=AdmissionPolicy(max_concurrency=1))

    async def body(svc):
        svc.register_dataset("u", points)
        first = await svc.submit(JoinRequest(dataset="u", epsilon=_EPS))
        second = await svc.submit(JoinRequest(dataset="u", epsilon=_EPS))
        assert second.cancel()
        r1 = await svc.result(first)
        r2 = await svc.result(second)
        assert r1.ok
        assert r2.state == "cancelled" and not r2.ok
        assert svc.log.count("cancelled") == 1

    serve(body, config)


def test_queue_deadline_timeout(points):
    config = ServeConfig(admission=AdmissionPolicy(max_concurrency=1))

    async def body(svc):
        svc.register_dataset("u", points)
        first = await svc.submit(JoinRequest(dataset="u", epsilon=_EPS))
        # an impossible deadline: whatever time admission took already
        # exceeded it, so it times out at dispatch instead of starting
        second = await svc.submit(
            JoinRequest(dataset="u", epsilon=_EPS, timeout_seconds=1e-9)
        )
        r1 = await svc.result(first)
        r2 = await svc.result(second)
        assert r1.ok
        assert r2.state == "timeout" and not r2.ok
        assert "deadline" in r2.error
        assert svc.log.count("timeout") == 1

    serve(body, config)


def test_failed_request_keeps_service_alive(points):
    async def body(svc):
        svc.register_dataset("u", points)
        # unicomp pattern is invalid for a bipartite join → compile error
        svc.register_dataset("q", points[:50])
        bad = await svc.run(
            JoinRequest(
                dataset="u",
                epsilon=_EPS,
                kind="similarity",
                query_dataset="q",
                runtime=RuntimeConfig(
                    optimization=__import__(
                        "repro.core", fromlist=["OptimizationConfig"]
                    ).OptimizationConfig(pattern="unicomp")
                ),
            )
        )
        assert bad.state == "failed"
        assert "full" in bad.error
        # the service keeps serving after a failed request
        good = await svc.run(JoinRequest(dataset="u", epsilon=_EPS))
        assert good.ok
        assert svc.log.count("failed") == 1

    serve(body)


def test_similarity_request(points):
    async def body(svc):
        svc.register_dataset("right", points)
        svc.register_dataset("left", points[:80])
        response = await svc.run(
            JoinRequest(
                dataset="right", epsilon=_EPS, kind="similarity", query_dataset="left"
            )
        )
        assert response.ok
        from repro.core import SimilarityJoin

        direct = SimilarityJoin().execute(points[:80], points, _EPS)
        np.testing.assert_array_equal(
            response.result.sorted_pairs(), direct.sorted_pairs()
        )

    serve(body)


# ------------------------------------------------------------ pooled + degraded
def test_pooled_requests_run_on_pool_devices(points, expected_pairs):
    config = ServeConfig(pool_devices=3)

    async def body(svc):
        svc.register_dataset("u", points)
        rc = RuntimeConfig(sharding=ShardingConfig(num_devices=8))
        response = await svc.run(JoinRequest(dataset="u", epsilon=_EPS, runtime=rc))
        assert response.ok
        np.testing.assert_array_equal(
            response.result.sorted_pairs(), expected_pairs
        )
        # the request asked for 8 devices but ran on the service's 3
        assert response.result.num_devices == 3
        assert svc.snapshot()["pool_devices"] == 3

    serve(body, config)


def test_each_pooled_request_runs_its_own_config():
    """Pooled requests of different engines and replay modes, served one
    after another, each answer as a direct run of their own config resized
    to ``pool_devices``. The native run's times are host wall-clock, so it
    is compared by pair bytes alone."""
    data = uniform(300, 2, seed=5, low=0.0, high=1.0)
    eps = 0.05
    sharding = ShardingConfig(num_devices=4)
    configs = [
        RuntimeConfig(engine="native", sharding=sharding),
        RuntimeConfig(engine="vectorized", sharding=sharding),
        RuntimeConfig(replay_mode="lockstep", sharding=sharding),
    ]

    async def body(svc):
        svc.register_dataset("u", data)
        return [
            await svc.run(JoinRequest(dataset="u", epsilon=eps, runtime=rc))
            for rc in configs
        ]

    responses = serve(body, ServeConfig(pool_devices=3))
    for rc, response in zip(configs, responses):
        assert response.ok, (rc.engine, response.error)
        resized = rc.with_(sharding=replace(sharding, num_devices=3))
        direct = Runner().run(compile_self_join(GridIndex(data, eps), resized))
        assert response.result.num_devices == 3
        assert response.result.pairs.tobytes() == direct.pairs.tobytes()
        if rc.engine != "native":
            assert response.result.trace.signature() == direct.trace.signature()
            assert response.result.total_seconds == direct.total_seconds


def test_service_survives_pool_degradation(points, expected_pairs):
    """A fault-degraded pooled run heals per-run: the next pooled request
    sees the full pool again (arm_pool re-arms health each run)."""

    async def body(svc):
        svc.register_dataset("u", points)
        faulty = RuntimeConfig(
            sharding=ShardingConfig(num_devices=2),
            fault_plan=FaultPlan(seed=3, failures=[DeviceFailure(0, at_shard=1)]),
        )
        degraded = await svc.run(
            JoinRequest(dataset="u", epsilon=_EPS, runtime=faulty)
        )
        assert degraded.ok
        np.testing.assert_array_equal(
            degraded.result.sorted_pairs(), expected_pairs
        )
        assert degraded.result.recovery_log.num_devices_lost == 1
        assert svc.log.count("degraded") == 1
        # the same pool serves the next fault-free request undegraded
        clean = await svc.run(
            JoinRequest(
                dataset="u",
                epsilon=_EPS,
                runtime=RuntimeConfig(sharding=ShardingConfig(num_devices=2)),
            )
        )
        assert clean.ok
        assert clean.result.recovery_log is None or (
            clean.result.recovery_log.num_devices_lost == 0
        )
        np.testing.assert_array_equal(clean.result.sorted_pairs(), expected_pairs)

    serve(body)


# ------------------------------------------------------------ streaming
def test_stream_blocks_reassemble_exactly(points):
    async def body(svc):
        svc.register_dataset("u", points)
        ticket = await svc.submit(JoinRequest(dataset="u", epsilon=_EPS))
        blocks = []
        async for block in svc.stream(ticket, chunk=97):
            blocks.append(block)
        response = await svc.result(ticket)
        assert all(len(b) == 97 for b in blocks[:-1])
        np.testing.assert_array_equal(
            np.concatenate(blocks), response.result.pairs
        )

    serve(body)


def test_stream_of_failed_request_raises(points):
    config = ServeConfig(admission=AdmissionPolicy(max_estimated_pairs=1))

    async def body(svc):
        svc.register_dataset("u", points)
        ticket = await svc.submit(JoinRequest(dataset="u", epsilon=_EPS))
        with pytest.raises(ServeError, match="rejected"):
            async for _ in svc.stream(ticket):
                pass

    serve(body, config)


# ------------------------------------------------------------ client + report
def test_client_facade(points):
    async def main():
        async with JoinClient() as client:
            client.register_dataset("u", points)
            response = await client.self_join("u", epsilon=_EPS)
            assert response.ok
            other = client.for_tenant("t2")
            assert other.service is client.service
            r2 = await other.self_join("u", epsilon=_EPS)
            assert r2.tenant == "t2" and r2.cache_hit

    asyncio.run(main())


def test_report_and_snapshot(points):
    async def body(svc):
        svc.register_dataset("u", points)
        for _ in range(3):
            await svc.run(JoinRequest(dataset="u", epsilon=_EPS, tenant="a"))
        await svc.run(JoinRequest(dataset="u", epsilon=_EPS, tenant="b"))
        report = svc.report()
        assert report.requests_completed == 4
        assert report.cache_hit_rate > 0
        assert report.tenant("a").completed == 3
        assert report.tenant("b").completed == 1
        assert report.queue_latency(50) >= 0.0
        rendered = report.render()
        assert "Service report" in rendered and "a" in rendered
        record = report.to_record()
        assert record["counts"]["completed"] == 4
        assert 0.0 < record["cache_hit_rate"] <= 1.0

    serve(body)


def test_stop_without_drain_cancels_backlog(points):
    async def main():
        svc = JoinService(ServeConfig(admission=AdmissionPolicy(max_concurrency=1)))
        await svc.start()
        svc.register_dataset("u", points)
        tickets = [
            await svc.submit(JoinRequest(dataset="u", epsilon=_EPS))
            for _ in range(3)
        ]
        await svc.stop(drain=False)
        states = [(await svc.result(t)).state for t in tickets]
        # whatever had started finishes; the backlog is cancelled
        assert states.count("cancelled") >= 1
        assert svc.log.count("shutdown") == 1

    asyncio.run(main())


# ------------------------------------------------------------ protection
def test_rate_limited_submit_rejects_terminally(points):
    from repro.serve import RateLimitPolicy

    async def body(svc):
        svc.register_dataset("u", points)
        tickets = [
            await svc.submit(JoinRequest(dataset="u", epsilon=_EPS))
            for _ in range(4)
        ]
        responses = [await svc.result(t) for t in tickets]
        limited = [r for r in responses if r.state == "rejected"]
        assert len(limited) == 2
        assert all("rate_limited" in r.error for r in limited)
        assert svc.log.count("rate_limited") == 2
        snap = svc.snapshot()
        assert snap["counts"]["rate_limited"] == 2
        assert snap["tenants"]["default"]["rate_limited"] == 2
        # the report surfaces the protection counters
        assert "rate-limited" in svc.report().render()

    serve(
        body,
        ServeConfig(rate_limit=RateLimitPolicy(requests_per_second=0.0, burst=2)),
    )


def test_rate_limit_is_per_tenant(points):
    from repro.serve import RateLimitPolicy

    async def body(svc):
        svc.register_dataset("u", points)
        a = await svc.submit(JoinRequest(dataset="u", epsilon=_EPS, tenant="a"))
        b = await svc.submit(JoinRequest(dataset="u", epsilon=_EPS, tenant="b"))
        ra, rb = await svc.result(a), await svc.result(b)
        assert ra.state == "done" and rb.state == "done"

    serve(
        body,
        ServeConfig(rate_limit=RateLimitPolicy(requests_per_second=0.0, burst=1)),
    )


def test_circuit_breaker_opens_after_failures(points):
    from repro.serve import CircuitBreakerPolicy

    async def body(svc):
        svc.register_dataset("u", points)
        bad = RuntimeConfig(
            sharding=ShardingConfig(num_devices=2),
            fault_plan=FaultPlan(
                failures=tuple(DeviceFailure(device_id=d) for d in range(2))
            ),
        )
        for _ in range(2):
            r = await svc.run(JoinRequest(dataset="u", epsilon=_EPS, runtime=bad))
            assert r.state == "failed"
        tripped = await svc.run(JoinRequest(dataset="u", epsilon=_EPS))
        assert tripped.state == "rejected"
        assert "circuit_open" in tripped.error
        assert svc.log.count("circuit_open") == 1
        assert svc.snapshot()["breakers"]["default"] == "open"
        # other tenants are unaffected
        other = await svc.run(
            JoinRequest(dataset="u", epsilon=_EPS, tenant="other")
        )
        assert other.state == "done"

    serve(
        body,
        ServeConfig(
            circuit_breaker=CircuitBreakerPolicy(
                failure_threshold=2, cooldown_seconds=1000.0
            )
        ),
    )


# ------------------------------------------------------------ deadlines
def test_execution_deadline_times_out_terminally(points):
    async def body(svc):
        svc.register_dataset("u", points)
        r = await svc.run(
            JoinRequest(dataset="u", epsilon=_EPS, deadline_seconds=1e-9)
        )
        assert r.state == "timeout"
        assert "deadline" in r.error
        assert svc.snapshot()["counts"]["timeout"] == 1
        # the service keeps serving afterwards
        ok = await svc.run(JoinRequest(dataset="u", epsilon=_EPS))
        assert ok.state == "done"

    serve(body)


def test_generous_deadline_completes_normally(points, expected_pairs):
    async def body(svc):
        svc.register_dataset("u", points)
        r = await svc.run(
            JoinRequest(dataset="u", epsilon=_EPS, deadline_seconds=3600.0)
        )
        assert r.state == "done"
        np.testing.assert_array_equal(r.result.sorted_pairs(), expected_pairs)

    serve(body)


# ------------------------------------------------------------ shutdown
def test_drain_stops_admissions_but_finishes_backlog(points):
    async def main():
        svc = JoinService(ServeConfig(admission=AdmissionPolicy(max_concurrency=1)))
        await svc.start()
        svc.register_dataset("u", points)
        tickets = [
            await svc.submit(JoinRequest(dataset="u", epsilon=_EPS))
            for _ in range(3)
        ]
        stopper = asyncio.create_task(svc.stop(drain=True))
        await asyncio.sleep(0.01)
        # mid-drain: new work is rejected terminally, never queued
        late = await svc.submit(JoinRequest(dataset="u", epsilon=_EPS))
        late_response = await svc.result(late)
        assert late_response.state == "rejected"
        assert "draining" in late_response.error
        await stopper
        states = [(await svc.result(t)).state for t in tickets]
        assert states == ["done", "done", "done"]
        kinds = [e.kind for e in svc.log.events]
        assert "drain" in kinds and kinds.index("drain") < kinds.index("shutdown")

    asyncio.run(main())


def test_stop_timeout_cancels_what_drain_could_not_finish(points):
    async def main():
        svc = JoinService(ServeConfig(admission=AdmissionPolicy(max_concurrency=1)))
        await svc.start()
        svc.register_dataset("u", points)
        svc.pause_dispatch()  # wedge dispatch so the backlog cannot drain...
        tickets = [
            await svc.submit(JoinRequest(dataset="u", epsilon=_EPS))
            for _ in range(3)
        ]
        svc.pause_dispatch()
        # ...except stop() re-opens the gate; the tiny timeout still cuts
        # the drain short, and every ticket must resolve terminally
        await svc.stop(drain=True, timeout=0.0)
        states = [(await svc.result(t)).state for t in tickets]
        assert all(s in ("done", "cancelled") for s in states)
        assert svc.log.count("shutdown") == 1

    asyncio.run(main())


def test_shutdown_resolves_every_pending_ticket(points):
    async def main():
        svc = JoinService(ServeConfig(admission=AdmissionPolicy(max_concurrency=1)))
        await svc.start()
        svc.register_dataset("u", points)
        svc.pause_dispatch()  # nothing ever dispatches
        tickets = [
            await svc.submit(JoinRequest(dataset="u", epsilon=_EPS))
            for _ in range(4)
        ]
        await svc.stop(drain=False)
        responses = await asyncio.wait_for(
            asyncio.gather(*(svc.result(t) for t in tickets)), timeout=5.0
        )
        assert all(r.state == "cancelled" for r in responses)
        assert all(t.done for t in tickets)
        assert svc.log.count("shutdown") == 1

    asyncio.run(main())
