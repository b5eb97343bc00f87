"""ISSUE acceptance test: N interleaved tenants with mixed self and
similarity requests through ``repro.serve`` produce bit-identical pair
sets to serial ``Runner`` execution, the session cache earns hits on
repeated-dataset requests, and per-tenant fairness bounds hold in the
``ServiceReport``.

The serial references go through the same compile → Runner path the
service uses internally, so equality here means the serving layer adds
*no* nondeterminism: not from concurrency, not from index reuse, not
from pool sharing.
"""

from __future__ import annotations

import asyncio
import sys

import numpy as np
import pytest

from repro.data import exponential, uniform
from repro.grid import GridIndex, dataset_fingerprint
from repro.runtime import (
    Runner,
    RuntimeConfig,
    ShardingConfig,
    compile_self_join,
    compile_similarity_join,
)
from repro.serve import AdmissionPolicy, JoinRequest, JoinService, ServeConfig

TENANTS = ["alpha", "beta", "gamma", "delta"]
_EPS_SELF = 0.06
_EPS_SIM = 0.07


@pytest.fixture(scope="module")
def datasets():
    return {
        "expo": exponential(240, 2, seed=31),
        "unif": uniform(240, 2, seed=32, low=0.0, high=1.0),
        "queries": uniform(90, 2, seed=33, low=0.0, high=1.0),
    }


def _requests_for(tenant: str) -> list[JoinRequest]:
    """Every tenant submits the same mixed self/similarity workload, so
    serial references are shared and per-tenant output is identical."""
    pooled = RuntimeConfig(sharding=ShardingConfig(num_devices=2))
    return [
        JoinRequest(dataset="expo", epsilon=_EPS_SELF, tenant=tenant, tag="self-expo"),
        JoinRequest(
            dataset="unif",
            epsilon=_EPS_SIM,
            kind="similarity",
            query_dataset="queries",
            tenant=tenant,
            tag="sim-unif",
        ),
        JoinRequest(
            dataset="expo",
            epsilon=_EPS_SELF,
            tenant=tenant,
            runtime=pooled,
            tag="self-expo-pooled",
        ),
    ]


@pytest.fixture(scope="module")
def serial_reference(datasets):
    """Tag → canonical sorted pair set, via the same Runner pipeline."""
    runner = Runner()
    expo_index = GridIndex(datasets["expo"], _EPS_SELF)
    unif_index = GridIndex(datasets["unif"], _EPS_SIM)
    self_plan = compile_self_join(expo_index, RuntimeConfig())
    sim_plan = compile_similarity_join(
        unif_index, datasets["queries"], RuntimeConfig()
    )
    self_pairs = runner.run(self_plan).sorted_pairs()
    sim_pairs = runner.run(sim_plan).sorted_pairs()
    return {
        "self-expo": self_pairs,
        "sim-unif": sim_pairs,
        "self-expo-pooled": self_pairs,  # pooling must not change the answer
    }


def test_interleaved_tenants_match_serial_runner(datasets, serial_reference):
    config = ServeConfig(
        admission=AdmissionPolicy(max_concurrency=3, max_queue_depth=256),
        pool_devices=2,
    )

    async def main():
        async with JoinService(config) as svc:
            for name in ("expo", "unif", "queries"):
                svc.register_dataset(name, datasets[name])
            # hold every concurrency slot while submitting so the queue
            # fills with all tenants before the first dispatch — the
            # interleaving assertion below is then deterministic
            slots = config.admission.max_concurrency
            for _ in range(slots):
                await svc._slots.acquire()
            tickets = []
            for round_ in range(2):  # repeat the workload → cache hits
                for tenant in TENANTS:
                    for request in _requests_for(tenant):
                        tickets.append(await svc.submit(request))
            for _ in range(slots):
                svc._slots.release()
            responses = await asyncio.gather(*(svc.result(t) for t in tickets))
            return svc.report(), responses

    report, responses = asyncio.run(main())

    # --- bit-identical pair sets vs the serial Runner -------------------
    assert all(r.ok for r in responses)
    for response in responses:
        expected = serial_reference[response.tag]
        got = response.result.sorted_pairs()
        np.testing.assert_array_equal(got, expected)

    # --- cache earns hits on repeated-dataset requests ------------------
    assert report.cache_hit_rate > 0
    assert report.cache_hits > report.cache_misses  # 24 requests, 2 grids

    # --- per-tenant fairness bounds from the ServiceReport --------------
    total = len(TENANTS) * 3 * 2
    assert report.requests_completed == total
    for tenant in TENANTS:
        row = report.tenant(tenant)
        assert row.completed == 6
        assert row.failed == 0
    # identical workloads + equal weights → identical weighted service
    assert report.fairness_spread() == pytest.approx(1.0)
    # DRR interleaves: every tenant is dispatched within the first
    # 2·N slots (the very first pop can land before the queue is full,
    # handing one tenant a single-dispatch head start — no more)
    assert set(report.dispatch_order[: 2 * len(TENANTS)]) == set(TENANTS)
    # and at no prefix of the dispatch order is any tenant more than two
    # requests ahead of any other — the DRR fairness bound
    counts = dict.fromkeys(TENANTS, 0)
    for tenant in report.dispatch_order:
        counts[tenant] += 1
        assert max(counts.values()) - min(counts.values()) <= 2


def test_weighted_tenants_report_spread(datasets):
    """Unequal weights with equal workloads surface as fairness spread
    exactly 1.0 in *completed output* (everyone's work still finishes)
    while the dispatch order favours the heavy tenant early."""
    config = ServeConfig(
        admission=AdmissionPolicy(max_concurrency=1, max_queue_depth=128),
        tenant_weights={"alpha": 3.0},
    )

    async def main():
        async with JoinService(config) as svc:
            svc.register_dataset("expo", datasets["expo"])
            tickets = []
            for _ in range(3):
                for tenant in ("alpha", "beta"):
                    tickets.append(
                        await svc.submit(
                            JoinRequest(
                                dataset="expo", epsilon=_EPS_SELF, tenant=tenant
                            )
                        )
                    )
            await asyncio.gather(*(svc.result(t) for t in tickets))
            return svc.report()

    report = asyncio.run(main())
    assert report.requests_completed == 6
    assert report.tenant("alpha").weight == 3.0
    assert report.tenant("beta").weight == 1.0
    # weighted spread: alpha's pairs/weight is a third of beta's
    spread = report.fairness_spread()
    assert spread == pytest.approx(3.0)


def test_concurrent_self_joins_share_the_walk_memo():
    """Two identical native self-joins run at once on one cached index,
    four times: the memo of candidate runs fills from two worker threads,
    and every answer is byte-identical to the serial Runner's on a fresh
    index — pairs and fragments."""
    native = RuntimeConfig(engine="native")
    # sparse cells, so the walk's runs fit the index's memo budget
    points, eps = uniform(600, 2, seed=34, low=0.0, high=10.0), 0.1
    serial = Runner().run(compile_self_join(GridIndex(points, eps), native))
    config = ServeConfig(admission=AdmissionPolicy(max_concurrency=2))
    request = JoinRequest(dataset="sparse", epsilon=eps, runtime=native)

    async def main():
        async with JoinService(config) as svc:
            svc.register_dataset("sparse", points)
            rounds = []
            for _ in range(4):
                tickets = [await svc.submit(request) for _ in range(2)]
                rounds.append(await asyncio.gather(*(svc.result(t) for t in tickets)))
            return rounds, svc.cache.get(dataset_fingerprint(points), eps)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rounds, index = asyncio.run(main())
    finally:
        sys.setswitchinterval(previous)
    for responses in rounds:
        for response in responses:
            assert response.ok
            assert response.result.pairs.tobytes() == serial.pairs.tobytes()
            assert [f.tobytes() for f in response.result.fragments] == [
                f.tobytes() for f in serial.fragments
            ]
    table = index.neighbors
    assert 0 < table.runs_bytes and table.memo_bytes <= table.memo_budget
