"""`repro.serve`: async multi-tenant join serving.

Every layer below this one answers a single join as fast as possible;
this subsystem keeps answering *many* joins for *many* tenants from one
long-running process. The moving parts:

- :class:`JoinService` — the server: registration, admission, weighted
  deficit-round-robin fairness, bounded concurrency (pooled requests
  each on their own :class:`~repro.multigpu.pool.DevicePool`), per-request
  cancellation/timeouts, and the :class:`SessionCache` that reuses built
  :class:`~repro.grid.GridIndex`\\ es (and their memoized pattern plans)
  across requests.
- :class:`JoinClient` — the deterministic in-process client every test
  and benchmark drives; :mod:`repro.serve.net` adds an optional
  stdlib-only TCP transport behind the same verbs.
- :class:`ServiceLog` — the typed incident log (mirror of the
  multi-GPU scheduler's ``ShardEvent`` stream); render the service's
  aggregate behaviour with :meth:`JoinService.report` (a
  :class:`~repro.profiling.ServiceReport`).

Quick start::

    import asyncio
    from repro.serve import JoinClient

    async def main():
        async with JoinClient() as client:
            client.register_dataset("expo", points)
            r = await client.self_join("expo", epsilon=0.4)
            print(r.num_pairs, r.cache_hit)

    asyncio.run(main())

``python -m repro.serve`` runs a self-contained multi-tenant demo.
"""

from repro.serve.admission import (
    AdmissionDecision,
    AdmissionPolicy,
    CircuitBreaker,
    CircuitBreakerPolicy,
    RateLimitPolicy,
    RetryBudget,
    RetryPolicy,
    TokenBucket,
    check_admission,
    estimate_request_cost,
)
from repro.serve.cache import CacheStats, SessionCache
from repro.serve.chaos import ChaosController
from repro.serve.client import JoinClient
from repro.serve.events import EVENT_KINDS, ServiceEvent, ServiceLog
from repro.serve.fairness import FairQueue
from repro.serve.model import (
    REQUEST_KINDS,
    REQUEST_STATES,
    TERMINAL_STATES,
    AdmissionError,
    DatasetHandle,
    JoinRequest,
    JoinResponse,
    JoinTicket,
    ServeError,
)
from repro.serve.service import JoinService, ServeConfig

__all__ = [
    "AdmissionDecision",
    "AdmissionError",
    "AdmissionPolicy",
    "CacheStats",
    "ChaosController",
    "CircuitBreaker",
    "CircuitBreakerPolicy",
    "DatasetHandle",
    "EVENT_KINDS",
    "FairQueue",
    "JoinClient",
    "JoinRequest",
    "JoinResponse",
    "JoinService",
    "JoinTicket",
    "RateLimitPolicy",
    "REQUEST_KINDS",
    "REQUEST_STATES",
    "RetryBudget",
    "RetryPolicy",
    "ServeConfig",
    "ServeError",
    "ServiceEvent",
    "ServiceLog",
    "SessionCache",
    "TERMINAL_STATES",
    "TokenBucket",
    "check_admission",
    "estimate_request_cost",
]
