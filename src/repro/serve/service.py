"""`JoinService`: async multi-tenant join serving.

The service is the first consumer of the PR-4 pipeline under
concurrency: every request still compiles to a declarative
:class:`~repro.runtime.plan.JoinPlan` executed by the one
:class:`~repro.runtime.runner.Runner` — the service adds the *serving*
concerns around that seam:

- **registration** — datasets are registered once and addressed by name;
  the content fingerprint (:func:`repro.grid.dataset_fingerprint`) is
  the cache identity;
- **admission** — each request's result size is estimated up front
  (:mod:`repro.serve.admission`) and the request is queued or rejected
  against the backlog bound and per-request budget; per-tenant
  :class:`~repro.serve.admission.TokenBucket` rate limits and
  :class:`~repro.serve.admission.CircuitBreaker`\\ s reject *before* the
  estimate costs anything — every rejection is a terminal response,
  never a hung caller;
- **fairness** — queued requests drain by weighted deficit round-robin
  (:mod:`repro.serve.fairness`), so tenants share estimated result rows
  proportionally to their weights;
- **caching** — built :class:`~repro.grid.GridIndex`\\ es (and the
  :class:`~repro.core.patterns.PatternPlan`\\ s, neighbour ranks and
  candidate runs memoized on them) are reused across requests through
  the :class:`~repro.serve.cache.SessionCache`, and so are the admission
  estimates memoized on them;
- **concurrency** — up to ``max_concurrency`` joins execute at once in
  worker threads; a pooled request is resized to
  ``ServeConfig.pool_devices`` devices and runs on a
  :class:`~repro.multigpu.pool.DevicePool` the runner builds from its
  own config, so pooled requests share nothing and a pool degraded by
  one request's faults never reaches the next;
- **resilience** — a request whose config checkpoints
  (``RuntimeConfig(checkpoint=...)``) journals shard fragments durably;
  a budgeted retry (:class:`~repro.serve.admission.RetryPolicy`) re-runs
  a failed request — resuming from its journal instead of restarting —
  and ``deadline_seconds`` propagates from the request into the Runner's
  shard-dispatch deadline checks. The seeded
  :class:`~repro.resilience.faults.ServiceFaultPlan`
  (``ServeConfig(chaos=...)``) injects service-level faults at the
  dispatch seam for the chaos suite;
- **observability** — every decision lands in the
  :class:`~repro.serve.events.ServiceLog`, the service's one ledger:
  each request ends with exactly one terminal event, :meth:`snapshot`
  counts requests from the log, and :meth:`JoinService.report` renders
  the :class:`~repro.profiling.ServiceReport` (chaos runs additionally
  get the :class:`~repro.profiling.ChaosReport`).

Execution is per-request deterministic: results depend only on the
request (data, config, seed), never on interleaving — the concurrency
equivalence suite pins service responses bit-identical to serial
:class:`Runner` runs, and the chaos suite pins the timestamp-free
``ServiceLog`` signature per fault-plan seed.

Shutdown is graceful by default: :meth:`stop` first logs ``drain`` and
stops admissions (new submits resolve terminally ``rejected``), lets the
backlog and in-flight work finish (bounded by ``timeout``), then resolves
*every* still-pending ticket terminally ``cancelled`` — no caller awaits
forever, whichever path their request died on.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import AsyncIterator

import numpy as np

from repro.grid import GridIndex, dataset_fingerprint
from repro.resilience.faults import ServiceFaultPlan
from repro.runtime.plan import (
    compile_knn_join,
    compile_self_join,
    compile_similarity_join,
)
from repro.runtime.runner import DeadlineExceededError, Runner
from repro.serve.admission import (
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
from repro.serve.cache import SessionCache
from repro.serve.chaos import ChaosController
from repro.serve.events import ServiceLog
from repro.serve.fairness import FairQueue
from repro.serve.model import (
    DatasetHandle,
    JoinRequest,
    JoinResponse,
    JoinTicket,
    ServeError,
)
from repro.util import as_points_array

__all__ = ["JoinService", "ServeConfig"]

#: terminal event kind -> the ticket state it settles; each request ends
#: with exactly one of these events
_SETTLES = {
    "complete": "done",
    "failed": "failed",
    "cancelled": "cancelled",
    "timeout": "timeout",
    "reject": "rejected",
    "rate_limited": "rejected",
    "circuit_open": "rejected",
}
#: snapshot count -> the event kinds it counts in the log
_COUNTED = {
    "submitted": ("submit",),
    "completed": ("complete",),
    "failed": ("failed",),
    "rejected": ("reject", "rate_limited", "circuit_open"),
    "cancelled": ("cancelled",),
    "timeout": ("timeout",),
    "rate_limited": ("rate_limited",),
    "circuit_open": ("circuit_open",),
    "retried": ("retry",),
}
#: the counts a tenant's snapshot row carries ahead of its completion totals
_TENANT_COUNTED = ("submitted", "completed", "failed", "rejected", "rate_limited")
#: the completion totals of a tenant that has completed nothing
_NO_COMPLETIONS = {
    "cache_hits": 0,
    "pairs": 0,
    "estimated_pairs": 0,
    "simulated_seconds": 0.0,
    "wall_seconds": 0.0,
}


@dataclass(frozen=True)
class ServeConfig:
    """Service-level knobs (per-request knobs ride in the request's
    :class:`~repro.runtime.config.RuntimeConfig`).

    ``quantum`` is the deficit round-robin credit per tenant visit, in
    estimated result rows; ``tenant_weights`` scales it per tenant
    (unlisted tenants get weight 1). ``pool_devices`` is the device
    count every pooled request runs on (its sharding config is resized
    to it). ``default_timeout_seconds`` is the queue deadline applied when a
    request does not bring its own.

    The protective knobs are all per tenant and all optional:
    ``rate_limit`` (token bucket at submit), ``circuit_breaker`` (stop
    admitting a tenant whose requests keep failing), ``retry`` (budgeted
    re-execution of failures — checkpointed requests resume from their
    journal). ``chaos`` arms the seeded service-fault injector
    (:class:`~repro.resilience.faults.ServiceFaultPlan`) — test/benchmark
    use only.
    """

    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    cache_entries: int = 8
    quantum: float = 4096.0
    tenant_weights: dict = field(default_factory=dict)
    default_timeout_seconds: float | None = None
    pool_devices: int = 2
    rate_limit: RateLimitPolicy | None = None
    circuit_breaker: CircuitBreakerPolicy | None = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    chaos: ServiceFaultPlan | None = None

    def __post_init__(self):
        if self.cache_entries < 1:
            raise ValueError("cache_entries must be >= 1")
        if self.quantum <= 0:
            raise ValueError("quantum must be positive")
        if self.pool_devices < 1:
            raise ValueError("pool_devices must be >= 1")
        if self.default_timeout_seconds is not None and self.default_timeout_seconds <= 0:
            raise ValueError("default_timeout_seconds must be positive")


class JoinService:
    """The long-running join server. Use as an async context manager::

        async with JoinService() as svc:
            svc.register_dataset("stars", points)
            ticket = await svc.submit(JoinRequest(dataset="stars", epsilon=0.5))
            response = await svc.result(ticket)
    """

    def __init__(self, config: ServeConfig | None = None):
        self.config = config if config is not None else ServeConfig()
        self.cache = SessionCache(self.config.cache_entries)
        self.log = ServiceLog()
        self._queue = FairQueue(
            quantum=self.config.quantum, weights=self.config.tenant_weights
        )
        self._datasets: dict[str, DatasetHandle] = {}
        # unresolved tickets only: a settled ticket leaves, and with it the
        # service's last reference to its result
        self._tickets: dict[str, JoinTicket] = {}
        self._build_locks: dict[tuple[str, str], asyncio.Lock] = {}
        self._slots = asyncio.Semaphore(self.config.admission.max_concurrency)
        self._dispatcher: asyncio.Task | None = None
        self._workers: set[asyncio.Task] = set()
        self._seq = 0
        self._t0 = time.monotonic()
        self._running = False
        self._draining = False
        self._dispatch_gate = asyncio.Event()
        self._dispatch_gate.set()
        self._dispatch_seq = 0
        self._chaos = ChaosController(self.config.chaos)
        # per-tenant protective state (event-loop-only, no locks)
        self._buckets: dict[str, TokenBucket] = {}
        self._breakers: dict[str, CircuitBreaker] = {}
        self._retry_budgets: dict[str, RetryBudget] = {}
        # accounting read by repro.profiling.service_report; request counts
        # are read from the log, these are what the log does not hold
        self._queue_latencies: list[float] = []
        self._completions: dict[str, dict] = {}  # tenant -> its completion totals
        self._pool_busy_seconds = 0.0
        self._pool_allocated_seconds = 0.0
        self._pooled_runs = 0
        self._ckpt_lock = threading.Lock()
        self._ckpt = {
            "writes": 0,
            "loads": 0,
            "bytes_written": 0,
            "write_seconds": 0.0,
        }

    # ------------------------------------------------------- lifecycle
    async def start(self) -> "JoinService":
        if self._running:
            return self
        self._running = True
        self._draining = False
        self._t0 = time.monotonic()
        self._dispatcher = asyncio.create_task(
            self._dispatch_loop(), name="repro-serve-dispatcher"
        )
        return self

    async def stop(self, *, drain: bool = True, timeout: float | None = None) -> None:
        """Stop serving, gracefully by default.

        Draining first stops admissions (``drain`` event; new submits are
        terminally rejected), then waits for the backlog and in-flight
        requests to finish — bounded by ``timeout`` seconds when given.
        ``drain=False`` (or an expired timeout) cancels everything still
        queued. Either way every non-terminal ticket — queued, running, or
        never dispatched — is resolved terminally before ``shutdown`` is
        logged, so no ``result()`` caller can be left hanging.
        """
        if not self._running:
            return
        self._draining = True
        self.log.append(
            "drain",
            at_seconds=self._now(),
            detail="admissions stopped; "
            + ("finishing backlog" if drain else "cancelling backlog"),
        )
        if drain:
            self.resume_dispatch()  # a paused service must not wedge the drain
            deadline = (
                time.monotonic() + timeout if timeout is not None else None
            )
            while len(self._queue) or self._workers:
                if deadline is not None and time.monotonic() >= deadline:
                    break
                await asyncio.sleep(0.005)
        self._running = False
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        # flush whatever is still queued as cancelled tickets
        while len(self._queue):
            _, ticket, _ = self._queue._pop_now()
            self._settle(
                ticket,
                "cancelled",
                "cancelled at shutdown (never dispatched)",
                error="service stopped",
            )
        if self._workers:
            await asyncio.gather(*self._workers, return_exceptions=True)
        # safety net: no ticket may survive shutdown unresolved
        for ticket in list(self._tickets.values()):
            self._settle(
                ticket,
                "cancelled",
                "resolved terminally at shutdown",
                error="service stopped",
            )
        self.log.append("shutdown", at_seconds=self._now())

    async def __aenter__(self) -> "JoinService":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop(drain=not any(exc))

    def _now(self) -> float:
        return time.monotonic() - self._t0

    def pause_dispatch(self) -> None:
        """Hold dispatch: queued requests stay queued until resumed.

        Submits still admit and queue. The chaos tests use this to land a
        whole submit sequence before the first dispatch, making the
        injection ordinals — and so the log signature — deterministic.
        """
        self._dispatch_gate.clear()

    def resume_dispatch(self) -> None:
        self._dispatch_gate.set()

    # ------------------------------------------------------- datasets
    def register_dataset(self, name: str, points) -> DatasetHandle:
        """Register (or replace) a named dataset; validates and fingerprints.

        Registration is cheap — no index is built until the first request
        references the dataset (admission builds it, warming the cache).
        """
        if not name:
            raise ServeError("dataset name must be non-empty")
        pts = as_points_array(points)
        handle = DatasetHandle(
            name=name,
            fingerprint=dataset_fingerprint(pts),
            num_points=pts.shape[0],
            ndim=pts.shape[1],
            points=pts,
        )
        self._datasets[name] = handle
        self.log.append(
            "register",
            tenant="",
            at_seconds=self._now(),
            detail=f"{name} n={handle.num_points} dim={handle.ndim}",
        )
        return handle

    def dataset(self, name: str) -> DatasetHandle:
        try:
            return self._datasets[name]
        except KeyError:
            raise ServeError(f"unknown dataset {name!r}; register it first") from None

    # ------------------------------------------------------- admission
    async def submit(self, request: JoinRequest) -> JoinTicket:
        """Admit one request: estimate its cost, queue it or reject it.

        Always returns a ticket; a rejected request's ticket is already
        terminal (``state="rejected"``) and its response carries the
        reason. Protective rejections — draining, rate limit, open
        circuit — happen first and cost nothing; only then is the index
        resolved through the session cache (warming it for execution) and
        the result size estimated for the admission policy. The estimate
        is memoized with the cached index, so a repeated request on a
        cached index costs no estimate.
        """
        if not self._running:
            raise ServeError("service is not running; use 'async with JoinService()'")
        handle = self.dataset(request.dataset)
        query_handle = (
            self.dataset(request.query_dataset)
            if request.query_dataset is not None
            else None
        )
        self._seq += 1
        ticket = JoinTicket(
            request_id=f"r{self._seq:05d}",
            request=request,
            submitted_at=self._now(),
        )
        ticket.future = asyncio.get_running_loop().create_future()
        self._tickets[ticket.request_id] = ticket
        self.log.append(
            "submit",
            request_id=ticket.request_id,
            tenant=request.tenant,
            at_seconds=self._now(),
            detail=f"{request.kind} {request.dataset} eps={request.epsilon:g}"
            + (f" [{request.tag}]" if request.tag else ""),
        )

        refusal = self._refusal(request.tenant)
        if refusal is not None:
            return self._settle(ticket, *refusal)

        index, cache_hit = await self._index_for(handle, request.epsilon, ticket)
        sample_fraction = request.runtime.optimization.sample_fraction
        # memoized on the index, so it lives as long as the index, by
        # everything else the estimate reads
        what = (
            "cost",
            request.kind,
            query_handle.fingerprint if query_handle is not None else None,
            sample_fraction,
            request.runtime.include_self,
            request.k,
        )
        cost = index.plan_cache.get(what)
        if cost is None:
            cost = await asyncio.to_thread(
                estimate_request_cost,
                index,
                kind=request.kind,
                queries=query_handle.points if query_handle is not None else None,
                sample_fraction=sample_fraction,
                include_self=request.runtime.include_self,
                k=request.k,
            )
            index.plan_cache[what] = cost
        ticket.estimated_pairs = cost
        ticket.cache_hit = cache_hit

        decision = check_admission(
            self.config.admission,
            queue_depth=len(self._queue),
            estimated_pairs=cost,
        )
        if not decision.admitted:
            return self._settle(ticket, "reject", decision.reason)

        self._queue.push(request.tenant, ticket, float(cost))
        return ticket

    def _refusal(self, tenant: str) -> tuple[str, str] | None:
        """The ``(event kind, reason)`` a protective check refuses a
        tenant's request with before any estimate, or ``None``."""
        if self._draining:
            return "reject", "draining (service is shutting down)"
        if self.config.rate_limit is not None:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = self._buckets[tenant] = TokenBucket(self.config.rate_limit)
            if not bucket.try_take(self._now()):
                return "rate_limited", f"rate_limited (tenant {tenant!r} bucket empty)"
        breaker = self._breaker(tenant)
        if breaker is not None and not breaker.allow(self._now()):
            return "circuit_open", (
                f"circuit_open (tenant {tenant!r}: "
                f"{breaker.consecutive_failures} consecutive failures)"
            )
        return None

    def _breaker(self, tenant: str) -> CircuitBreaker | None:
        if self.config.circuit_breaker is None:
            return None
        breaker = self._breakers.get(tenant)
        if breaker is None:
            breaker = self._breakers[tenant] = CircuitBreaker(
                self.config.circuit_breaker
            )
        return breaker

    def _retry_budget(self, tenant: str) -> RetryBudget:
        budget = self._retry_budgets.get(tenant)
        if budget is None:
            budget = self._retry_budgets[tenant] = RetryBudget(self.config.retry)
        return budget

    async def _index_for(
        self, handle: DatasetHandle, epsilon: float, ticket: JoinTicket
    ) -> tuple[GridIndex, bool]:
        """Resolve the ε-grid through the cache, building at most once."""
        key = SessionCache.key(handle.fingerprint, epsilon)
        lock = self._build_locks.setdefault(key, asyncio.Lock())
        async with lock:
            index = self.cache.get(handle.fingerprint, epsilon)
            self.log.append(
                "cache_hit" if index is not None else "cache_miss",
                request_id=ticket.request_id,
                tenant=ticket.tenant,
                at_seconds=self._now(),
                detail=f"{handle.name} eps={epsilon:g}",
            )
            if index is not None:
                return index, True
            return await asyncio.to_thread(self._build_index, handle, epsilon), False

    def _resolve_index(self, handle: DatasetHandle, epsilon: float) -> tuple[GridIndex, bool]:
        """The cached ε-grid and whether it was cached; a miss builds it."""
        index = self.cache.get(handle.fingerprint, epsilon)
        if index is not None:
            return index, True
        return self._build_index(handle, epsilon), False

    def _build_index(self, handle: DatasetHandle, epsilon: float) -> GridIndex:
        """Build one ε-grid and cache it, logging each entry it evicts.

        Admission's miss, the rebuild of an index evicted before its
        request ran, and every kNN round's grid all build here (admission
        from a worker thread too), so no eviction goes unlogged.
        """
        index = GridIndex(handle.points, float(epsilon))
        for old_key in self.cache.put(handle.fingerprint, epsilon, index):
            self.log.append(
                "evict", at_seconds=self._now(), detail=f"key={old_key[0][:12]}…"
            )
        return index

    # ------------------------------------------------------- serving
    async def _dispatch_loop(self) -> None:
        while True:
            tenant, ticket, _cost = await self._queue.pop()
            await self._dispatch_gate.wait()
            if ticket.cancel_requested:
                self._settle(ticket, "cancelled", "cancelled while queued")
                continue
            timeout = (
                ticket.request.timeout_seconds
                if ticket.request.timeout_seconds is not None
                else self.config.default_timeout_seconds
            )
            waited = self._now() - ticket.submitted_at
            if timeout is not None and waited > timeout:
                self._settle(
                    ticket,
                    "timeout",
                    f"queued {waited:.3f}s > {timeout:g}s deadline",
                    error=f"queue deadline exceeded ({waited:.3f}s > {timeout:g}s)",
                    queue_seconds=waited,
                )
                continue
            try:
                await self._slots.acquire()
            except asyncio.CancelledError:
                # stop(drain=False) cancelled us while we held a popped
                # ticket — resolve it so result() callers never hang
                self._settle(
                    ticket,
                    "cancelled",
                    "cancelled at shutdown (waiting for a slot)",
                    error="service stopped",
                )
                raise
            ordinal = self._dispatch_seq
            self._dispatch_seq += 1
            self.log.append(
                "dispatch",
                request_id=ticket.request_id,
                tenant=tenant,
                at_seconds=self._now(),
                detail=f"est={ticket.estimated_pairs}",
            )
            for victim, detail in self._chaos.inject(ordinal, ticket, self._queue.items()):
                self.log.append(
                    "fault",
                    request_id=victim.request_id,
                    tenant=victim.tenant,
                    at_seconds=self._now(),
                    detail=detail,
                )
            worker = asyncio.create_task(self._run_ticket(ticket, queue_seconds=waited))
            self._workers.add(worker)
            worker.add_done_callback(self._workers.discard)

    async def _run_ticket(self, ticket: JoinTicket, *, queue_seconds: float) -> None:
        try:
            ticket.state = "running"
            self._queue_latencies.append(queue_seconds)
            started = self._now()
            breaker = self._breaker(ticket.tenant)
            attempt = 0
            while True:
                try:
                    result = await asyncio.to_thread(
                        self._execute_sync, ticket, attempt
                    )
                    break
                except DeadlineExceededError as exc:
                    # a missed deadline is the client's budget running out,
                    # not a service fault — no breaker, no retry
                    self._settle(
                        ticket,
                        "timeout",
                        f"execution deadline: {exc}",
                        error=str(exc),
                        queue_seconds=queue_seconds,
                        execute_seconds=self._now() - started,
                    )
                    return
                except Exception as exc:  # the service outlives any one request
                    error = f"{type(exc).__name__}: {exc}"
                    if (
                        not ticket.cancel_requested
                        and attempt + 1 < self.config.retry.max_attempts
                        and self._retry_budget(ticket.tenant).try_acquire()
                    ):
                        attempt += 1
                        self.log.append(
                            "retry",
                            request_id=ticket.request_id,
                            tenant=ticket.tenant,
                            at_seconds=self._now(),
                            detail=(
                                f"attempt {attempt + 1}/"
                                f"{self.config.retry.max_attempts} after {error}"
                            ),
                        )
                        continue
                    if breaker is not None:
                        breaker.record_failure(self._now())
                    self._settle(
                        ticket,
                        "failed",
                        error,
                        queue_seconds=queue_seconds,
                        execute_seconds=self._now() - started,
                    )
                    return
            wall = self._now() - started
            recovery = getattr(result, "recovery_log", None)
            if recovery is not None and recovery.num_devices_lost > 0:
                # a cancelled request's result is discarded, but its
                # recovery trail is not: a pooled run that lost devices and
                # healed still surfaces the degradation
                self.log.append(
                    "degraded",
                    request_id=ticket.request_id,
                    tenant=ticket.tenant,
                    at_seconds=self._now(),
                    detail=(
                        f"lost {recovery.num_devices_lost} device(s); healed by "
                        f"recovery ({recovery.num_requeues} requeues)"
                        + ("; result discarded" if ticket.cancel_requested else "")
                    ),
                )
            if ticket.cancel_requested:
                self._settle(
                    ticket,
                    "cancelled",
                    "cancelled while running; result discarded",
                    error="cancelled while running",
                    queue_seconds=queue_seconds,
                    execute_seconds=wall,
                )
                return
            stats = getattr(result, "pool_stats", None)
            if stats is not None:
                self._pooled_runs += 1
                self._pool_busy_seconds += stats.total_busy_seconds
                self._pool_allocated_seconds += (
                    getattr(result, "num_devices", 1) * result.makespan_seconds
                )
            if breaker is not None:
                breaker.record_success()
            self._retry_budget(ticket.tenant).credit()
            totals = self._completions.setdefault(ticket.tenant, dict(_NO_COMPLETIONS))
            totals["pairs"] += result.num_pairs
            totals["estimated_pairs"] += ticket.estimated_pairs
            totals["simulated_seconds"] += result.total_seconds
            totals["wall_seconds"] += wall
            totals["cache_hits"] += 1 if ticket.cache_hit else 0
            self._settle(
                ticket,
                "complete",
                f"pairs={result.num_pairs}"
                + (" cache_hit" if ticket.cache_hit else "")
                + (f" attempts={attempt + 1}" if attempt else ""),
                result=result,
                queue_seconds=queue_seconds,
                execute_seconds=wall,
            )
        finally:
            self._slots.release()

    def _execute_sync(self, ticket: JoinTicket, attempt: int = 0):
        """Compile and run one request (worker thread; deterministic).

        Attempt 0 carries any chaos-injected faults; retries run clean and
        — when the request checkpoints — resume from the journal the
        crashed attempt left behind instead of restarting.
        """
        req = ticket.request
        deadline_remaining = None
        if req.deadline_seconds is not None:
            deadline_remaining = req.deadline_seconds - (
                self._now() - ticket.submitted_at
            )
            if deadline_remaining <= 0:
                raise DeadlineExceededError(
                    f"deadline exhausted before execution "
                    f"(budget {req.deadline_seconds:g}s)"
                )
        handle = self._datasets[req.dataset]
        index, cached = self._resolve_index(handle, req.epsilon)
        if not cached:  # evicted between admission and dispatch: rebuilt
            ticket.cache_hit = False
        rc = req.runtime
        if rc.pooled:
            rc = rc.with_(
                sharding=replace(rc.sharding, num_devices=self.config.pool_devices)
            )
        if attempt == 0:
            rc = self._chaos.infect_runtime(ticket.request_id, rc)
        if req.kind == "self":
            plan = compile_self_join(index, rc)
        elif req.kind == "knn":
            # the request's ε is the round-0 radius; each later round's
            # radius keys the session cache under the same fingerprint, so
            # successive rounds and kNN requests on one dataset reuse
            # every round's index
            plan = compile_knn_join(
                handle.points,
                req.k,
                rc,
                epsilon0=float(req.epsilon),
                index_factory=lambda eps: self._resolve_index(handle, eps)[0],
            )
        else:
            queries = self._datasets[req.query_dataset].points
            plan = compile_similarity_join(index, queries, rc)
        runner = Runner()
        resume = attempt > 0 and rc.checkpoint is not None
        try:
            execute = runner.resume if resume else runner.run
            return execute(plan, deadline_seconds=deadline_remaining)
        finally:
            # the crashed attempt's durable writes count as overhead too
            stats = runner.last_checkpoint_stats
            if stats is not None:
                with self._ckpt_lock:
                    for name in self._ckpt:
                        self._ckpt[name] += getattr(stats, name)

    # ------------------------------------------------------- results
    async def result(self, ticket: JoinTicket) -> JoinResponse:
        """Await the terminal :class:`JoinResponse` of one ticket."""
        return await asyncio.shield(ticket.future)

    async def run(self, request: JoinRequest) -> JoinResponse:
        """Submit and await — the one-call convenience."""
        return await self.result(await self.submit(request))

    async def stream(
        self, ticket: JoinTicket, *, chunk: int | None = None
    ) -> AsyncIterator[np.ndarray]:
        """Async-iterate the result pairs in blocks.

        Built on :meth:`JoinResult.iter_pairs` fragments; yields control
        between blocks so large result sets flow incrementally alongside
        other requests. Raises :class:`ServeError` if the request did not
        complete. Stopping early (``break`` / ``aclose()``) is the
        streaming cancellation path. A chaos-registered slow client
        stalls between blocks — the stall must never block the loop for
        other requests.
        """
        response = await self.result(ticket)
        if not response.ok:
            raise ServeError(
                f"request {ticket.request_id} ended {response.state}: "
                f"{response.error or 'no result to stream'}"
            )
        delay = self._chaos.stream_delay(ticket.request_id)
        for block in response.result.iter_pairs(chunk=chunk):
            yield block
            await asyncio.sleep(delay)

    def cancel(self, ticket: JoinTicket) -> bool:
        """Cooperatively cancel a request (see :meth:`JoinTicket.cancel`)."""
        return ticket.cancel()

    def _settle(
        self,
        ticket: JoinTicket,
        kind: str,
        detail: str,
        *,
        error: str | None = None,
        result=None,
        queue_seconds: float = 0.0,
        execute_seconds: float = 0.0,
    ) -> JoinTicket:
        """End one request: log its terminal event and resolve its ticket.

        Every outcome — completion, failure, rejection, cancellation,
        timeout — resolves here and nowhere else, so each request id gets
        exactly one terminal event and :meth:`snapshot`, which counts from
        the log, agrees with the responses. A response without a result
        carries ``error``, or the event detail when no ``error`` is given.
        """
        self.log.append(
            kind,
            request_id=ticket.request_id,
            tenant=ticket.tenant,
            at_seconds=self._now(),
            detail=detail,
        )
        ticket.state = _SETTLES[kind]
        ticket.future.set_result(
            JoinResponse(
                request_id=ticket.request_id,
                tenant=ticket.tenant,
                kind=ticket.request.kind,
                dataset=ticket.request.dataset,
                state=ticket.state,
                result=result,
                error=None if result is not None else error or detail,
                cache_hit=ticket.cache_hit,
                queue_seconds=queue_seconds,
                execute_seconds=execute_seconds,
                tag=ticket.request.tag,
            )
        )
        del self._tickets[ticket.request_id]
        return ticket

    # ------------------------------------------------------- reporting
    def snapshot(self) -> dict:
        """Accounting snapshot the :class:`~repro.profiling.ServiceReport`
        is built from (plain data; see ``repro.profiling.service_report``).

        Request counts, per tenant too, and the dispatch order are read
        from the log; per-tenant completion totals come from the service.
        """
        events = self.log.events
        seen = Counter((e.tenant, e.kind) for e in events)
        by_kind = Counter(e.kind for e in events)
        tenants = sorted({tenant for tenant, kind in seen if kind == "submit"})
        with self._ckpt_lock:
            checkpoint = dict(self._ckpt)
        return {
            "counts": {
                name: sum(by_kind[kind] for kind in kinds)
                for name, kinds in _COUNTED.items()
            },
            "queue_latencies": list(self._queue_latencies),
            "tenants": {
                t: {
                    name: sum(seen[t, kind] for kind in _COUNTED[name])
                    for name in _TENANT_COUNTED
                }
                | self._completions.get(t, _NO_COMPLETIONS)
                for t in tenants
            },
            "tenant_weights": {t: self._queue.weight(t) for t in tenants},
            "dispatch_order": [e.tenant for e in events if e.kind == "dispatch"],
            "cache": self.cache.stats,
            "pool_devices": self.config.pool_devices,
            "pooled_runs": self._pooled_runs,
            "pool_busy_seconds": self._pool_busy_seconds,
            "pool_allocated_seconds": self._pool_allocated_seconds,
            "checkpoint": checkpoint,
            "chaos": (
                self.config.chaos.describe() if self.config.chaos is not None else ""
            ),
            "breakers": {t: b.state for t, b in sorted(self._breakers.items())},
            "uptime_seconds": self._now(),
        }

    def report(self):
        """The :class:`~repro.profiling.ServiceReport` for this service."""
        from repro.profiling import service_report

        return service_report(self)

    def chaos_report(self):
        """The :class:`~repro.profiling.ChaosReport` for this service."""
        from repro.profiling import chaos_report

        return chaos_report(self)
