"""The typed request/response surface of the serving layer.

A client registers datasets once (:class:`DatasetHandle` pins the content
fingerprint), then submits :class:`JoinRequest`\\ s naming them. ``submit``
returns a :class:`JoinTicket` immediately — the request's identity and
live state — and the eventual :class:`JoinResponse` carries the full
:class:`~repro.core.result.JoinResult` plus the serving metadata (queue
latency, cache hit, terminal state).

Everything here is plain data; the behaviour lives in
:class:`~repro.serve.service.JoinService`.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

import numpy as np

from repro.core.result import JoinResult
from repro.runtime.config import RuntimeConfig

__all__ = [
    "AdmissionError",
    "DatasetHandle",
    "JoinRequest",
    "JoinResponse",
    "JoinTicket",
    "REQUEST_KINDS",
    "REQUEST_STATES",
    "ServeError",
]

REQUEST_KINDS = ("self", "similarity", "knn")

#: Lifecycle of one request. ``queued → running → done`` is the happy
#: path; ``rejected`` is an admission decision (never queued), ``timeout``
#: a queue deadline missed, ``cancelled``/``failed`` the remaining exits.
REQUEST_STATES = (
    "queued",
    "running",
    "done",
    "failed",
    "cancelled",
    "rejected",
    "timeout",
)

#: Terminal states: a ticket in one of these will never change again.
TERMINAL_STATES = ("done", "failed", "cancelled", "rejected", "timeout")


class ServeError(RuntimeError):
    """A serving-layer error (unknown dataset, bad request shape)."""


class AdmissionError(ServeError):
    """A request the admission controller refused to queue."""


@dataclass(frozen=True)
class DatasetHandle:
    """A registered dataset: name, content fingerprint, shape."""

    name: str
    fingerprint: str
    num_points: int
    ndim: int
    points: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class JoinRequest:
    """One join a tenant wants answered.

    Parameters
    ----------
    dataset:
        Registered dataset name. For a self-join this is the (only)
        dataset; for a similarity join it is the *indexed* (right) side.
    epsilon:
        Distance threshold — also the grid cell length, so it is part of
        the session-cache key. For ``kind="knn"`` this is the *initial*
        expansion radius ε₀ (round r queries at ``epsilon * 2**r``).
    kind:
        ``"self"``, ``"similarity"`` or ``"knn"``.
    query_dataset:
        Similarity joins only: the registered name of the query (left)
        side.
    k:
        kNN requests only: neighbors per point (``1 <= k < n``).
    tenant:
        Fairness identity; requests of one tenant are served FIFO among
        themselves, tenants share the service by weighted deficit
        round-robin.
    runtime:
        Full per-request :class:`~repro.runtime.config.RuntimeConfig`
        (optimizations, engine, sharding, faults…). Pooled configs run on
        ``ServeConfig.pool_devices`` devices.
    timeout_seconds:
        Queue deadline: a request still queued this long after submit
        times out instead of starting. ``None`` falls back to the
        service default.
    deadline_seconds:
        End-to-end wall-clock deadline, counted from submit and
        propagated *into* execution: the
        :class:`~repro.runtime.runner.Runner` checks the remaining
        budget at every shard-dispatch boundary and aborts with a
        terminal ``timeout`` response when it expires (checkpointed
        shards completed before the abort stay durable). ``None`` means
        no execution deadline.
    tag:
        Free-form client annotation, echoed in events and responses.
    """

    dataset: str
    epsilon: float
    kind: str = "self"
    query_dataset: str | None = None
    k: int | None = None
    tenant: str = "default"
    runtime: RuntimeConfig = field(default_factory=RuntimeConfig)
    timeout_seconds: float | None = None
    deadline_seconds: float | None = None
    tag: str = ""

    def __post_init__(self):
        if self.kind not in REQUEST_KINDS:
            raise ValueError(
                f"unknown request kind {self.kind!r}; expected one of {REQUEST_KINDS}"
            )
        if not (float(self.epsilon) > 0.0) or not np.isfinite(self.epsilon):
            raise ValueError("epsilon must be positive and finite")
        if self.kind == "similarity" and self.query_dataset is None:
            raise ValueError("similarity requests need query_dataset (the left side)")
        if self.kind != "similarity" and self.query_dataset is not None:
            raise ValueError(
                f"{self.kind} requests must not set query_dataset"
            )
        if self.kind == "knn":
            if self.k is None or self.k < 1:
                raise ValueError("knn requests need k >= 1")
        elif self.k is not None:
            raise ValueError(f"{self.kind} requests must not set k")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be positive")
        if not self.tenant:
            raise ValueError("tenant must be a non-empty string")


@dataclass
class JoinTicket:
    """Live handle on one submitted request.

    ``future`` resolves to the :class:`JoinResponse` (it never raises on
    request failure — failures are responses with ``state="failed"``).
    ``cancel()`` is cooperative: a queued request is dropped at dispatch,
    a running one has its result discarded.
    """

    request_id: str
    request: JoinRequest
    submitted_at: float
    state: str = "queued"
    estimated_pairs: int = 0
    cache_hit: bool = False
    future: asyncio.Future = field(default=None, repr=False)
    _cancel_requested: bool = field(default=False, repr=False)

    @property
    def tenant(self) -> str:
        return self.request.tenant

    @property
    def done(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def cancel_requested(self) -> bool:
        return self._cancel_requested

    def cancel(self) -> bool:
        """Request cancellation; returns whether it could still matter."""
        if self.done:
            return False
        self._cancel_requested = True
        return True


@dataclass(frozen=True)
class JoinResponse:
    """Terminal outcome of one request.

    ``result`` is the full :class:`~repro.core.result.JoinResult` when
    ``state == "done"`` and ``None`` otherwise; ``error`` carries the
    failure/rejection reason. Stream the pairs with
    ``response.result.iter_pairs(chunk=...)`` or through
    :meth:`~repro.serve.service.JoinService.stream`.
    """

    request_id: str
    tenant: str
    kind: str
    dataset: str
    state: str
    result: JoinResult | None = field(default=None, repr=False)
    error: str | None = None
    cache_hit: bool = False
    queue_seconds: float = 0.0
    execute_seconds: float = 0.0
    tag: str = ""

    @property
    def ok(self) -> bool:
        return self.state == "done"

    @property
    def num_pairs(self) -> int:
        return self.result.num_pairs if self.result is not None else 0

    @property
    def simulated_seconds(self) -> float:
        """The join's simulated device response time (0 if no result)."""
        return self.result.total_seconds if self.result is not None else 0.0
