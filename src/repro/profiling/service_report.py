"""Serving-layer accounting: what the join service did for whom, how fast.

The per-run reports profile one join; this report profiles the *service*
around the joins: queue latency percentiles, session-cache hit rate,
per-tenant throughput (requests, result rows, simulated device-seconds),
and the device utilization of every pooled run.

Like the other profiling reports it is duck-typed: built from any object
with a ``snapshot()`` returning the plain accounting dict
(:meth:`repro.serve.JoinService.snapshot`), or from such a dict directly
— profiling stays layered above serving with no :mod:`repro.serve`
import.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util import Table, format_seconds

__all__ = ["ServiceReport", "TenantRow", "service_report"]


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation surprises)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(round(q / 100.0 * len(ordered) + 0.5)))
    return ordered[min(rank, len(ordered)) - 1]


@dataclass(frozen=True)
class TenantRow:
    """One tenant's serving totals."""

    tenant: str
    weight: float
    submitted: int
    completed: int
    failed: int
    rejected: int
    rate_limited: int
    cache_hits: int
    pairs: int
    estimated_pairs: int
    simulated_seconds: float
    wall_seconds: float

    @property
    def pairs_per_simulated_second(self) -> float:
        """Result-row throughput in simulated device time."""
        if self.simulated_seconds == 0:
            return 0.0
        return self.pairs / self.simulated_seconds


@dataclass(frozen=True)
class ServiceReport:
    """Aggregate serving behaviour of one :class:`JoinService` lifetime."""

    counts: dict
    queue_latencies: list = field(repr=False)
    tenants: tuple
    dispatch_order: tuple = field(repr=False)
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    pool_devices: int = 0
    pooled_runs: int = 0
    pool_busy_seconds: float = 0.0
    pool_allocated_seconds: float = 0.0
    checkpoint_writes: int = 0
    checkpoint_loads: int = 0
    checkpoint_bytes: int = 0
    checkpoint_write_seconds: float = 0.0
    chaos: str = ""
    uptime_seconds: float = 0.0

    # ------------------------------------------------------- derived
    @property
    def requests_submitted(self) -> int:
        return self.counts.get("submitted", 0)

    @property
    def requests_completed(self) -> int:
        return self.counts.get("completed", 0)

    @property
    def availability(self) -> float:
        """Completed over executed (completed + failed + timed out).

        Rejections and cancellations are excluded — those are the service
        (or the client) declining work, not failing it. 1.0 when nothing
        executed.
        """
        executed = (
            self.counts.get("completed", 0)
            + self.counts.get("failed", 0)
            + self.counts.get("timeout", 0)
        )
        if executed == 0:
            return 1.0
        return self.counts.get("completed", 0) / executed

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        if lookups == 0:
            return 0.0
        return self.cache_hits / lookups

    @property
    def pool_utilization(self) -> float:
        """Busy device-seconds over allocated device-seconds, pooled runs."""
        if self.pool_allocated_seconds == 0:
            return 0.0
        return self.pool_busy_seconds / self.pool_allocated_seconds

    def queue_latency(self, percentile: float) -> float:
        """Queue-wait percentile over every dispatched request (seconds)."""
        return _percentile(list(self.queue_latencies), percentile)

    def tenant(self, name: str) -> TenantRow:
        for row in self.tenants:
            if row.tenant == name:
                return row
        raise KeyError(f"no tenant {name!r} in this report")

    def fairness_spread(self) -> float:
        """Max over min weight-normalized completed result rows (1.0 = even).

        Computed over tenants that completed work; returns 1.0 with fewer
        than two such tenants. The acceptance tests bound this ratio.
        """
        shares = [
            row.pairs / row.weight for row in self.tenants if row.completed > 0
        ]
        if len(shares) < 2 or min(shares) == 0:
            return 1.0
        return max(shares) / min(shares)

    # ------------------------------------------------------- rendering
    def render(self) -> str:
        t = Table(
            ["tenant", "w", "sub", "done", "fail", "rej", "hits", "pairs", "pairs/s(sim)"],
            title="Service report — per tenant",
        )
        for row in self.tenants:
            t.add_row(
                [
                    row.tenant,
                    f"{row.weight:g}",
                    row.submitted,
                    row.completed,
                    row.failed,
                    row.rejected,
                    row.cache_hits,
                    row.pairs,
                    f"{row.pairs_per_simulated_second:.0f}",
                ]
            )
        c = self.counts
        lines = [
            t.render(),
            (
                f"requests: {c.get('submitted', 0)} submitted, "
                f"{c.get('completed', 0)} completed, {c.get('failed', 0)} failed, "
                f"{c.get('rejected', 0)} rejected, {c.get('cancelled', 0)} cancelled, "
                f"{c.get('timeout', 0)} timed out"
            ),
            (
                f"availability {100 * self.availability:.1f}%"
                + (
                    f"; protection: {c.get('rate_limited', 0)} rate-limited, "
                    f"{c.get('circuit_open', 0)} circuit-open, "
                    f"{c.get('retried', 0)} retried"
                    if c.get("rate_limited", 0)
                    or c.get("circuit_open", 0)
                    or c.get("retried", 0)
                    else ""
                )
            ),
            (
                f"queue latency p50/p95/p99: "
                f"{format_seconds(self.queue_latency(50))} / "
                f"{format_seconds(self.queue_latency(95))} / "
                f"{format_seconds(self.queue_latency(99))}"
            ),
            (
                f"session cache: {self.cache_hits} hits / "
                f"{self.cache_hits + self.cache_misses} lookups "
                f"({100 * self.cache_hit_rate:.1f}%), "
                f"{self.cache_evictions} evictions"
            ),
        ]
        if self.pooled_runs:
            lines.append(
                f"pooled runs: {self.pooled_runs} on {self.pool_devices} devices "
                f"each, utilization {100 * self.pool_utilization:.1f}%"
            )
        if self.checkpoint_writes or self.checkpoint_loads:
            lines.append(
                f"checkpoints: {self.checkpoint_writes} fragments written "
                f"({self.checkpoint_bytes} B, "
                f"{format_seconds(self.checkpoint_write_seconds)}), "
                f"{self.checkpoint_loads} resumed from the journal"
            )
        if self.chaos:
            lines.append(f"chaos plan: {self.chaos}")
        lines.append(f"uptime {format_seconds(self.uptime_seconds)}")
        return "\n".join(lines)

    def to_record(self) -> dict:
        """JSON-ready dict (machine-readable benchmark output)."""
        return {
            "counts": dict(self.counts),
            "queue_latency_p50": self.queue_latency(50),
            "queue_latency_p95": self.queue_latency(95),
            "queue_latency_p99": self.queue_latency(99),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_evictions": self.cache_evictions,
            "cache_hit_rate": self.cache_hit_rate,
            "pool_devices": self.pool_devices,
            "pooled_runs": self.pooled_runs,
            "pool_utilization": self.pool_utilization,
            "fairness_spread": self.fairness_spread(),
            "availability": self.availability,
            "checkpoint_writes": self.checkpoint_writes,
            "checkpoint_loads": self.checkpoint_loads,
            "checkpoint_bytes": self.checkpoint_bytes,
            "checkpoint_write_seconds": self.checkpoint_write_seconds,
            "uptime_seconds": self.uptime_seconds,
            "tenants": {
                row.tenant: {
                    "weight": row.weight,
                    "submitted": row.submitted,
                    "completed": row.completed,
                    "failed": row.failed,
                    "rejected": row.rejected,
                    "rate_limited": row.rate_limited,
                    "cache_hits": row.cache_hits,
                    "pairs": row.pairs,
                    "estimated_pairs": row.estimated_pairs,
                    "simulated_seconds": row.simulated_seconds,
                    "wall_seconds": row.wall_seconds,
                    "pairs_per_simulated_second": row.pairs_per_simulated_second,
                }
                for row in self.tenants
            },
        }

    def __str__(self) -> str:  # pragma: no cover
        return self.render()


def service_report(service_or_snapshot) -> ServiceReport:
    """Build the report from a service (anything with ``snapshot()``) or
    from the snapshot dict itself."""
    snap = service_or_snapshot
    snapshot_fn = getattr(snap, "snapshot", None)
    if callable(snapshot_fn):
        snap = snapshot_fn()
    cache = snap.get("cache")
    ckpt = snap.get("checkpoint", {})
    weights = snap.get("tenant_weights", {})
    tenants = tuple(
        TenantRow(
            tenant=name,
            weight=float(weights.get(name, 1.0)),
            submitted=row.get("submitted", 0),
            completed=row.get("completed", 0),
            failed=row.get("failed", 0),
            rejected=row.get("rejected", 0),
            rate_limited=row.get("rate_limited", 0),
            cache_hits=row.get("cache_hits", 0),
            pairs=row.get("pairs", 0),
            estimated_pairs=row.get("estimated_pairs", 0),
            simulated_seconds=float(row.get("simulated_seconds", 0.0)),
            wall_seconds=float(row.get("wall_seconds", 0.0)),
        )
        for name, row in snap.get("tenants", {}).items()
    )
    return ServiceReport(
        counts=dict(snap.get("counts", {})),
        queue_latencies=list(snap.get("queue_latencies", ())),
        tenants=tenants,
        dispatch_order=tuple(snap.get("dispatch_order", ())),
        cache_hits=getattr(cache, "hits", 0),
        cache_misses=getattr(cache, "misses", 0),
        cache_evictions=getattr(cache, "evictions", 0),
        pool_devices=snap.get("pool_devices", 0),
        pooled_runs=snap.get("pooled_runs", 0),
        pool_busy_seconds=float(snap.get("pool_busy_seconds", 0.0)),
        pool_allocated_seconds=float(snap.get("pool_allocated_seconds", 0.0)),
        checkpoint_writes=int(ckpt.get("writes", 0)),
        checkpoint_loads=int(ckpt.get("loads", 0)),
        checkpoint_bytes=int(ckpt.get("bytes_written", 0)),
        checkpoint_write_seconds=float(ckpt.get("write_seconds", 0.0)),
        chaos=str(snap.get("chaos", "")),
        uptime_seconds=float(snap.get("uptime_seconds", 0.0)),
    )
