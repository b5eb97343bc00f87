"""Chaos accounting: what the fault injector did, and how the service
recovered.

Built from the :class:`~repro.serve.events.ServiceLog`: every injected
service fault is a ``fault`` event whose detail leads with its species
(``cancellation_storm``, ``client_disconnect``, ``slow_client``,
``pool_collapse``, ``runner_crash``), and the request it hit is
*resolved* by the first terminal event — ``complete``, ``failed``,
``cancelled`` or ``timeout`` — that follows for the same request id. The
report aggregates injections by species, checks that **every** injected
fault ended in a resolved ticket (the chaos suite's no-hung-callers
property), and derives the service-level availability and mean
time-to-recovery over the incidents.

Like every profiling report it is duck-typed: anything with ``.log``
(events) and ``.snapshot()`` works — profiling stays layered above
serving with no :mod:`repro.serve` import.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.profiling.service_report import service_report
from repro.util import Table, format_seconds

__all__ = ["ChaosIncident", "ChaosReport", "chaos_report"]

#: Detail-prefix → species. The injector writes the species as the first
#: token of every ``fault`` event detail; the parser keys on it.
FAULT_SPECIES = (
    "cancellation_storm",
    "client_disconnect",
    "slow_client",
    "pool_collapse",
    "runner_crash",
)

#: Terminal event kinds that resolve a faulted request.
_TERMINAL = ("complete", "failed", "cancelled", "timeout")


@dataclass(frozen=True)
class ChaosIncident:
    """One injected fault and how (whether) its request resolved."""

    species: str
    request_id: str
    tenant: str
    injected_at: float
    resolved_kind: str | None  # terminal event kind, None = never resolved
    resolved_at: float | None

    @property
    def resolved(self) -> bool:
        return self.resolved_kind is not None

    @property
    def recovery_seconds(self) -> float:
        """Injection → terminal resolution (0 when unresolved)."""
        if self.resolved_at is None:
            return 0.0
        return max(0.0, self.resolved_at - self.injected_at)


@dataclass(frozen=True)
class ChaosReport:
    """Aggregate view of one chaos run."""

    incidents: tuple
    injected_by_species: dict
    availability: float
    retries: int
    rate_limited: int
    circuit_opens: int

    @property
    def num_injected(self) -> int:
        return len(self.incidents)

    @property
    def num_resolved(self) -> int:
        return sum(1 for i in self.incidents if i.resolved)

    @property
    def all_resolved(self) -> bool:
        """Every injected fault ended in a resolved ticket — the
        no-hung-callers acceptance property."""
        return self.num_resolved == self.num_injected

    @property
    def mttr_seconds(self) -> float:
        """Mean time-to-recovery over the resolved incidents."""
        recovered = [i.recovery_seconds for i in self.incidents if i.resolved]
        if not recovered:
            return 0.0
        return sum(recovered) / len(recovered)

    def of_species(self, species: str) -> tuple:
        return tuple(i for i in self.incidents if i.species == species)

    # ------------------------------------------------------- rendering
    def render(self) -> str:
        t = Table(
            ["species", "injected", "resolved", "mttr"],
            title="Chaos report — injected service faults",
        )
        for species in FAULT_SPECIES:
            rows = self.of_species(species)
            if not rows:
                continue
            recovered = [i.recovery_seconds for i in rows if i.resolved]
            mttr = sum(recovered) / len(recovered) if recovered else 0.0
            t.add_row(
                [
                    species,
                    len(rows),
                    sum(1 for i in rows if i.resolved),
                    format_seconds(mttr),
                ]
            )
        lines = [
            t.render(),
            (
                f"{self.num_injected} faults injected, {self.num_resolved} "
                f"resolved ({'OK' if self.all_resolved else 'HUNG CALLERS'}), "
                f"MTTR {format_seconds(self.mttr_seconds)}"
            ),
            (
                f"availability {100 * self.availability:.1f}%; "
                f"{self.retries} retries, {self.rate_limited} rate-limited, "
                f"{self.circuit_opens} circuit-open rejections"
            ),
        ]
        return "\n".join(lines)

    def to_record(self) -> dict:
        """JSON-ready dict (machine-readable benchmark output)."""
        return {
            "injected": dict(self.injected_by_species),
            "num_injected": self.num_injected,
            "num_resolved": self.num_resolved,
            "all_resolved": self.all_resolved,
            "mttr_seconds": self.mttr_seconds,
            "availability": self.availability,
            "retries": self.retries,
            "rate_limited": self.rate_limited,
            "circuit_opens": self.circuit_opens,
            "incidents": [
                {
                    "species": i.species,
                    "request_id": i.request_id,
                    "tenant": i.tenant,
                    "resolved": i.resolved_kind,
                    "recovery_seconds": i.recovery_seconds,
                }
                for i in self.incidents
            ],
        }

    def __str__(self) -> str:  # pragma: no cover
        return self.render()


def chaos_report(service) -> ChaosReport:
    """Build the report from a service (anything with ``.log`` events and
    ``snapshot()``)."""
    events = service.log.events
    snap = service.snapshot()
    counts = snap.get("counts", {})

    incidents = []
    injected: dict[str, int] = {}
    for i, event in enumerate(events):
        if event.kind != "fault":
            continue
        species = event.detail.split(None, 1)[0] if event.detail else "unknown"
        injected[species] = injected.get(species, 0) + 1
        resolved_kind = None
        resolved_at = None
        for later in events[i + 1 :]:
            if later.kind in _TERMINAL and later.request_id == event.request_id:
                resolved_kind = later.kind
                resolved_at = later.at_seconds
                break
        incidents.append(
            ChaosIncident(
                species=species,
                request_id=event.request_id,
                tenant=event.tenant,
                injected_at=event.at_seconds,
                resolved_kind=resolved_kind,
                resolved_at=resolved_at,
            )
        )

    return ChaosReport(
        incidents=tuple(incidents),
        injected_by_species=injected,
        availability=service_report(snap).availability,
        retries=counts.get("retried", 0),
        rate_limited=counts.get("rate_limited", 0),
        circuit_opens=counts.get("circuit_open", 0),
    )
