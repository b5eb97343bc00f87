"""Tiered benchmark gates: correctness, budgets, trajectory.

The harness (:mod:`repro.bench.suites`) produces :class:`ExperimentResult`
rows; this module turns them into gate verdicts:

- **tier A — correctness cross-checks.** Every failed
  :class:`CheckResult` (pair mismatches, lost determinism, broken shape
  invariants) is a violation. Always enforced: a benchmark whose answer
  is wrong has no performance to report.
- **tier B — perf budgets.** Each experiment may declare a
  :class:`Budget`: wall-clock ceilings and throughput floors per size
  class, with a tolerance band absorbing machine-to-machine noise.
- **tier C — trajectory deltas.** The current run is compared against
  the last comparable entry recorded in ``BENCH_<suite>.json``
  (:mod:`repro.bench.history`); wall-clock regressions beyond the band
  and silent changes to deterministic metrics are flagged. Advisory by
  default, enforced under ``suite gate --strict``.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

__all__ = [
    "Budget",
    "CheckResult",
    "GateReport",
    "Violation",
    "evaluate_budget",
    "evaluate_tier_a",
    "evaluate_tier_b",
    "evaluate_tier_c",
]

#: tier C band: wall-clock may drift this much over the recorded entry
#: before it counts as a regression (timings on shared CI runners are noisy)
TRAJECTORY_BAND = 0.75


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one tier-A correctness cross-check."""

    name: str
    passed: bool
    detail: str = ""

    def __post_init__(self):
        # a check computed with NumPy hands in a numpy.bool_, which
        # json.dumps rejects when the entry is recorded
        object.__setattr__(self, "passed", bool(self.passed))

    def to_record(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class Budget:
    """Per-experiment perf budget (tier B).

    ``wall_seconds`` maps size classes to wall-clock ceilings;
    ``min_throughput`` maps size classes to result-rows-per-second floors.
    A size class absent from a mapping is not gated at that size.
    ``tolerance`` widens both bounds: a wall budget of 10 s with tolerance
    0.25 fails only above 12.5 s.
    """

    wall_seconds: Mapping[str, float] = field(default_factory=dict)
    min_throughput: Mapping[str, float] = field(default_factory=dict)
    tolerance: float = 0.25

    def __post_init__(self) -> None:
        if self.tolerance < 0:
            raise ValueError("Budget.tolerance must be >= 0")
        for name, mapping in (
            ("wall_seconds", self.wall_seconds),
            ("min_throughput", self.min_throughput),
        ):
            for size, value in mapping.items():
                if value <= 0:
                    raise ValueError(f"Budget.{name}[{size!r}] must be positive")

    def wall_limit(self, size: str) -> float | None:
        base = self.wall_seconds.get(size)
        return None if base is None else base * (1.0 + self.tolerance)

    def throughput_floor(self, size: str) -> float | None:
        base = self.min_throughput.get(size)
        return None if base is None else base / (1.0 + self.tolerance)


@dataclass(frozen=True)
class Violation:
    tier: str  # "A" | "B" | "C"
    suite_id: str
    exp_id: str
    message: str

    def render(self) -> str:
        return f"[tier {self.tier}] {self.suite_id}/{self.exp_id}: {self.message}"


def evaluate_budget(
    *,
    suite_id: str,
    exp_id: str,
    budget: Budget | None,
    size: str,
    wall_seconds: float,
    throughput: float | None,
) -> list[Violation]:
    """Tier-B verdict for one experiment measurement."""
    if budget is None:
        return []
    out: list[Violation] = []
    limit = budget.wall_limit(size)
    if limit is not None and wall_seconds > limit:
        out.append(
            Violation(
                "B",
                suite_id,
                exp_id,
                f"wall {wall_seconds:.3f}s exceeds budget "
                f"{budget.wall_seconds[size]:.3f}s "
                f"(+{100 * budget.tolerance:.0f}% band -> {limit:.3f}s) at size={size}",
            )
        )
    floor = budget.throughput_floor(size)
    if floor is not None and throughput is not None and throughput < floor:
        out.append(
            Violation(
                "B",
                suite_id,
                exp_id,
                f"throughput {throughput:.1f} rows/s below budget "
                f"{budget.min_throughput[size]:.1f} rows/s "
                f"(-{100 * budget.tolerance:.0f}% band -> {floor:.1f}) at size={size}",
            )
        )
    return out


def evaluate_tier_a(results) -> list[Violation]:
    """Every failed correctness cross-check across the results."""
    out = []
    for res in results:
        for check in res.checks:
            if not check.passed:
                out.append(
                    Violation(
                        "A",
                        res.suite_id,
                        res.exp_id,
                        f"check {check.name!r} failed"
                        + (f": {check.detail}" if check.detail else ""),
                    )
                )
    return out


def evaluate_tier_b(results, size: str) -> list[Violation]:
    out = []
    for res in results:
        out.extend(
            evaluate_budget(
                suite_id=res.suite_id,
                exp_id=res.exp_id,
                budget=res.budget,
                size=size,
                wall_seconds=res.wall_seconds,
                throughput=res.throughput,
            )
        )
    return out


def evaluate_tier_c(
    suite_id: str,
    current: Mapping,
    previous: Mapping | None,
    *,
    band: float = TRAJECTORY_BAND,
) -> list[Violation]:
    """Trajectory verdict: ``current`` vs the last comparable history entry.

    Both arguments are history entries (see :mod:`repro.bench.history`).
    With no comparable ``previous``, there is no trajectory to gate.
    """
    if previous is None:
        return []
    out: list[Violation] = []
    prev_exps: Mapping = previous.get("experiments", {})
    for exp_id, cur in current.get("experiments", {}).items():
        prev = prev_exps.get(exp_id)
        if prev is None:
            continue
        prev_wall = prev.get("wall_seconds") or 0.0
        cur_wall = cur.get("wall_seconds") or 0.0
        if prev_wall > 0 and cur_wall > prev_wall * (1.0 + band):
            out.append(
                Violation(
                    "C",
                    suite_id,
                    exp_id,
                    f"wall {cur_wall:.3f}s regressed {cur_wall / prev_wall:.2f}x "
                    f"over recorded {prev_wall:.3f}s (band {1.0 + band:.2f}x)",
                )
            )
        if prev.get("digest") and cur.get("digest") and prev["digest"] != cur["digest"]:
            out.append(
                Violation(
                    "C",
                    suite_id,
                    exp_id,
                    "deterministic metrics changed vs recorded history "
                    f"({prev['digest'][:12]} -> {cur['digest'][:12]}); "
                    "re-record BENCH history if intentional",
                )
            )
    return out


@dataclass
class GateReport:
    """Aggregated verdict over one or more suites."""

    violations: list[Violation] = field(default_factory=list)
    advisories: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def extend(self, violations, *, advisory: bool = False) -> None:
        (self.advisories if advisory else self.violations).extend(violations)

    def render(self) -> str:
        lines = []
        if self.violations:
            lines.append(f"GATE FAILED: {len(self.violations)} violation(s)")
            lines += [f"  - {v.render()}" for v in self.violations]
        else:
            lines.append("gate passed: no violations")
        if self.advisories:
            lines.append(f"advisory (tier C, not enforced): {len(self.advisories)}")
            lines += [f"  - {v.render()}" for v in self.advisories]
        return "\n".join(lines)
