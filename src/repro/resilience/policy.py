"""How the host scheduler recovers: retries, requeues, speculation.

A :class:`RecoveryPolicy` is pure configuration — the
:class:`~repro.multigpu.scheduler.HostScheduler` interprets it. Passing a
policy switches the scheduler into its resilient run loop; ``None`` (the
default everywhere) keeps the PR-1 fail-fast behaviour bit-for-bit. A
run that carries a policy also retries a result-buffer overflow batch by
batch (:class:`~repro.core.executor.DeviceExecutor`).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RecoveryPolicy"]


@dataclass(frozen=True)
class RecoveryPolicy:
    """Recovery knobs of the resilient host scheduler.

    Parameters
    ----------
    max_transient_retries:
        Retries of a transiently failed shard *on the same device* before
        it is requeued onto a different one.
    transient_backoff_seconds:
        Simulated backoff added to the device clock after each transient
        failure (on top of the failed attempt's own wasted time).
    max_shard_attempts:
        Hard bound on total attempts (all devices) per shard; exceeding it
        raises rather than looping forever on a hopeless fault plan.
    speculation:
        Enable straggler detection with speculative re-execution in the
        dynamic schedule: when the queue drains and the latest-finishing
        shard looks like a straggler, an idle device re-runs a copy and
        the first result wins (the loser is cancelled, its time recorded
        as waste).
    straggler_threshold:
        A completed shard counts as a straggler when its duration exceeds
        ``straggler_threshold`` times the median shard duration.
    speculation_min_benefit_seconds:
        Do not speculate unless the idle device could beat the straggler's
        projected finish by at least this much.
    """

    max_transient_retries: int = 2
    transient_backoff_seconds: float = 0.0
    max_shard_attempts: int = 8
    speculation: bool = True
    straggler_threshold: float = 1.5
    speculation_min_benefit_seconds: float = 0.0

    def __post_init__(self):
        if self.max_transient_retries < 0:
            raise ValueError("max_transient_retries must be >= 0")
        if self.transient_backoff_seconds < 0:
            raise ValueError("transient_backoff_seconds must be >= 0")
        if self.max_shard_attempts < 1:
            raise ValueError("max_shard_attempts must be >= 1")
        if self.straggler_threshold < 1.0:
            raise ValueError("straggler_threshold must be >= 1")
        if self.speculation_min_benefit_seconds < 0:
            raise ValueError("speculation_min_benefit_seconds must be >= 0")
