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

    The transient-retry bound and the straggler criterion are constants
    of :mod:`repro.multigpu.scheduler`.

    Parameters
    ----------
    max_shard_attempts:
        Hard bound on total attempts (all devices) per shard; exceeding it
        raises rather than looping forever on a hopeless fault plan.
    speculation:
        Enable straggler detection with speculative re-execution in the
        dynamic schedule: when the queue drains and the latest-finishing
        shard looks like a straggler, an idle device re-runs a copy and
        the first result wins (the loser is cancelled, its time recorded
        as waste).
    """

    max_shard_attempts: int = 8
    speculation: bool = True

    def __post_init__(self):
        if self.max_shard_attempts < 1:
            raise ValueError("max_shard_attempts must be >= 1")
