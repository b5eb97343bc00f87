"""Seeded service-fault injection — chaos testing for :class:`JoinService`.

The :class:`ChaosController` consumes a
:class:`~repro.resilience.faults.ServiceFaultPlan` (``ServeConfig(chaos=...)``)
and injects its faults at the service's dispatch seam — one
:meth:`~ChaosController.inject` call per dispatch, whose ``(ticket,
detail)`` pairs the service logs as ``fault`` events — exactly as
:class:`~repro.resilience.executor.FaultyExecutor` injects device faults
at the :class:`~repro.core.executor.BatchExecutor` seam one layer down:

- **cancellation storms** — at a dispatch ordinal, seeded-RNG-chosen
  victims from the current backlog are cancelled at once;
- **client disconnects** — the dispatched request's client goes away; the
  service must discard the result and still resolve the ticket;
- **slow clients** — the request's result stream stalls per block
  (:meth:`JoinService.stream` honours the registered delay);
- **pool collapse** — :class:`~repro.resilience.faults.DeviceFailure`\\ s
  are merged into the request's runtime fault plan so all but
  ``keep_devices`` devices die mid-run;
- **runner crashes** — a :class:`~repro.resilience.faults.CrashPoint` is
  merged into the request's *first attempt* only, so a retry (which
  resumes from the checkpoint journal when the request checkpoints)
  demonstrates the full detect→diagnose→remediate loop.

Everything is deterministic per plan seed: the controller's only random
draw (storm victims) comes from one ``default_rng(seed)`` stream advanced
in injection order, so the same submit sequence yields the same
``ServiceLog`` signature — the chaos suite's acceptance property.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.resilience.faults import (
    CancellationStorm,
    ClientDisconnect,
    CrashPoint,
    DeviceFailure,
    FaultPlan,
    PoolCollapse,
    ServiceFaultPlan,
    SlowClient,
)

__all__ = ["ChaosController"]


class ChaosController:
    """Applies one :class:`ServiceFaultPlan` to a service's dispatch flow."""

    def __init__(self, plan: ServiceFaultPlan | None):
        self.plan = plan
        self._rng = (
            np.random.default_rng(plan.seed)
            if plan is not None and not plan.is_empty
            else None
        )
        self._slow: dict[str, float] = {}
        # request id -> (PoolCollapse | None, RunnerCrash | None) for its
        # first attempt, handed out once by infect_runtime
        self._device_faults: dict[str, tuple] = {}

    def inject(self, ordinal: int, ticket, backlog: list) -> list[tuple]:
        """Apply the plan's faults at one dispatch ordinal.

        ``ticket`` is the request being dispatched and ``backlog`` the
        tickets still queued. Returns one ``(ticket, detail)`` pair per
        injected fault, in injection order, for the service to log; each
        detail leads with its species, which
        :class:`~repro.profiling.ChaosReport` keys on.
        """
        if self._rng is None:
            return []
        injected = []
        collapse = crash = None
        for fault in self.plan.faults_at(ordinal):
            if isinstance(fault, CancellationStorm):
                if not backlog:
                    continue
                count = min(fault.count, len(backlog))
                for i in sorted(self._rng.choice(len(backlog), size=count, replace=False)):
                    victim = backlog[int(i)]
                    victim.cancel()
                    injected.append(
                        (victim, f"cancellation_storm victim (dispatch #{ordinal})")
                    )
            elif isinstance(fault, ClientDisconnect):
                ticket.cancel()
                injected.append((ticket, f"client_disconnect (dispatch #{ordinal})"))
            elif isinstance(fault, SlowClient):
                self._slow[ticket.request_id] = float(fault.delay_seconds)
                injected.append((ticket, f"slow_client delay={fault.delay_seconds:g}s"))
            elif isinstance(fault, PoolCollapse):
                if ticket.request.runtime.pooled:  # meaningless off the pool
                    collapse = fault
                    injected.append(
                        (
                            ticket,
                            f"pool_collapse keep={fault.keep_devices} "
                            f"at_shard={fault.at_shard}",
                        )
                    )
            else:
                crash = fault
                injected.append((ticket, f"runner_crash at_shard={fault.at_shard}"))
        if collapse is not None or crash is not None:
            self._device_faults[ticket.request_id] = (collapse, crash)
        return injected

    def stream_delay(self, request_id: str) -> float:
        """Per-block stall of this request's stream (0.0 = full speed)."""
        return self._slow.get(request_id, 0.0)

    # ------------------------------------------------------------ runtime
    def infect_runtime(self, request_id: str, runtime):
        """Merge a request's injected device faults into its runtime config.

        Each request's faults are handed out once: the service asks on the
        first attempt only, so remediation runs clean.
        """
        collapse, crash = self._device_faults.pop(request_id, (None, None))
        if collapse is None and crash is None:
            return runtime
        num_devices = runtime.sharding.num_devices if runtime.pooled else 1
        fp = runtime.fault_plan
        if fp is None:
            fp = FaultPlan(seed=self.plan.seed)
        if collapse is not None and num_devices > collapse.keep_devices:
            fp = replace(
                fp,
                failures=fp.failures
                + tuple(
                    DeviceFailure(device_id=d, at_shard=collapse.at_shard)
                    for d in range(collapse.keep_devices, num_devices)
                ),
            )
        if crash is not None:
            fp = replace(
                fp, crashes=fp.crashes + (CrashPoint(at_shard=crash.at_shard),)
            )
        return runtime.with_(fault_plan=fp)
