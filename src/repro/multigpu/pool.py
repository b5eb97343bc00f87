"""A pool of independent simulated devices, each with a health record.

Each :class:`PoolDevice` owns its own
:class:`~repro.core.executor.DeviceExecutor` — and through it a private
:class:`~repro.simt.GpuMachine`, per-batch result buffers, per-shard
WORKQUEUE atomic counters and a private 3-stream transfer pipeline over
its own PCIe link. Nothing is shared device-to-device except the
host-side grid index and the host scheduler's shard queue, matching the
multi-GPU partitioning setup Gowanlock & Karsin name as the scaling path.

A pool builds from a :class:`~repro.runtime.config.RuntimeConfig`:
``sharding.num_devices`` copies of its device spec by default, or an
explicit heterogeneous ``specs`` list — the scheduler's dynamic mode then
load-balances across unequal devices for free.

Every device carries a mutable :class:`DeviceHealth`: whether it is
alive, when it failed (in simulated seconds), and how many shard
dispatches it has started. The resilient scheduler marks devices dead on
:class:`~repro.resilience.faults.DeviceLostError` and consults health
when picking dispatch targets; fault injection reads the dispatch count
to decide when a planned failure fires. ``reset_health()`` re-arms the
pool between runs so a reused pool stays seed-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.executor import DeviceExecutor
from repro.runtime.config import NATIVE_ENGINE, RuntimeConfig
from repro.simt import DeviceSpec

__all__ = ["DeviceHealth", "DevicePool", "PoolDevice"]


@dataclass
class DeviceHealth:
    """Mutable health record of one pool device across a run."""

    alive: bool = True
    failed_at_seconds: float | None = None
    shards_started: int = 0

    def fail(self, at_seconds: float) -> None:
        """Mark the device permanently dead at the given simulated time."""
        if self.alive:
            self.alive = False
            self.failed_at_seconds = float(at_seconds)

    def reset(self) -> None:
        """Re-arm for a fresh run."""
        self.alive = True
        self.failed_at_seconds = None
        self.shards_started = 0


@dataclass(frozen=True)
class PoolDevice:
    """One device of the pool: its spec, its private executor, its health.

    ``executor`` is ``None`` on native-engine pools: the fidelity-free
    array engine has no simulated machine to own, so a native device is
    a scheduling slot (health + dispatch accounting) rather than a VM.
    """

    device_id: int
    spec: DeviceSpec
    executor: DeviceExecutor | None
    health: DeviceHealth = field(default_factory=DeviceHealth)


class DevicePool:
    """N independent simulated devices behind one host.

    Parameters
    ----------
    runtime:
        The :class:`~repro.runtime.config.RuntimeConfig` of the runs the
        pool serves; it must carry a sharding config. Device ``d`` gets
        a :class:`~repro.core.executor.DeviceExecutor` built from it
        (seeded ``seed + d``, so the pool's issue-order shuffles are
        independent yet reproducible) — or none on the ``"native"``
        engine, whose shards run as NumPy passes
        (:mod:`repro.runtime.native`).
    specs:
        Explicit per-device specs for a heterogeneous pool; by default
        ``sharding.num_devices`` copies of the runtime's device spec
        (the paper's testbed class when unset).
    """

    def __init__(self, runtime: RuntimeConfig, *, specs: list[DeviceSpec] | None = None):
        if not isinstance(runtime, RuntimeConfig):
            raise TypeError(
                f"DevicePool takes a RuntimeConfig, not {type(runtime).__name__}"
            )
        if runtime.sharding is None:
            raise ValueError("runtime has no sharding config; nothing to pool")
        if specs is None:
            base = runtime.device if runtime.device is not None else DeviceSpec()
            specs = [base] * runtime.sharding.num_devices
        elif not specs:
            raise ValueError("specs must name at least one device")
        self.devices = [
            PoolDevice(
                device_id=d,
                spec=s,
                executor=None
                if runtime.engine == NATIVE_ENGINE
                else DeviceExecutor(runtime.with_(device=s), device_index=d),
            )
            for d, s in enumerate(specs)
        ]

    @property
    def num_devices(self) -> int:
        return len(self.devices)

    @property
    def total_warp_slots(self) -> int:
        """Aggregate scheduler width — the pool's peak warp concurrency."""
        return sum(d.spec.warp_slots for d in self.devices)

    def alive_device_ids(self) -> list[int]:
        """Ids of devices whose health says they can still take work."""
        return [d.device_id for d in self.devices if d.health.alive]

    def reset_health(self) -> None:
        """Re-arm every device's health record for a fresh run."""
        for d in self.devices:
            d.health.reset()

    def __len__(self) -> int:
        return self.num_devices

    def __iter__(self):
        return iter(self.devices)

    def __getitem__(self, device_id: int) -> PoolDevice:
        return self.devices[device_id]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = {d.spec.name for d in self.devices}
        dead = self.num_devices - len(self.alive_device_ids())
        suffix = f", dead={dead}" if dead else ""
        return f"DevicePool(n={self.num_devices}, specs={sorted(names)}{suffix})"
