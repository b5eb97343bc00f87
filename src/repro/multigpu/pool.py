"""A pool of independent simulated devices, each with a health record.

Each :class:`PoolDevice` owns its own
:class:`~repro.core.executor.DeviceExecutor` — and through it a private
:class:`~repro.simt.GpuMachine`, per-batch result buffers, per-shard
WORKQUEUE atomic counters and a private 3-stream transfer pipeline over
its own PCIe link. Nothing is shared device-to-device except the
host-side grid index and the host scheduler's shard queue, matching the
multi-GPU partitioning setup Gowanlock & Karsin name as the scaling path.

Pools are homogeneous by default (N copies of one
:class:`~repro.simt.DeviceSpec`) but accept an explicit heterogeneous
``specs`` list — the scheduler's dynamic mode then load-balances across
unequal devices for free.

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
from repro.runtime.config import NATIVE_ENGINE, OverflowConfig, RuntimeConfig
from repro.runtime.runner import executor_from_runtime
from repro.simt import CostParams, DeviceSpec

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
    num_devices:
        Pool size (ignored when ``specs`` is given).
    spec:
        Device spec cloned for every pool member; defaults to the paper's
        testbed class.
    specs:
        Explicit per-device specs for a heterogeneous pool.
    costs:
        Instruction cost model, shared by all devices (one architecture).
    seed:
        Base seed; device ``d`` runs with ``seed + d`` so the pool's
        issue-order shuffles are independent yet reproducible.
    replay_mode:
        Warp replay fidelity forwarded to every executor.
    engine:
        Kernel execution engine forwarded to every executor
        (``"interpreted"`` or ``"vectorized"``), or ``"native"`` — the
        array engine builds no executors at all (``PoolDevice.executor``
        is ``None``; shards run as NumPy passes, see
        :mod:`repro.runtime.native`).
    overflow_policy:
        Forwarded to every executor: ``"raise"`` (default — overflow
        propagates and the join re-plans) or ``"retry"`` (batch-level
        recovery with a geometrically grown buffer; see
        :class:`~repro.core.executor.DeviceExecutor`).
    """

    def __init__(
        self,
        num_devices: int = 2,
        *,
        spec: DeviceSpec | None = None,
        specs: list[DeviceSpec] | None = None,
        costs: CostParams | None = None,
        seed: int = 0,
        replay_mode: str = "aggregate",
        engine: str = "interpreted",
        overflow_policy: str = "raise",
    ):
        if specs is None:
            if num_devices < 1:
                raise ValueError("num_devices must be >= 1")
            base = spec if spec is not None else DeviceSpec()
            specs = [base] * num_devices
        elif not specs:
            raise ValueError("specs must name at least one device")
        runtime = RuntimeConfig(
            engine=engine,
            replay_mode=replay_mode,
            seed=seed,
            costs=costs,
            overflow=OverflowConfig(policy=overflow_policy),
        )
        self.devices = _devices(runtime, specs)

    @classmethod
    def from_runtime(
        cls,
        runtime,
        *,
        specs: list[DeviceSpec] | None = None,
    ) -> "DevicePool":
        """Build the pool a :class:`~repro.runtime.config.RuntimeConfig`
        describes: ``sharding.num_devices`` copies of its device spec,
        executors carrying its engine, replay mode, seed ladder and
        resolved overflow policy. ``specs`` overrides the homogeneous
        layout for heterogeneous pools.
        """
        if runtime.sharding is None:
            raise ValueError("runtime has no sharding config; nothing to pool")
        if specs is None:
            base = runtime.device if runtime.device is not None else DeviceSpec()
            specs = [base] * runtime.sharding.num_devices
        elif not specs:
            raise ValueError("specs must name at least one device")
        pool = cls.__new__(cls)
        pool.devices = _devices(runtime, specs)
        return pool

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


def _devices(runtime: RuntimeConfig, specs: list[DeviceSpec]) -> list[PoolDevice]:
    """One :class:`PoolDevice` per spec; device ``d`` gets the runtime's
    executor at ``device_index=d`` (seeded ``seed + d``), none on native."""
    return [
        PoolDevice(
            device_id=d,
            spec=s,
            executor=None
            if runtime.engine == NATIVE_ENGINE
            else executor_from_runtime(runtime.with_(device=s), device_index=d),
        )
        for d, s in enumerate(specs)
    ]
