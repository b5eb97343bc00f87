"""Golden-equivalence scenario definitions, shared by capture and verify.

The scenarios enumerate every ``PRESETS`` entry × {1 device, 4 devices} ×
{fault-free, seeded FaultPlan} (plus two bipartite spot checks), and the
fingerprint captures everything the refactor must preserve bit-for-bit:

- the canonical (lexicographically sorted) pair set,
- the scheduler trace signature (pooled runs),
- ``PoolStats`` — per-device busy/kernel seconds, pair counts, makespan,
- end-to-end simulated seconds and warp execution efficiency.

Floats are fingerprinted via ``float.hex()`` so equality means the exact
same bits, not "close enough". ``capture_goldens.py`` ran this module at
the pre-refactor HEAD (commit 5472173) to produce ``goldens.json``;
``test_golden_equivalence.py`` re-runs it against the current tree.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro import PRESETS, RuntimeConfig, SelfJoin, ShardingConfig, SimilarityJoin
from repro.resilience import (
    DeviceFailure,
    FaultPlan,
    ForcedOverflow,
    Straggler,
    TransientFaults,
)

EPSILON = 0.9
NUM_POINTS = 200
SEED = 0

#: 4-device plan: kill one device, slow one, make one flaky, clamp one
#: buffer — every fault species in a single run.
FAULTS_4DEV = FaultPlan(
    seed=7,
    failures=[DeviceFailure(device_id=1, at_shard=1)],
    stragglers=[Straggler(device_id=2, slowdown=2.0)],
    transients=[TransientFaults(device_id=3, probability=0.4, max_failures=2)],
    overflows=[ForcedOverflow(device_id=0, times=1)],
)

#: 1-device plan: no permanent failure (there is nowhere to requeue), but
#: the straggler and forced-overflow paths still fire.
FAULTS_1DEV = FaultPlan(
    seed=7,
    stragglers=[Straggler(device_id=0, slowdown=2.0)],
    overflows=[ForcedOverflow(device_id=0, times=1)],
)


def dataset() -> np.ndarray:
    return np.random.default_rng(SEED).uniform(0.0, 10.0, size=(NUM_POINTS, 2))


def bipartite_dataset() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(SEED + 1)
    return (
        rng.uniform(0.0, 10.0, size=(180, 2)),
        rng.uniform(0.0, 10.0, size=(NUM_POINTS, 2)),
    )


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pairs_fingerprint(result) -> str:
    pairs = result.sorted_pairs()
    return _sha(np.ascontiguousarray(pairs, dtype=np.int64).tobytes())


def result_fingerprint(result) -> dict:
    """Everything a single-device ``JoinResult`` must preserve."""
    return {
        "pairs_sha": pairs_fingerprint(result),
        "num_pairs": int(result.num_pairs),
        "total_seconds": float(result.total_seconds).hex(),
        "kernel_seconds": float(result.kernel_seconds).hex(),
        "wee": float(result.warp_execution_efficiency).hex(),
        "overflow_retries": int(result.overflow_retries),
    }


def pooled_fingerprint(result) -> dict:
    """A ``MultiJoinResult``'s fingerprint: pairs, trace, pool stats."""
    stats = result.pool_stats
    fp = result_fingerprint(result)
    fp.update(
        {
            "trace_sha": _sha(repr(result.trace.signature()).encode()),
            "makespan": float(stats.makespan_seconds).hex(),
            "dee": float(stats.device_execution_efficiency).hex(),
            "devices": [
                {
                    "busy": float(d.busy_seconds).hex(),
                    "kernel": float(d.kernel_seconds).hex(),
                    "pairs": int(d.num_pairs),
                    "shards": int(d.num_shards),
                }
                for d in stats.devices
            ],
        }
    )
    return fp


def run_scenario(preset: str, devices: int, faulted: bool) -> dict:
    """One self-join golden cell, via the public facades."""
    pts = dataset()
    cfg = PRESETS[preset]
    if devices == 1 and not faulted:
        result = SelfJoin(runtime=RuntimeConfig(optimization=cfg, seed=SEED)).execute(pts, EPSILON)
        return result_fingerprint(result)
    fault_plan = None
    if faulted:
        fault_plan = FAULTS_1DEV if devices == 1 else FAULTS_4DEV
    join = SelfJoin(
        runtime=RuntimeConfig(
            optimization=cfg,
            seed=SEED,
            sharding=ShardingConfig(num_devices=devices),
            fault_plan=fault_plan,
        )
    )
    return pooled_fingerprint(join.execute(pts, EPSILON))


def run_bipartite_scenario(preset: str, devices: int) -> dict:
    left, right = bipartite_dataset()
    cfg = PRESETS[preset]
    runtime = RuntimeConfig(optimization=cfg, seed=SEED)
    if devices == 1:
        result = SimilarityJoin(runtime=runtime).execute(left, right, EPSILON)
        return result_fingerprint(result)
    join = SimilarityJoin(runtime=runtime.with_(sharding=ShardingConfig(num_devices=devices)))
    return pooled_fingerprint(join.execute(left, right, EPSILON))


def self_scenarios() -> list[tuple[str, str, int, bool]]:
    out = []
    for preset in PRESETS:
        for devices in (1, 4):
            for faulted in (False, True):
                key = f"self/{preset}/{devices}dev/{'faulted' if faulted else 'clean'}"
                out.append((key, preset, devices, faulted))
    return out


#: Bipartite spot checks (the pattern must stay "full").
BIPARTITE_SCENARIOS = [
    ("bipartite/gpucalcglobal/1dev", "gpucalcglobal", 1),
    ("bipartite/gpucalcglobal/4dev", "gpucalcglobal", 4),
    ("bipartite/workqueue_k8/4dev", "workqueue_k8", 4),
]


def capture_all() -> dict:
    goldens: dict[str, dict] = {}
    for key, preset, devices, faulted in self_scenarios():
        goldens[key] = run_scenario(preset, devices, faulted)
    for key, preset, devices in BIPARTITE_SCENARIOS:
        goldens[key] = run_bipartite_scenario(preset, devices)
    return goldens
