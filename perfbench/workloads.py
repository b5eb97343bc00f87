"""The benchmark's four workloads.

Each workload has a generating half and a measured half. ``make_inputs``
runs in ``run.py``: it generates the inputs from the seed with
``repro.data``, writes them as ``.npy`` files and records the
scipy-cKDTree oracle next to them. ``load``, ``op`` and ``check`` run in a
fresh measured process that loads the inputs through
``repro.io.load_dataset`` and drives the public API. README.md next to
this file says why each workload exists.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np

import oracle
import repro
import repro.io
from repro.data import exponential, gaia_like, sw_like, uniform
from repro.resilience import CrashPoint, FaultPlan, SimulatedCrashError
from repro.runtime import CheckpointConfig, RuntimeConfig, ShardingConfig
from repro.serve import JoinRequest

__all__ = ["LATENCY_LIMIT_S", "SERVE_MIX", "WORKLOADS", "serve_schedule"]

#: request kind -> (share of the schedule, JoinRequest fields)
SERVE_MIX = {
    "sky_self_0.1": (0.4, {"dataset": "sky", "epsilon": 0.1}),
    "sky_self_0.2": (0.2, {"dataset": "sky", "epsilon": 0.2}),
    "tracks_sky_0.2": (
        0.2,
        {"dataset": "sky", "epsilon": 0.2, "kind": "similarity", "query_dataset": "tracks"},
    ),
    "rings_knn_8": (0.2, {"dataset": "rings", "epsilon": 1.0, "kind": "knn", "k": 8}),
}
#: open-loop offered load, in requests per second of schedule
SERVE_RATE = 7.0
#: a request answered correctly within this many seconds counts toward goodput
LATENCY_LIMIT_S = 1.0
TENANTS = ("tenant-a", "tenant-b")


def _dump(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True))


def serve_schedule(seed: int, seconds: float) -> list[list]:
    """The seeded open-loop schedule: ``[due second, request kind, tenant]`` rows.

    Arrivals are evenly spaced at :data:`SERVE_RATE`, and the seed orders
    the request kinds and picks the tenants. Poisson arrivals overlapped
    about half of the requests at this rate, and how many overlapped, and
    so contended for the two cores, changed the median latency by 15 %
    from seed to seed. Every request kind keeps its share of the schedule.
    """
    rng = np.random.default_rng([seed, 7])
    n = max(len(SERVE_MIX), round(SERVE_RATE * seconds))
    counts = np.array([int(share * n) for share, _ in SERVE_MIX.values()])
    counts[0] += n - counts.sum()
    kinds = rng.permutation(np.repeat(list(SERVE_MIX), counts))
    dues = np.arange(n) * (seconds / n)
    tenants = rng.integers(0, len(TENANTS), n)
    return [[float(d), str(k), TENANTS[t]] for d, k, t in zip(dues, kinds, tenants)]


class SelfJoin:
    """A batch user's self-join: one op is a whole join from the loaded points."""

    def __init__(self, generate, epsilon: float, runtime: RuntimeConfig, layers, *, mmap=False):
        self.generate = generate
        self.epsilon = epsilon
        self.runtime = runtime
        #: span names every measured op should record
        self.layers = layers
        self.mmap = mmap

    def make_inputs(self, seed: int, seconds: float, path: Path) -> None:
        points = self.generate(seed)
        repro.io.save_dataset(path / "points.npy", points)
        _dump(path / "oracle.json", oracle.self_join(points, self.epsilon))

    def expectations(self, path: Path) -> dict:
        return json.loads((path / "oracle.json").read_text())

    def load(self, path: Path):
        return repro.io.load_dataset(path / "points.npy", mmap=self.mmap)

    def op(self, points):
        """``(result, exact counts)`` of one join: grid build, compile, run."""
        index = repro.GridIndex(points, self.epsilon)
        result = repro.Runner().run(repro.compile_self_join(index, self.runtime))
        return result, {"grid.cells": index.num_nonempty_cells}

    def check(self, out, expect) -> tuple[bool, dict]:
        """Whether one op's result matches the oracle, and its exact counts."""
        result, exact = out
        rows, checksum = oracle.pair_checksum([result.pairs])
        ok = rows == expect["pairs"] and checksum == expect["checksum"]
        return ok, {**exact, "result.pairs": rows}


class ShardedDurable(SelfJoin):
    """A journaled sharded self-join whose every op crashes, then resumes."""

    def load(self, path: Path):
        journal = tempfile.mkdtemp(prefix="journal-", dir=path)
        return super().load(path), self.runtime.with_(checkpoint=CheckpointConfig(journal))

    def op(self, state):
        points, runtime = state
        index = repro.GridIndex(points, self.epsilon)
        crashing = runtime.with_(fault_plan=FaultPlan(crashes=(CrashPoint(at_shard=2),)))
        crashed = repro.Runner()
        try:
            crashed.run(repro.compile_self_join(index, crashing))
        except SimulatedCrashError:
            pass
        else:
            raise RuntimeError("the crash point did not fire")
        resumed = repro.Runner()
        result = resumed.resume(repro.compile_self_join(index, runtime))
        written = (
            crashed.last_checkpoint_stats.bytes_written
            + resumed.last_checkpoint_stats.bytes_written
        )
        return result, {
            "grid.cells": index.num_nonempty_cells,
            "resilience.journal_bytes": written,
            "simt.simulated_s": result.total_seconds,
            "simt.wee": result.warp_execution_efficiency,
            "simt.overflow_retries": result.overflow_retries,
            "multigpu.dee": result.pool_stats.device_execution_efficiency,
        }


class ServeMixed:
    """Two tenants' open-loop request mix through one in-process JoinService."""

    datasets = ("sky", "tracks", "rings")

    def __init__(self, sizes: dict, runtime: RuntimeConfig, layers):
        self.sizes = sizes
        self.runtime = runtime
        #: span names the measured requests should record
        self.layers = layers

    def make_inputs(self, seed: int, seconds: float, path: Path) -> None:
        points = {
            "sky": gaia_like(self.sizes["sky"], seed=[seed, 1]),
            "tracks": sw_like(self.sizes["tracks"], 2, seed=[seed, 2]),
            "rings": sw_like(self.sizes["rings"], 2, seed=[seed, 3]),
        }
        for name, data in points.items():
            repro.io.save_dataset(path / f"{name}.npy", data)
        expect = {}
        for kind, (_, fields) in SERVE_MIX.items():
            data = points[fields["dataset"]]
            if fields.get("kind") == "knn":
                np.save(path / f"oracle-{kind}.npy", oracle.knn_distances(data, fields["k"]))
            elif fields.get("kind") == "similarity":
                queries = points[fields["query_dataset"]]
                expect[kind] = oracle.similarity_join(queries, data, fields["epsilon"])
            else:
                expect[kind] = oracle.self_join(data, fields["epsilon"])
        _dump(path / "oracle.json", expect)
        _dump(path / "schedule.json", serve_schedule(seed, seconds))

    def expectations(self, path: Path) -> dict:
        expect = json.loads((path / "oracle.json").read_text())
        for kind, (_, fields) in SERVE_MIX.items():
            if fields.get("kind") == "knn":
                expect[kind] = np.load(path / f"oracle-{kind}.npy")
        return expect

    def request(self, kind: str, tenant: str) -> JoinRequest:
        return JoinRequest(**SERVE_MIX[kind][1], tenant=tenant, runtime=self.runtime, tag=kind)

    def check(self, kind: str, response, expect) -> tuple[bool, dict]:
        """Whether one response matches the oracle, and its exact counts."""
        if not response.ok:
            return False, {}
        result, want = response.result, expect[kind]
        if SERVE_MIX[kind][1].get("kind") == "knn":
            ok = result.distances.shape == want.shape and bool(
                np.allclose(result.distances, want, rtol=1e-9, atol=0.0)
            )
            return ok, {"runtime.knn_rounds": result.rounds}
        rows, checksum = oracle.pair_checksum(result.iter_pairs())
        ok = rows == want["pairs"] and checksum == want["checksum"]
        return ok, {f"result.pairs.{kind}": rows}


_COMBINED = repro.PRESETS["combined"]
_NATIVE = RuntimeConfig(engine="native")

WORKLOADS = {
    "selfjoin_skew": SelfJoin(
        lambda seed: gaia_like(600_000, seed=seed),
        # at 600k points, the ε that keeps the block pass the larger part of the op
        0.25,
        RuntimeConfig(engine="native", optimization=_COMBINED),
        ("grid.build", "grid.neighbor_ranks", "core.sortbywl")
        + ("runtime.compile", "runtime.run", "runtime.native"),
    ),
    "selfjoin_hidim": SelfJoin(
        lambda seed: uniform(30_000, 6, seed=seed),
        15.0,
        _NATIVE,
        ("grid.build", "grid.neighbor_ranks", "runtime.compile", "runtime.run", "runtime.native"),
        mmap=True,
    ),
    "sharded_durable": ShardedDurable(
        lambda seed: exponential(16_000, 2, seed=seed),
        0.002,
        RuntimeConfig(
            engine="vectorized", optimization=_COMBINED, sharding=ShardingConfig(num_devices=2)
        ),
        ("grid.build", "grid.neighbor_ranks", "core.sortbywl", "core.estimate")
        + ("core.run_batches", "runtime.compile", "runtime.run")
        + ("multigpu.plan_shards", "multigpu.merge")
        + ("resilience.journal_write", "resilience.journal_read"),
    ),
    "serve_mixed": ServeMixed(
        {"sky": 50_000, "tracks": 12_000, "rings": 5_000},
        _NATIVE,
        ("grid.neighbor_ranks", "core.estimate", "runtime.compile", "runtime.run")
        + ("runtime.native", "runtime.knn_driver", "serve.admit"),
    ),
}
