"""``engine="native"``: the fidelity-free array backend.

The contract under test: for every optimization config the native engine
returns the *same pair set* as the simulated engines (order-normalized via
``sorted_pairs``), composes unchanged with sharding and
checkpoint/resume, and is honest about its fidelity (``fidelity="none"``,
no batch stats, no WEE).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    PRESETS,
    Runner,
    RuntimeConfig,
    SelfJoin,
    ShardingConfig,
    compile_self_join,
    compile_similarity_join,
)
from repro.baselines import brute_force_neighbor_counts
from repro.core import OptimizationConfig, SimilarityJoin
from repro.grid import GridIndex
from repro.grid.bipartite import bipartite_workloads
from repro.io import load_dataset, save_dataset
from repro.resilience import (
    CrashPoint,
    DeviceFailure,
    FaultPlan,
    RecoveryPolicy,
    SimulatedCrashError,
    Straggler,
)
from repro.runtime import (
    BipartiteOp,
    CheckpointConfig,
    SelfJoinOp,
    execute_shard_native,
)

NATIVE_PRESETS = ("gpucalcglobal", "lidunicomp", "sortbywl", "workqueue_k8", "combined")
#: the presets a similarity join accepts (``pattern="full"``)
FULL_PRESETS = ("gpucalcglobal", "k8", "sortbywl", "workqueue", "workqueue_k8")


def _points(n=400, seed=3):
    rng = np.random.default_rng(seed)
    return np.concatenate(
        [rng.normal(2.0, 0.4, (n // 2, 2)), rng.uniform(0.0, 8.0, (n // 2, 2))]
    )


@pytest.fixture(scope="module")
def shared_index():
    return GridIndex(_points(), 0.35)


def _run(index, engine, cfg, **kw):
    rc = RuntimeConfig(optimization=cfg, seed=0, engine=engine, **kw)
    return Runner().run(compile_self_join(index, rc))


# -- single-device equivalence ------------------------------------------
class TestEquivalence:
    @pytest.mark.parametrize("preset", NATIVE_PRESETS)
    def test_matches_interpreted_across_presets(self, shared_index, preset):
        ref = _run(shared_index, "interpreted", PRESETS[preset])
        nat = _run(shared_index, "native", PRESETS[preset])
        assert np.array_equal(nat.sorted_pairs(), ref.sorted_pairs())
        assert nat.num_pairs == ref.num_pairs

    @pytest.mark.parametrize(
        "k,queue", [(1, False), (4, True), (8, True)], ids=["k1", "k4_wq", "k8_wq"]
    )
    def test_matches_across_granularity_and_queue(self, shared_index, k, queue):
        cfg = OptimizationConfig(pattern="lidunicomp", k=k, work_queue=queue)
        ref = _run(shared_index, "vectorized", cfg)
        nat = _run(shared_index, "native", cfg)
        assert np.array_equal(nat.sorted_pairs(), ref.sorted_pairs())

    def test_bipartite_matches_interpreted(self, shared_index):
        cfg = OptimizationConfig(pattern="full", k=4, work_queue=True)
        queries = np.random.default_rng(11).uniform(0.0, 8.0, (150, 2))
        plans = {
            engine: compile_similarity_join(
                shared_index,
                queries,
                RuntimeConfig(optimization=cfg, seed=0, engine=engine),
            )
            for engine in ("interpreted", "native")
        }
        ref = Runner().run(plans["interpreted"])
        nat = Runner().run(plans["native"])
        assert np.array_equal(nat.sorted_pairs(), ref.sorted_pairs())

    def test_facades_accept_native(self, shared_index):
        res = SelfJoin(
            runtime=RuntimeConfig(optimization=PRESETS["combined"], engine="native")
        ).execute_on_index(shared_index)
        assert res.fidelity == "none"
        queries = np.random.default_rng(2).uniform(0.0, 8.0, (40, 2))
        sim = SimilarityJoin(
            runtime=RuntimeConfig(
                optimization=OptimizationConfig(pattern="full"), engine="native"
            )
        ).execute(shared_index.points, queries, 0.35)
        assert sim.fidelity == "none"


# -- result shape and fidelity ------------------------------------------
class TestResultContract:
    def test_fidelity_and_empty_batch_stats(self, shared_index):
        nat = _run(shared_index, "native", PRESETS["gpucalcglobal"])
        sim = _run(shared_index, "vectorized", PRESETS["gpucalcglobal"])
        assert nat.fidelity == "none"
        assert nat.batch_stats == []
        assert sim.fidelity == "simulated"

    def test_canonical_pairs_is_order_insensitive(self, shared_index):
        nat = _run(shared_index, "native", PRESETS["combined"])
        shuffled = nat.pairs[np.random.default_rng(0).permutation(len(nat.pairs))]
        resorted = shuffled[np.lexsort((shuffled[:, 1], shuffled[:, 0]))]
        assert np.array_equal(nat.sorted_pairs(), resorted)

    def test_fragments_stream_concatenates_to_pairs(self, shared_index):
        nat = _run(shared_index, "native", PRESETS["sortbywl"])
        assert nat.fragments is not None
        assert np.array_equal(np.concatenate(nat.fragments, axis=0), nat.pairs)

    def test_plan_uses_native_launch_stage(self, shared_index):
        # a sorting preset's bipartite plan launches as gpucalcglobal's does
        queries = np.random.default_rng(4).uniform(0.0, 8.0, (20, 2))
        rt = RuntimeConfig(optimization=PRESETS["sortbywl"], engine="native")
        bipartite = compile_similarity_join(shared_index, queries, rt)
        natural = execute_shard_native(
            BipartiteOp(queries), shared_index, PRESETS["gpucalcglobal"]
        )
        assert Runner().run(bipartite).pairs.tobytes() == natural.pairs.tobytes()

    def test_plan_natural_order_without_sorting(self):
        queries, index = _one_hit_case()
        plan = compile_similarity_join(
            index,
            queries,
            RuntimeConfig(optimization=PRESETS["gpucalcglobal"], engine="native"),
        )
        assert Runner().run(plan).pairs[:, 0].tolist() == list(range(len(queries)))


# -- query ordering ------------------------------------------------------
def _one_hit_case(n=400, eps=0.35, seed=8):
    """``(queries, index)``: queries are copies of indexed points that lie
    more than ε from every other one, so each query's only pair is its
    copy, found in the sweep's zero-offset stage, and the pairs' query
    column is the order the sweep visits. Neighbour cells still hold
    other points, so the queries' workloads differ."""
    points = np.random.default_rng(seed).uniform(0.0, 8.0, (n, 2))
    alone = brute_force_neighbor_counts(points, eps, include_self=False) == 0
    points = points[alone]
    return points[::-1].copy(), GridIndex(points, eps)


def _stored_index(tmp_path, storage):
    """An index over :func:`_points`, resident or memory-mapped."""
    points = _points()
    if storage == "mmap":
        save_dataset(tmp_path / "points.npy", points)
        points = load_dataset(tmp_path / "points.npy", mmap=True)
    return GridIndex(points, 0.35)


class TestQueryOrder:
    @pytest.mark.parametrize("preset", NATIVE_PRESETS)
    def test_self_join_visits_slot_order(self, shared_index, preset):
        # the identity pairs come first, one per query, as the walk visits
        result = execute_shard_native(SelfJoinOp(), shared_index, PRESETS[preset])
        n = shared_index.num_points
        assert np.array_equal(result.pairs[:n, 0], shared_index.point_order)

    def test_subset_restriction_preserves_sorted_order(self, shared_index):
        subset = np.arange(shared_index.num_points - 1, -1, -3, dtype=np.int64)
        result = execute_shard_native(
            SelfJoinOp(), shared_index, PRESETS["combined"], subset=subset
        )
        point_order = shared_index.point_order
        visited = result.pairs[: len(subset), 0]
        assert np.array_equal(visited, point_order[np.isin(point_order, subset)])

    def test_natural_order_is_subset_order(self):
        queries, index = _one_hit_case()
        subset = np.array([5, 2, 9], dtype=np.int64)
        result = execute_shard_native(
            BipartiteOp(queries), index, PRESETS["gpucalcglobal"], subset=subset
        )
        assert result.pairs[:, 0].tolist() == [5, 2, 9]

    def test_bipartite_sweep_visits_query_order(self):
        queries, index = _one_hit_case()
        op = BipartiteOp(queries)
        subset = np.random.default_rng(1).permutation(len(queries))[: len(queries) // 2]
        workloads, _ = bipartite_workloads(index, queries[subset])
        # SORTBYWL would visit another order here
        assert not np.array_equal(subset[np.argsort(-workloads, kind="stable")], subset)
        for preset in FULL_PRESETS:
            whole = execute_shard_native(op, index, PRESETS[preset])
            assert whole.pairs[:, 0].tolist() == list(range(len(queries))), preset
            shard = execute_shard_native(op, index, PRESETS[preset], subset=subset)
            assert np.array_equal(shard.pairs[:, 0], subset), preset

    @pytest.mark.parametrize("storage", ["resident", "mmap"])
    def test_self_join_bytes_are_the_same_for_every_preset(self, tmp_path, storage):
        index = _stored_index(tmp_path, storage)
        pairs = {preset: _run(index, "native", PRESETS[preset]).pairs for preset in NATIVE_PRESETS}
        for preset in NATIVE_PRESETS:
            assert pairs[preset].tobytes() == pairs["gpucalcglobal"].tobytes(), preset

    @pytest.mark.parametrize("storage", ["resident", "mmap"])
    def test_bipartite_bytes_are_the_same_for_every_preset(self, tmp_path, storage):
        index = _stored_index(tmp_path, storage)
        queries = np.random.default_rng(11).uniform(0.0, 8.0, (150, 2))
        pairs = {}
        for preset in FULL_PRESETS:
            rt = RuntimeConfig(optimization=PRESETS[preset], seed=0, engine="native")
            pairs[preset] = Runner().run(compile_similarity_join(index, queries, rt)).pairs
        assert len(pairs["gpucalcglobal"])
        for preset in FULL_PRESETS:
            assert pairs[preset].tobytes() == pairs["gpucalcglobal"].tobytes(), preset


# -- sharding ------------------------------------------------------------
class TestSharded:
    def test_pooled_inline_matches_single_device(self, shared_index):
        single = _run(shared_index, "native", PRESETS["combined"])
        pooled = _run(
            shared_index,
            "native",
            PRESETS["combined"],
            sharding=ShardingConfig(num_devices=3),
        )
        assert np.array_equal(pooled.sorted_pairs(), single.sorted_pairs())
        assert pooled.fidelity == "none"

    def test_pooled_matches_interpreted_merged(self, shared_index):
        ref = _run(
            shared_index,
            "interpreted",
            PRESETS["lidunicomp"],
            sharding=ShardingConfig(num_devices=3),
        )
        nat = _run(
            shared_index,
            "native",
            PRESETS["lidunicomp"],
            sharding=ShardingConfig(num_devices=3),
        )
        assert np.array_equal(nat.sorted_pairs(), ref.sorted_pairs())


# -- checkpoint / crash / resume ----------------------------------------
class TestCheckpointResume:
    @pytest.mark.parametrize("kill_at", range(6))
    def test_crash_then_resume_reproduces_golden(self, tmp_path, kill_at):
        """Kill at every one of the 6 shard dispatches, then resume."""
        index = GridIndex(_points(n=240, seed=5), 0.4)

        def rc(**kw):
            return RuntimeConfig(
                optimization=PRESETS["combined"],
                engine="native",
                sharding=ShardingConfig(num_devices=3),
                checkpoint=CheckpointConfig(directory=tmp_path),
                seed=0,
                **kw,
            )

        golden = Runner().run(compile_self_join(index, rc()))
        crash = FaultPlan(seed=0, crashes=(CrashPoint(at_shard=kill_at),))
        with pytest.raises(SimulatedCrashError):
            Runner().run(compile_self_join(index, rc(fault_plan=crash)))
        runner = Runner()
        resumed = runner.resume(compile_self_join(index, rc()))
        assert np.array_equal(resumed.sorted_pairs(), golden.sorted_pairs())
        assert runner.last_checkpoint_stats.loads == kill_at


# -- config validation ---------------------------------------------------
class TestValidation:
    def test_native_rejects_recovery(self):
        with pytest.raises(ValueError, match="recovery"):
            RuntimeConfig(engine="native", recovery=RecoveryPolicy())

    def test_native_rejects_device_faults(self):
        plan = FaultPlan(seed=0, failures=[DeviceFailure(device_id=0, at_shard=0)])
        with pytest.raises(ValueError, match="native"):
            RuntimeConfig(engine="native", fault_plan=plan)
        slow = FaultPlan(seed=0, stragglers=[Straggler(device_id=0, slowdown=2.0)])
        with pytest.raises(ValueError, match="native"):
            RuntimeConfig(engine="native", fault_plan=slow)

    def test_native_accepts_crash_only_plans(self):
        plan = FaultPlan(seed=0, crashes=(CrashPoint(at_shard=1),))
        rc = RuntimeConfig(engine="native", fault_plan=plan)
        assert rc.recovery is None  # no implied recovery for native
