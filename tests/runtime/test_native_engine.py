"""``engine="native"``: the fidelity-free array backend.

The contract under test: for every optimization config the native engine
returns the *same pair set* as the simulated engines (order-normalized via
``canonical_pairs``), composes unchanged with sharding, checkpoint/resume
and the process worker backend, and is honest about its fidelity
(``fidelity="none"``, no batch stats, no WEE).
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
from repro.core import OptimizationConfig, SimilarityJoin
from repro.grid import GridIndex
from repro.resilience import (
    CrashPoint,
    DeviceFailure,
    FaultPlan,
    RecoveryPolicy,
    SimulatedCrashError,
    Straggler,
)
from repro.runtime import CheckpointConfig, NativeLaunchStage, native_query_order
from repro.runtime.plan import LaunchStage

NATIVE_PRESETS = ("gpucalcglobal", "lidunicomp", "sortbywl", "workqueue_k8", "combined")


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
        assert np.array_equal(nat.canonical_pairs(), ref.canonical_pairs())
        assert nat.num_pairs == ref.num_pairs

    @pytest.mark.parametrize(
        "k,queue", [(1, False), (4, True), (8, True)], ids=["k1", "k4_wq", "k8_wq"]
    )
    def test_matches_across_granularity_and_queue(self, shared_index, k, queue):
        cfg = OptimizationConfig(pattern="lidunicomp", k=k, work_queue=queue)
        ref = _run(shared_index, "vectorized", cfg)
        nat = _run(shared_index, "native", cfg)
        assert np.array_equal(nat.canonical_pairs(), ref.canonical_pairs())

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
        assert np.array_equal(nat.canonical_pairs(), ref.canonical_pairs())

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
        assert np.array_equal(nat.canonical_pairs(), resorted)

    def test_fragments_stream_concatenates_to_pairs(self, shared_index):
        nat = _run(shared_index, "native", PRESETS["sortbywl"])
        assert nat.fragments is not None
        assert np.array_equal(np.concatenate(nat.fragments, axis=0), nat.pairs)

    def test_plan_uses_native_launch_stage(self, shared_index):
        plan = compile_self_join(
            shared_index, RuntimeConfig(optimization=PRESETS["combined"], engine="native")
        )
        stage = plan.launch_stage
        assert isinstance(stage, NativeLaunchStage)
        assert plan.stage(LaunchStage) is None
        assert stage.order == "sortbywl"  # combined sorts by workload
        assert "engine=native" in plan.describe()

    def test_plan_natural_order_without_sorting(self, shared_index):
        plan = compile_self_join(
            shared_index,
            RuntimeConfig(optimization=PRESETS["gpucalcglobal"], engine="native"),
        )
        assert plan.launch_stage.order == "natural"


# -- query ordering ------------------------------------------------------
class TestQueryOrder:
    def test_subset_restriction_preserves_sorted_order(self, shared_index):
        cfg = PRESETS["sortbywl"]

        class _Op:
            kind = "self"

        subset = np.arange(0, shared_index.num_points, 3, dtype=np.int64)
        full = native_query_order(_Op(), shared_index, cfg)
        restricted = native_query_order(_Op(), shared_index, cfg, subset=subset)
        assert set(restricted.tolist()) == set(subset.tolist())
        pos = {p: i for i, p in enumerate(full.tolist())}
        ranks = [pos[p] for p in restricted.tolist()]
        assert ranks == sorted(ranks)

    def test_natural_order_is_subset_order(self, shared_index):
        cfg = PRESETS["gpucalcglobal"]

        class _Op:
            kind = "self"

        subset = np.array([5, 2, 9], dtype=np.int64)
        assert native_query_order(
            _Op(), shared_index, cfg, subset=subset
        ).tolist() == [5, 2, 9]


# -- sharding: inline pool and process workers --------------------------
class TestSharded:
    def test_pooled_inline_matches_single_device(self, shared_index):
        single = _run(shared_index, "native", PRESETS["combined"])
        pooled = _run(
            shared_index,
            "native",
            PRESETS["combined"],
            sharding=ShardingConfig(num_devices=3),
        )
        assert np.array_equal(pooled.canonical_pairs(), single.canonical_pairs())
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
        assert np.array_equal(nat.canonical_pairs(), ref.canonical_pairs())

    def test_process_workers_match_inline_and_replay(self, shared_index):
        sharding = ShardingConfig(num_devices=2, workers="process")
        inline = _run(
            shared_index,
            "native",
            PRESETS["combined"],
            sharding=ShardingConfig(num_devices=2),
        )
        first = _run(shared_index, "native", PRESETS["combined"], sharding=sharding)
        again = _run(shared_index, "native", PRESETS["combined"], sharding=sharding)
        assert np.array_equal(first.canonical_pairs(), inline.canonical_pairs())
        assert np.array_equal(first.pairs, again.pairs)  # deterministic buffers
        assert first.fidelity == "none"


# -- checkpoint / crash / resume ----------------------------------------
class TestCheckpointResume:
    @pytest.mark.parametrize("kill_at", range(6))
    @pytest.mark.parametrize("resume_workers", ["inline", "process"])
    @pytest.mark.parametrize("workers", ["inline", "process"])
    def test_crash_then_resume_reproduces_golden(
        self, tmp_path, workers, resume_workers, kill_at
    ):
        """Kill at every one of the 6 shard dispatches on one worker
        backend, resume on either: the journal is backend-agnostic."""
        index = GridIndex(_points(n=240, seed=5), 0.4)

        def rc(backend, **kw):
            return RuntimeConfig(
                optimization=PRESETS["combined"],
                engine="native",
                sharding=ShardingConfig(num_devices=3, workers=backend),
                checkpoint=CheckpointConfig(directory=tmp_path),
                seed=0,
                **kw,
            )

        golden = Runner().run(compile_self_join(index, rc(workers)))
        crash = FaultPlan(seed=0, crashes=(CrashPoint(at_shard=kill_at),))
        with pytest.raises(SimulatedCrashError):
            Runner().run(compile_self_join(index, rc(workers, fault_plan=crash)))
        runner = Runner()
        resumed = runner.resume(compile_self_join(index, rc(resume_workers)))
        assert np.array_equal(resumed.canonical_pairs(), golden.canonical_pairs())
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

    def test_process_workers_require_native(self):
        with pytest.raises(ValueError, match="process"):
            RuntimeConfig(
                engine="vectorized",
                sharding=ShardingConfig(num_devices=2, workers="process"),
            )

    def test_unknown_worker_backend_rejected(self):
        with pytest.raises(ValueError, match="worker backend"):
            ShardingConfig(num_devices=2, workers="threads")
