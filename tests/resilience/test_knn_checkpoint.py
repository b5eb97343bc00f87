"""Crash/resume for the multi-round kNN driver.

The driver journals each completed round (and, pooled, each shard inside
the running round); a kill at *any* dispatch ordinal followed by
``Runner.resume`` must reproduce the uninterrupted :class:`KnnResult`
byte-for-byte, re-executing only the incomplete rounds.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.data import uniform
from repro.resilience import (
    CheckpointStore,
    CrashPoint,
    FaultPlan,
    SimulatedCrashError,
)
from repro.runtime import (
    CheckpointConfig,
    KnnConvergenceError,
    Runner,
    RuntimeConfig,
    ShardingConfig,
    compile_knn_join,
)

_K = 4
_EPS0 = 0.02  # small enough that 200 uniform points need several rounds
_ROUNDS = 4  # rounds the expansion takes from _EPS0 on the fixture points


@pytest.fixture(scope="module")
def points():
    return uniform(200, 2, seed=17, low=0.0, high=1.0)


def _pooled(**kw) -> RuntimeConfig:
    return RuntimeConfig(sharding=ShardingConfig(num_devices=3), **kw)


def _plan(points, rc: RuntimeConfig):
    return compile_knn_join(points, _K, rc, epsilon0=_EPS0)


@pytest.fixture(scope="module")
def golden(points):
    return Runner().run(_plan(points, _pooled()))


def _assert_identical(resumed, golden):
    assert resumed.indices.tobytes() == golden.indices.tobytes()
    assert resumed.distances.tobytes() == golden.distances.tobytes()
    assert resumed.rounds == golden.rounds
    assert resumed.final_epsilon == golden.final_epsilon
    assert resumed.total_seconds == golden.total_seconds


def test_multiple_rounds_exercised(golden):
    assert golden.rounds >= 3  # the matrix below must cover round boundaries


def test_kill_at_every_dispatch_then_resume(points, golden, tmp_path):
    """The full matrix: one kill per dispatch ordinal until the run
    completes uncrashed, each resumed to a bit-identical result."""
    fired = 0
    for kill in range(64):
        ck = CheckpointConfig(directory=str(tmp_path / f"kill{kill}"))
        crashing = _pooled(
            fault_plan=FaultPlan(crashes=(CrashPoint(at_shard=kill),)),
            checkpoint=ck,
        )
        try:
            Runner().run(_plan(points, crashing))
            break  # ordinal beyond the final dispatch: nothing to kill
        except SimulatedCrashError:
            fired += 1
        resumed = Runner().resume(_plan(points, _pooled(checkpoint=ck)))
        _assert_identical(resumed, golden)
    else:
        pytest.fail("crash matrix never ran to completion")
    # at least one kill inside every round (round 0 alone has 6 shards)
    assert fired > golden.rounds


def test_resume_skips_completed_rounds(points, golden, tmp_path):
    """A kill after round 0 finished must replay round 0 from the journal
    (driver load) instead of re-executing its shards."""
    ck = CheckpointConfig(directory=str(tmp_path))
    round0_shards = 6  # 3 devices x 2 shards per device
    crashing = _pooled(
        fault_plan=FaultPlan(crashes=(CrashPoint(at_shard=round0_shards),)),
        checkpoint=ck,
    )
    with pytest.raises(SimulatedCrashError):
        Runner().run(_plan(points, crashing))
    runner = Runner()
    resumed = runner.resume(_plan(points, _pooled(checkpoint=ck)))
    _assert_identical(resumed, golden)
    assert runner.last_checkpoint_stats.loads >= 1


@pytest.mark.parametrize("kill", range(_ROUNDS))
@pytest.mark.parametrize("engine", ["interpreted", "native"])
def test_single_device_kill_and_resume(points, tmp_path, engine, kill):
    """A single-device round is one dispatch, so kill ordinal r lands in
    round r; the rounds before it replay from the driver journal."""
    golden = Runner().run(_plan(points, RuntimeConfig(engine=engine)))
    assert golden.rounds == _ROUNDS  # the ordinals cover every round
    ck = CheckpointConfig(directory=str(tmp_path))
    crashing = RuntimeConfig(
        engine=engine, fault_plan=FaultPlan(crashes=(CrashPoint(at_shard=kill),)), checkpoint=ck
    )
    with pytest.raises(SimulatedCrashError):
        Runner().run(_plan(points, crashing))
    runner = Runner()
    resumed = runner.resume(_plan(points, RuntimeConfig(engine=engine, checkpoint=ck)))
    if engine == "native":
        # native seconds are host wall-clock; everything else must repeat
        golden = dataclasses.replace(golden, total_seconds=resumed.total_seconds)
    _assert_identical(resumed, golden)
    assert runner.last_checkpoint_stats.loads == kill


def test_journal_cleaned_after_completion(points, tmp_path):
    ck = CheckpointConfig(directory=str(tmp_path))
    Runner().run(_plan(points, _pooled(checkpoint=ck)))
    assert CheckpointStore(str(tmp_path)).runs() == []


def test_non_convergence_keeps_the_journal(points, tmp_path):
    """A driver that hits max_rounds is a failure, not a completion: the
    completed rounds stay durable for diagnosis."""
    ck = CheckpointConfig(directory=str(tmp_path))
    plan = compile_knn_join(
        points, _K, _pooled(checkpoint=ck), epsilon0=1e-4, max_rounds=2
    )
    with pytest.raises(KnnConvergenceError):
        Runner().run(plan)
    assert len(CheckpointStore(str(tmp_path)).runs()) == 1
