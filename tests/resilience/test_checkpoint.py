"""Durable checkpoint/resume: fingerprints, fragments, crash equivalence.

The acceptance property of the tentpole: a run killed at shard *k* and
resumed produces **bit-identical** pairs and an identical trace signature
versus the uninterrupted golden run — across self/bipartite joins and
single-device/pooled execution.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SelfJoin
from repro.data import uniform
from repro.grid import GridIndex
from repro.io import load_shard_fragment, save_shard_fragment
from repro.resilience import (
    CheckpointError,
    CheckpointStore,
    CrashPoint,
    FaultPlan,
    SimulatedCrashError,
    config_identity,
    run_fingerprint,
)
from repro.runtime import runner as runner_module
from repro.runtime import (
    CheckpointConfig,
    DeadlineExceededError,
    ProfilingOptions,
    Runner,
    RuntimeConfig,
    ShardingConfig,
    compile_self_join,
    compile_similarity_join,
)

_EPS = 0.09


@pytest.fixture(scope="module")
def points():
    return uniform(260, 2, seed=5, low=0.0, high=1.0)


@pytest.fixture(scope="module")
def queries():
    return uniform(90, 2, seed=8, low=0.0, high=1.0)


@pytest.fixture(scope="module")
def index(points):
    return GridIndex(points, _EPS)


def _pooled(**kw) -> RuntimeConfig:
    return RuntimeConfig(sharding=ShardingConfig(num_devices=3), **kw)


# ------------------------------------------------------------ identity
class TestFingerprint:
    def test_stable_across_compiles(self, index):
        rc = _pooled()
        a = run_fingerprint(compile_self_join(index, rc))
        b = run_fingerprint(compile_self_join(index, rc))
        assert a == b

    def test_faults_and_checkpoint_do_not_change_identity(self, index, tmp_path):
        clean = compile_self_join(index, _pooled())
        noisy = compile_self_join(
            index,
            _pooled(
                fault_plan=FaultPlan(crashes=(CrashPoint(at_shard=1),)),
                checkpoint=CheckpointConfig(directory=str(tmp_path)),
                profiling=ProfilingOptions(keep_fragments=True),
            ),
        )
        assert run_fingerprint(clean) == run_fingerprint(noisy)

    def test_result_affecting_config_changes_identity(self, index):
        a = compile_self_join(index, _pooled())
        b = compile_self_join(index, RuntimeConfig(sharding=ShardingConfig(num_devices=2)))
        assert run_fingerprint(a) != run_fingerprint(b)

    def test_op_and_data_change_identity(self, index, points, queries):
        rc = _pooled()
        self_fp = run_fingerprint(compile_self_join(index, rc))
        sim_fp = run_fingerprint(compile_similarity_join(index, queries, rc))
        assert self_fp != sim_fp
        other = GridIndex(uniform(100, 2, seed=77, low=0.0, high=1.0), _EPS)
        assert run_fingerprint(compile_self_join(other, rc)) != self_fp

    def test_config_identity_strips_operational_knobs(self, tmp_path):
        base = _pooled()
        noisy = _pooled(
            fault_plan=FaultPlan(crashes=(CrashPoint(at_shard=0),)),
            checkpoint=CheckpointConfig(directory=str(tmp_path)),
        )
        assert config_identity(base) == config_identity(noisy)
        assert config_identity(base) != config_identity(
            RuntimeConfig(sharding=ShardingConfig(num_devices=2))
        )


# ------------------------------------------------------------ fragments
def test_fragment_roundtrip_is_exact(points, tmp_path):
    result = SelfJoin().execute(points, _EPS)
    path = tmp_path / "frag.npz"
    nbytes = save_shard_fragment(path, result, shard_id=3, run_fingerprint="abc123")
    assert nbytes > 0 and path.stat().st_size == nbytes
    loaded, meta = load_shard_fragment(path)
    assert meta["shard_id"] == 3 and meta["run"] == "abc123"
    assert loaded.pairs.tobytes() == result.pairs.tobytes()
    assert loaded.total_seconds == result.total_seconds
    assert loaded.num_pairs == result.num_pairs


# ------------------------------------------------------------ resume
@pytest.mark.parametrize("kill_at", [0, 1, 3])
def test_kill_and_resume_is_bit_identical_pooled_self(index, tmp_path, kill_at):
    golden = Runner().run(compile_self_join(index, _pooled()))
    ck = CheckpointConfig(directory=str(tmp_path))
    crashing = _pooled(
        fault_plan=FaultPlan(crashes=(CrashPoint(at_shard=kill_at),)), checkpoint=ck
    )
    with pytest.raises(SimulatedCrashError):
        Runner().run(compile_self_join(index, crashing))
    runner = Runner()
    resumed = runner.resume(compile_self_join(index, _pooled(checkpoint=ck)))
    assert resumed.pairs.tobytes() == golden.pairs.tobytes()
    assert resumed.trace.signature() == golden.trace.signature()
    assert runner.last_checkpoint_stats.loads == kill_at


@pytest.mark.parametrize("kill_at", [2])
def test_kill_and_resume_is_bit_identical_pooled_bipartite(
    index, queries, tmp_path, kill_at
):
    golden = Runner().run(compile_similarity_join(index, queries, _pooled()))
    ck = CheckpointConfig(directory=str(tmp_path))
    crashing = _pooled(
        fault_plan=FaultPlan(crashes=(CrashPoint(at_shard=kill_at),)), checkpoint=ck
    )
    with pytest.raises(SimulatedCrashError):
        Runner().run(compile_similarity_join(index, queries, crashing))
    resumed = Runner().resume(
        compile_similarity_join(index, queries, _pooled(checkpoint=ck))
    )
    assert resumed.pairs.tobytes() == golden.pairs.tobytes()
    assert resumed.trace.signature() == golden.trace.signature()


def test_single_device_crash_before_launch_then_resume(index, tmp_path):
    golden = Runner().run(compile_self_join(index, RuntimeConfig()))
    ck = CheckpointConfig(directory=str(tmp_path))
    crashing = RuntimeConfig(
        fault_plan=FaultPlan(crashes=(CrashPoint(at_shard=0),)), checkpoint=ck
    )
    with pytest.raises(SimulatedCrashError):
        Runner().run(compile_self_join(index, crashing))
    resumed = Runner().resume(compile_self_join(index, RuntimeConfig(checkpoint=ck)))
    assert resumed.pairs.tobytes() == golden.pairs.tobytes()


def test_completed_run_resumes_from_journal_alone(index, tmp_path):
    ck = CheckpointConfig(directory=str(tmp_path), keep=True)
    plan = compile_self_join(index, RuntimeConfig(checkpoint=ck))
    first = Runner().run(plan)
    runner = Runner()
    again = runner.resume(compile_self_join(index, RuntimeConfig(checkpoint=ck)))
    assert again.pairs.tobytes() == first.pairs.tobytes()
    assert runner.last_checkpoint_stats.loads == 1
    assert runner.last_checkpoint_stats.writes == 0


def test_journal_cleaned_up_unless_kept(index, tmp_path):
    ck = CheckpointConfig(directory=str(tmp_path))
    plan = compile_self_join(index, _pooled(checkpoint=ck))
    Runner().run(plan)
    store = CheckpointStore(str(tmp_path))
    assert store.runs() == []

    kept = CheckpointConfig(directory=str(tmp_path), keep=True)
    plan2 = compile_self_join(index, _pooled(checkpoint=kept))
    Runner().run(plan2)
    assert len(CheckpointStore(str(tmp_path)).runs()) == 1


def test_resume_without_checkpoint_stage_raises(index):
    with pytest.raises(ValueError, match="checkpointed plan"):
        Runner().resume(compile_self_join(index, RuntimeConfig()))


def test_stale_journal_of_a_different_run_raises(index, tmp_path):
    ck = CheckpointConfig(directory=str(tmp_path), keep=True)
    plan = compile_self_join(index, _pooled(checkpoint=ck))
    Runner().run(plan)
    store = CheckpointStore(str(tmp_path))
    fp = run_fingerprint(plan)
    with pytest.raises(CheckpointError, match="different run"):
        store.journal(fp, kind="self", description="x", num_shards=99)


def _corrupt(path, how):
    data = path.read_bytes()
    if how == "empty":
        data = b""
    elif how == "truncated":
        data = data[: len(data) // 2]
    else:  # one byte flipped inside the compressed members
        data = bytearray(data)
        data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("how", ["empty", "truncated", "flipped"])
def test_unreadable_fragment_is_re_executed(index, tmp_path, how):
    golden = Runner().run(compile_self_join(index, _pooled()))
    ck = CheckpointConfig(directory=str(tmp_path))
    crashing = _pooled(fault_plan=FaultPlan(crashes=(CrashPoint(at_shard=2),)), checkpoint=ck)
    with pytest.raises(SimulatedCrashError):
        Runner().run(compile_self_join(index, crashing))
    plan = compile_self_join(index, _pooled(checkpoint=ck))
    fragments = sorted((tmp_path / run_fingerprint(plan)).glob("shard-*.npz"))
    assert len(fragments) == 2
    _corrupt(fragments[0], how)
    runner = Runner()
    resumed = runner.resume(plan)
    assert resumed.pairs.tobytes() == golden.pairs.tobytes()
    assert resumed.trace.signature() == golden.trace.signature()
    assert runner.last_checkpoint_stats.loads == 1


def test_fragment_of_a_different_run_raises(index, tmp_path):
    ck = CheckpointConfig(directory=str(tmp_path))
    crashing = _pooled(fault_plan=FaultPlan(crashes=(CrashPoint(at_shard=2),)), checkpoint=ck)
    with pytest.raises(SimulatedCrashError):
        Runner().run(compile_self_join(index, crashing))
    plan = compile_self_join(index, _pooled(checkpoint=ck))
    fragment = sorted((tmp_path / run_fingerprint(plan)).glob("shard-*.npz"))[0]
    result, meta = load_shard_fragment(fragment)
    save_shard_fragment(fragment, result, shard_id=meta["shard_id"], run_fingerprint="other")
    with pytest.raises(CheckpointError, match="belongs to run"):
        Runner().resume(plan)


# ------------------------------------------------------------ deadlines
def test_deadline_exceeded_before_first_shard(index):
    with pytest.raises(DeadlineExceededError, match="deadline exceeded"):
        Runner().run(compile_self_join(index, _pooled()), deadline_seconds=0.0)


def test_deadline_preserves_durable_shards(index, tmp_path):
    ck = CheckpointConfig(directory=str(tmp_path), keep=True)
    plan = compile_self_join(index, _pooled(checkpoint=ck))
    runner = Runner()
    result = runner.run(plan)  # no deadline: everything durable
    journal = CheckpointStore(str(tmp_path)).journal(
        run_fingerprint(plan),
        kind="self",
        description=plan.merge_stage.description,
        num_shards=len(plan.shard_stage.plan.shards),
    )
    assert journal.completed_shards() == list(
        range(len(plan.shard_stage.plan.shards))
    )
    merged = journal.load_completed()
    total = sum(r.num_pairs for r in merged.values())
    assert total == result.num_pairs


def test_generous_deadline_changes_nothing(index):
    golden = Runner().run(compile_self_join(index, _pooled()))
    bounded = Runner().run(compile_self_join(index, _pooled()), deadline_seconds=3600.0)
    assert np.array_equal(golden.pairs, bounded.pairs)


class _ShardClock:
    """A deadline clock that reads one second per journaled shard."""

    def __init__(self, runner):
        self.runner = runner

    def monotonic(self) -> float:
        stats = self.runner.last_checkpoint_stats
        return float(stats.writes) if stats is not None else 0.0


@pytest.mark.parametrize("workers, journaled", [("inline", 3), ("process", 5)])
def test_deadline_fires_mid_run_and_resume_is_bit_identical(
    index, tmp_path, monkeypatch, workers, journaled
):
    """A 2.5 s deadline on a clock that ticks once per finished shard
    fires at the first dispatch after the third shard finished. Inline,
    that is dispatch 3; a pool of 3 workers keeps 3 shards in flight, so
    dispatches 3 and 4 went out as the first two finished, and both
    drain into the journal before the error propagates."""

    def rc(**kw):
        return RuntimeConfig(
            engine="native", sharding=ShardingConfig(num_devices=3, workers=workers), **kw
        )

    golden = Runner().run(compile_self_join(index, rc()))
    plan = compile_self_join(index, rc(checkpoint=CheckpointConfig(directory=str(tmp_path))))
    runner = Runner()
    monkeypatch.setattr(runner_module, "time", _ShardClock(runner))
    with pytest.raises(DeadlineExceededError, match="before shard"):
        runner.run(plan, deadline_seconds=2.5)
    monkeypatch.undo()
    shard_plan = plan.shard_stage.plan
    assert 0 < journaled < shard_plan.num_shards
    journal = CheckpointStore(str(tmp_path)).journal(
        run_fingerprint(plan),
        kind="self",
        description=plan.merge_stage.description,
        num_shards=shard_plan.num_shards,
    )
    assert journal.completed_shards() == sorted(shard_plan.dispatch_order()[:journaled])
    resumer = Runner()
    resumed = resumer.resume(plan)
    assert resumed.pairs.tobytes() == golden.pairs.tobytes()
    assert resumer.last_checkpoint_stats.loads == journaled
