"""Durable checkpoint/resume: fingerprints, fragments, crash equivalence.

The acceptance property of the tentpole: a run killed at shard *k* and
resumed produces **bit-identical** pairs and an identical trace signature
versus the uninterrupted golden run — across self/bipartite joins and
single-device/pooled execution.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import struct
import zipfile

import numpy as np
import pytest

from repro.core import JoinResult, OptimizationConfig, SelfJoin
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
    Runner,
    RuntimeConfig,
    ShardingConfig,
    compile_self_join,
    compile_similarity_join,
)
from repro.simt.streams import PipelineResult

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


def _hand_built(pairs) -> JoinResult:
    pairs = np.asarray(pairs, dtype=np.int64)
    return JoinResult(
        pairs=pairs,
        epsilon=0.25,
        num_points=int(pairs.max()) + 1,
        batch_stats=[],
        pipeline=PipelineResult(1.5, np.zeros(1), np.ones(1), np.ones(1)),
        fragments=(pairs[:1], pairs[1:1], pairs[1:]),
    )


@pytest.mark.parametrize(
    "largest, stored", [(2**31 - 1, np.dtype(np.int32)), (2**31, np.dtype(np.int64))]
)
def test_fragment_stores_int32_pairs_when_ids_fit(tmp_path, largest, stored):
    result = _hand_built([[0, 5], [3, largest], [largest, 1]])
    path = tmp_path / "frag.npz"
    save_shard_fragment(path, result, shard_id=0, run_fingerprint="abc123")
    with np.load(path) as archive:
        assert archive["pairs"].dtype == stored
    loaded, meta = load_shard_fragment(path)
    assert meta["format_version"] == 2
    assert loaded.pairs.dtype == np.int64
    assert loaded.pairs.tobytes() == result.pairs.tobytes()
    assert [f.tobytes() for f in loaded.fragments] == [f.tobytes() for f in result.fragments]
    for fragment in loaded.fragments:
        assert np.shares_memory(fragment, loaded.pairs) or not len(fragment)


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


def _member_data(path, member) -> tuple[int, int]:
    """``(first data byte, data size)`` of one member of a stored ``.npz``."""
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(member + ".npy")
    assert info.compress_type == zipfile.ZIP_STORED
    with open(path, "rb") as fh:
        fh.seek(info.header_offset + 26)
        name_len, extra_len = struct.unpack("<HH", fh.read(4))
    return info.header_offset + 30 + name_len + extra_len, info.compress_size


def _corrupt(path, how):
    data = path.read_bytes()
    if how == "empty":
        data = b""
    elif how == "truncated":
        data = data[: len(data) // 2]
    elif how.startswith("flipped-"):
        # the last byte of one member: array data, past the .npy header
        start, size = _member_data(path, how.removeprefix("flipped-"))
        data = bytearray(data)
        data[start + size - 1] ^= 0xFF
    else:  # one byte flipped in the middle of the archive
        data = bytearray(data)
        data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


@pytest.mark.parametrize(
    "how",
    ["empty", "truncated", "flipped", "flipped-pairs", "flipped-meta", "flipped-payload"],
)
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


def _save_v1_fragment(path, result, *, shard_id, run_fingerprint):
    """The writer of format version 1: a compressed archive that pickles
    the fragment blocks themselves next to ``pairs``."""
    meta = {
        "format_version": 1,
        "run": run_fingerprint,
        "shard_id": int(shard_id),
        "epsilon": result.epsilon,
        "num_points": result.num_points,
        "config": result.config_description,
        "num_pairs": result.num_pairs,
        "total_seconds": result.total_seconds,
        "overflow_retries": result.overflow_retries,
        "overflow_wasted_seconds": result.overflow_wasted_seconds,
        "fidelity": result.fidelity,
    }
    payload = pickle.dumps(
        (result.batch_stats, result.pipeline, result.fragments),
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        np.savez_compressed(
            fh,
            pairs=result.pairs,
            meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
            payload=np.frombuffer(payload, dtype=np.uint8),
        )
    os.replace(tmp, path)
    return path.stat().st_size


@pytest.mark.parametrize("pooled", [True, False])
def test_version_1_fragment_is_re_executed_and_overwritten(index, tmp_path, pooled):
    """A fragment left by the compressed version-1 writer is unreadable:
    its shard re-executes and the new fragment replaces it. The pooled
    run crashes at shard 2; the single-device run journals its one shard,
    with its per-batch fragments, and completes."""

    def rc(**kw):
        if pooled:
            return _pooled(**kw)
        # a small result buffer gives the one shard several batch fragments
        return RuntimeConfig(optimization=OptimizationConfig(batch_result_capacity=400), **kw)

    golden = Runner().run(compile_self_join(index, rc()))
    ck = CheckpointConfig(directory=str(tmp_path), keep=True)
    if pooled:
        crashing = rc(fault_plan=FaultPlan(crashes=(CrashPoint(at_shard=2),)), checkpoint=ck)
        with pytest.raises(SimulatedCrashError):
            Runner().run(compile_self_join(index, crashing))
    else:
        Runner().run(compile_self_join(index, rc(checkpoint=ck)))
    plan = compile_self_join(index, rc(checkpoint=ck))
    fragments = sorted((tmp_path / run_fingerprint(plan)).glob("shard-*.npz"))
    assert len(fragments) == (2 if pooled else 1)
    result, meta = load_shard_fragment(fragments[0])
    assert pooled or len(result.fragments) > 1
    _save_v1_fragment(
        fragments[0], result, shard_id=meta["shard_id"], run_fingerprint=meta["run"]
    )
    runner = Runner()
    resumed = runner.resume(plan)
    assert resumed.pairs.tobytes() == golden.pairs.tobytes()
    assert runner.last_checkpoint_stats.loads == len(fragments) - 1
    assert runner.last_checkpoint_stats.writes >= 1
    rewritten, meta = load_shard_fragment(fragments[0])
    assert meta["format_version"] == 2
    assert rewritten.pairs.tobytes() == result.pairs.tobytes()


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


def _shm_entries() -> set[str]:
    """Names under ``/dev/shm``, where POSIX shared memory lives on Linux."""
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


class _ShardClock:
    """A deadline clock that reads one second per journaled shard."""

    def __init__(self, runner):
        self.runner = runner

    def monotonic(self) -> float:
        stats = self.runner.last_checkpoint_stats
        return float(stats.writes) if stats is not None else 0.0


def test_deadline_fires_mid_run_and_resume_is_bit_identical(index, tmp_path, monkeypatch):
    """A 2.5 s deadline on a clock that ticks once per finished shard
    fires at the first dispatch after the third shard finished, which is
    dispatch 3. The run leaves no child process and no shared-memory
    segment behind."""
    journaled = 3

    def rc(**kw):
        return RuntimeConfig(engine="native", sharding=ShardingConfig(num_devices=3), **kw)

    golden = Runner().run(compile_self_join(index, rc()))
    plan = compile_self_join(index, rc(checkpoint=CheckpointConfig(directory=str(tmp_path))))
    runner = Runner()
    segments = _shm_entries()
    monkeypatch.setattr(runner_module, "time", _ShardClock(runner))
    with pytest.raises(DeadlineExceededError, match="before shard"):
        runner.run(plan, deadline_seconds=2.5)
    monkeypatch.undo()
    assert multiprocessing.active_children() == []
    assert _shm_entries() - segments == set()
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
