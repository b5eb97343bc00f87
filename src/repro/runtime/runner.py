"""The one runner that executes every :class:`~repro.runtime.plan.JoinPlan`.

``Runner.run(plan)`` is the only execution entry point of the codebase,
and every execution is one guarded shard loop around the per-shard
function :func:`execute_shard` (estimate → batch plan → launch →
overflow re-plan loop) or its array-native twin
:func:`~repro.runtime.native.execute_shard_native`. A plan without a
:class:`~repro.runtime.plan.ShardStage` is one shard over
``plan.subset``, whose result is returned as-is: no scheduler, no
merge, no copy. A pooled plan's shards run inline, one at a time, under
the :class:`~repro.multigpu.scheduler.HostScheduler` (VM or native),
then merge into one ``MultiJoinResult``. Either way one
:class:`_ShardGuard` owns the journal, the resume cache, the crash
ordinal and the deadline, and is called around each shard.
A kNN plan (:class:`~repro.runtime.plan.ExpansionStage`) drives rounds
of bipartite sub-plans through this same runner; the round algorithm
lives on the op (:meth:`~repro.runtime.ops.KnnJoinOp.expansion`).

The pooled path pulls :mod:`repro.multigpu` lazily: the runtime package
sits *below* multigpu in the import graph (the device pool builds from a
:class:`~repro.runtime.config.RuntimeConfig`), so the upward reference
resolves at call time, when the package is fully initialized.

``Runner.stream(plan)`` yields the result pairs in blocks. Execution is
eager — the simulator prices the transfer pipeline over the whole batch
set — but consumption is incremental, backed by the per-batch fragments
the executor produced (see :meth:`repro.core.result.JoinResult.iter_pairs`).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Iterator

import numpy as np

from repro.core.executor import BatchExecutor, DeviceExecutor
from repro.core.batching import plan_batches, plan_batches_balanced
from repro.core.config import OptimizationConfig
from repro.core.result import JoinResult, stack_fragments
from repro.grid import GridIndex
from repro.resilience.executor import FaultyExecutor
from repro.resilience.faults import SimulatedCrashError
from repro.runtime.config import NATIVE_ENGINE, RuntimeConfig
from repro.runtime.native import execute_shard_native
from repro.runtime.plan import JoinPlan
from repro.simt import AtomicCounter, BufferOverflowError

__all__ = ["DeadlineExceededError", "Runner", "execute_shard"]

_MAX_REPLANS = 8


class DeadlineExceededError(RuntimeError):
    """A run's wall-clock deadline expired before it could finish.

    Raised at shard-dispatch boundaries (execution inside a shard is not
    interrupted), so a checkpointed run's journal stays consistent: every
    shard completed before the deadline fired is durable and a later
    ``Runner.resume`` picks up exactly there.
    """


def execute_shard(
    op,
    index: GridIndex,
    cfg: OptimizationConfig,
    executor: BatchExecutor,
    *,
    subset: np.ndarray | None = None,
    description: str | None = None,
    keep_fragments: bool = True,
) -> JoinResult:
    """Run one shard of a join (or the whole join: ``subset=None``).

    Prepare order/estimate/weights via the op, plan batches, launch; if a
    batch overflows its result buffer (the estimator under-guessed), the
    run is re-planned with a doubled estimate — the same recovery a
    production implementation needs, and a tested code path here.

    WORKQUEUE state (the atomic counter over this shard's D' slice) is
    private to this call; a fresh counter is built per launch attempt.
    """
    prep = op.prepare(index, cfg, subset=subset)
    est = prep.estimate
    for _attempt in range(_MAX_REPLANS):
        if cfg.balanced_batches:
            plan = plan_batches_balanced(
                prep.order, prep.weights, est, cfg.batch_result_capacity
            )
        else:
            plan = plan_batches(
                prep.order,
                est,
                cfg.batch_result_capacity,
                strided=not cfg.work_queue,
            )
        counter = AtomicCounter(name="workqueue") if cfg.work_queue else None
        try:
            outcome = executor.run_batches(
                op.kernel,
                plan.batches,
                op.make_args(index, cfg, prep.order, counter),
                result_capacity=cfg.batch_result_capacity,
                num_streams=cfg.num_streams,
                issue_order="fifo" if cfg.work_queue else "random",
                coop_groups=cfg.work_queue and cfg.k > 1,
            )
        except BufferOverflowError:
            # estimator under-guessed; double and re-plan
            est = max(est * 2, cfg.batch_result_capacity + 1)
            continue
        pairs, fragments = stack_fragments(outcome.pairs_per_batch)
        return JoinResult(
            pairs=pairs,
            epsilon=op.result_epsilon(index),
            num_points=len(prep.order),
            batch_stats=outcome.batch_stats,
            pipeline=outcome.pipeline,
            config_description=description if description is not None else op.describe(cfg),
            overflow_retries=outcome.num_overflow_retries,
            overflow_wasted_seconds=outcome.overflow_wasted_seconds,
            fragments=fragments if keep_fragments else None,
        )
    raise RuntimeError(
        f"batch planning failed to converge after {_MAX_REPLANS} attempts"
    )


class _ShardGuard:
    """The journal, resume cache, crash ordinal and deadline of one execution.

    Every shard runs through :meth:`run`, so journaling, crash points,
    deadlines and resume behave alike on every path. Opening the journal
    publishes its live stats on the runner at once, so they are readable
    even when a crash interrupts the run.
    """

    def __init__(self, runner, plan: JoinPlan, *, resume: bool, deadline_seconds):
        self.expires = (
            None if deadline_seconds is None else time.monotonic() + float(deadline_seconds)
        )
        rc = plan.config
        crash = rc.fault_plan.crash_point() if rc.fault_plan is not None else None
        self.crash_at = crash.at_shard if crash is not None else None
        self.dispatched = 0
        self.stage = plan.checkpoint_stage
        self.journal = None
        self.completed = {}
        if self.stage is not None:
            from repro.resilience.checkpoint import CheckpointStore

            if plan.expansion_stage is not None:
                num_shards = plan.op.max_rounds  # the kNN driver journals one per round
            else:
                num_shards = len(plan.shard_stage.plan.shards) if plan.pooled else 1
            self.journal = CheckpointStore(self.stage.directory).journal(
                self.stage.fingerprint,
                kind=plan.op.kind,
                description=plan.merge_stage.description,
                num_shards=num_shards,
            )
            runner.last_checkpoint_stats = self.journal.stats
            if resume:
                self.completed = self.journal.load_completed()

    def run(self, shard_id: int, execute):
        """One shard: the deadline and the crash point are checked ahead of
        its dispatch, then it is replayed from the journal, or executed and
        journaled."""
        if self.expires is not None and time.monotonic() >= self.expires:
            raise DeadlineExceededError(f"deadline exceeded before shard {shard_id} dispatch")
        if self.crash_at is not None and self.dispatched >= self.crash_at:
            raise SimulatedCrashError(self.crash_at)
        self.dispatched += 1
        result = self.completed.get(shard_id)
        if result is None:
            result = execute()
            self.after(shard_id, result)
        return result

    def after(self, shard_id: int, result) -> None:
        if self.journal is not None:
            self.journal.save_shard(shard_id, result)

    def remaining(self) -> float | None:
        """Deadline seconds left (clamped at 0), or ``None`` for no deadline."""
        if self.expires is None:
            return None
        return max(0.0, self.expires - time.monotonic())

    def shifted(self, rc: RuntimeConfig) -> RuntimeConfig:
        """``rc`` with the crash ordinal moved into the frame of a sub-run
        that starts now; a sub-run the crash cannot reach completes."""
        if self.crash_at is None:
            return rc
        crash = dataclasses.replace(
            rc.fault_plan.crash_point(), at_shard=max(0, self.crash_at - self.dispatched)
        )
        return rc.with_(fault_plan=dataclasses.replace(rc.fault_plan, crashes=(crash,)))

    def finish(self) -> None:
        if self.journal is not None:
            self.journal.finalize(keep=self.stage.keep)


def _launch_shard(plan: JoinPlan, executor, subset, **kw) -> JoinResult:
    """One shard on the plan's engine (``executor`` is unused on native)."""
    rc, op, index = plan.config, plan.op, plan.index
    if rc.engine == NATIVE_ENGINE:
        chunk = plan.launch_stage.chunk_pairs
        return execute_shard_native(
            op, index, rc.optimization, subset=subset, chunk_pairs=chunk, **kw
        )
    return execute_shard(op, index, rc.optimization, executor, subset=subset, **kw)


class Runner:
    """Executes compiled :class:`~repro.runtime.plan.JoinPlan`\\ s.

    Parameters
    ----------
    executor:
        Optional explicit :class:`~repro.core.executor.BatchExecutor` for
        single-device plans (e.g. a prebuilt or fault-wrapped one); by
        default the plan's :class:`RuntimeConfig` describes the executor.
    pool:
        Optional explicit :class:`~repro.multigpu.pool.DevicePool` for
        pooled plans (e.g. heterogeneous); by default a homogeneous pool
        is built from the runtime config. Its size must equal the
        plan's ``ShardingConfig.num_devices``. A reused pool's health
        records are re-armed per run, keeping seeded fault runs
        reproducible.

    During and after an execution, ``last_checkpoint_stats`` holds the
    live :class:`~repro.resilience.checkpoint.CheckpointStats` of the
    run's journal (``None`` when the plan does not checkpoint).
    """

    def __init__(self, *, executor: BatchExecutor | None = None, pool=None):
        self.executor = executor
        self.pool = pool
        self.last_checkpoint_stats = None

    def run(self, plan: JoinPlan, *, deadline_seconds: float | None = None):
        """Execute the plan; pooled plans return a ``MultiJoinResult``.

        ``deadline_seconds`` is a wall-clock budget for this execution,
        checked at shard-dispatch boundaries —
        :class:`DeadlineExceededError` is raised when it expires. Plans
        carrying a :class:`~repro.runtime.plan.CheckpointStage` journal
        each completed shard durably as they go (a fresh run never
        *reads* the journal; see :meth:`resume`).
        """
        return self._execute(plan, resume=False, deadline_seconds=deadline_seconds)

    def resume(self, plan: JoinPlan, *, deadline_seconds: float | None = None):
        """Resume an interrupted checkpointed run.

        Replays the same schedule as :meth:`run`, but shards already
        durable in the plan's journal are answered from disk instead of
        re-executed — the merged result (pair bytes, trace signature) is
        bit-identical to an uninterrupted run because shard execution is
        deterministic and the merge is execution-order independent.
        Resuming with nothing journaled (or after a completed
        ``keep=False`` run dropped its journal) is simply a full run.
        """
        if plan.checkpoint_stage is None:
            raise ValueError(
                "resume() needs a checkpointed plan; compile with "
                "RuntimeConfig(checkpoint=CheckpointConfig(directory=...))"
            )
        return self._execute(plan, resume=True, deadline_seconds=deadline_seconds)

    def stream(
        self,
        plan: JoinPlan,
        *,
        chunk: int | None = None,
        deadline_seconds: float | None = None,
    ) -> Iterator[np.ndarray]:
        """Execute the plan and yield its result pairs in blocks.

        Without ``chunk``, blocks are the runner's natural fragments (one
        per batch on single-device runs); with ``chunk``, blocks are
        re-sliced to exactly ``chunk`` rows (last one short). The
        concatenation of all yielded blocks equals ``result.pairs``.
        """
        result = self.run(plan, deadline_seconds=deadline_seconds)
        yield from result.iter_pairs(chunk=chunk)

    # ------------------------------------------------------------------
    def _execute(self, plan: JoinPlan, *, resume: bool, deadline_seconds):
        self.last_checkpoint_stats = None
        stage = plan.shard_stage
        if stage is not None and self.pool is not None:
            if self.pool.num_devices != stage.num_devices:
                raise ValueError(
                    f"pool has {self.pool.num_devices} devices but the plan was "
                    f"compiled for {stage.num_devices}; size the pool with "
                    "DevicePool(runtime)"
                )
        guard = _ShardGuard(self, plan, resume=resume, deadline_seconds=deadline_seconds)
        if plan.expansion_stage is not None:
            return self._drive_rounds(plan, guard, resume=resume)
        if stage is None:
            result = guard.run(
                0,
                lambda: _launch_shard(
                    plan,
                    self._device_executor(plan),
                    plan.subset,
                    description=plan.merge_stage.description,
                ),
            )
            guard.finish()
            return result
        results, trace = self._schedule(plan, guard)
        guard.finish()
        return _merge(plan, results, trace)

    def _device_executor(self, plan: JoinPlan) -> BatchExecutor | None:
        """The single-device executor (none on native), fault-wrapped as planned."""
        if plan.config.engine == NATIVE_ENGINE:
            return None
        executor = self.executor if self.executor is not None else DeviceExecutor(plan.config)
        resil = plan.resilience_stage
        if resil is not None and resil.fault_plan is not None:
            executor = FaultyExecutor(executor, 0, resil.fault_plan)
        return executor

    def _schedule(self, plan: JoinPlan, guard: _ShardGuard):
        """Inline shards on the pool's devices under the host scheduler."""
        # upward imports: multigpu compiles *into* this runtime, so the
        # runner resolves it lazily rather than at module import
        from repro.multigpu.pool import DevicePool
        from repro.multigpu.scheduler import HostScheduler
        from repro.resilience.executor import arm_pool

        rc = plan.config
        pool = self.pool if self.pool is not None else DevicePool(rc)
        resil = plan.resilience_stage
        # native pools have no executors to wrap; arming with None still
        # re-arms device health for a fresh run
        faults = resil.fault_plan if resil is not None and rc.engine != NATIVE_ENGINE else None
        armed = arm_pool(pool, faults)

        def run_shard(device, shard):
            executor = armed.get(device.device_id, device.executor)
            return guard.run(
                shard.shard_id,
                lambda: _launch_shard(plan, executor, shard.points, keep_fragments=False),
            )

        scheduler = HostScheduler(pool, plan.shard_stage.schedule, recovery=rc.recovery)
        return scheduler.run(plan.shard_stage.plan, run_shard)

    def _drive_rounds(self, plan: JoinPlan, guard: _ShardGuard, *, resume: bool):
        """Drive a kNN plan: one residual bipartite sub-plan per ε round.

        Rounds compile with the driver's runtime config, so they inherit
        engine, sharding, recovery, faults and checkpointing unchanged.
        The driver journal (shard id = round) persists each round's
        merged result, while the round's own sub-journal persists its
        shards as it runs: ``resume`` replays completed rounds from the
        driver journal and resumes the first incomplete round mid-round,
        bit-identically. A ``CrashPoint``'s ``at_shard`` counts shard
        dispatches across all executed rounds.
        """
        from repro.runtime.plan import compile_similarity_join

        op = plan.op
        expansion = op.expansion()
        inner = Runner(executor=self.executor, pool=self.pool)
        while not expansion.done:
            r = expansion.rounds
            result = guard.completed.get(r)
            if result is None:
                index = plan.index if r == 0 else op.build_index(expansion.epsilon)
                round_plan = compile_similarity_join(
                    index, expansion.queries, guard.shifted(plan.config)
                )
                execute = (
                    inner.resume
                    if resume and round_plan.checkpoint_stage is not None
                    else inner.run
                )
                result = execute(round_plan, deadline_seconds=guard.remaining())
                guard.dispatched += (
                    len(round_plan.shard_stage.plan.shards) if round_plan.pooled else 1
                )
                guard.after(r, result)
                sub = inner.last_checkpoint_stats
                if guard.journal is not None and sub is not None:
                    # fold the round sub-journal's cost into the driver's
                    # stats: one ledger for the whole run
                    stats = guard.journal.stats
                    for f in dataclasses.fields(sub):
                        setattr(stats, f.name, getattr(stats, f.name) + getattr(sub, f.name))
            expansion.absorb(result)
        knn = expansion.result()  # raises before finish: a failed run keeps its journal
        guard.finish()
        return knn


def _merge(plan: JoinPlan, results: list, trace):
    """Fold a pooled run's shard results into one ``MultiJoinResult``."""
    from repro.multigpu.join import MultiJoinResult
    from repro.multigpu.merge import merge_shard_results
    from repro.multigpu.metrics import pool_stats_from_trace

    shard_plan = plan.shard_stage.plan
    merge = plan.merge_stage
    # speculative re-execution is first-result-wins, so results[] holds
    # one copy per shard — but dedup anyway when it fired, making the
    # merge duplicate-safe by construction rather than by argument
    speculated = trace.recovery is not None and trace.recovery.num_speculations > 0
    merged = merge_shard_results(
        results,
        trace,
        epsilon=plan.op.result_epsilon(plan.index),
        num_points=plan.op.total_points(plan.index),
        dedup=merge.dedup or speculated,
        config_description=merge.description,
    )
    return MultiJoinResult(
        **{f.name: getattr(merged, f.name) for f in dataclasses.fields(merged)},
        planner=shard_plan.planner,
        schedule_mode=trace.mode,
        num_devices=trace.num_devices,
        pool_stats=pool_stats_from_trace(trace, results, planner=shard_plan.planner),
        trace=trace,
        shard_plan=shard_plan,
    )
