"""The join operations: every join workload as a declarative strategy.

A :class:`~repro.runtime.plan.JoinPlan` is op-agnostic — index, estimate,
shard, launch, merge — and one generic
:func:`~repro.runtime.plan.compile_join` builds the stage list for *any*
operation. What differs between workloads is bundled here, on the op
object itself:

- how the query order D' is derived (and restricted to a shard's subset),
  how the result size is estimated, and which kernel with which argument
  pack runs each batch (``prepare`` / ``make_args`` — the shard-execution
  half);
- which planning stages the compiled plan carries, how the query side is
  sharded across devices, and which bytes beyond the indexed dataset
  enter the run's checkpoint fingerprint (``plan_stages`` /
  ``shard_plan`` / ``fingerprint_extras`` — the compile half).

There are three operations: :class:`SelfJoinOp` (kind ``"self"``),
:class:`BipartiteOp` (kind ``"bipartite"``) and :class:`KnnJoinOp`
(kind ``"knn"``) — the adaptive ε-expansion k-nearest-neighbor driver
whose rounds are residual bipartite sub-plans (see
:meth:`repro.runtime.runner.Runner`). ``compile_self_join``,
``compile_similarity_join`` and ``compile_knn_join`` construct them; a
new workload family subclasses :class:`JoinOp` and passes an instance
to ``compile_join``, inheriting sharding, resilience and checkpointing
without touching the runner.

The self/bipartite bodies are the former private planning code of
:class:`~repro.core.selfjoin.SelfJoin` and
:class:`~repro.core.join.SimilarityJoin`, moved — not rewritten — so the
refactor preserves every result bit-for-bit (the golden equivalence suite
in ``tests/runtime`` holds it to that).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.batching import estimate_result_size_detailed
from repro.core.bipartite_kernels import BipartiteKernelArgs, bipartite_kernel
from repro.core.config import OptimizationConfig
from repro.core.kernels import KernelArgs, selfjoin_kernel
from repro.core.sortbywl import point_workloads, sort_by_workload
from repro.grid import GridIndex
from repro.grid.bipartite import bipartite_neighbor_counts, bipartite_workloads
from repro.simt import AtomicCounter
from repro.util import as_points_array, stable_argsort_desc

__all__ = [
    "BipartiteOp",
    "JoinOp",
    "KnnConvergenceError",
    "KnnJoinOp",
    "KnnResult",
    "SelfJoinOp",
    "ShardPrep",
    "default_knn_epsilon",
]

@dataclass(frozen=True)
class ShardPrep:
    """Everything the launch stage needs about one shard's queries.

    ``order`` is the (possibly workload-sorted) query id sequence D';
    ``estimate`` the planned result size; ``weights`` the per-query
    workload estimates when balanced batching is on, else ``None``.
    """

    order: np.ndarray
    estimate: int
    weights: np.ndarray | None


class JoinOp:
    """The declarative protocol generic ``compile_join`` asks of an op.

    Subclasses set ``kind`` (the op's name on plans and journals),
    ``kernel_name`` (recorded on the plan's launch stage) and
    ``shardable`` (whether a pooled runtime splits *this plan* into a
    device-level :class:`~repro.runtime.plan.ShardStage`; multi-round
    driver ops shard their sub-plans instead), and override the hooks
    their workload needs. The defaults describe a single-pass batched
    join.
    """

    kind = ""
    kernel_name = ""
    shardable = True

    def validate(self, runtime) -> None:
        """Reject runtime configs this op cannot honor (default: none)."""

    def plan_stages(self, index: GridIndex, runtime) -> list:
        """Op-specific planning stages between index and shard/launch."""
        from repro.runtime.plan import EstimateStage

        opt = runtime.optimization
        return [
            EstimateStage(
                mode="head" if opt.work_queue else "strided",
                sample_fraction=opt.sample_fraction,
            )
        ]

    def shard_plan(self, index: GridIndex, runtime):
        """Device-level shard plan of the query side (pooled runtimes)."""
        raise NotImplementedError(f"op {self.kind!r} does not shard")

    def fingerprint_extras(self) -> tuple[bytes, ...]:
        """Bytes beyond the indexed dataset that identify this op's run
        (query sides, parameter schedules); folded into
        :func:`repro.resilience.checkpoint.run_fingerprint`."""
        return ()


class SelfJoinOp(JoinOp):
    """The self-join's op: symmetric patterns, in-index queries."""

    kind = "self"
    kernel_name = "selfjoin_kernel"
    kernel = staticmethod(selfjoin_kernel)

    def __init__(self, *, include_self: bool = True):
        self.include_self = include_self

    def shard_plan(self, index: GridIndex, runtime):
        from repro.multigpu.sharding import plan_shards

        return plan_shards(
            index,
            runtime.sharding.num_shards,
            runtime.sharding.planner,
            pattern=runtime.optimization.pattern,
        )

    def describe(self, cfg: OptimizationConfig) -> str:
        return cfg.describe()

    def result_epsilon(self, index: GridIndex) -> float:
        return index.epsilon

    def total_points(self, index: GridIndex) -> int:
        """Query-side cardinality of the unsharded join."""
        return index.num_points

    def prepare(
        self,
        index: GridIndex,
        cfg: OptimizationConfig,
        *,
        subset: np.ndarray | None,
    ) -> ShardPrep:
        """Derive D', the result-size estimate and batch weights.

        ``subset`` restricts the *query* side to the given point ids — the
        candidate side always sees the whole index, so the result is
        exactly the full join's rows whose query point lies in the subset.
        """
        if cfg.uses_sorted_points:
            order = sort_by_workload(index, cfg.pattern)
            if subset is not None:
                keep = np.zeros(index.num_points, dtype=bool)
                keep[np.asarray(subset, dtype=np.int64)] = True
                order = order[keep[order]]  # D' restricted, rank order kept
        elif subset is not None:
            order = np.asarray(subset, dtype=np.int64)
        else:
            order = np.arange(index.num_points, dtype=np.int64)

        est = estimate_result_size_detailed(
            index,
            sample_fraction=cfg.sample_fraction,
            mode="head" if cfg.work_queue else "strided",
            order=order if cfg.work_queue else None,
            include_self=self.include_self,
            subset=subset,
        ).estimate

        weights = (
            point_workloads(index, cfg.pattern)[order].astype(float)
            if cfg.balanced_batches
            else None
        )
        return ShardPrep(order=order, estimate=est, weights=weights)

    def make_args(
        self,
        index: GridIndex,
        cfg: OptimizationConfig,
        order: np.ndarray,
        counter: AtomicCounter | None,
    ):
        def factory(batch: np.ndarray) -> KernelArgs:
            return KernelArgs(
                index=index,
                batch=batch,
                k=cfg.k,
                pattern=cfg.pattern,
                include_self=self.include_self,
                queue_counter=counter,
                queue_order=order if cfg.work_queue else None,
            )

        return factory


class BipartiteOp(JoinOp):
    """The bipartite join's op: external queries, full pattern only."""

    kind = "bipartite"
    kernel_name = "bipartite_kernel"
    kernel = staticmethod(bipartite_kernel)

    def __init__(self, queries):
        self.queries = as_points_array(queries)

    def validate(self, runtime) -> None:
        if runtime.optimization.pattern != "full":
            raise ValueError(
                "unidirectional patterns exploit self-join symmetry; the "
                "bipartite join requires pattern='full'"
            )

    def shard_plan(self, index: GridIndex, runtime):
        from repro.multigpu.sharding import plan_query_shards

        workloads, _ = bipartite_workloads(index, self.queries)
        return plan_query_shards(
            workloads.astype(np.float64),
            runtime.sharding.num_shards,
            runtime.sharding.planner,
        )

    def fingerprint_extras(self) -> tuple[bytes, ...]:
        from repro.grid import dataset_fingerprint

        return (dataset_fingerprint(self.queries).encode(),)

    def describe(self, cfg: OptimizationConfig) -> str:
        return f"bipartite {cfg.describe()}"

    def result_epsilon(self, index: GridIndex) -> float:
        return float(index.epsilon)

    def total_points(self, index: GridIndex) -> int:
        return len(self.queries)

    def prepare(
        self,
        index: GridIndex,
        cfg: OptimizationConfig,
        *,
        subset: np.ndarray | None,
    ) -> ShardPrep:
        """Derive the shard's query order, estimate and batch weights.

        Workloads are quantified only when read, once for both the
        SORTBYWL order and the balanced-batch weights.
        """
        queries = self.queries
        ids = (
            np.asarray(subset, dtype=np.int64)
            if subset is not None
            else np.arange(len(queries), dtype=np.int64)
        )

        order, weights = ids, None
        if cfg.uses_sorted_points:  # balanced batches need WORKQUEUE, which sorts
            workloads, _ = bipartite_workloads(index, queries[ids])
            order = ids[stable_argsort_desc(workloads)]
            if cfg.balanced_batches:
                by_id = np.zeros(len(queries), dtype=np.float64)
                by_id[ids] = workloads
                weights = by_id[order]
        est = self._estimate(index, cfg, ids, order)
        return ShardPrep(order=order, estimate=est, weights=weights)

    def _estimate(self, index, cfg, ids, order) -> int:
        nq = len(ids)
        if nq == 0 or index.num_points == 0:
            return 0
        sample_size = min(nq, max(1, int(round(nq * cfg.sample_fraction))))
        if cfg.work_queue:
            sample = order[:sample_size]  # heaviest queries: overestimates
        else:
            step = max(1, nq // sample_size)
            sample = ids[::step]
        if len(sample) == 0:
            return 0
        counts = bipartite_neighbor_counts(index, self.queries[sample])
        return int(np.ceil(counts.sum() * (nq / len(sample))))

    def make_args(
        self,
        index: GridIndex,
        cfg: OptimizationConfig,
        order: np.ndarray,
        counter: AtomicCounter | None,
    ):
        def factory(batch: np.ndarray) -> BipartiteKernelArgs:
            return BipartiteKernelArgs(
                index=index,
                queries=self.queries,
                batch=batch,
                k=cfg.k,
                queue_counter=counter,
                queue_order=order if cfg.work_queue else None,
            )

        return factory


# ----------------------------------------------------------------------
# The k-nearest-neighbor join: a multi-round driver op


_KNN_MAX_ROUNDS = 48


@dataclass(frozen=True)
class KnnResult:
    """k nearest neighbors of every point (excluding the point itself).

    ``total_seconds`` sums the simulated time of every ε-expansion round
    (resume-stable: journaled rounds replay their recorded timings), and
    the ``pairs``/``num_pairs``/``iter_pairs`` surface mirrors
    :class:`~repro.core.result.JoinResult` so serving-layer accounting
    and streaming work on KNN results unchanged.
    """

    indices: np.ndarray  # (N, k) neighbor ids, nearest first
    distances: np.ndarray  # (N, k) matching distances
    rounds: int  # ε-expansion rounds executed
    final_epsilon: float  # radius that finalized the last points
    total_seconds: float = 0.0  # simulated seconds across all rounds

    @property
    def pairs(self) -> np.ndarray:
        """``(N*k, 2)`` rows ``(query, neighbor)``, each query's k nearest
        in order — the join-shaped view of the neighbor lists."""
        n, k = self.indices.shape
        queries = np.repeat(np.arange(n, dtype=np.int64), k)
        return np.column_stack([queries, self.indices.reshape(-1)])

    @property
    def num_pairs(self) -> int:
        return int(self.indices.size)

    def iter_pairs(self, chunk: int | None = None) -> Iterator[np.ndarray]:
        """Yield the join-shaped pairs in blocks of ``chunk`` rows."""
        pairs = self.pairs
        if chunk is None:
            if len(pairs):
                yield pairs
            return
        if chunk < 1:
            raise ValueError("chunk must be a positive row count")
        for start in range(0, len(pairs), chunk):
            yield pairs[start : start + chunk]


class KnnConvergenceError(RuntimeError):
    """The ε-expansion ran out of rounds with queries still pending.

    Carries the unfinished query ids (``pending``), the rounds executed
    and the last radius tried, so callers can diagnose the dataset (or
    re-run with a larger ``epsilon0``/``max_rounds``).
    """

    def __init__(self, pending: np.ndarray, *, rounds: int, epsilon: float):
        self.pending = np.asarray(pending, dtype=np.int64)
        self.rounds = int(rounds)
        self.epsilon = float(epsilon)
        super().__init__(
            f"kNN expansion failed to converge after {self.rounds} rounds "
            f"(last ε={self.epsilon:g}); {len(self.pending)} queries pending"
        )


def default_knn_epsilon(points: np.ndarray, k: int) -> float:
    """ε whose ball is expected to hold ~2k neighbors under uniformity."""
    n, d = points.shape
    spans = points.max(axis=0) - points.min(axis=0)
    volume = float(np.prod(spans[spans > 0])) or 1.0
    density = n / volume
    # ball volume v ~ c_d * eps^d; solve c_d * eps^d * density = 2k with
    # the unit-cube approximation c_d = 1 (constant factors wash out in
    # the doubling loop)
    eff_d = int((spans > 0).sum()) or 1
    return float((2.0 * k / density) ** (1.0 / eff_d))


class KnnJoinOp(JoinOp):
    """Exact kNN via adaptive ε-expansion: a multi-round driver op.

    The compiled plan carries an
    :class:`~repro.runtime.plan.ExpansionStage` instead of an estimate —
    the runner's driver loop compiles one residual *bipartite* sub-plan
    per round (still-pending queries against the full dataset at the
    round's radius), so every round inherits the runtime's engine,
    sharding, recovery, fault and checkpoint configuration unchanged.
    The round algorithm itself is :meth:`expansion`'s
    :class:`KnnExpansion`.
    ``shardable`` is ``False``: the driver plan itself carries no
    :class:`~repro.runtime.plan.ShardStage`; pooled runtimes shard each
    round's sub-plan.

    ``index_factory`` (optional, ``epsilon -> GridIndex`` over
    ``points``) lets a caller with an index cache — the serving layer's
    session cache — supply each round's grid; by default the op builds
    one per radius.
    """

    kind = "knn"
    kernel_name = "bipartite_kernel"
    kernel = staticmethod(bipartite_kernel)
    shardable = False

    def __init__(
        self,
        points,
        k: int,
        *,
        epsilon0: float | None = None,
        growth: float = 2.0,
        max_rounds: int = _KNN_MAX_ROUNDS,
        index_factory=None,
    ):
        self.points = as_points_array(points)
        n = self.points.shape[0]
        if k < 1:
            raise ValueError("k must be >= 1")
        if k >= n:
            raise ValueError(
                f"k={k} requires at least k+1={k + 1} points, got {n}"
            )
        eps = (
            float(epsilon0)
            if epsilon0 is not None
            else default_knn_epsilon(self.points, k)
        )
        if not (eps > 0) or not np.isfinite(eps):
            raise ValueError("epsilon0 must be positive")
        if not (growth > 1.0):
            raise ValueError("growth must be > 1")
        if max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        self.k = int(k)
        self.epsilon0 = eps
        self.growth = float(growth)
        self.max_rounds = int(max_rounds)
        self.index_factory = index_factory

    def describe(self, cfg: OptimizationConfig) -> str:
        return f"knn[k={self.k}] {cfg.describe()}"

    def result_epsilon(self, index: GridIndex) -> float:
        return self.epsilon0

    def total_points(self, index: GridIndex) -> int:
        return len(self.points)

    def validate(self, runtime) -> None:
        if runtime.optimization.pattern != "full":
            raise ValueError(
                "unidirectional patterns exploit self-join symmetry; the "
                "kNN join's bipartite rounds require pattern='full'"
            )

    def plan_stages(self, index: GridIndex, runtime) -> list:
        from repro.runtime.plan import ExpansionStage

        return [
            ExpansionStage(
                k=self.k,
                epsilon0=self.epsilon0,
                growth=self.growth,
                max_rounds=self.max_rounds,
            )
        ]

    def fingerprint_extras(self) -> tuple[bytes, ...]:
        # k + (epsilon0, growth, max_rounds) pin the whole ε-schedule:
        # round r always runs at epsilon0 * growth**r
        return (
            f"knn:k={self.k}:eps0={self.epsilon0!r}:"
            f"growth={self.growth!r}:rounds={self.max_rounds}".encode(),
        )

    def build_index(self, epsilon: float) -> GridIndex:
        """The grid one round queries against (via ``index_factory`` when
        the caller caches indexes per radius)."""
        if self.index_factory is not None:
            return self.index_factory(float(epsilon))
        return GridIndex(self.points, float(epsilon))

    def expansion(self) -> "KnnExpansion":
        """Fresh round state for one execution of this op."""
        return KnnExpansion(self)


#: the largest key :func:`_knn_order` sorts as one int64
_KNN_KEY_MAX = np.iinfo(np.int64).max


def _knn_order(
    q: np.ndarray, d: np.ndarray, nb: np.ndarray, num_queries: int, n: int
) -> np.ndarray:
    """Row order by (query, distance, neighbor id): ``np.lexsort((nb, d, q))``.

    The id tie-break makes equal-distance neighbors engine-invariant. A
    round repeats no (query, neighbor) row, so with ``rank`` the dense
    rank of ``d`` among its ``R`` distinct values, the key ``(q · R +
    rank) · n + nb`` (``q < num_queries``, ``nb < n``) is unique and one
    plain argsort of it gives the lexsort's order. A key that could
    overflow int64 falls back to the lexsort.
    """
    distinct, rank = np.unique(d, return_inverse=True)
    if num_queries * len(distinct) * n > _KNN_KEY_MAX:
        return np.lexsort((nb, d, q))
    key = q.astype(np.int64)
    key *= len(distinct)
    key += rank
    key *= n
    key += nb
    return np.argsort(key)


class KnnExpansion:
    """The ε-expansion of one kNN execution, round by round.

    Round ``r`` joins the still-pending queries against the full dataset
    at radius ``epsilon0 * growth**r``; queries with ≥ k in-radius
    neighbors are finalized (their true k nearest are within ε — any
    unexamined point is farther), the rest expand. The runner compiles
    and executes each round's bipartite sub-plan over :attr:`queries`
    and hands the result to :meth:`absorb`; state lives here, not on
    the op, so one compiled plan can be executed any number of times.
    """

    def __init__(self, op: KnnJoinOp):
        n = len(op.points)
        self.op = op
        self.indices = np.full((n, op.k), -1, dtype=np.int64)
        self.distances = np.full((n, op.k), np.inf)
        self.pending = np.arange(n)
        self.epsilon = op.epsilon0  # the next round's radius
        self.rounds = 0
        self.total_seconds = 0.0

    @property
    def done(self) -> bool:
        return not len(self.pending) or self.rounds >= self.op.max_rounds

    @property
    def queries(self) -> np.ndarray:
        return self.op.points.take(self.pending, axis=0)

    def absorb(self, result) -> None:
        """Finalize every query the round's pairs complete, then expand.

        ``result.pairs`` rows are (pending-local query index, global
        neighbor id).
        """
        op, pending, k = self.op, self.pending, self.op.k
        q, nb = result.pairs[:, 0], result.pairs[:, 1]
        rows = np.flatnonzero(pending.take(q) != nb)  # drop self matches
        q, nb = q.take(rows), nb.take(rows)
        counts = np.bincount(q, minlength=len(pending))
        done = np.flatnonzero(counts >= k)
        if len(done):
            rows = np.flatnonzero(counts.take(q) >= k)
            q, nb = q.take(rows), nb.take(rows)
            points = op.points
            d = np.linalg.norm(
                points.take(nb, axis=0) - points.take(pending.take(q), axis=0), axis=1
            )
            order = _knn_order(q, d, nb, len(pending), len(points))
            # a finished query has at least k rows: its answer is the first k
            runs = counts.take(done)
            top = order.take((np.cumsum(runs) - runs)[:, None] + np.arange(k))
            finished = pending.take(done)
            self.indices[finished] = nb.take(top)
            self.distances[finished] = d.take(top)
        self.pending = pending[counts < k]
        self.epsilon *= op.growth
        self.rounds += 1
        self.total_seconds += float(result.total_seconds)

    def result(self) -> KnnResult:
        """The finished :class:`KnnResult`; raises
        :class:`KnnConvergenceError` while queries are still pending."""
        final_epsilon = self.epsilon / self.op.growth
        if len(self.pending):
            raise KnnConvergenceError(
                self.pending, rounds=self.rounds, epsilon=final_epsilon
            )
        return KnnResult(
            indices=self.indices,
            distances=self.distances,
            rounds=self.rounds,
            final_epsilon=final_epsilon,
            total_seconds=self.total_seconds,
        )
