"""Declarative benchmark suites: the registry the unified harness executes.

Every benchmark in this repo is a :class:`BenchExperiment` inside a
:class:`BenchSuite`: a workload factory, the runtime variants to compare,
the tier-A correctness cross-checks, and a tier-B perf :class:`Budget`.
One config-driven harness (:mod:`repro.bench.executors`, driven by
``python -m repro.bench suite ...``) executes them all at three size
classes and records ``BENCH_<suite>.json`` trajectories
(:mod:`repro.bench.history`). ``suite run <suite> --filter <exp>`` runs
a single experiment.

Size classes:

- ``tiny`` — CI smoke: seconds per suite, selected ε only, 1 trial;
- ``small`` — developer loop;
- ``full`` — bench scale (the defaults in
  :mod:`repro.bench.experiments`), where the paper-shape checks are
  enforced.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.bench.gates import Budget, CheckResult

__all__ = [
    "SIZE_CLASSES",
    "SUITES",
    "BenchExperiment",
    "BenchSuite",
    "ExperimentResult",
    "Variant",
    "Workload",
    "get_suite",
    "register_suite",
    "size_at_least",
]

SIZE_CLASSES = ("tiny", "small", "full")
_SIZE_ORDER = {name: i for i, name in enumerate(SIZE_CLASSES)}


def size_at_least(size: str, floor: str) -> bool:
    """True when ``size`` is at or above ``floor`` in the tiny<small<full order."""
    return _SIZE_ORDER[size] >= _SIZE_ORDER[floor]


# ---------------------------------------------------------------------------
# workloads


def _special_generators() -> dict[str, Callable[[int, int], np.ndarray]]:
    from repro.data.adversarial import dense_core_sparse_halo, stride_aliased_hotspots
    from repro.data.synthetic import exponential, uniform

    return {
        "expo2d": lambda n, seed: exponential(n, 2, seed=seed),
        "expo2d_lam2": lambda n, seed: exponential(n, 2, seed=seed, lam=2.0),
        "unif2d": lambda n, seed: uniform(n, 2, seed=seed, low=0.0, high=1.0),
        "stride_aliased": lambda n, seed: stride_aliased_hotspots(n, 2, period=8, seed=seed),
        "dense_core": lambda n, seed: dense_core_sparse_halo(n, 2, seed=seed),
    }


@dataclass(frozen=True)
class Workload:
    """Dataset factory: a named source at per-size-class point counts.

    ``dataset`` is either a :data:`repro.data.CATALOG` name (built through
    :func:`repro.bench.experiments.load_bench_dataset`, inheriting the
    documented density-preserving scaling) or one of the special generator
    keys (``expo2d``, ``unif2d``, ``stride_aliased``, ``dense_core``, ...).
    ``points[size] is None`` means the bench default for catalog datasets.
    ``seed_offset`` decorrelates datasets sharing one base seed.
    """

    dataset: str
    epsilon: float
    points: Mapping[str, int | None]
    seed_offset: int = 0

    def num_points(self, size: str) -> int | None:
        if size not in self.points:
            raise KeyError(f"workload {self.dataset!r} has no size class {size!r}")
        return self.points[size]

    def build(self, size: str, seed: int) -> np.ndarray:
        from repro.bench.experiments import load_bench_dataset

        n = self.num_points(size)
        special = _special_generators()
        if self.dataset in special:
            if n is None:
                raise ValueError(
                    f"special workload {self.dataset!r} needs an explicit size"
                )
            return special[self.dataset](n, seed + self.seed_offset)
        return load_bench_dataset(self.dataset, size=n, seed=seed + self.seed_offset)


@dataclass(frozen=True)
class Variant:
    """One runtime configuration under measurement.

    ``preset`` names an :data:`repro.core.PRESETS` optimization config; the
    remaining knobs parameterize the :class:`repro.runtime.RuntimeConfig`
    the harness builds from it.
    """

    name: str
    preset: str = "gpucalcglobal"
    engine: str = "vectorized"
    num_devices: int = 1
    planner: str = "balanced"
    schedule: str = "dynamic"


@dataclass(frozen=True)
class BenchExperiment:
    """One measured unit: workload x variants + checks + budget.

    ``kind`` selects the executor (see
    :data:`repro.bench.executors.EXECUTORS`): ``model`` and ``ablation``
    drive the analytic performance model, ``engine``/``multigpu``/
    ``resilience``/``serve``/``checkpoint`` drive the real VM/runtime.
    ``checks`` name tier-A cross-checks from the executor's check table;
    kind-intrinsic checks (pair identity, determinism) always run.
    ``params`` carries kind-specific knobs.
    """

    exp_id: str
    title: str
    kind: str
    workload: Workload | None = None
    variants: tuple[Variant, ...] = ()
    checks: tuple[str, ...] = ()
    budget: Budget | None = None
    params: Mapping = field(default_factory=dict)


@dataclass(frozen=True)
class BenchSuite:
    suite_id: str
    title: str
    description: str
    experiments: tuple[BenchExperiment, ...]
    #: suite-level tier-A checks evaluated over all experiment results
    aggregate_checks: tuple[str, ...] = ()

    def select(self, pattern: str | None) -> tuple[BenchExperiment, ...]:
        """Experiments whose id contains any comma-separated pattern."""
        if not pattern:
            return self.experiments
        needles = [p.strip() for p in pattern.split(",") if p.strip()]
        return tuple(
            e for e in self.experiments if any(n in e.exp_id for n in needles)
        )


@dataclass
class ExperimentResult:
    """What one executed experiment reports back.

    ``wall_seconds``/``throughput`` are *measurements* (vary run to run);
    ``metrics`` must be seed-deterministic and JSON-serializable — they
    are digested into the BENCH history and tier-C compares digests.
    """

    suite_id: str
    exp_id: str
    title: str
    wall_seconds: float
    throughput: float | None
    metrics: dict
    checks: list[CheckResult]
    budget: Budget | None = None
    headline: str = ""

    @property
    def checks_passed(self) -> bool:
        """No check failed (skipped checks fail nothing)."""
        return not any(c.failed for c in self.checks)


# ---------------------------------------------------------------------------
# registry

SUITES: dict[str, BenchSuite] = {}


def register_suite(suite: BenchSuite) -> BenchSuite:
    if suite.suite_id in SUITES:
        raise ValueError(f"duplicate suite id {suite.suite_id!r}")
    seen = set()
    for exp in suite.experiments:
        if exp.exp_id in seen:
            raise ValueError(f"duplicate experiment id {exp.exp_id!r} in {suite.suite_id}")
        seen.add(exp.exp_id)
    SUITES[suite.suite_id] = suite
    return suite


def get_suite(suite_id: str) -> BenchSuite:
    try:
        return SUITES[suite_id]
    except KeyError:
        raise KeyError(
            f"unknown suite {suite_id!r}; available: {sorted(SUITES)}"
        ) from None


# ---------------------------------------------------------------------------
# suite definitions


def _model_budget(tiny=8.0, small=60.0, full=900.0) -> Budget:
    return Budget(wall_seconds={"tiny": tiny, "small": small, "full": full}, tolerance=0.5)


def _model_exp(exp_id: str, title: str, checks: tuple[str, ...] = (), **params) -> BenchExperiment:
    return BenchExperiment(
        exp_id=exp_id,
        title=title,
        kind="model",
        checks=checks,
        budget=_model_budget(**params.pop("budget", {})),
        params={"experiment": exp_id, **params},
    )


register_suite(
    BenchSuite(
        suite_id="paper",
        title="Paper tables and figures (analytic model)",
        description=(
            "Every Table/Figure experiment from the paper registry, run "
            "through the performance model with result-row cross-checks "
            "and (at full size) the paper's shape and headline-band checks."
        ),
        experiments=(
            _model_exp("table1", "Table I — dataset inventory"),
            _model_exp(
                "fig9",
                "Figure 9 — response time vs eps: cell access patterns",
                checks=("rows_consistent", "rerun_deterministic", "lid_wins_mostly"),
            ),
            _model_exp(
                "table3",
                "Table III — WEE and time: cell access patterns",
                checks=("rows_consistent", "lid_wee_above_unicomp"),
            ),
            _model_exp(
                "fig10",
                "Figure 10 — k=1 vs k=8 response time",
                checks=("rows_consistent", "k8_wins_heavy_expo"),
            ),
            _model_exp(
                "table4",
                "Table IV — WEE and time: k=1 vs k=8",
                checks=("rows_consistent",),
            ),
            _model_exp(
                "fig11",
                "Figure 11 — SORTBYWL and WORKQUEUE response time",
                checks=("rows_consistent", "queue_not_slower_than_sort"),
            ),
            _model_exp(
                "table5",
                "Table V — WORKQUEUE k=8 vs baseline",
                checks=("rows_consistent", "paper_speedup_directions"),
            ),
            _model_exp(
                "fig12",
                "Figure 12 — real-world datasets, combined vs baselines",
                checks=("rows_consistent",),
            ),
            _model_exp(
                "table6",
                "Table VI — WEE and time on real-world datasets",
                checks=("rows_consistent",),
            ),
            _model_exp(
                "fig13",
                "Figure 13 — speedup of the combined optimizations",
                checks=("rows_consistent", "headline_bands"),
            ),
        ),
    )
)


register_suite(
    BenchSuite(
        suite_id="ablations",
        title="Design-choice ablations (analytic model)",
        description=(
            "Beyond-the-paper sweeps: buffer capacity, estimator sampling "
            "rate, warp issue order, warp size, cost-constant sensitivity "
            "and replay fidelity — each with its invariant as a tier-A check."
        ),
        experiments=tuple(
            BenchExperiment(
                exp_id=exp_id,
                title=title,
                kind="ablation",
                budget=_model_budget(),
                params={"ablation": exp_id.removeprefix("abl_")},
            )
            for exp_id, title in (
                ("abl_buffer", "Ablation — result buffer capacity"),
                ("abl_estimator", "Ablation — estimator sampling rate"),
                ("abl_scheduler", "Ablation — warp issue order in isolation"),
                ("abl_warpsize", "Ablation — warp size sensitivity"),
                ("abl_sensitivity", "Ablation — cost-constant robustness"),
                ("abl_fidelity", "Ablation — replay fidelity (aggregate vs lockstep)"),
            )
        ),
    )
)


_ENGINE_PRESETS = ("gpucalcglobal", "lidunicomp", "sortbywl", "workqueue_k8", "combined")

register_suite(
    BenchSuite(
        suite_id="core",
        title="Core VM engine: vectorized vs interpreted",
        description=(
            "Identical self-joins through both execution engines across "
            "the representative presets; pairs, per-batch cycles and "
            "pipeline times must be bit-identical and the vectorized "
            "engine must not be slower in aggregate."
        ),
        experiments=tuple(
            BenchExperiment(
                exp_id=f"engine_{name}",
                title=f"Engine equivalence + throughput on {dataset}",
                kind="engine",
                workload=Workload(
                    dataset=dataset,
                    epsilon=eps,
                    points={"tiny": 600, "small": 1500, "full": None},
                ),
                variants=tuple(Variant(name=p, preset=p) for p in _ENGINE_PRESETS),
                budget=Budget(
                    wall_seconds={"tiny": 30.0, "small": 120.0, "full": 1800.0},
                    min_throughput={"tiny": 50_000.0, "small": 100_000.0},
                    tolerance=0.5,
                ),
            )
            for name, dataset, eps in (
                ("expo", "Expo2D2M", 0.01),
                ("unif", "Unif2D2M", 0.4),
            )
        ),
        aggregate_checks=("vectorized_not_slower",),
    )
)


register_suite(
    BenchSuite(
        suite_id="native",
        title="Native array engine vs vectorized VM",
        description=(
            "The fidelity-free array-native backend against the vectorized "
            "VM across the representative presets: canonical pair sets must "
            "be identical on every experiment, and (small and up) the "
            "native engine must hold a geomean >= 3x speedup. At full size "
            "a 5M-point mmap-backed dataset additionally runs end-to-end "
            "through a single-device native join without a resident copy."
        ),
        experiments=(
            *(
                BenchExperiment(
                    exp_id=f"native_{name}",
                    title=f"Native vs vectorized on {dataset}",
                    kind="native",
                    workload=Workload(
                        dataset=dataset,
                        epsilon=eps,
                        points={"tiny": 600, "small": 1500, "full": None},
                    ),
                    variants=tuple(
                        Variant(name=p, preset=p, engine="native")
                        for p in _ENGINE_PRESETS
                    ),
                    budget=Budget(
                        wall_seconds={"tiny": 30.0, "small": 120.0, "full": 1800.0},
                        min_throughput={"tiny": 50_000.0, "small": 100_000.0},
                        tolerance=0.5,
                    ),
                )
                for name, dataset, eps in (
                    ("expo", "Expo2D2M", 0.01),
                    ("unif", "Unif2D2M", 0.4),
                )
            ),
            BenchExperiment(
                exp_id="mmap_native_scale",
                title="5M-point mmap dataset through a single-device native join",
                kind="native_scale",
                budget=Budget(
                    wall_seconds={"tiny": 30.0, "small": 30.0, "full": 1800.0},
                    tolerance=0.5,
                ),
                params={
                    "num_points": 5_000_000,
                    "epsilon": 0.01,
                    "extent": 100.0,
                },
            ),
        ),
        aggregate_checks=("native_not_slower",),
    )
)


register_suite(
    BenchSuite(
        suite_id="multigpu",
        title="Multi-device scaling and shard planning",
        description=(
            "Sharded self-joins over pools of N devices for strided vs "
            "balanced-LPT planners; merged pairs must match the "
            "single-device join and LPT must beat striding on "
            "id-correlated skew."
        ),
        experiments=tuple(
            BenchExperiment(
                exp_id=f"scaling_{name}",
                title=f"Pool scaling on {name}",
                kind="multigpu",
                workload=workload,
                budget=Budget(
                    wall_seconds={"tiny": 30.0, "small": 90.0, "full": 900.0},
                    tolerance=0.5,
                ),
                params={
                    "pool_sizes": {"tiny": (1, 2, 4), "small": (1, 2, 4), "full": (1, 2, 4, 8)},
                    "check_balanced_beats_strided": name == "stride_aliased",
                },
            )
            for name, workload in (
                (
                    "expo",
                    Workload(
                        dataset="expo2d",
                        epsilon=0.02,
                        points={"tiny": 300, "small": 600, "full": 2000},
                        seed_offset=1,
                    ),
                ),
                (
                    "stride_aliased",
                    Workload(
                        dataset="stride_aliased",
                        epsilon=2.0,
                        points={"tiny": 300, "small": 600, "full": 2000},
                        seed_offset=3,
                    ),
                ),
            )
        ),
    )
)


register_suite(
    BenchSuite(
        suite_id="resilience",
        title="Fault injection: the answer must hold",
        description=(
            "Seeded fault scenarios (device death, stragglers, transients, "
            "forced overflow, all at once) on a 4-device pool; merged pairs "
            "must match the fault-free join and traces must replay per seed."
        ),
        experiments=tuple(
            BenchExperiment(
                exp_id=f"faults_{name}",
                title=f"Fault battery on {name}",
                kind="resilience",
                workload=workload,
                budget=Budget(
                    wall_seconds={"tiny": 60.0, "small": 180.0, "full": 1200.0},
                    tolerance=0.5,
                ),
            )
            for name, workload in (
                (
                    "expo",
                    Workload(
                        dataset="expo2d",
                        epsilon=0.02,
                        points={"tiny": 250, "small": 400, "full": 1500},
                        seed_offset=1,
                    ),
                ),
                (
                    "dense_core",
                    Workload(
                        dataset="dense_core",
                        epsilon=0.9,
                        points={"tiny": 250, "small": 400, "full": 1500},
                        seed_offset=2,
                    ),
                ),
            )
        ),
    )
)


register_suite(
    BenchSuite(
        suite_id="serve",
        title="Multi-tenant serving throughput",
        description=(
            "JoinService under T concurrent tenants with a mixed "
            "self/similarity workload; every response cross-checked against "
            "the direct Runner, cache hits and fairness spread asserted."
        ),
        experiments=(
            BenchExperiment(
                exp_id="tenants",
                title="Tenant scaling on shared datasets",
                kind="serve",
                workload=Workload(
                    dataset="expo2d",
                    epsilon=0.05,
                    points={"tiny": 250, "small": 400, "full": 1200},
                    seed_offset=1,
                ),
                budget=Budget(
                    wall_seconds={"tiny": 60.0, "small": 180.0, "full": 1200.0},
                    tolerance=0.5,
                ),
                params={
                    "tenant_counts": {"tiny": (1, 4), "small": (1, 4, 16), "full": (1, 4, 16)},
                    "rounds": {"tiny": 2, "small": 2, "full": 4},
                    "epsilon_similarity": 0.06,
                },
            ),
        ),
    )
)


register_suite(
    BenchSuite(
        suite_id="knn",
        title="kNN join: the multi-round expansion driver",
        description=(
            "The kNN-join driver (round r queries at eps0 * growth**r over "
            "the residual) on skewed and uniform data: neighbors must match "
            "a scipy cKDTree oracle, be bit-identical across all three "
            "engines and on the device pool, and survive a kill at every "
            "dispatch ordinal with a journal resume; native must not lose "
            "to the vectorized VM at scale."
        ),
        experiments=tuple(
            BenchExperiment(
                exp_id=f"knn_{name}",
                title=f"kNN driver on {name}",
                kind="knn",
                workload=Workload(
                    dataset=dataset,
                    epsilon=eps0,
                    points={"tiny": 250, "small": 500, "full": 1500},
                    seed_offset=offset,
                ),
                budget=Budget(
                    wall_seconds={"tiny": 60.0, "small": 180.0, "full": 1200.0},
                    tolerance=0.5,
                ),
                params={
                    "k": {"tiny": 4, "small": 8, "full": 8},
                    "max_kill_points": 24,
                },
            )
            for name, dataset, eps0, offset in (
                ("expo", "expo2d", 0.05, 1),
                ("unif", "unif2d", 0.05, 2),
            )
        ),
    )
)


register_suite(
    BenchSuite(
        suite_id="checkpoint",
        title="Durable checkpoint overhead + crash/resume identity",
        description=(
            "Journaling overhead vs the plain pooled join, and a kill at "
            "every shard k resumed from the journal — pairs and trace "
            "signature must be bit-identical to the uninterrupted run."
        ),
        experiments=tuple(
            BenchExperiment(
                exp_id=f"crash_resume_{kind}",
                title=f"Crash/resume drill ({kind} join)",
                kind="checkpoint",
                workload=Workload(
                    dataset="expo2d_lam2",
                    epsilon=0.08,
                    points={"tiny": 250, "small": 400, "full": 1500},
                ),
                budget=Budget(
                    wall_seconds={"tiny": 60.0, "small": 180.0, "full": 1200.0},
                    tolerance=0.5,
                ),
                params={
                    "join_kind": kind,
                    "query_fraction": 0.35,
                },
            )
            for kind in ("self", "bipartite")
        ),
    )
)
