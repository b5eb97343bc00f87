"""Executors: run a declarative :class:`BenchExperiment` and measure it.

One executor per experiment ``kind``. Each returns an
:class:`~repro.bench.suites.ExperimentResult` whose ``metrics`` are
seed-deterministic (digested into ``BENCH_<suite>.json`` history) and
whose ``checks`` carry the tier-A correctness verdicts — both the
kind-intrinsic ones (pair identity, replay determinism) and the named
shape checks the spec opts into. Shape checks that need statistics only
present at larger scales declare a minimum size class and report
themselves as skipped below it.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
import sys
import tempfile
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.bench.gates import CheckResult
from repro.bench.suites import (
    BenchExperiment,
    BenchSuite,
    ExperimentResult,
    size_at_least,
)

__all__ = ["EXECUTORS", "RunContext", "SuiteRun", "run_suite"]

#: default trials (timing repetitions / model perturbation trials) per size
DEFAULT_TRIALS = {"tiny": 1, "small": 2, "full": 3}

#: model-suite dataset sizes per class (None = bench default scale)
MODEL_POINTS = {"tiny": 400, "small": 2000, "full": None}


@dataclass
class RunContext:
    size: str = "tiny"
    seed: int = 0
    trials: int | None = None
    progress: Callable[[str], None] | None = None

    def effective_trials(self) -> int:
        return self.trials if self.trials is not None else DEFAULT_TRIALS[self.size]

    def note(self, msg: str) -> None:
        if self.progress is not None:
            self.progress(msg)


@dataclass
class SuiteRun:
    suite: BenchSuite
    results: list[ExperimentResult]
    suite_checks: list[CheckResult] = field(default_factory=list)

    @property
    def checks_passed(self) -> bool:
        return all(r.checks_passed for r in self.results) and not any(
            c.failed for c in self.suite_checks
        )

    def render_summary(self) -> str:
        from repro.util import Table

        t = Table(
            ["experiment", "wall (s)", "rows/s", "checks", "skipped", "headline"],
            title=f"suite {self.suite.suite_id} — {self.suite.title}",
        )
        for r in self.results:
            ok = sum(1 for c in r.checks if c.passed)
            skipped = sum(1 for c in r.checks if c.skipped)
            t.add_row(
                [
                    r.exp_id,
                    f"{r.wall_seconds:.3f}",
                    "-" if r.throughput is None else f"{r.throughput:,.0f}",
                    f"{ok}/{len(r.checks) - skipped}" + ("" if r.checks_passed else " FAIL"),
                    skipped,
                    r.headline,
                ]
            )
        lines = [t.render()]
        for c in self.suite_checks:
            status = "skipped" if c.skipped else "ok" if c.passed else "FAIL"
            lines.append(f"  suite check {c.name}: {status}" + (f" ({c.detail})" if c.detail else ""))
        return "\n".join(lines)


def _timed(fn, repeats: int):
    """Best-of-``repeats`` wall time; returns (last_result, best_seconds)."""
    best = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


def _skipped(name: str, floor: str) -> CheckResult:
    return CheckResult(name, None, f"skipped (needs --size {floor} or larger)")


def _pairs_checksum(pairs: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(pairs, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# model experiments (paper tables/figures through the performance model)


def _times_by_config(report, dataset: str, eps: float) -> dict[str, float]:
    return {
        r.config: r.seconds
        for r in report.rows
        if r.dataset == dataset and r.epsilon == float(eps)
    }


def _check_rows_consistent(report, spec, ctx) -> CheckResult:
    """All GPU configs of one (dataset, eps) cell must report identical
    result rows — they compute the same join under different schedules."""
    cells: dict[tuple, dict[str, int]] = {}
    for r in report.rows:
        if r.config == "superego":
            continue
        cells.setdefault((r.dataset, r.epsilon), {})[r.config] = r.result_rows
    bad = [
        f"{ds} eps={eps}: {rows}"
        for (ds, eps), rows in cells.items()
        if len(set(rows.values())) > 1
    ]
    return CheckResult(
        "rows_consistent",
        not bad,
        "; ".join(bad) if bad else f"{len(cells)} cells agree across configs",
    )


def _check_rerun_deterministic(report, spec, ctx, *, rerun) -> CheckResult:
    replay = rerun()
    same = [
        (a.dataset, a.epsilon, a.config, a.seconds, a.wee_percent, a.result_rows)
        for a in report.rows
    ] == [
        (b.dataset, b.epsilon, b.config, b.seconds, b.wee_percent, b.result_rows)
        for b in replay.rows
    ]
    return CheckResult(
        "rerun_deterministic",
        same,
        "" if same else "identical seed produced different rows",
    )


def _check_lid_wins_mostly(report, spec, ctx) -> CheckResult:
    wins = cells = 0
    for ds in spec.datasets:
        for eps in spec.sweep(ds, selected_only=False):
            t = _times_by_config(report, ds, eps)
            if "lidunicomp" not in t or "gpucalcglobal" not in t:
                continue
            cells += 1
            if t["lidunicomp"] <= t["gpucalcglobal"] * 1.02:
                wins += 1
    ok = cells > 0 and wins >= cells * 0.75
    return CheckResult(
        "lid_wins_mostly", ok, f"LID-UNICOMP wins {wins}/{cells} cells (need >= 75%)"
    )


def _check_lid_wee_above_unicomp(report, spec, ctx) -> CheckResult:
    bad = []
    cells: dict[tuple, dict[str, float]] = {}
    for r in report.rows:
        cells.setdefault((r.dataset, r.epsilon), {})[r.config] = r.wee_percent
    for cell, wee in cells.items():
        if {"lidunicomp", "unicomp"} <= set(wee) and not wee["lidunicomp"] > wee["unicomp"]:
            bad.append(f"{cell}")
    return CheckResult("lid_wee_above_unicomp", not bad, "; ".join(bad))


def _check_k8_wins_heavy_expo(report, spec, ctx) -> CheckResult:
    heavy_eps = spec.eps["Expo2D2M"][-1]
    t = _times_by_config(report, "Expo2D2M", heavy_eps)
    ok = t["k8"] < t["gpucalcglobal"]
    return CheckResult(
        "k8_wins_heavy_expo",
        ok,
        f"k8 {t['k8']:.4g}s vs baseline {t['gpucalcglobal']:.4g}s at eps={heavy_eps}",
    )


def _check_queue_not_slower_than_sort(report, spec, ctx) -> CheckResult:
    bad = []
    for ds in spec.datasets:
        for eps in spec.sweep(ds, selected_only=False):
            t = _times_by_config(report, ds, eps)
            if {"workqueue", "sortbywl"} <= set(t) and t["workqueue"] > t["sortbywl"] * 1.05:
                bad.append(f"{ds} eps={eps}")
    return CheckResult("queue_not_slower_than_sort", not bad, "; ".join(bad))


def _check_paper_speedup_directions(report, spec, ctx) -> CheckResult:
    from repro.bench.paper_reference import PAPER_TABLE5

    bad = []
    for cell in PAPER_TABLE5:
        eps = spec.selected_eps[cell.dataset]
        t = _times_by_config(report, cell.dataset, eps)
        measured = t["gpucalcglobal"] / t["workqueue_k8"]
        if cell.speedup > 1.1 and measured <= 1.0:
            bad.append(f"{cell.dataset}: paper gained {cell.speedup:.2f}x, measured {measured:.2f}x")
        if cell.speedup <= 1.1 and measured >= 2.0:
            bad.append(f"{cell.dataset}: paper parity, measured {measured:.2f}x")
    return CheckResult("paper_speedup_directions", not bad, "; ".join(bad))


def _check_headline_bands(report, spec, ctx) -> CheckResult:
    stats = {}
    for base in ("superego", "gpucalcglobal"):
        sp = report.speedups(base)
        stats[base] = np.array([v["combined"] for v in sp.values() if "combined" in v])
    ok = (
        stats["superego"].mean() > 1.3
        and stats["gpucalcglobal"].mean() > 1.2
        and stats["gpucalcglobal"].max() > 2.0
    )
    detail = (
        f"vs superego avg {stats['superego'].mean():.2f}x; "
        f"vs gpucalcglobal avg {stats['gpucalcglobal'].mean():.2f}x "
        f"max {stats['gpucalcglobal'].max():.2f}x"
    )
    return CheckResult("headline_bands", ok, detail)


#: named model checks: name -> (minimum size class, fn)
MODEL_CHECKS: dict[str, tuple[str, Callable]] = {
    "rows_consistent": ("tiny", _check_rows_consistent),
    "rerun_deterministic": ("tiny", _check_rerun_deterministic),
    "lid_wins_mostly": ("full", _check_lid_wins_mostly),
    "lid_wee_above_unicomp": ("full", _check_lid_wee_above_unicomp),
    "k8_wins_heavy_expo": ("full", _check_k8_wins_heavy_expo),
    "queue_not_slower_than_sort": ("full", _check_queue_not_slower_than_sort),
    "paper_speedup_directions": ("full", _check_paper_speedup_directions),
    "headline_bands": ("full", _check_headline_bands),
}


def _model_metrics(report) -> dict:
    per_config: dict[str, dict] = {}
    for r in report.rows:
        agg = per_config.setdefault(
            r.config, {"cells": 0, "log_seconds": 0.0, "wee_sum": 0.0, "result_rows": 0}
        )
        agg["cells"] += 1
        agg["log_seconds"] += math.log(max(r.seconds, 1e-30))
        agg["wee_sum"] += 0.0 if math.isnan(r.wee_percent) else r.wee_percent
        agg["result_rows"] += r.result_rows
    return {
        "num_rows": len(report.rows),
        "per_config": {
            name: {
                "cells": a["cells"],
                "geomean_seconds": round(math.exp(a["log_seconds"] / a["cells"]), 9),
                "mean_wee_percent": round(a["wee_sum"] / a["cells"], 3),
                "result_rows": a["result_rows"],
            }
            for name, a in sorted(per_config.items())
        },
    }


def _run_table1(suite, exp, ctx) -> ExperimentResult:
    from repro.bench.experiments import DEFAULT_SIZES, bench_size
    from repro.data import CATALOG

    t0 = time.perf_counter()
    inventory = {
        name: {
            "ndim": CATALOG[name].ndim,
            "paper_size": CATALOG[name].paper_size,
            "bench_size": bench_size(name),
            "distribution": CATALOG[name].distribution,
        }
        for name in sorted(DEFAULT_SIZES)
    }
    wall = time.perf_counter() - t0
    checks = [
        CheckResult(
            "inventory_complete",
            len(inventory) == len(DEFAULT_SIZES),
            f"{len(inventory)} datasets",
        )
    ]
    return ExperimentResult(
        suite_id=suite.suite_id,
        exp_id=exp.exp_id,
        title=exp.title,
        wall_seconds=wall,
        throughput=None,
        metrics={"datasets": inventory},
        checks=checks,
        budget=exp.budget,
        headline=f"{len(inventory)} datasets",
    )


def run_model(suite: BenchSuite, exp: BenchExperiment, ctx: RunContext) -> ExperimentResult:
    if exp.params["experiment"] == "table1":
        return _run_table1(suite, exp, ctx)

    from repro.bench.experiments import EXPERIMENTS
    from repro.bench.runner import run_experiment

    spec = EXPERIMENTS[exp.params["experiment"]]
    size_pts = MODEL_POINTS[ctx.size]
    selected_only = ctx.size == "tiny"

    def run_once():
        return run_experiment(
            spec,
            size=size_pts,
            seed=ctx.seed,
            trials=ctx.effective_trials(),
            selected_only=selected_only,
        )

    report, wall = _timed(run_once, 1)
    checks: list[CheckResult] = []
    for name in exp.checks:
        floor, fn = MODEL_CHECKS[name]
        if not size_at_least(ctx.size, floor):
            checks.append(_skipped(name, floor))
        elif name == "rerun_deterministic":
            checks.append(fn(report, spec, ctx, rerun=run_once))
        else:
            checks.append(fn(report, spec, ctx))
    metrics = _model_metrics(report)
    total_rows = sum(a["result_rows"] for a in metrics["per_config"].values())
    return ExperimentResult(
        suite_id=suite.suite_id,
        exp_id=exp.exp_id,
        title=exp.title,
        wall_seconds=wall,
        throughput=total_rows / wall if wall > 0 else None,
        metrics=metrics,
        checks=checks,
        budget=exp.budget,
        headline=f"{metrics['num_rows']} cells",
    )


# ---------------------------------------------------------------------------
# ablation experiments (custom model sweeps)


def _ablation_profile(ctx, dataset="Expo2D2M", eps=0.01):
    from repro.bench.experiments import bench_device, load_bench_dataset
    from repro.perfmodel import PerformanceModel

    model = PerformanceModel(device=bench_device(), seed=ctx.seed)
    points = load_bench_dataset(dataset, size=MODEL_POINTS[ctx.size], seed=ctx.seed)
    profile = model.profile(points, eps)
    return model, profile


def _abl_buffer(ctx) -> tuple[dict, list[CheckResult]]:
    from repro.core import PRESETS

    model, profile = _ablation_profile(ctx)
    capacities = (50_000, 200_000, 2_000_000, 20_000_000)
    batches = {}
    for cap in capacities:
        run = model.estimate(profile, PRESETS["workqueue"].with_(batch_result_capacity=cap))
        batches[cap] = run.num_batches
    counts = [batches[c] for c in capacities]
    ok = counts == sorted(counts, reverse=True)
    return (
        {"batches_by_capacity": {str(c): b for c, b in batches.items()}},
        [CheckResult("buffer_batches_monotone", ok, f"batch counts {counts}")],
    )


def _abl_estimator(ctx) -> tuple[dict, list[CheckResult]]:
    _, profile = _ablation_profile(ctx)
    rates = (0.01, 0.05, 0.2) if ctx.size == "tiny" else (0.001, 0.01, 0.05, 0.2)
    true = profile.total_result_size()
    rows = {}
    head_ok, strided_ok = [], []
    for rate in rates:
        s = profile.estimate_strided(rate)
        h = profile.estimate_head(rate, "full")
        rows[str(rate)] = {"strided": int(s), "head": int(h)}
        head_ok.append(h >= true)
        strided_ok.append(0.3 * true <= s <= 3.0 * true)
    checks = [
        CheckResult("head_estimator_overestimates", all(head_ok), f"true |R|={true}"),
    ]
    if size_at_least(ctx.size, "small"):
        checks.append(
            CheckResult(
                "strided_estimator_in_band",
                all(strided_ok),
                f"rates {rates}, true |R|={true}",
            )
        )
    else:
        checks.append(_skipped("strided_estimator_in_band", "small"))
    return {"true_result_size": int(true), "estimates": rows}, checks


def _abl_scheduler(ctx) -> tuple[dict, list[CheckResult]]:
    from repro.bench.experiments import bench_device
    from repro.perfmodel.warps import model_batch_warps
    from repro.simt import CostParams, makespan

    _, profile = _ablation_profile(ctx)
    costs = CostParams()
    m = model_batch_warps(
        profile,
        profile.sorted_order("full"),
        k=1,
        pattern="full",
        costs=costs,
        work_queue=False,
    )
    durations = m.durations_with_launch(costs)
    slots = bench_device().warp_slots
    spans = {
        order: makespan(durations, slots, order=order, seed=1).makespan_cycles
        for order in ("fifo", "random", "workload_desc")
    }
    checks = [
        CheckResult(
            "lpt_not_above_random",
            spans["workload_desc"] <= spans["random"],
            f"spans {spans}",
        ),
        CheckResult("fifo_not_above_random", spans["fifo"] <= spans["random"], ""),
    ]
    if size_at_least(ctx.size, "full"):
        checks.append(
            CheckResult(
                "sorted_fifo_matches_lpt",
                bool(np.isclose(spans["workload_desc"], spans["fifo"], rtol=0.02)),
                f"fifo {spans['fifo']:.4g} vs lpt {spans['workload_desc']:.4g}",
            )
        )
    else:
        checks.append(_skipped("sorted_fifo_matches_lpt", "full"))
    return {"makespan_cycles": {k: float(v) for k, v in spans.items()}}, checks


def _abl_warpsize(ctx) -> tuple[dict, list[CheckResult]]:
    from repro.core import PRESETS
    from repro.perfmodel import PerformanceModel
    from repro.simt import DeviceSpec

    _, profile = _ablation_profile(ctx)
    gaps = {}
    for ws in (1, 8, 32, 64):
        device = DeviceSpec(
            name=f"sim-warp{ws}",
            warp_size=ws,
            num_sms=14,
            warps_per_sm_slot=max(1, 64 // ws),
        )
        model = PerformanceModel(device=device, seed=ctx.seed)
        base = model.estimate(
            profile, PRESETS["gpucalcglobal"].with_(batch_result_capacity=2_000_000)
        )
        queue = model.estimate(
            profile, PRESETS["workqueue"].with_(batch_result_capacity=2_000_000)
        )
        gaps[ws] = base.kernel_seconds / queue.kernel_seconds
    if size_at_least(ctx.size, "full"):
        checks = [
            CheckResult(
                "wide_warps_amplify_gap",
                gaps[32] > gaps[1],
                f"gap ws=32 {gaps[32]:.3f}x vs ws=1 {gaps[1]:.3f}x",
            )
        ]
    else:
        checks = [_skipped("wide_warps_amplify_gap", "full")]
    return {"baseline_over_queue_gap": {str(k): round(v, 6) for k, v in gaps.items()}}, checks


def _abl_sensitivity(ctx) -> tuple[dict, list[CheckResult]]:
    from repro.core import PRESETS
    from repro.perfmodel.sensitivity import sweep_cost_sensitivity

    model, profile = _ablation_profile(ctx)
    report = sweep_cost_sensitivity(
        profile,
        {name: PRESETS[name] for name in ("gpucalcglobal", "lidunicomp", "workqueue")},
        device=model.device,
    )
    metrics = {
        "baseline_order": list(report.baseline_order),
        "cells_checked": report.cells_checked,
        "flips": len(report.flips),
    }
    if size_at_least(ctx.size, "small"):
        checks = [
            CheckResult(
                "orderings_robust_to_costs",
                report.is_robust and report.baseline_order[-1] == "gpucalcglobal",
                f"{len(report.flips)} flips over {report.cells_checked} cells",
            )
        ]
    else:
        checks = [_skipped("orderings_robust_to_costs", "small")]
    return metrics, checks


def _abl_fidelity(ctx) -> tuple[dict, list[CheckResult]]:
    from repro.bench.experiments import bench_device
    from repro.core import PRESETS, SelfJoin
    from repro.runtime import RuntimeConfig

    n = {"tiny": 600, "small": 1500, "full": 3000}[ctx.size]
    rng = np.random.default_rng(ctx.seed + 12)
    points = np.concatenate(
        [rng.normal(1.2, 0.15, (n // 2, 2)), rng.uniform(0, 6, (n // 2, 2))]
    )
    times = {}
    for preset in ("gpucalcglobal", "workqueue"):
        for mode in ("aggregate", "lockstep"):
            rt = RuntimeConfig(
                optimization=PRESETS[preset], device=bench_device(), seed=3, replay_mode=mode
            )
            res = SelfJoin(runtime=rt).execute(points, 0.3)
            times[(preset, mode)] = res.kernel_seconds
    checks = [
        CheckResult(
            "lockstep_upper_bounds_aggregate",
            all(
                times[(p, "lockstep")] >= times[(p, "aggregate")]
                for p in ("gpucalcglobal", "workqueue")
            ),
            "",
        ),
    ]
    # at tiny scale the skewed core is too small for the queue to pay off
    if size_at_least(ctx.size, "small"):
        checks.append(
            CheckResult(
                "queue_wins_under_both_fidelities",
                all(
                    times[("workqueue", m)] < times[("gpucalcglobal", m)]
                    for m in ("aggregate", "lockstep")
                ),
                "",
            )
        )
    else:
        checks.append(_skipped("queue_wins_under_both_fidelities", "small"))
    metrics = {
        "kernel_seconds": {f"{p}/{m}": times[(p, m)] for p, m in times},
    }
    return metrics, checks


ABLATIONS = {
    "buffer": _abl_buffer,
    "estimator": _abl_estimator,
    "scheduler": _abl_scheduler,
    "warpsize": _abl_warpsize,
    "sensitivity": _abl_sensitivity,
    "fidelity": _abl_fidelity,
}


def run_ablation(suite: BenchSuite, exp: BenchExperiment, ctx: RunContext) -> ExperimentResult:
    fn = ABLATIONS[exp.params["ablation"]]
    (metrics, checks), wall = _timed(lambda: fn(ctx), 1)
    return ExperimentResult(
        suite_id=suite.suite_id,
        exp_id=exp.exp_id,
        title=exp.title,
        wall_seconds=wall,
        throughput=None,
        metrics=metrics,
        checks=checks,
        budget=exp.budget,
        headline=f"{sum(1 for c in checks if c.passed)}/{len(checks)} invariants",
    )


# ---------------------------------------------------------------------------
# engine experiments (vectorized vs interpreted VM)


def run_engine(suite: BenchSuite, exp: BenchExperiment, ctx: RunContext) -> ExperimentResult:
    from repro.core import SelfJoin
    from repro.core.config import PRESETS
    from repro.grid import GridIndex
    from repro.runtime import RuntimeConfig

    points = exp.workload.build(ctx.size, ctx.seed)
    index = GridIndex(points, exp.workload.epsilon)
    reps = ctx.effective_trials()

    checks: list[CheckResult] = []
    metrics: dict = {"num_points": len(points), "presets": {}}
    speedups = []
    total_pairs = 0
    vector_seconds = 0.0
    wall_t0 = time.perf_counter()
    for variant in exp.variants:
        cfg = PRESETS[variant.preset]
        timings: dict[str, float] = {}
        results = {}
        for engine in ("interpreted", "vectorized"):
            join = SelfJoin(
                runtime=RuntimeConfig(optimization=cfg, seed=ctx.seed, engine=engine)
            )
            results[engine], timings[engine] = _timed(
                lambda j=join: j.execute_on_index(index), reps
            )
        a, b = results["interpreted"], results["vectorized"]
        problems = []
        if not np.array_equal(a.pairs, b.pairs):
            problems.append("pair mismatch in buffer order")
        if len(a.batch_stats) != len(b.batch_stats):
            problems.append("batch count mismatch")
        else:
            for i, (sa, sb) in enumerate(zip(a.batch_stats, b.batch_stats)):
                if (sa.cycles, sa.seconds, sa.warp_execution_efficiency) != (
                    sb.cycles,
                    sb.seconds,
                    sb.warp_execution_efficiency,
                ):
                    problems.append(f"batch {i} metric mismatch")
                    break
        if a.total_seconds != b.total_seconds:
            problems.append("pipeline time mismatch")
        checks.append(
            CheckResult(
                f"engines_identical[{variant.preset}]", not problems, "; ".join(problems)
            )
        )
        speedup = timings["interpreted"] / max(timings["vectorized"], 1e-9)
        speedups.append(speedup)
        total_pairs += len(b.pairs)
        vector_seconds += timings["vectorized"]
        metrics["presets"][variant.preset] = {
            "num_pairs": int(len(b.pairs)),
            "num_batches": len(b.batch_stats),
            "checksum": _pairs_checksum(b.pairs),
        }
        ctx.note(
            f"{exp.exp_id}: {variant.preset} {len(b.pairs)} pairs, "
            f"speedup {speedup:.1f}x"
        )
    wall = time.perf_counter() - wall_t0

    geomean = float(np.exp(np.log(np.maximum(speedups, 1e-12)).mean()))
    return ExperimentResult(
        suite_id=suite.suite_id,
        exp_id=exp.exp_id,
        title=exp.title,
        wall_seconds=wall,
        throughput=total_pairs / vector_seconds if vector_seconds > 0 else None,
        metrics=metrics,
        checks=checks,
        budget=exp.budget,
        headline=f"geomean speedup {geomean:.1f}x",
    )


def _agg_geomean_speedup(name: str) -> Callable[[list[ExperimentResult]], CheckResult]:
    """A suite check that the geomean of its experiments' headline
    speedups is above 1."""

    def check(results: list[ExperimentResult]) -> CheckResult:
        speedups = []
        for r in results:
            head = r.headline
            if head.startswith("geomean speedup"):
                speedups.append(float(head.split()[2].rstrip("x")))
        geomean = (
            float(np.exp(np.log(np.maximum(speedups, 1e-12)).mean())) if speedups else 0.0
        )
        return CheckResult(
            name,
            geomean > 1.0,
            f"suite geomean {geomean:.2f}x over {len(speedups)} experiments",
        )

    return check


AGGREGATE_CHECKS = {
    name: _agg_geomean_speedup(name) for name in ("vectorized_not_slower", "native_not_slower")
}


# ---------------------------------------------------------------------------
# native engine experiments (fidelity-free array backend vs vectorized VM)


def run_native(suite: BenchSuite, exp: BenchExperiment, ctx: RunContext) -> ExperimentResult:
    from repro.core import SelfJoin
    from repro.core.config import PRESETS
    from repro.grid import GridIndex
    from repro.runtime import RuntimeConfig

    points = exp.workload.build(ctx.size, ctx.seed)
    index = GridIndex(points, exp.workload.epsilon)
    reps = ctx.effective_trials()

    checks: list[CheckResult] = []
    metrics: dict = {"num_points": len(points), "presets": {}}
    speedups = []
    total_pairs = 0
    native_seconds = 0.0
    wall_t0 = time.perf_counter()
    for variant in exp.variants:
        cfg = PRESETS[variant.preset]
        timings: dict[str, float] = {}
        results = {}
        for engine in ("vectorized", "native"):
            join = SelfJoin(
                runtime=RuntimeConfig(optimization=cfg, seed=ctx.seed, engine=engine)
            )
            results[engine], timings[engine] = _timed(
                lambda j=join: j.execute_on_index(index), reps
            )
        vec, nat = results["vectorized"], results["native"]
        problems = []
        if not np.array_equal(nat.sorted_pairs(), vec.sorted_pairs()):
            problems.append("canonical pair sets diverge")
        if nat.fidelity != "none":
            problems.append(f"native fidelity {nat.fidelity!r} != 'none'")
        if vec.fidelity != "simulated":
            problems.append(f"vectorized fidelity {vec.fidelity!r} != 'simulated'")
        checks.append(
            CheckResult(
                f"pair_set_identical[{variant.preset}]", not problems, "; ".join(problems)
            )
        )
        speedup = timings["vectorized"] / max(timings["native"], 1e-9)
        speedups.append(speedup)
        total_pairs += len(nat.pairs)
        native_seconds += timings["native"]
        metrics["presets"][variant.preset] = {
            "num_pairs": int(len(nat.pairs)),
            "checksum": _pairs_checksum(nat.sorted_pairs()),
        }
        ctx.note(
            f"{exp.exp_id}: {variant.preset} {len(nat.pairs)} pairs, "
            f"native speedup {speedup:.1f}x"
        )
    wall = time.perf_counter() - wall_t0

    geomean = float(np.exp(np.log(np.maximum(speedups, 1e-12)).mean()))
    # timing-based, so only gated where the workload is big enough for the
    # array passes to dominate the fixed per-call overhead
    if size_at_least(ctx.size, "small"):
        checks.append(
            CheckResult(
                "native_geomean_3x",
                geomean >= 3.0,
                f"geomean {geomean:.2f}x over vectorized (need >= 3x)",
            )
        )
    else:
        checks.append(_skipped("native_geomean_3x", "small"))
    return ExperimentResult(
        suite_id=suite.suite_id,
        exp_id=exp.exp_id,
        title=exp.title,
        wall_seconds=wall,
        throughput=total_pairs / native_seconds if native_seconds > 0 else None,
        metrics=metrics,
        checks=checks,
        budget=exp.budget,
        headline=f"geomean speedup {geomean:.1f}x",
    )


def run_native_scale(suite: BenchSuite, exp: BenchExperiment, ctx: RunContext) -> ExperimentResult:
    """End-to-end out-of-core drill: an ``.npy``-backed mmap dataset joined
    with ``engine="native"`` on one device. Only meaningful at bench scale,
    so it self-reports as skipped below ``full``."""
    if not size_at_least(ctx.size, "full"):
        return ExperimentResult(
            suite_id=suite.suite_id,
            exp_id=exp.exp_id,
            title=exp.title,
            wall_seconds=0.0,
            throughput=None,
            metrics={"skipped": True},
            checks=[_skipped("mmap_native_scale", "full")],
            budget=exp.budget,
            headline="skipped (full only)",
        )

    from repro.core.config import PRESETS
    from repro.data.synthetic import uniform
    from repro.grid import GridIndex
    from repro.io import load_dataset, save_dataset
    from repro.runtime import Runner, RuntimeConfig, compile_self_join

    n = int(exp.params["num_points"])
    eps = float(exp.params["epsilon"])
    extent = float(exp.params["extent"])

    wall_t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="native-scale-") as tmp:
        path = f"{tmp}/points.npy"
        save_dataset(path, uniform(n, 2, seed=ctx.seed, low=0.0, high=extent))
        points = load_dataset(path, mmap=True)
        index = GridIndex(points, eps)
        ctx.note(f"{exp.exp_id}: grid built over {n} mmap-backed points")
        runtime = RuntimeConfig(
            optimization=PRESETS["sortbywl"], engine="native", seed=ctx.seed
        )
        result = Runner().run(compile_self_join(index, runtime))
        # the grid must keep addressing the map, not a resident copy
        base = index.points
        while base is not None and not isinstance(base, np.memmap):
            base = getattr(base, "base", None)
        mapped = isinstance(base, np.memmap)
    wall = time.perf_counter() - wall_t0

    checks = [
        CheckResult(
            "mmap_native_scale",
            result.num_pairs > 0 and result.fidelity == "none",
            f"{n} points -> {result.num_pairs} pairs",
        ),
        CheckResult(
            "points_stay_mapped",
            mapped,
            "" if mapped else "grid points lost their mmap backing",
        ),
    ]
    ctx.note(f"{exp.exp_id}: {result.num_pairs} pairs in {wall:.1f}s")
    return ExperimentResult(
        suite_id=suite.suite_id,
        exp_id=exp.exp_id,
        title=exp.title,
        wall_seconds=wall,
        throughput=result.num_pairs / wall if wall > 0 else None,
        metrics={
            "num_points": n,
            "num_pairs": int(result.num_pairs),
        },
        checks=checks,
        budget=exp.budget,
        headline=f"{n / 1e6:.0f}M points, {result.num_pairs} pairs",
    )


# ---------------------------------------------------------------------------
# multigpu experiments


def run_multigpu(suite: BenchSuite, exp: BenchExperiment, ctx: RunContext) -> ExperimentResult:
    from repro.core import OptimizationConfig, SelfJoin
    from repro.multigpu import SHARD_PLANNERS
    from repro.runtime import RuntimeConfig, ShardingConfig
    from repro.simt import DeviceSpec

    device = DeviceSpec(name="sim-small", num_sms=4, warps_per_sm_slot=2)
    config = OptimizationConfig(pattern="lidunicomp", work_queue=True, k=2)
    points = exp.workload.build(ctx.size, ctx.seed)
    eps = exp.workload.epsilon
    pool_sizes = exp.params["pool_sizes"][ctx.size]

    wall_t0 = time.perf_counter()
    single = RuntimeConfig(optimization=config, device=device, seed=ctx.seed)
    reference = SelfJoin(runtime=single).execute(points, eps)
    ref_pairs = reference.sorted_pairs()

    checks: list[CheckResult] = []
    dee: dict[str, dict] = {}
    mismatches = []
    for n in pool_sizes:
        for planner in SHARD_PLANNERS:
            sharding = ShardingConfig(
                num_devices=n, planner=planner, schedule="dynamic", shards_per_device=2
            )
            run = SelfJoin(runtime=single.with_(sharding=sharding)).execute(points, eps)
            if not np.array_equal(run.sorted_pairs(), ref_pairs):
                mismatches.append(f"N={n} {planner}")
            dee[f"N{n}/{planner}"] = {
                "dee_percent": round(run.device_execution_efficiency * 100, 3),
                "makespan_seconds": run.makespan_seconds,
            }
            ctx.note(f"{exp.exp_id}: N={n} {planner} ok")
    wall = time.perf_counter() - wall_t0

    checks.append(
        CheckResult(
            "merged_pairs_match_single_device",
            not mismatches,
            "; ".join(mismatches) if mismatches else f"{len(dee)} runs identical",
        )
    )
    if exp.params.get("check_balanced_beats_strided"):
        bad = [
            f"N={n}"
            for n in pool_sizes
            if n > 1
            and not dee[f"N{n}/balanced"]["dee_percent"] > dee[f"N{n}/strided"]["dee_percent"]
        ]
        checks.append(
            CheckResult(
                "balanced_beats_strided_dee",
                not bad,
                "; ".join(bad) if bad else "LPT above striding at every N>1",
            )
        )
    makespan1 = dee.get(f"N{pool_sizes[0]}/balanced", {}).get("makespan_seconds")
    makespanN = dee.get(f"N{pool_sizes[-1]}/balanced", {}).get("makespan_seconds")
    headline = (
        f"N={pool_sizes[-1]} speedup {makespan1 / makespanN:.2f}x"
        if makespan1 and makespanN
        else ""
    )
    return ExperimentResult(
        suite_id=suite.suite_id,
        exp_id=exp.exp_id,
        title=exp.title,
        wall_seconds=wall,
        throughput=None,
        metrics={"num_points": len(points), "num_pairs": int(len(ref_pairs)), "runs": dee},
        checks=checks,
        budget=exp.budget,
        headline=headline,
    )


# ---------------------------------------------------------------------------
# resilience experiments


def run_resilience(suite: BenchSuite, exp: BenchExperiment, ctx: RunContext) -> ExperimentResult:
    from repro.core import OptimizationConfig, SelfJoin
    from repro.resilience import (
        DeviceFailure,
        FaultPlan,
        ForcedOverflow,
        RecoveryPolicy,
        Straggler,
        TransientFaults,
    )
    from repro.runtime import RuntimeConfig, ShardingConfig
    from repro.simt import DeviceSpec

    device = DeviceSpec(name="sim-small", num_sms=4, warps_per_sm_slot=2)
    config = OptimizationConfig(pattern="lidunicomp", work_queue=True, k=2)
    num_devices = 4
    seed = ctx.seed
    scenarios = {
        "fault_free": FaultPlan(seed=seed),
        "kill_one_mid_run": FaultPlan(
            seed=seed, failures=[DeviceFailure(device_id=1, at_shard=1)]
        ),
        "straggler_6x": FaultPlan(
            seed=seed, stragglers=[Straggler(device_id=3, slowdown=6.0)]
        ),
        "flaky_device": FaultPlan(
            seed=seed,
            transients=[TransientFaults(device_id=2, probability=0.7, max_failures=3)],
        ),
        "forced_overflow": FaultPlan(
            seed=seed,
            overflows=[ForcedOverflow(device_id=0, times=2, clamp_capacity=32)],
        ),
        "everything_at_once": FaultPlan(
            seed=seed,
            failures=[DeviceFailure(device_id=3, at_shard=1)],
            stragglers=[Straggler(device_id=2, slowdown=4.0)],
            transients=[TransientFaults(device_id=1, probability=0.5, max_failures=2)],
            overflows=[ForcedOverflow(device_id=0, times=1, clamp_capacity=64)],
        ),
    }

    points = exp.workload.build(ctx.size, ctx.seed)
    eps = exp.workload.epsilon
    wall_t0 = time.perf_counter()
    reference = SelfJoin(
        runtime=RuntimeConfig(optimization=config, device=device, seed=seed)
    ).execute(points, eps)
    ref_pairs = reference.sorted_pairs()

    checks: list[CheckResult] = []
    metrics: dict = {"num_points": len(points), "scenarios": {}}
    for sc_name, plan in scenarios.items():

        def run_once():
            return SelfJoin(
                runtime=RuntimeConfig(
                    optimization=config,
                    sharding=ShardingConfig(num_devices=num_devices),
                    device=device,
                    seed=seed,
                    fault_plan=plan,
                    recovery=RecoveryPolicy(),
                )
            ).execute(points, eps)

        result = run_once()
        replay = run_once()
        pair_ok = np.array_equal(result.sorted_pairs(), ref_pairs)
        trace_ok = result.trace.signature() == replay.trace.signature()
        checks.append(CheckResult(f"pairs_identical[{sc_name}]", pair_ok, ""))
        checks.append(CheckResult(f"trace_replays[{sc_name}]", trace_ok, ""))
        metrics["scenarios"][sc_name] = {
            "makespan_seconds": result.makespan_seconds,
            "faults": plan.describe(),
        }
        ctx.note(f"{exp.exp_id}: {sc_name} {'ok' if pair_ok and trace_ok else 'FAIL'}")
    wall = time.perf_counter() - wall_t0

    return ExperimentResult(
        suite_id=suite.suite_id,
        exp_id=exp.exp_id,
        title=exp.title,
        wall_seconds=wall,
        throughput=None,
        metrics=metrics,
        checks=checks,
        budget=exp.budget,
        headline=f"{len(scenarios)} scenarios",
    )


# ---------------------------------------------------------------------------
# serve experiments


def run_serve(suite: BenchSuite, exp: BenchExperiment, ctx: RunContext) -> ExperimentResult:
    from repro.data import uniform
    from repro.grid import GridIndex
    from repro.runtime import (
        Runner,
        RuntimeConfig,
        compile_self_join,
        compile_similarity_join,
    )
    from repro.serve import AdmissionPolicy, JoinRequest, JoinService, ServeConfig

    eps_self = exp.workload.epsilon
    eps_sim = exp.params["epsilon_similarity"]
    points = exp.workload.build(ctx.size, ctx.seed)
    n = len(points)
    datasets = {
        "expo": points,
        "unif": uniform(n, 2, seed=ctx.seed + 2, low=0.0, high=1.0),
        "queries": uniform(max(8, n // 3), 2, seed=ctx.seed + 3, low=0.0, high=1.0),
    }
    rounds = exp.params["rounds"][ctx.size]
    tenant_counts = exp.params["tenant_counts"][ctx.size]

    runner = Runner()
    reference = {
        "self": runner.run(
            compile_self_join(GridIndex(datasets["expo"], eps_self), RuntimeConfig())
        ).sorted_pairs(),
        "sim": runner.run(
            compile_similarity_join(
                GridIndex(datasets["unif"], eps_sim), datasets["queries"], RuntimeConfig()
            )
        ).sorted_pairs(),
    }

    def workload(tenant: str) -> list[JoinRequest]:
        out = []
        for _ in range(rounds):
            out.append(
                JoinRequest(dataset="expo", epsilon=eps_self, tenant=tenant, tag="self")
            )
            out.append(
                JoinRequest(
                    dataset="unif",
                    epsilon=eps_sim,
                    kind="similarity",
                    query_dataset="queries",
                    tenant=tenant,
                    tag="sim",
                )
            )
        return out

    async def drive(num_tenants: int):
        config = ServeConfig(
            admission=AdmissionPolicy(max_concurrency=4, max_queue_depth=4096),
            cache_entries=8,
        )
        async with JoinService(config) as svc:
            for name, pts in datasets.items():
                svc.register_dataset(name, pts)
            started = time.perf_counter()
            tickets = []
            for tenant in (f"t{i}" for i in range(num_tenants)):
                for request in workload(tenant):
                    tickets.append(await svc.submit(request))
            responses = await asyncio.gather(*(svc.result(t) for t in tickets))
            elapsed = time.perf_counter() - started
            report = svc.report()
        return responses, elapsed, report

    checks: list[CheckResult] = []
    metrics: dict = {"num_points": n, "rounds": rounds, "tenants": {}}
    wall = 0.0
    total_requests = 0
    for num_tenants in tenant_counts:
        responses, elapsed, report = asyncio.run(drive(num_tenants))
        wall += elapsed
        total_requests += len(responses)
        problems = []
        for response in responses:
            if not response.ok:
                problems.append(f"request {response.request_id} ended {response.state}")
            elif not np.array_equal(response.result.sorted_pairs(), reference[response.tag]):
                problems.append(f"{response.tag} pairs diverge from the direct Runner")
        if report.requests_completed != len(responses):
            problems.append(
                f"{report.requests_completed}/{len(responses)} completed"
            )
        checks.append(
            CheckResult(
                f"responses_match_runner[T={num_tenants}]",
                not problems,
                "; ".join(problems[:3]),
            )
        )
        checks.append(
            CheckResult(
                f"cache_earns_hits[T={num_tenants}]",
                report.cache_hit_rate > 0,
                f"hit rate {report.cache_hit_rate:.2%}",
            )
        )
        checks.append(
            CheckResult(
                f"fairness_in_band[T={num_tenants}]",
                0.99 <= report.fairness_spread() <= 1.01,
                f"spread {report.fairness_spread():.4f}",
            )
        )
        metrics["tenants"][str(num_tenants)] = {
            "requests": len(responses),
            "completed": report.requests_completed,
            "cache_hit_rate": round(report.cache_hit_rate, 4),
        }
        ctx.note(f"{exp.exp_id}: T={num_tenants} {len(responses)} requests")

    return ExperimentResult(
        suite_id=suite.suite_id,
        exp_id=exp.exp_id,
        title=exp.title,
        wall_seconds=wall,
        throughput=total_requests / wall if wall > 0 else None,
        metrics=metrics,
        checks=checks,
        budget=exp.budget,
        headline=f"T={tenant_counts} x {2 * rounds} reqs",
    )


# ---------------------------------------------------------------------------
# checkpoint experiments


def run_checkpoint(suite: BenchSuite, exp: BenchExperiment, ctx: RunContext) -> ExperimentResult:
    from repro.data.synthetic import uniform
    from repro.grid import GridIndex
    from repro.resilience import (
        CheckpointStore,
        CrashPoint,
        FaultPlan,
        SimulatedCrashError,
    )
    from repro.runtime import (
        CheckpointConfig,
        Runner,
        RuntimeConfig,
        ShardingConfig,
        compile_self_join,
        compile_similarity_join,
    )

    join_kind = exp.params["join_kind"]
    points = exp.workload.build(ctx.size, ctx.seed)
    eps = exp.workload.epsilon
    queries = uniform(
        max(8, int(len(points) * exp.params["query_fraction"])),
        2,
        seed=ctx.seed + 1,
        low=0.0,
        high=1.0,
    )
    index = GridIndex(points, eps)

    def _pooled(**kw) -> RuntimeConfig:
        return RuntimeConfig(sharding=ShardingConfig(num_devices=3), **kw)

    def compile_kind(rc: RuntimeConfig):
        if join_kind == "self":
            return compile_self_join(index, rc)
        return compile_similarity_join(index, queries, rc)

    repeats = ctx.effective_trials()
    golden_plan = compile_kind(_pooled())
    golden, golden_wall = _timed(lambda: Runner().run(golden_plan), repeats)
    num_shards = len(golden_plan.shard_plan.shards)

    checks: list[CheckResult] = []
    wall_t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="ckpt-bench-") as tmp:
        ck = CheckpointConfig(directory=tmp)

        def checkpointed():
            runner = Runner()
            out = runner.run(compile_kind(_pooled(checkpoint=ck)))
            return out, runner.last_checkpoint_stats

        (ck_result, stats), ck_wall = _timed(checkpointed, repeats)
        checks.append(
            CheckResult(
                "checkpointing_preserves_answer",
                ck_result.pairs.tobytes() == golden.pairs.tobytes(),
                "",
            )
        )
        checks.append(
            CheckResult(
                "journal_cleaned_after_completion", not CheckpointStore(tmp).runs(), ""
            )
        )

        resumed_ok = 0
        problems = []
        for k in range(num_shards):
            try:
                Runner().run(
                    compile_kind(
                        _pooled(
                            fault_plan=FaultPlan(
                                seed=ctx.seed, crashes=(CrashPoint(at_shard=k),)
                            ),
                            checkpoint=ck,
                        )
                    )
                )
                problems.append(f"crash at shard {k} did not fire")
                continue
            except SimulatedCrashError:
                pass
            resumed = Runner().resume(compile_kind(_pooled(checkpoint=ck)))
            if resumed.pairs.tobytes() != golden.pairs.tobytes():
                problems.append(f"resume after kill@{k} changed pairs")
            elif resumed.trace.signature() != golden.trace.signature():
                problems.append(f"resume after kill@{k} changed trace")
            else:
                resumed_ok += 1
        checks.append(
            CheckResult(
                "kill_resume_bit_identical",
                not problems,
                "; ".join(problems[:3])
                if problems
                else f"{resumed_ok}/{num_shards} kill points",
            )
        )
    wall = time.perf_counter() - wall_t0 + golden_wall

    overhead = ck_wall - golden_wall
    return ExperimentResult(
        suite_id=suite.suite_id,
        exp_id=exp.exp_id,
        title=exp.title,
        wall_seconds=wall,
        throughput=None,
        metrics={
            "num_points": len(points),
            "num_shards": num_shards,
            "num_pairs": int(golden.num_pairs),
            "fragments_written": stats.writes,
            "bytes_written": stats.bytes_written,
        },
        checks=checks,
        budget=exp.budget,
        headline=f"{num_shards} shards, +{1e3 * overhead:.1f}ms journaling",
    )


# ---------------------------------------------------------------------------
# knn experiments (the multi-round expansion driver over the generic runtime)


def run_knn(suite: BenchSuite, exp: BenchExperiment, ctx: RunContext) -> ExperimentResult:
    from scipy.spatial import cKDTree

    from repro.core.config import PRESETS
    from repro.resilience import CrashPoint, FaultPlan, SimulatedCrashError
    from repro.runtime import (
        CheckpointConfig,
        Runner,
        RuntimeConfig,
        ShardingConfig,
        compile_knn_join,
    )

    points = exp.workload.build(ctx.size, ctx.seed)
    n = len(points)
    eps0 = exp.workload.epsilon
    k = exp.params["k"][ctx.size]
    preset = PRESETS[exp.params.get("preset", "workqueue")]
    reps = ctx.effective_trials()

    def knn_plan(rc: RuntimeConfig):
        return compile_knn_join(points, k, rc, epsilon0=eps0)

    def run_with(engine: str):
        rc = RuntimeConfig(optimization=preset, seed=ctx.seed, engine=engine)
        return Runner().run(knn_plan(rc))

    checks: list[CheckResult] = []
    wall_t0 = time.perf_counter()

    timings: dict[str, float] = {}
    results = {"interpreted": run_with("interpreted")}
    for engine in ("vectorized", "native"):
        results[engine], timings[engine] = _timed(lambda e=engine: run_with(e), reps)
    golden = results["vectorized"]

    # tier-A: the three engines must agree to the byte
    problems = []
    for engine, res in results.items():
        if res.indices.tobytes() != golden.indices.tobytes():
            problems.append(f"{engine} neighbor ids diverge")
        elif res.distances.tobytes() != golden.distances.tobytes():
            problems.append(f"{engine} distances diverge")
        elif res.rounds != golden.rounds:
            problems.append(f"{engine} rounds {res.rounds} != {golden.rounds}")
    checks.append(CheckResult("engines_bit_identical", not problems, "; ".join(problems)))

    # tier-A: independent scipy oracle (continuous random data: no distance
    # ties, so the canonical (distance, id) order is fully determined)
    dd, ii = cKDTree(points).query(points, k=k + 1)
    oracle_idx = np.empty((n, k), dtype=np.int64)
    oracle_d = np.empty((n, k))
    for row in range(n):
        keep = ii[row] != row  # drop self; sorted by distance already
        oracle_idx[row] = ii[row][keep][:k]
        oracle_d[row] = dd[row][keep][:k]
    problems = []
    if not np.array_equal(golden.indices, oracle_idx):
        bad = int((golden.indices != oracle_idx).any(axis=1).sum())
        problems.append(f"neighbor ids differ from cKDTree on {bad}/{n} points")
    if not np.allclose(golden.distances, oracle_d, rtol=1e-9, atol=0.0):
        problems.append("distances drift from cKDTree beyond 1e-9")
    recomputed = np.linalg.norm(points[golden.indices] - points[:, None, :], axis=2)
    if not np.array_equal(golden.distances, recomputed):
        problems.append("reported distances are not the exact pairwise norms")
    checks.append(CheckResult("ckdtree_oracle_identity", not problems, "; ".join(problems)))

    # tier-A: pooled execution + a kill at every dispatch ordinal, resumed
    def pooled_rc(**kw) -> RuntimeConfig:
        return RuntimeConfig(
            optimization=preset,
            seed=ctx.seed,
            sharding=ShardingConfig(num_devices=3),
            **kw,
        )

    pooled_golden = Runner().run(knn_plan(pooled_rc()))
    checks.append(
        CheckResult(
            "pooled_matches_single",
            pooled_golden.indices.tobytes() == golden.indices.tobytes()
            and pooled_golden.distances.tobytes() == golden.distances.tobytes(),
            "",
        )
    )
    kill_cap = int(exp.params.get("max_kill_points", 24))
    with tempfile.TemporaryDirectory(prefix="knn-bench-") as tmp:
        ck = CheckpointConfig(directory=tmp)
        resumed_ok = 0
        fired = 0
        problems = []
        for kill in range(kill_cap):
            rc = pooled_rc(
                fault_plan=FaultPlan(seed=ctx.seed, crashes=(CrashPoint(at_shard=kill),)),
                checkpoint=ck,
            )
            try:
                Runner().run(knn_plan(rc))
                break  # ordinal beyond the last dispatch: the run completed
            except SimulatedCrashError:
                fired += 1
            resumed = Runner().resume(knn_plan(pooled_rc(checkpoint=ck)))
            if (
                resumed.indices.tobytes() != pooled_golden.indices.tobytes()
                or resumed.distances.tobytes() != pooled_golden.distances.tobytes()
                or resumed.rounds != pooled_golden.rounds
            ):
                problems.append(f"resume after kill@{kill} diverged")
            else:
                resumed_ok += 1
        checks.append(
            CheckResult(
                "kill_resume_bit_identical",
                not problems and fired > 0,
                "; ".join(problems[:3]) if problems else f"{resumed_ok} kill points",
            )
        )
        ctx.note(f"{exp.exp_id}: {golden.rounds} rounds, {fired} kill points resumed")

    # tier-B: the native backend must not lose to the vectorized VM
    speedup = timings["vectorized"] / max(timings["native"], 1e-9)
    if size_at_least(ctx.size, "small"):
        checks.append(
            CheckResult(
                "native_knn_not_slower",
                speedup >= 1.0,
                f"native {speedup:.2f}x vs vectorized (need >= 1x)",
            )
        )
    else:
        checks.append(_skipped("native_knn_not_slower", "small"))

    wall = time.perf_counter() - wall_t0
    h = hashlib.sha256()
    h.update(golden.indices.tobytes())
    h.update(golden.distances.tobytes())
    return ExperimentResult(
        suite_id=suite.suite_id,
        exp_id=exp.exp_id,
        title=exp.title,
        wall_seconds=wall,
        throughput=(n * k) / timings["native"] if timings["native"] > 0 else None,
        metrics={
            "num_points": n,
            "k": k,
            "rounds": golden.rounds,
            "final_epsilon": golden.final_epsilon,
            "checksum": h.hexdigest()[:16],
        },
        checks=checks,
        budget=exp.budget,
        headline=f"{golden.rounds} rounds, native {speedup:.1f}x",
    )


# ---------------------------------------------------------------------------

EXECUTORS: dict[str, Callable] = {
    "model": run_model,
    "ablation": run_ablation,
    "engine": run_engine,
    "native": run_native,
    "native_scale": run_native_scale,
    "multigpu": run_multigpu,
    "resilience": run_resilience,
    "serve": run_serve,
    "checkpoint": run_checkpoint,
    "knn": run_knn,
}


def run_suite(
    suite: BenchSuite, ctx: RunContext, *, pattern: str | None = None
) -> SuiteRun:
    """Execute a suite's (optionally filtered) experiments."""
    selected = suite.select(pattern)
    results = []
    for exp in selected:
        ctx.note(f"== {suite.suite_id}/{exp.exp_id} ==")
        try:
            results.append(EXECUTORS[exp.kind](suite, exp, ctx))
        except Exception as err:  # a crashed experiment is a failed check
            results.append(
                ExperimentResult(
                    suite_id=suite.suite_id,
                    exp_id=exp.exp_id,
                    title=exp.title,
                    wall_seconds=0.0,
                    throughput=None,
                    metrics={},
                    checks=[
                        CheckResult(
                            "executes", False, f"{type(err).__name__}: {err}"
                        )
                    ],
                    budget=exp.budget,
                )
            )
            print(
                f"ERROR in {suite.suite_id}/{exp.exp_id}: {type(err).__name__}: {err}",
                file=sys.stderr,
            )
    suite_checks = []
    if pattern is None or pattern == "":
        for name in suite.aggregate_checks:
            suite_checks.append(AGGREGATE_CHECKS[name](results))
    return SuiteRun(suite=suite, results=results, suite_checks=suite_checks)
