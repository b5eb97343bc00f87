"""``repro-bench`` — run paper experiments and benchmark suites.

Usage::

    repro-bench list
    repro-bench run fig9 [--size N] [--trials T] [--out FILE] [--json FILE]
    repro-bench all [--size N] [--out DIR]

    repro-bench suite list
    repro-bench suite run [SUITE ...] [--size tiny|small|full] [--seed S]
                          [--trials T] [--filter PAT] [--results-dir DIR]
    repro-bench suite gate [SUITE ...] [--size ...] [--strict]
    repro-bench suite history [SUITE ...] [--limit N]

``list``/``run``/``all`` address the paper experiments (model-level) and
render their per-row tables and ASCII figures; ``suite ...`` drives the
unified harness: declarative experiment specs from
:mod:`repro.bench.suites`, executed by :mod:`repro.bench.executors`,
gated by :mod:`repro.bench.gates`, with trajectories recorded to
``results/BENCH_<suite>.json`` by :mod:`repro.bench.history`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.bench.experiments import (
    DEFAULT_SIZES,
    EXPERIMENTS,
    bench_size,
)
from repro.bench.runner import run_experiment
from repro.data import CATALOG
from repro.util import Table

__all__ = ["main"]


def _cmd_list(_args) -> int:
    t = Table(["id", "title", "datasets", "configs"], title="Experiments")
    for spec in EXPERIMENTS.values():
        t.add_row(
            [
                spec.exp_id,
                spec.title,
                len(spec.datasets),
                len(spec.configs),
            ]
        )
    print(t.render())
    return 0


def _render_table1() -> str:
    t = Table(
        ["dataset", "n", "paper |D|", "bench |D|", "distribution"],
        title=EXPERIMENTS["table1"].title,
    )
    for name in sorted(DEFAULT_SIZES):
        entry = CATALOG[name]
        t.add_row(
            [name, entry.ndim, entry.paper_size, bench_size(name), entry.distribution]
        )
    return t.render()


def _run_one(exp_id: str, args) -> str:
    if exp_id == "table1":
        return _render_table1()
    spec = EXPERIMENTS[exp_id]
    report = run_experiment(
        spec,
        size=args.size,
        seed=args.seed,
        trials=args.trials,
        selected_only=args.selected_only or exp_id.startswith("table"),
        progress=(lambda msg: print(f"  {msg}", file=sys.stderr))
        if args.verbose
        else None,
    )
    if getattr(args, "json", None):
        import json as _json
        from pathlib import Path as _Path

        _Path(args.json).write_text(
            _json.dumps(
                {"experiment": exp_id, "title": spec.title, "rows": report.to_records()},
                indent=2,
            )
            + "\n"
        )
    out = report.render()
    if exp_id.startswith("fig") and exp_id != "fig13":
        from repro.bench.figures import render_figure

        out = out + "\n\n" + render_figure(report)
    if exp_id == "fig13":
        lines = [out, "", "Speedups of `combined`:"]
        for base in ("superego", "gpucalcglobal"):
            sp = report.speedups(base)
            vals = [v["combined"] for v in sp.values() if "combined" in v]
            if vals:
                lines.append(
                    f"  vs {base}: avg {sum(vals) / len(vals):.2f}x, "
                    f"max {max(vals):.2f}x, min {min(vals):.2f}x"
                )
        out = "\n".join(lines)
    return out


def _cmd_run(args) -> int:
    if args.experiment not in EXPERIMENTS:
        print(
            f"unknown experiment {args.experiment!r}; run `repro-bench list`",
            file=sys.stderr,
        )
        return 2
    out = _run_one(args.experiment, args)
    print(out)
    if args.out:
        Path(args.out).write_text(out + "\n")
    return 0


def _cmd_all(args) -> int:
    outputs = []
    for exp_id in EXPERIMENTS:
        print(f"== {exp_id} ==", file=sys.stderr)
        out = _run_one(exp_id, args)
        outputs.append(f"== {exp_id} ==\n{out}")
        print(out)
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "all_experiments.txt").write_text("\n\n".join(outputs) + "\n")
    return 0


# ---------------------------------------------------------------------------
# `suite` subcommands: the unified benchmark harness


def _suite_progress(args):
    if getattr(args, "verbose", False):
        return lambda msg: print(f"  {msg}", file=sys.stderr)
    return None


def _resolve_suites(names):
    from repro.bench.suites import SUITES, get_suite

    try:
        return [get_suite(name) for name in (names or list(SUITES))]
    except KeyError as err:
        raise SystemExit(f"unknown suite {err.args[0]!r}; available: {sorted(SUITES)}")


def _execute_suites(args):
    """Run the selected suites; returns [(suite, SuiteRun, history entry)]."""
    from repro.bench.executors import RunContext, run_suite
    from repro.bench.history import make_entry

    ctx = RunContext(
        size=args.size, seed=args.seed, trials=args.trials, progress=_suite_progress(args)
    )
    out = []
    for suite in _resolve_suites(args.suites):
        print(f"== suite {suite.suite_id} (size={args.size}) ==", file=sys.stderr)
        run = run_suite(suite, ctx, pattern=args.pattern)
        entry = make_entry(
            run.results,
            size=args.size,
            seed=args.seed,
            trials=ctx.effective_trials(),
            suite_checks=run.suite_checks,
        )
        out.append((suite, run, entry))
    return out


def _render_deltas(delta_map: dict) -> str:
    t = Table(["experiment", "wall", "throughput", "metrics"], title="vs recorded history")
    for exp_id, d in delta_map.items():

        def fmt(ratio):
            return "-" if ratio is None else f"{ratio:.2f}x"

        t.add_row(
            [
                exp_id,
                fmt(d["wall_ratio"]),
                fmt(d["throughput_ratio"]),
                "CHANGED" if d["metrics_changed"] else "same",
            ]
        )
    return t.render()


def _cmd_suite_list(_args) -> int:
    from repro.bench.suites import SUITES

    t = Table(["suite", "experiments", "kinds", "title"], title="Benchmark suites")
    for suite in SUITES.values():
        kinds = sorted({e.kind for e in suite.experiments})
        t.add_row([suite.suite_id, len(suite.experiments), ",".join(kinds), suite.title])
    print(t.render())
    return 0


def _cmd_suite_run(args) -> int:
    from repro.bench.history import bench_path, deltas, latest_comparable, record_entry

    failed = False
    for suite, run, entry in _execute_suites(args):
        print(run.render_summary())
        path = bench_path(args.results_dir, suite.suite_id)
        if args.pattern:
            print(f"(--filter active: not recording into {path})", file=sys.stderr)
        elif args.no_record:
            pass
        else:
            history = record_entry(path, suite.suite_id, entry)
            previous = latest_comparable(
                history, size=args.size, seed=args.seed, skip_last=True
            )
            delta_map = deltas(entry, previous)
            if delta_map:
                print(_render_deltas(delta_map))
            print(f"recorded -> {path}", file=sys.stderr)
        if not run.checks_passed:
            failed = True
    if failed:
        print("\nFAILED: correctness cross-checks did not pass", file=sys.stderr)
    return 1 if failed else 0


def _cmd_suite_gate(args) -> int:
    from repro.bench.gates import (
        GateReport,
        Violation,
        evaluate_tier_a,
        evaluate_tier_b,
        evaluate_tier_c,
    )
    from repro.bench.history import bench_path, latest_comparable, load_history

    report = GateReport()
    skipped = 0
    for suite, run, entry in _execute_suites(args):
        print(run.render_summary())
        report.extend(evaluate_tier_a(run.results))
        report.extend(
            Violation(
                "A",
                suite.suite_id,
                "<suite>",
                f"suite check {check.name!r} failed"
                + (f": {check.detail}" if check.detail else ""),
            )
            for check in run.suite_checks
            if check.failed
        )
        skipped += sum(1 for r in run.results for c in r.checks if c.skipped)
        report.extend(evaluate_tier_b(run.results, args.size))
        history = load_history(bench_path(args.results_dir, suite.suite_id))
        previous = latest_comparable(history, size=args.size)
        report.extend(
            evaluate_tier_c(suite.suite_id, entry, previous),
            advisory=not args.strict,
        )
    print()
    print(report.render())
    if skipped:
        print(f"skipped (below their size floor, not gated): {skipped} check(s)")
    return 0 if report.ok else 1


def _cmd_suite_history(args) -> int:
    from repro.bench.history import bench_path, load_history, render_history

    for suite in _resolve_suites(args.suites):
        path = bench_path(args.results_dir, suite.suite_id)
        history = load_history(path)
        if not history["entries"]:
            print(f"suite {suite.suite_id}: no recorded history at {path}")
            continue
        print(render_history(history, limit=args.limit))
    return 0


def _suite_common_args(parser, *, default_size: str = "tiny") -> None:
    from repro.bench.suites import SIZE_CLASSES

    parser.add_argument("suites", nargs="*", help="suite ids (default: all registered)")
    parser.add_argument("--size", choices=SIZE_CLASSES, default=default_size)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--trials", type=int, default=None, help="timing repetitions (default per size)"
    )
    parser.add_argument(
        "--filter",
        dest="pattern",
        default=None,
        help="comma-separated experiment-id substrings",
    )
    parser.add_argument("--results-dir", default="results")
    parser.add_argument("--verbose", action="store_true")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Reproduce the paper's tables and figures on the simulated substrate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments").set_defaults(
        func=_cmd_list
    )

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--size", type=int, default=None, help="points per dataset")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument(
        "--selected-only",
        action="store_true",
        help="only the table-selected epsilon per dataset",
    )
    common.add_argument("--verbose", action="store_true")
    common.add_argument("--out", default=None, help="write output to file/dir")
    common.add_argument(
        "--json", default=None, help="also write rows as JSON to this file"
    )
    common.add_argument(
        "--trials", type=int, default=3,
        help="response-time trials to average (paper: 3)",
    )

    run_p = sub.add_parser("run", parents=[common], help="run one experiment")
    run_p.add_argument("experiment")
    run_p.set_defaults(func=_cmd_run)

    all_p = sub.add_parser("all", parents=[common], help="run every experiment")
    all_p.set_defaults(func=_cmd_all)

    suite_p = sub.add_parser("suite", help="unified benchmark harness")
    suite_sub = suite_p.add_subparsers(dest="suite_command", required=True)

    suite_sub.add_parser("list", help="list registered suites").set_defaults(
        func=_cmd_suite_list
    )

    srun_p = suite_sub.add_parser(
        "run", help="run suites, record BENCH_<suite>.json trajectories"
    )
    _suite_common_args(srun_p)
    srun_p.add_argument(
        "--no-record", action="store_true", help="do not append to BENCH history files"
    )
    srun_p.set_defaults(func=_cmd_suite_run)

    sgate_p = suite_sub.add_parser(
        "gate", help="run suites and enforce tiered perf/correctness gates"
    )
    _suite_common_args(sgate_p)
    sgate_p.add_argument(
        "--strict",
        action="store_true",
        help="enforce tier C trajectory deltas (advisory otherwise)",
    )
    sgate_p.set_defaults(func=_cmd_suite_gate)

    shist_p = suite_sub.add_parser(
        "history", help="render recorded BENCH_<suite>.json trajectories"
    )
    shist_p.add_argument("suites", nargs="*")
    shist_p.add_argument("--results-dir", default="results")
    shist_p.add_argument("--limit", type=int, default=10)
    shist_p.set_defaults(func=_cmd_suite_history)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
