"""Benchmark entry point: one measurement of one workload.

    python3 perfbench/run.py --workload selfjoin_skew --seed 0 --seconds 15 --trace 0

It generates the workload's inputs and their cKDTree oracle from
``--seed`` (``workloads.py``), then measures in fresh processes
(``measure.py``). With ``--trace 0`` two processes only set up and a third
sets up and runs ops for ``--seconds``; with ``--trace 1`` one traced
process does both. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and the metrics ``BENCHMARK.json``
lists for the mode: end-to-end, or per-layer when traced.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
#: set-ups per untraced run, each in a fresh process; setup_s is their median
SETUPS = 3
#: every run ends within this many seconds
RUN_LIMIT_S = 170.0


def _measure(args, inputs: Path, started: float, *, setup_only: bool) -> dict:
    """Run ``measure.py`` in a fresh process and return its JSON report."""
    cmd = [
        sys.executable,
        str(HERE / "measure.py"),
        "--workload", args.workload,
        "--inputs", str(inputs),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if args.trace:
        cmd += ["--trace-out", str(WORK / "traces" / f"{args.workload}-seed{args.seed}.json")]
    left = RUN_LIMIT_S - (time.monotonic() - started)
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=left, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _repeats(args, exact: dict) -> bool:
    """Whether this seed's exact counts equal those of its earlier runs."""
    record = WORK / "exact" / f"{args.workload}-seed{args.seed}-{args.seconds:g}s.json"
    if not record.exists():
        record.parent.mkdir(parents=True, exist_ok=True)
        tmp = record.with_suffix(".tmp")
        tmp.write_text(json.dumps(exact, sort_keys=True))
        tmp.replace(record)
        return True
    earlier = json.loads(record.read_text())
    changed = sorted(k for k in earlier.keys() | exact.keys() if earlier.get(k) != exact.get(k))
    if changed:
        print(f"perfbench: exact counts differ from an earlier run: {changed}", file=sys.stderr)
    return not changed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Measure one workload of the benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    source = ROOT / "src" / "repro"
    if not source.is_dir():
        print(f"perfbench: the program's source {source} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = bench["per_layer" if args.trace else "end_to_end"]

    started = time.monotonic()
    inputs = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    try:
        workloads.WORKLOADS[args.workload].make_inputs(args.seed, args.seconds, inputs)
        extra = 0 if args.trace else SETUPS - 1
        setups = [_measure(args, inputs, started, setup_only=True) for _ in range(extra)]
        report = _measure(args, inputs, started, setup_only=False)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    setups.append(report)

    exact = report["exact"]
    correct = (
        report["failed"] == 0
        and all(s["setup_ok"] and s["exact"] == exact for s in setups)
        and _repeats(args, exact)
    )
    if args.trace:
        values = report["layers"]
    else:
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "op_p50_s": report["op_p50_s"],
            "peak_rss_mb": report["peak_rss_mb"],
        }
    names = {m["name"] for m in section}
    if set(values) != names:
        print(f"perfbench: measured and listed metrics differ: {sorted(set(values) ^ names)}",
              file=sys.stderr)
        return 3
    print(
        f"perfbench: {args.workload} seed {args.seed}: {report['attempted']} ops, "
        f"{report['failed']} failed, correct={correct}",
        file=sys.stderr,
    )
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
