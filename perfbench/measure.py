"""One measured process of the benchmark: set up a workload, then run its ops.

``run.py`` starts one per extra set-up (``--setup-only``) and one that sets
up and then runs ops for ``--seconds``; each prints a JSON report as its
last stdout line. With ``--trace 1`` the wraps of ``spans.WRAPS`` are
installed for set-up and every other op (on ``serve_mixed``, for the
second half of the schedule) and the report carries the per-layer
metrics; otherwise nothing is wrapped.

Set-up and op times are reported in reference seconds (``reference.py``).
The process times the reference after set-up and scales the set-up time
by it. It times it again after every batch op, or after every segment of
the serve schedule, and scales each op or request by the references on
both sides of it.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from pathlib import Path

# one thread per BLAS/OpenMP pool; must be set before numpy is imported
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro.io  # noqa: E402
import repro.serve  # noqa: E402

import workloads  # noqa: E402
from reference import Reference, scale, scaled  # noqa: E402
from spans import Tracer, op_layers  # noqa: E402

#: fewest measured ops per run, however long one op takes
MIN_OPS = 3
#: reference calls right after set-up, which scale the set-up time
SETUP_REFS = 3
#: parts of the serve schedule with a reference call after each
SERVE_SEGMENTS = 18
#: rows per block when a served result is streamed
STREAM_CHUNK = 1 << 16

#: per-layer metric -> (span name, field), summed over one op's spans
SPAN_METRICS = {
    "grid.build_s": ("grid.build", "self_s"),
    "grid.builds": ("grid.build", "calls"),
    "grid.cells": ("grid.build", "cells"),
    "grid.neighbor_ranks_s": ("grid.neighbor_ranks", "self_s"),
    "grid.neighbor_ranks_calls": ("grid.neighbor_ranks", "calls"),
    "core.sortbywl_s": ("core.sortbywl", "self_s"),
    "core.estimate_s": ("core.estimate", "self_s"),
    "core.estimates": ("core.estimate", "calls"),
    "core.run_batches_s": ("core.run_batches", "self_s"),
    "runtime.compile_s": ("runtime.compile", "self_s"),
    "runtime.run_s": ("runtime.run", "self_s"),
    "runtime.native_s": ("runtime.native", "self_s"),
    "runtime.knn_driver_s": ("runtime.knn_driver", "self_s"),
    "multigpu.plan_shards_s": ("multigpu.plan_shards", "self_s"),
    "multigpu.merge_s": ("multigpu.merge", "self_s"),
    "resilience.journal_write_s": ("resilience.journal_write", "self_s"),
    "resilience.journal_writes": ("resilience.journal_write", "calls"),
    "resilience.journal_bytes": ("resilience.journal_write", "bytes"),
    "resilience.journal_read_s": ("resilience.journal_read", "self_s"),
    "resilience.journal_loads": ("resilience.journal_read", "loads"),
    "serve.admit_s": ("serve.admit", "self_s"),
}
#: per-layer metrics that are not sums over one op's spans; 0 where absent
OTHER_METRICS = (
    "io.load_s",
    "host.ref_s",
    "trace.overhead_frac",
    "trace.uncovered_s",
    "result.pairs",
    "runtime.knn_rounds",
    "runtime.knn_yield",
    "simt.simulated_s",
    "simt.wee",
    "simt.overflow_retries",
    "multigpu.dee",
    "journal_mb",
    "serve.queue_wait_s",
    "serve.execute_s",
    "serve.stream_s",
    "serve.cache_hit_frac",
    "loadgen.late_max_s",
    "op_p90_s",
    "knn_p50_s",
    "goodput_rps",
)


def _op(tracer, op_id: str):
    return tracer.op(op_id) if tracer is not None else nullcontext()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _layers(workload, tracer, *, measured_from: float, keep, extra: dict) -> dict:
    """Per-layer metrics: each the median over the measured ops it ran in."""
    ops = op_layers(tracer.spans, measured_from=measured_from)
    setup = ops.pop("setup", {})
    rows = [row for key, row in ops.items() if keep(key)]
    out = dict.fromkeys(OTHER_METRICS, 0.0)
    for metric, (span, field) in SPAN_METRICS.items():
        values = [row[span].get(field, 0) for row in rows if span in row]
        out[metric] = statistics.median(values) if values else 0.0
    out["io.load_s"] = setup.get("io.load", {}).get("self_s", 0.0)
    yields = [
        row["runtime.knn_driver"]["pairs"] / row["runtime.run"]["pairs"]
        for row in rows
        if "runtime.knn_driver" in row
    ]
    if yields:
        out["runtime.knn_yield"] = statistics.median(yields)
    uncovered = [row["op"]["self_s"] for row in rows if "op" in row]
    if uncovered:
        out["trace.uncovered_s"] = statistics.median(uncovered)
    unknown = set(extra) - set(OTHER_METRICS)
    if unknown:
        raise KeyError(f"not per-layer metrics: {sorted(unknown)}")
    out.update(extra)
    silent = [name for name in workload.layers if not any(name in row for row in rows)]
    if silent:
        print(f"perfbench: no {silent} spans in the measured ops", file=sys.stderr)
    return out


def _batch(workload, path: Path, seconds: float, tracer, setup_only: bool) -> dict:
    expect = workload.expectations(path)
    gc.collect()
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    with _op(tracer, "setup"):
        state = workload.load(path)
        out = workload.op(state)
    setup_s = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    setup_ok, exact = workload.check(out, expect)
    del out
    reference = Reference()
    for _ in range(SETUP_REFS):
        reference()
    report = {"setup_s": setup_s * scale(reference.times), "setup_ok": setup_ok, "exact": exact}
    if setup_only:
        return report

    times, traced, failed = [], [], 0
    deadline = time.perf_counter() + seconds
    while (
        len(times) < MIN_OPS
        or time.perf_counter() + statistics.median(times) + reference.times[-1] <= deadline
    ):
        # traced, every other op runs wrapped, so the rest measure the overhead
        tracing = tracer is not None and len(times) % 2 == 1
        out = None
        gc.collect()
        if tracing:
            tracer.install()
        began = time.perf_counter()
        try:
            with _op(tracer if tracing else None, f"op{len(times)}"):
                with tracer.span("op") if tracing else nullcontext():
                    out = workload.op(state)
        except Exception:
            traceback.print_exc()
        times.append(time.perf_counter() - began)
        if tracing:
            tracer.uninstall()
        traced.append(tracing)
        if out is None:
            failed += 1
        else:
            ok, counts = workload.check(out, expect)
            failed += not (ok and counts == exact)
        del out
        reference()

    # the last set-up reference is the one before the first op
    times = scaled(times, reference.times[SETUP_REFS - 1 :])
    report.update(
        attempted=len(times),
        failed=failed,
        op_p50_s=statistics.median(times),
        peak_rss_mb=_peak_rss_mb(),
    )
    if tracer is not None:
        on = [t for t, was in zip(times, traced) if was]
        off = [t for t, was in zip(times, traced) if not was]
        extra = {key: value for key, value in exact.items() if key in OTHER_METRICS}
        if "resilience.journal_bytes" in exact:
            extra["journal_mb"] = exact["resilience.journal_bytes"] / 1e6
        extra["host.ref_s"] = statistics.median(reference.times)
        extra["trace.overhead_frac"] = statistics.median(on) / statistics.median(off) - 1.0
        report["layers"] = _layers(
            workload, tracer, measured_from=start, keep=lambda key: True, extra=extra
        )
    return report


@dataclasses.dataclass
class _Outcome:
    """One request of the open loop and its timeline, in perf_counter seconds."""

    index: int
    kind: str
    due: float
    sent: float = 0.0
    admitted: float = 0.0
    answered: float = 0.0
    done: float = 0.0
    response: object = None
    ok: bool = False

    @property
    def latency(self) -> float:
        return self.done - self.due


async def _request(svc, tracer, outcome: _Outcome, request) -> None:
    """Submit, await the response and stream its pairs, as a client would."""
    outcome.sent = time.perf_counter()
    with _op(tracer, f"r{outcome.index}"):
        ticket = await svc.submit(request)
        outcome.admitted = time.perf_counter()
        outcome.response = await svc.result(ticket)
        outcome.answered = time.perf_counter()
        if outcome.response.ok:
            async for _block in svc.stream(ticket, chunk=STREAM_CHUNK):
                pass
    outcome.done = time.perf_counter()


async def _serve(workload, path: Path, seconds: float, tracer, setup_only: bool) -> dict:
    asyncio.get_running_loop().set_default_executor(
        ThreadPoolExecutor(max_workers=len(os.sched_getaffinity(0)))
    )
    expect = workload.expectations(path)
    schedule = json.loads((path / "schedule.json").read_text())
    gc.collect()
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    svc = repro.serve.JoinService(repro.serve.ServeConfig())
    # started outside any op, so the dispatcher's spans belong to no request
    await svc.start()
    try:
        with _op(tracer, "setup"):
            for name in workload.datasets:
                svc.register_dataset(name, repro.io.load_dataset(path / f"{name}.npy"))
            warm = [
                (kind, await svc.run(workload.request(kind, "warm-up")))
                for kind in workloads.SERVE_MIX
            ]
        setup_s = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
        exact = {"serve.schedule": hashlib.sha256(json.dumps(schedule).encode()).hexdigest()}
        setup_ok = True
        for kind, response in warm:
            ok, counts = workload.check(kind, response, expect)
            setup_ok = setup_ok and ok
            exact.update(counts)
        del warm
        reference = Reference()
        for _ in range(SETUP_REFS):
            reference()
        report = {
            "setup_s": setup_s * scale(reference.times),
            "setup_ok": setup_ok,
            "exact": exact,
        }
        if setup_only:
            return report

        # the schedule runs in segments, each drained before the reference
        # is timed after it, so every latency scales by the references
        # around its segment; traced, the later half of the segments runs
        # wrapped, so the earlier half measures the same load untraced
        bounds = [round(k * len(schedule) / SERVE_SEGMENTS) for k in range(SERVE_SEGMENTS + 1)]
        half = bounds[SERVE_SEGMENTS // 2] if tracer is not None else len(schedule)
        measured_from = 0.0
        before = svc.cache.stats
        outcomes, factors = [], []
        for lo, hi in zip(bounds, bounds[1:]):
            if lo == half:
                tracer.install()
                measured_from = time.perf_counter()
            base = time.perf_counter() + 0.05 - schedule[lo][0]
            tasks = []
            for i in range(lo, hi):
                due, kind, tenant = schedule[i]
                delay = base + due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                outcomes.append(_Outcome(i, kind, base + due))
                request = workload.request(kind, tenant)
                tasks.append(asyncio.create_task(_request(svc, tracer, outcomes[-1], request)))
            await asyncio.gather(*tasks)
            reference()
            factors += [scale(reference.times[-2:])] * (hi - lo)
        after = svc.cache.stats
    finally:
        await svc.stop()
        if tracer is not None:
            tracer.uninstall()

    for o in outcomes:
        ok, counts = workload.check(o.kind, o.response, expect)
        o.ok = ok and all(exact.get(key) == value for key, value in counts.items())
    latencies = [o.latency * factor for o, factor in zip(outcomes, factors)]
    report.update(
        attempted=len(outcomes),
        failed=sum(not o.ok for o in outcomes),
        op_p50_s=statistics.median(latencies),
        peak_rss_mb=_peak_rss_mb(),
    )
    if tracer is None:
        return report

    traced = outcomes[half:]
    served = [o for o in traced if o.ok]
    knn = [
        latency
        for o, latency in zip(outcomes, latencies)
        if workloads.SERVE_MIX[o.kind][1].get("kind") == "knn"
    ]
    lookups = after.lookups - before.lookups
    extra = {
        "host.ref_s": statistics.median(reference.times),
        "result.pairs": statistics.median(o.response.num_pairs for o in served),
        "runtime.knn_rounds": exact.get("runtime.knn_rounds", 0),
        "serve.queue_wait_s": statistics.median(
            o.response.queue_seconds - (o.admitted - o.sent) for o in served
        ),
        "serve.execute_s": statistics.median(o.response.execute_seconds for o in served),
        "serve.stream_s": statistics.median(o.done - o.answered for o in served),
        "serve.cache_hit_frac": (after.hits - before.hits) / lookups if lookups else 0.0,
        "loadgen.late_max_s": max(o.sent - o.due for o in outcomes),
        "op_p90_s": statistics.quantiles(latencies, n=10)[-1],
        "knn_p50_s": statistics.median(knn) if knn else 0.0,
        "goodput_rps": sum(o.ok and o.latency <= workloads.LATENCY_LIMIT_S for o in outcomes)
        / seconds,
        "trace.overhead_frac": statistics.median(latencies[half:])
        / statistics.median(latencies[:half])
        - 1.0,
        "trace.uncovered_s": statistics.median(
            o.latency
            - o.response.queue_seconds
            - o.response.execute_seconds
            - (o.done - o.answered)
            for o in served
        ),
    }
    requests = {f"r{o.index}" for o in traced}
    report["layers"] = _layers(
        workload,
        tracer,
        measured_from=measured_from,
        keep=lambda key: "#" in key or key in requests,
        extra=extra,
    )
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="One measured process of the benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    if isinstance(workload, workloads.ServeMixed):
        report = asyncio.run(_serve(workload, args.inputs, args.seconds, tracer, args.setup_only))
    else:
        report = _batch(workload, args.inputs, args.seconds, tracer, args.setup_only)
    if tracer is not None and args.trace_out is not None:
        args.trace_out.parent.mkdir(parents=True, exist_ok=True)
        args.trace_out.write_text(json.dumps([dataclasses.asdict(s) for s in tracer.spans]))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
