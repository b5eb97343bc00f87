"""Outside-in span tracing for the benchmark's traced run.

The program carries no tracing of its own, so the traced run wraps the
functions at each layer boundary from the outside. :data:`WRAPS` is the
one table of those wraps: a span name and the dotted names its callers
look up. Most callers bind these names with ``from … import``, so a wrap
replaces the *caller's* copy (``repro.runtime.runner.execute_shard_native``),
not the defining module's.

Spans stay in memory until the run ends. Each records its name, start,
end, parent span and op id. The current span lives in a context variable,
so the span stack is per thread and per asyncio task, and a worker started
by ``asyncio.to_thread`` inherits the span that awaits it. Spans started
by the service's dispatcher carry no op id; they are grouped by their root
span and the plan's op kind instead.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

__all__ = [
    "Span",
    "Tracer",
    "WRAPS",
    "Wrap",
    "WrapTargetError",
    "op_layers",
    "resolve",
    "self_times",
]


class WrapTargetError(LookupError):
    """A wrap target is missing, or a wrapper could not time it."""


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    op: str | None
    kind: str | None = None
    end: float | None = None
    counts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Wrap:
    """One layer boundary: the span it records and the names callers look up.

    ``name`` and ``kind`` derive the span name and the plan's op kind from
    the call's arguments; ``before`` runs ahead of the call and hands its
    value to ``count``, which turns the finished call into counters on the
    span (outside the timed interval).
    """

    span: str
    targets: tuple[str, ...]
    name: Callable | None = None
    kind: Callable | None = None
    before: Callable | None = None
    count: Callable | None = None


def _plan_span(args) -> str:
    return "runtime.knn_driver" if args[1].expansion_stage is not None else "runtime.run"


#: span name -> the dotted names its callers look up
WRAPS: tuple[Wrap, ...] = (
    Wrap("io.load", ("repro.io.load_dataset",)),
    Wrap(
        "grid.build",
        ("repro.grid.index.GridIndex.__init__",),
        count=lambda a, k, r, s: {"cells": a[0].num_nonempty_cells},
    ),
    Wrap(
        "grid.neighbor_ranks",
        (
            "repro.runtime.native.neighbor_ranks_for_offset",
            "repro.core.sortbywl.neighbor_ranks_for_offset",
            "repro.grid.query.neighbor_ranks_for_offset",
        ),
    ),
    Wrap(
        "core.sortbywl",
        ("repro.runtime.native.sort_by_workload", "repro.runtime.ops.sort_by_workload"),
    ),
    Wrap(
        "core.estimate",
        (
            "repro.runtime.ops.estimate_result_size_detailed",
            "repro.runtime.ops.bipartite_neighbor_counts",
            "repro.serve.admission.estimate_result_size_detailed",
            "repro.serve.admission.bipartite_neighbor_counts",
        ),
    ),
    Wrap("core.run_batches", ("repro.core.executor.DeviceExecutor.run_batches",)),
    Wrap("runtime.compile", ("repro.runtime.plan.compile_join",), kind=lambda a: a[0].kind),
    Wrap("runtime.native", ("repro.runtime.runner.execute_shard_native",)),
    Wrap(
        "runtime.run",
        ("repro.runtime.runner.Runner.run", "repro.runtime.runner.Runner.resume"),
        name=_plan_span,
        kind=lambda a: a[1].op.kind,
        count=lambda a, k, r, s: {"pairs": r.num_pairs},
    ),
    Wrap("multigpu.plan_shards", ("repro.multigpu.sharding.plan_shards",)),
    Wrap("multigpu.merge", ("repro.multigpu.merge.merge_shard_results",)),
    Wrap(
        "resilience.journal_write",
        ("repro.resilience.checkpoint.RunJournal.save_shard",),
        before=lambda a, k: a[0].stats.bytes_written,
        count=lambda a, k, r, s: {"bytes": a[0].stats.bytes_written - s},
    ),
    Wrap(
        "resilience.journal_read",
        ("repro.resilience.checkpoint.RunJournal.load_completed",),
        before=lambda a, k: a[0].stats.loads,
        count=lambda a, k, r, s: {"loads": a[0].stats.loads - s},
    ),
    Wrap("serve.admit", ("repro.serve.service.JoinService.submit",)),
)


def resolve(dotted: str):
    """``(owner, attribute, original)`` for a module or class attribute.

    The attribute must be defined on the owner itself, not inherited, so a
    wrap replaces exactly the binding its callers look up.
    """
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name, None)
        if owner is not None and parts[-1] in vars(owner):
            return owner, parts[-1], vars(owner)[parts[-1]]
        break
    raise WrapTargetError(f"wrap target {dotted!r} not found")


class Tracer:
    """Records spans in memory; installs and removes the :data:`WRAPS`."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        self._op = contextvars.ContextVar("perfbench_op", default=None)
        self._installed: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def op(self, op_id: str):
        """Spans started in this context, and in threads it starts, belong to ``op_id``."""
        token = self._op.set(op_id)
        try:
            yield
        finally:
            self._op.reset(token)

    @contextlib.contextmanager
    def span(self, name: str, *, kind: str | None = None):
        s = Span(name, self.clock(), self._current.get(), self._op.get(), kind)
        with self._lock:
            sid = len(self.spans)
            self.spans.append(s)
        token = self._current.set(sid)
        try:
            yield s
        finally:
            s.end = self.clock()
            self._current.reset(token)

    # ------------------------------------------------------------------
    def install(self, wraps: tuple[Wrap, ...] = WRAPS) -> None:
        """Wrap every target, or none: all targets resolve before any wrap."""
        found = []
        for wrap in wraps:
            for dotted in wrap.targets:
                owner, attr, original = resolve(dotted)
                if inspect.isgeneratorfunction(original) or inspect.isasyncgenfunction(original):
                    raise WrapTargetError(
                        f"{dotted} is a generator function: it returns before doing "
                        "any work, so a wrapper would time nothing"
                    )
                if not inspect.isfunction(original):
                    raise WrapTargetError(f"{dotted} is not a plain function")
                found.append((owner, attr, original, wrap))
        for owner, attr, original, wrap in found:
            setattr(owner, attr, self._wrapper(original, wrap))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrapper(self, original, wrap: Wrap):
        def open_span(args):
            name = wrap.name(args) if wrap.name is not None else wrap.span
            kind = wrap.kind(args) if wrap.kind is not None else None
            return self.span(name, kind=kind)

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def traced_async(*args, **kwargs):
                state = wrap.before(args, kwargs) if wrap.before is not None else None
                with open_span(args) as s:
                    result = await original(*args, **kwargs)
                if wrap.count is not None:
                    s.counts.update(wrap.count(args, kwargs, result, state))
                return result

            return traced_async

        @functools.wraps(original)
        def traced(*args, **kwargs):
            state = wrap.before(args, kwargs) if wrap.before is not None else None
            with open_span(args) as s:
                result = original(*args, **kwargs)
            if wrap.count is not None:
                s.counts.update(wrap.count(args, kwargs, result, state))
            return result

        return traced


# ----------------------------------------------------------------------
def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    lo = hi = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if hi is None or start > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = start, end
        else:
            hi = max(hi, end)
    if hi is not None:
        total += hi - lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.end is None:
            raise ValueError(f"span {s.name!r} never ended")
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        inside = [(max(spans[c].start, s.start), min(spans[c].end, s.end)) for c in children[i]]
        out.append((s.end - s.start) - _covered(inside))
    return out


def op_layers(spans: list[Span], *, measured_from: float) -> dict[str, dict[str, dict]]:
    """Per op: ``{op: {span name: {"self_s", "calls", counters…}}}``.

    A span belongs to the op id it started under. A span without one
    (started by the service's dispatcher) belongs to its root span, keyed
    by the plan's op kind, or to op ``"setup"`` when that root started
    before ``measured_from``.
    """
    selfs = self_times(spans)
    roots: list[int] = []
    for i, s in enumerate(spans):
        roots.append(i if s.parent is None else roots[s.parent])
    ops: dict[str, dict[str, dict]] = defaultdict(dict)
    for i, s in enumerate(spans):
        root = spans[roots[i]]
        if s.op is not None:
            key = s.op
        elif root.start < measured_from:
            key = "setup"
        else:
            key = f"{root.kind or root.name}#{roots[i]}"
        row = ops[key].setdefault(s.name, {"self_s": 0.0, "calls": 0})
        row["self_s"] += selfs[i]
        row["calls"] += 1
        for counter, value in s.counts.items():
            row[counter] = row.get(counter, 0) + value
    return dict(ops)
