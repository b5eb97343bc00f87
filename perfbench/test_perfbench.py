"""Self-tests of the benchmark's own machinery.

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import asyncio
import sys
import types

import numpy as np
import pytest

import oracle
import reference
import spans
import workloads
from repro.baselines.bruteforce import brute_force_pairs


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def synthetic(monkeypatch):
    """A throwaway module whose functions only advance a fake clock."""
    clock = FakeClock()
    mod = types.ModuleType("perfbench_synthetic")

    def inner():
        clock.advance(5.0)

    def outer():
        clock.advance(1.0)
        mod.inner()
        clock.advance(2.0)

    async def submit():
        await asyncio.to_thread(mod.inner)

    def blocks():
        yield clock.advance(1.0)

    mod.inner, mod.outer, mod.submit, mod.blocks = inner, outer, submit, blocks
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return mod, clock


def _wraps(*names):
    return tuple(spans.Wrap(name, (f"perfbench_synthetic.{name}",)) for name in names)


def _traced(tracer, wraps, op_id, call):
    tracer.install(wraps)
    try:
        with tracer.op(op_id):
            call()
    finally:
        tracer.uninstall()
    return spans.op_layers(tracer.spans, measured_from=0.0)[op_id]


def test_nested_call_gets_its_self_time(synthetic):
    mod, clock = synthetic
    original = mod.outer
    layers = _traced(spans.Tracer(clock=clock), _wraps("outer", "inner"), "op0", lambda: mod.outer())
    assert layers["outer"]["self_s"] == 3.0
    assert layers["inner"]["self_s"] == 5.0
    assert mod.outer is original


def test_thread_span_nests_under_the_awaiting_coroutine(synthetic):
    mod, clock = synthetic
    tracer = spans.Tracer(clock=clock)
    layers = _traced(
        tracer, _wraps("submit", "inner"), "r0", lambda: asyncio.run(mod.submit())
    )
    submit, inner = tracer.spans
    assert inner.parent == 0 and inner.op == submit.op == "r0"
    assert layers["submit"]["self_s"] == 0.0 and layers["inner"]["self_s"] == 5.0


def test_missing_wrap_target_fails_and_wraps_nothing(synthetic):
    mod, _ = synthetic
    original = mod.outer
    with pytest.raises(spans.WrapTargetError, match="not found"):
        spans.Tracer().install(_wraps("outer", "absent"))
    assert mod.outer is original


def test_generator_wrap_target_fails(synthetic):
    with pytest.raises(spans.WrapTargetError, match="generator"):
        spans.Tracer().install(_wraps("blocks"))
    blocks = spans.Wrap("grid.blocks", ("repro.grid.bipartite.iter_bipartite_blocks",))
    with pytest.raises(spans.WrapTargetError, match="generator"):
        spans.Tracer().install((blocks,))


def test_benchmark_wraps_resolve_and_come_off_again():
    targets = [target for wrap in spans.WRAPS for target in wrap.targets]
    originals = [spans.resolve(target)[2] for target in targets]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(spans.resolve(t)[2] is not o for t, o in zip(targets, originals))
    finally:
        tracer.uninstall()
    assert all(spans.resolve(t)[2] is o for t, o in zip(targets, originals))


def test_checksum_catches_a_dropped_and_a_duplicated_pair():
    pairs = np.random.default_rng(0).integers(0, 10_000, size=(5000, 2))
    rows, checksum = oracle.pair_checksum([pairs])
    assert oracle.pair_checksum([pairs[::-1]]) == (rows, checksum)
    assert oracle.pair_checksum([pairs[:1234], pairs[1234:]]) == (rows, checksum)
    dropped = np.delete(pairs, 17, axis=0)
    assert oracle.pair_checksum([dropped])[1] != checksum
    assert oracle.pair_checksum([np.vstack([pairs, pairs[17:18]])])[1] != checksum
    # one pair dropped and another duplicated keeps the count, not the checksum
    swapped = oracle.pair_checksum([np.vstack([dropped, pairs[18:19]])])
    assert swapped[0] == rows and swapped[1] != checksum


def test_oracle_matches_brute_force():
    rng = np.random.default_rng(1)
    points = rng.uniform(0.0, 1.0, size=(400, 2))
    queries = rng.uniform(0.0, 1.0, size=(150, 2))
    rows, checksum = oracle.pair_checksum([brute_force_pairs(points, 0.08)])
    assert oracle.self_join(points, 0.08) == {"pairs": rows, "checksum": checksum}
    d2 = ((queries[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1)
    rows, checksum = oracle.pair_checksum([np.argwhere(d2 <= 0.08**2)])
    assert oracle.similarity_join(queries, points, 0.08) == {"pairs": rows, "checksum": checksum}


def test_reference_scaling_cancels_a_change_of_host_speed():
    # the same op, first on the reference host, last on one 1.5 times slower
    refs = [reference.REF_S, reference.REF_S, 1.5 * reference.REF_S, 1.5 * reference.REF_S]
    first, _, last = reference.scaled([1.0, 1.2, 1.5], refs)
    assert first == pytest.approx(1.0) and last == pytest.approx(1.0)
    with pytest.raises(ValueError, match="reference times"):
        reference.scaled([1.0, 1.2, 1.5], refs[:-1])


def test_serve_schedule_is_seeded():
    schedule = workloads.serve_schedule(3, 15)
    assert schedule == workloads.serve_schedule(3, 15)
    assert schedule != workloads.serve_schedule(4, 15)
    dues = [due for due, _, _ in schedule]
    assert dues == sorted(dues) and 0.0 <= dues[0] and dues[-1] < 15
    kinds = [kind for _, kind, _ in schedule]
    for kind, (share, _) in workloads.SERVE_MIX.items():
        assert abs(kinds.count(kind) - share * len(schedule)) < 1
