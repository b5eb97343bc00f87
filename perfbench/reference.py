"""The host-speed reference the benchmark's times are expressed against.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over minutes while CPU time keeps tracking wall time: the
cores themselves run slower, so no amount of repetition inside one run
cancels it. Each measured process therefore also times a fixed computation
of its own, :class:`Reference`, between the program's ops, and reports the
program's times scaled by :func:`scale`: seconds on a host where the
reference takes :data:`REF_S`. A change to the program leaves the
reference untouched, so it moves the scaled time as much as the raw one; a
change in the host's speed moves both and cancels.

The reference mixes what the program's ops spend their time on: a sort,
a random gather and elementwise arithmetic over arrays larger than a
core's L2 cache, zlib compression (the journal) and a Python loop (the
SIMT VM's and the service's interpreter work).
"""

from __future__ import annotations

import statistics
import time
import zlib

import numpy as np

__all__ = ["REF_S", "Reference", "scale", "scaled"]

#: seconds one reference call took on the 2-core x86 host the benchmark was
#: tuned on; the unit of every reported time
REF_S = 0.18


class Reference:
    """A fixed, seeded computation whose time measures the host's speed."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.values = rng.random(1 << 19)
        self.index = rng.integers(0, len(self.values), 1 << 20, dtype=np.int32)
        self.blob = np.cumsum(rng.integers(0, 64, 1 << 17)).astype(np.int64).tobytes()
        #: seconds of every call so far
        self.times: list[float] = []

    def __call__(self) -> float:
        """Seconds one run of the reference takes now."""
        start = time.perf_counter()
        order = np.argsort(self.values, kind="stable")
        gathered = self.values[order][self.index]
        np.sqrt(np.diff(gathered) ** 2 + 1.0).sum()
        zlib.compress(self.blob, 6)
        total = 0
        for i in range(400_000):
            total += i * i % 7
        self.times.append(time.perf_counter() - start)
        return self.times[-1]


def scale(ref_times) -> float:
    """Factor that turns seconds measured next to ``ref_times`` into reference seconds."""
    return REF_S / statistics.median(ref_times)


def scaled(times, ref_times) -> list[float]:
    """Each of ``times`` in reference seconds.

    ``ref_times`` holds the reference time before each of ``times`` and
    after the last, so each time is scaled by the two references around
    it and a change of speed within a run cancels op by op.
    """
    if len(ref_times) != len(times) + 1:
        raise ValueError(f"{len(times)} times need {len(times) + 1} reference times")
    return [
        t * scale([before, after]) for t, before, after in zip(times, ref_times, ref_times[1:])
    ]
