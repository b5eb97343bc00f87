"""The cross-request index/plan cache of the serving layer.

Gowanlock & Karsin (arXiv:1809.09930) observe that for repeated range
queries against the same dataset, index construction dominates repeated-
query cost — so a serving layer must not rebuild the ε-grid per request.
:class:`SessionCache` keys built :class:`~repro.grid.GridIndex`\\ es by
``(dataset fingerprint, grid parameters)`` and serves them to every
subsequent request on the same registered dataset. The memoized
:class:`~repro.core.patterns.PatternPlan`\\ s ride along for free: they
live on ``index.plan_cache``, so a cache hit reuses the pattern geometry
too (every engine shares one copy per pattern). So do the neighbour
ranks: a cached index carries its :class:`~repro.grid.neighbors.NeighborTable`
(``index.neighbors``), whose per-offset ranks the estimator and the native
pass of earlier requests memoized, and the native self-join's candidate
runs once an order has been walked twice, within the index's own byte
budget. The join service's admission estimates are memoized on
``index.plan_cache`` too, so they are evicted with their index.

Eviction is LRU over a fixed entry budget; hits, misses and evictions are
counted for the :class:`~repro.profiling.ServiceReport`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.grid import GridIndex

__all__ = ["CacheStats", "SessionCache"]


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss accounting of one :class:`SessionCache` (a snapshot)."""

    hits: int
    misses: int
    evictions: int
    entries: int
    capacity: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0 when the cache was never consulted)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


class SessionCache:
    """LRU cache of built indexes, keyed by content + grid parameters.

    The key is ``(dataset_fingerprint, repr(epsilon))``: two requests
    share an entry iff they join byte-identical data under the same grid
    geometry — the exact invariant :meth:`GridIndex.fingerprint` pins.
    Thread-safe: the service reads it from the event loop and populates
    it from worker threads.
    """

    def __init__(self, capacity: int = 8):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: OrderedDict[tuple[str, str], GridIndex] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @staticmethod
    def key(dataset_fingerprint: str, epsilon: float) -> tuple[str, str]:
        return (dataset_fingerprint, repr(float(epsilon)))

    # ------------------------------------------------------------------
    def get(self, dataset_fingerprint: str, epsilon: float) -> GridIndex | None:
        """The cached index for this (dataset, ε), or ``None`` (counted)."""
        k = self.key(dataset_fingerprint, epsilon)
        with self._lock:
            index = self._entries.get(k)
            if index is None:
                self._misses += 1
                return None
            self._entries.move_to_end(k)
            self._hits += 1
            return index

    def put(self, dataset_fingerprint: str, epsilon: float, index: GridIndex) -> list:
        """Insert (or refresh) an entry; returns the evicted keys, if any."""
        k = self.key(dataset_fingerprint, epsilon)
        evicted = []
        with self._lock:
            self._entries[k] = index
            self._entries.move_to_end(k)
            while len(self._entries) > self.capacity:
                old_key, _ = self._entries.popitem(last=False)
                self._evictions += 1
                evicted.append(old_key)
        return evicted

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                entries=len(self._entries),
                capacity=self.capacity,
            )
