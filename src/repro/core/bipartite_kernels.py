"""Device-side kernels of the bipartite similarity join A ⋈_ε B.

The self-join's kernels live in :mod:`repro.core.kernels`; these are their
bipartite counterparts, split out of the facade module so the runtime's
operation strategies (:mod:`repro.runtime.ops`) can import them without
pulling in facade code:

- the ε-grid indexes the inner dataset B; queries come from A;
- the unidirectional patterns do **not** apply (they exploit the symmetry
  of the self-join's duplicate work, which a bipartite join does not
  have), so the access pattern is always the full ≤3**n probe;
- k-granularity, SORTBYWL and the WORKQUEUE carry over unchanged.

Result pairs are ``(a_index, b_index)`` — one direction only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.granularity import split_candidates
from repro.core.kernels import BulkEmitter, resolve_bulk_queries
from repro.core.workqueue import fetch_query_slot
from repro.grid import GridIndex
from repro.grid.query import within_epsilon
from repro.simt import AtomicCounter, ThreadContext
from repro.simt.vectorized import (
    BulkKernelResult,
    BulkLaunch,
    LabelCharges,
    register_bulk_kernel,
)
from repro.util import as_points_array

__all__ = ["BipartiteKernelArgs", "bipartite_bulk", "bipartite_kernel"]


@dataclass
class BipartiteKernelArgs:
    """Device-side arguments of one bipartite batch kernel."""

    index: GridIndex  # over B
    queries: np.ndarray  # A's coordinates
    batch: np.ndarray  # query ids this batch serves
    k: int = 1
    queue_counter: AtomicCounter | None = None
    queue_order: np.ndarray | None = None

    def __post_init__(self):
        self.queries = as_points_array(self.queries)
        self.batch = np.asarray(self.batch, dtype=np.int64)
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if (self.queue_counter is None) != (self.queue_order is None):
            raise ValueError("queue_counter and queue_order must be given together")

    @property
    def uses_queue(self) -> bool:
        return self.queue_counter is not None

    @property
    def num_threads(self) -> int:
        return len(self.batch) * self.k


def bipartite_kernel(ctx: ThreadContext, args: BipartiteKernelArgs) -> None:
    """One thread of the bipartite join kernel (full pattern, external
    queries, flat k-way candidate split)."""
    k = args.k
    if ctx.tid >= args.num_threads:
        return
    if args.uses_queue:
        slot = fetch_query_slot(ctx, k, args.queue_counter)
        if slot >= len(args.queue_order):
            return
        q = int(args.queue_order[slot])
    else:
        q = int(args.batch[ctx.tid // k])
    r = ctx.tid % k

    ctx.charge_setup()
    index = args.index
    query = args.queries[q]

    offset = 0
    inside, ranks = index.neighbors.probe_query(query)
    for rank in ranks[inside].tolist():  # in-grid probes, canonical order
        ctx.charge_cell_visit()
        if rank < 0:
            continue
        cand = index.points_in_cell(rank)
        mine, offset = split_candidates(cand, k, r, offset)
        ctx.charge_candidates(len(mine), index.ndim)
        if len(mine) == 0:
            continue
        hit = mine[within_epsilon((index.points[mine] - query).T, index.epsilon)]
        if len(hit):
            qcol = np.full(len(hit), q, dtype=np.int64)
            ctx.emit_pairs(np.stack([qcol, hit], axis=1))


def bipartite_bulk(launch: BulkLaunch, args: BipartiteKernelArgs) -> BulkKernelResult:
    """Array-level evaluation of a whole :func:`bipartite_kernel` launch.

    Same contract as :func:`repro.core.kernels.selfjoin_bulk`: identical
    pairs in buffer order, identical per-thread charges, identical queue
    side effects. The bipartite probe differs from the self-join in that
    queries live outside the index — their (unclamped) cell coordinates
    may fall outside the grid, so the probe set is the full 3**n offsets
    of :meth:`~repro.grid.neighbors.NeighborTable.probe`, bounds-checked per
    offset, rather than a :class:`~repro.core.patterns.PatternPlan`.
    """
    index = args.index
    k = args.k
    width = launch.num_threads
    issue_pos, n_active, groups, q_of_group, live, charges = resolve_bulk_queries(
        launch, args
    )

    lg = np.flatnonzero(live)
    qs = q_of_group[lg]

    tids = np.arange(n_active, dtype=np.int64)
    t_live = np.zeros(n_active, dtype=bool)
    if groups:
        t_live = live[tids // k]
    live_tids = tids[t_live]
    present = np.zeros(width, dtype=bool)
    present[live_tids] = True
    setup = np.zeros(width, dtype=np.float64)
    setup[present] = launch.costs.c_setup
    charges["setup"] = LabelCharges(setup, present)

    q_points = args.queries.take(qs, axis=0)
    emitter = BulkEmitter(index, issue_pos, n_active, k, width, queries=q_points)
    visits_of_group = np.zeros(groups, dtype=np.int64)
    if len(lg):
        flat_base = np.zeros(len(lg), dtype=np.int64)
        for inside, ranks in index.neighbors.probe(q_points):
            visits_of_group[lg[inside]] += 1  # in-bounds probes cost a visit
            sel = np.flatnonzero(ranks >= 0)
            if not len(sel):
                continue
            ranks = ranks.take(sel)
            # the filter reads each query by its row of q_points: sel itself
            emitter.process_stage(
                lg.take(sel), qs.take(sel), sel, ranks, flat_base.take(sel), mirror=False
            )
            flat_base[sel] += index.cell_counts.take(ranks)

    cells = np.zeros(width, dtype=np.float64)
    cells_p = np.zeros(width, dtype=bool)
    if len(live_tids):
        visit_counts = visits_of_group[live_tids // k]
        cells[live_tids] = visit_counts * launch.costs.c_cell
        cells_p[live_tids] = visit_counts > 0
    charges["cells"] = LabelCharges(cells, cells_p)

    emitter.charge(charges, launch.costs.dist_cost(index.ndim), launch.costs.c_emit)
    return BulkKernelResult(charges=charges, pairs=emitter.pairs())


register_bulk_kernel(bipartite_kernel, bipartite_bulk)
