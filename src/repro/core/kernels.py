"""The self-join GPU kernels, written against the SIMT VM.

One kernel body covers the whole optimization space (the CUDA original is
likewise a single templated kernel): the :class:`KernelArgs` bundle decides
the access pattern, the thread-per-query granularity ``k``, and whether the
query point comes from the static batch mapping or the work-queue's atomic
counter. Each thread:

1. resolves its query point (static ``tid → batch`` mapping, Figure 1, or a
   cooperative-group queue fetch, Figure 8);
2. scans its own cell — one direction of emission, candidates strided over
   the ``k`` threads of the query;
3. walks the pattern's neighbor cells, refining candidates and emitting
   mirrored pairs for the half-patterns (UNICOMP / LID-UNICOMP).

All distances are actually computed: the VM kernels return the exact result
pair set while the trace records the cycle costs the performance model
reasons about.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.granularity import split_candidates
from repro.core.patterns import get_pattern_plan, pattern_cells_for_query
from repro.core.workqueue import fetch_query_slot
from repro.grid import GridIndex
from repro.grid.query import candidate_blocks, epsilon_filter, point_slots, within_epsilon
from repro.simt import AtomicCounter, ThreadContext
from repro.simt.vectorized import (
    BulkKernelResult,
    BulkLaunch,
    LabelCharges,
    register_bulk_kernel,
)
from repro.util import stable_argsort

__all__ = ["KernelArgs", "selfjoin_bulk", "selfjoin_kernel"]


@dataclass
class KernelArgs:
    """Device-side arguments of one self-join batch kernel."""

    index: GridIndex
    batch: np.ndarray  # point ids this batch serves (static mapping order)
    k: int = 1
    pattern: str = "full"
    include_self: bool = True
    # work-queue state (None => static mapping)
    queue_counter: AtomicCounter | None = None
    queue_order: np.ndarray | None = None  # D': workload-sorted point ids

    def __post_init__(self):
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
        """Launch width: k threads per query point of the batch."""
        return len(self.batch) * self.k


def _refine_and_emit(
    ctx: ThreadContext,
    args: KernelArgs,
    q: int,
    candidates: np.ndarray,
    *,
    mirror: bool,
) -> None:
    """Distance-refine ``candidates`` against query ``q`` and emit hits."""
    index = args.index
    ctx.charge_candidates(len(candidates), index.ndim)
    if len(candidates) == 0:
        return
    hit = candidates[within_epsilon((index.points[candidates] - index.points[q]).T, index.epsilon)]
    if not args.include_self:
        hit = hit[hit != q]
    if len(hit) == 0:
        return
    qcol = np.full(len(hit), q, dtype=np.int64)
    pairs = np.stack([qcol, hit], axis=1)
    if mirror:
        pairs = np.concatenate([pairs, pairs[:, ::-1]], axis=0)
    ctx.emit_pairs(pairs)


def selfjoin_kernel(ctx: ThreadContext, args: KernelArgs) -> None:
    """One thread of the self-join kernel (Algorithm 1, with Section III
    optimizations selected by ``args``)."""
    k = args.k
    if ctx.tid >= args.num_threads:
        return  # guard thread beyond the batch, as in Algorithm 1 line 3

    if args.uses_queue:
        # Section III-D: the query point comes from the persistent queue.
        # With k > 1 a cooperative group of k threads shares one fetch.
        slot = fetch_query_slot(ctx, k, args.queue_counter)
        if slot >= len(args.queue_order):
            return  # queue drained (tail batch)
        q = int(args.queue_order[slot])
    else:
        q = int(args.batch[ctx.tid // k])
    r = ctx.tid % k  # this thread's stride offset within the query's group

    ctx.charge_setup()
    index = args.index
    cell_rank = index.cell_of_point(q)

    # Own cell: single-direction emission (the symmetric pair is produced
    # by the candidate's own thread group). Candidates are strided over the
    # k threads along the query's *flat* candidate stream — `offset` tracks
    # the stream position across cells so the k shares stay within one
    # candidate of each other (Figure 4(b) generalized to many cells).
    offset = 0
    ctx.charge_cell_visit()
    own = index.points_in_cell(cell_rank)
    mine, offset = split_candidates(own, k, r, offset)
    _refine_and_emit(ctx, args, q, mine, mirror=False)

    # Pattern cells: mirrored emission for the half-patterns.
    mirror = args.pattern != "full"
    _, ranks = pattern_cells_for_query(args.pattern, index, cell_rank)
    for rank in ranks:
        ctx.charge_cell_visit()  # probing an empty neighbor still costs
        if rank < 0:
            continue
        cand = index.points_in_cell(int(rank))
        mine, offset = split_candidates(cand, k, r, offset)
        _refine_and_emit(ctx, args, q, mine, mirror=mirror)


# ----------------------------------------------------------------------
# Bulk-lane (vectorized) form of the kernels above.
#
# The interpreter's per-thread work decomposes into pure functions of
# candidate counts, cell visits and the warp issue order, so an entire
# launch can be evaluated with array operations (see
# repro.simt.vectorized for the contract). The pieces below are shared
# with the bipartite kernel's bulk form in repro.core.join.


def resolve_bulk_queries(launch: BulkLaunch, args) -> tuple:
    """Per-group query resolution for a bulk launch, static or WORKQUEUE.

    Works for any args bundle exposing ``k``, ``num_threads``,
    ``uses_queue``, ``batch``, ``queue_counter`` and ``queue_order``.
    Returns ``(issue_pos, n_active, groups, q_of_group, live, charges)``:

    - ``n_active`` — threads that pass the launch-width guard;
    - ``groups`` — number of query groups with at least one active thread;
    - ``q_of_group`` / ``live`` — the query id each group serves, with
      ``live=False`` for groups whose queue fetch came back drained;
    - ``charges`` — the fetch-protocol charges ("atomic" for leaders,
      "shfl" for followers), empty for the static mapping.

    Under the queue the counter is advanced by one ``fetch_add`` per group
    leader (via :meth:`~repro.simt.AtomicCounter.fetch_add_bulk`) and the
    slot each group receives is its leader's rank in warp issue order —
    the closed form of the interpreter's in-order fetch sequence.
    """
    k = args.k
    width = launch.num_threads
    n_active = min(width, args.num_threads)
    issue_pos = launch.issue_positions()
    groups = -(-n_active // k) if n_active else 0
    charges: dict[str, LabelCharges] = {}

    if not args.uses_queue:
        q_of_group = args.batch[:groups]
        live = np.ones(groups, dtype=bool)
        return issue_pos, n_active, groups, q_of_group, live, charges

    if k > 1:
        # the interpreter raises these through ThreadContext.coop_group /
        # CoopGroupTable.group_for; same launch misconfiguration, same error
        if not launch.coop_groups:
            raise RuntimeError("launch has no cooperative-group table")
        if launch.warp_size % k != 0:
            raise ValueError(
                f"group size {k} must evenly divide the warp size {launch.warp_size}"
            )

    leaders = np.arange(groups, dtype=np.int64) * k
    fetch_rank = np.empty(groups, dtype=np.int64)
    fetch_rank[np.argsort(issue_pos[leaders])] = np.arange(groups, dtype=np.int64)
    start = args.queue_counter.fetch_add_bulk(groups)
    slots = start + fetch_rank
    live = slots < len(args.queue_order)
    q_of_group = np.full(groups, -1, dtype=np.int64)
    if live.any():
        q_of_group[live] = args.queue_order[slots[live]]

    tids = np.arange(n_active, dtype=np.int64)
    is_leader = tids % k == 0
    atomic = np.zeros(width, dtype=np.float64)
    atomic_p = np.zeros(width, dtype=bool)
    atomic_p[tids[is_leader]] = True
    atomic[atomic_p] = launch.costs.c_atomic
    charges["atomic"] = LabelCharges(atomic, atomic_p)
    if k > 1:
        shfl = np.zeros(width, dtype=np.float64)
        shfl_p = np.zeros(width, dtype=bool)
        shfl_p[tids[~is_leader]] = True
        shfl[shfl_p] = launch.costs.c_shfl
        charges["shfl"] = LabelCharges(shfl, shfl_p)
    return issue_pos, n_active, groups, q_of_group, live, charges


class BulkEmitter:
    """Accumulates candidate stages of a bulk launch.

    A *stage* is one cell per query group (the own cell, or one pattern
    offset's neighbor). Each :meth:`process_stage` call walks the stage's
    cells as slot runs (positions in ``index.point_order``, from
    :func:`~repro.grid.query.candidate_blocks`), refines them with the
    launch's one ε filter, tallies per-thread distance and emission
    charges, and records the hits keyed so that :meth:`pairs` can
    reconstruct the interpreter's exact buffer order: threads by warp
    issue position, a thread's stages in traversal order, forward hits
    before their mirrors, candidates in cell order.

    The filter reads each query through its ``q_keys`` entry: the query's
    slot when the queries are the index's own points, or its row of
    ``queries`` (a bipartite kernel's query rows).
    """

    def __init__(
        self,
        index: GridIndex,
        issue_pos: np.ndarray,
        n_active: int,
        k: int,
        width: int,
        *,
        queries: np.ndarray | None = None,
        include_self: bool = True,
    ):
        self.index = index
        self.issue_pos = issue_pos
        self.n_active = n_active
        self.k = k
        self.width = width
        self.include_self = include_self
        own = queries is None
        self.keep = epsilon_filter(
            index.points if own else queries,
            index.points,
            index.epsilon,
            order=index.point_order,
            left_ids=not own,
        )
        self.dist_counts = np.zeros(width, dtype=np.int64)
        self.emit_counts = np.zeros(width, dtype=np.int64)
        # point ids fit int32 at simulator scale; halving record width
        # halves the reorder's memory traffic
        self._idx_dtype = (
            np.int32 if max(index.num_points, width) < 2**31 else np.int64
        )
        self._records: list[tuple] = []

    def process_stage(
        self,
        group_ids: np.ndarray,
        q_ids: np.ndarray,
        q_keys: np.ndarray,
        cell_ranks: np.ndarray,
        flat_base: np.ndarray,
        *,
        mirror: bool,
    ) -> None:
        """Refine one cell per selected query group.

        ``group_ids``/``q_ids``/``q_keys``/``cell_ranks``/``flat_base``
        are aligned arrays over the groups that visit a non-empty cell at
        this stage: ``q_ids`` are the ids the groups emit, ``q_keys`` what
        the filter reads (see the class docstring), and ``flat_base`` each
        query's flat candidate-stream position on entry (the strided k-way
        split keys off it).

        Callers must invoke stages in every thread's traversal order (own
        cell first, then pattern offsets ascending) — :meth:`pairs`
        reconstructs buffer order from push order.
        """
        index, k = self.index, self.k
        starts = index.cell_starts.take(cell_ranks)
        lengths = index.cell_counts.take(cell_ranks)
        rows = np.arange(len(cell_ranks), dtype=np.int64)
        lead = group_ids * k
        # a candidate's flat stream position is its slot plus this shift
        shift = flat_base - starts
        # threads beyond the launch width never ran in the interpreter:
        # their candidates are neither refined nor charged
        guard = int(group_ids[-1]) * k + k - 1 >= self.n_active
        for qrow, slots in candidate_blocks(rows, starts, lengths):
            owner = lead.take(qrow)
            if k > 1:
                flat = shift.take(qrow)
                flat += slots
                owner += flat % k
            q_key = q_keys.take(qrow)
            hit = self.keep(q_key, slots)
            if guard:
                ran = owner < self.n_active
                self.dist_counts += np.bincount(owner[ran], minlength=self.width)
                hit &= ran
            else:
                self.dist_counts += np.bincount(owner, minlength=self.width)
            if not self.include_self:
                hit &= slots != q_key
            found = np.flatnonzero(hit)
            if not len(found):
                continue
            h_owner = owner.take(found)
            h_issue = self.issue_pos.take(h_owner)
            h_q = q_ids.take(qrow.take(found))
            h_cand = index.point_order.take(slots.take(found))
            self._push(h_issue, h_q, h_cand)
            per_hit = 1
            if mirror:
                self._push(h_issue, h_cand, h_q)
                per_hit = 2
            self.emit_counts += np.bincount(h_owner, minlength=self.width) * per_hit

    def _push(self, issue, left, right) -> None:
        rows = np.empty((len(issue), 2), dtype=self._idx_dtype)
        rows[:, 0] = left
        rows[:, 1] = right
        self._records.append((issue, rows))

    def pairs(self) -> np.ndarray:
        """All emitted pairs, in the interpreter's buffer order.

        Relies on the push-order invariant: stages are pushed in every
        thread's traversal order (own cell, then pattern offsets
        ascending; forward hits immediately before their mirrors) and each
        push lists a thread's hits in cell order. Buffer order is
        therefore a *stable* sort on issue position alone, which
        :func:`~repro.util.stable_argsort` runs as one plain sort of a
        unique int64 key: issue position in the high bits, push position
        in the low bits. The reorder is a single row gather.
        """
        if not self._records:
            return np.empty((0, 2), dtype=np.int64)
        issue = np.concatenate([rec[0] for rec in self._records])
        rows = np.concatenate([rec[1] for rec in self._records])
        return rows.take(stable_argsort(issue), axis=0)

    def charge(self, charges: dict[str, LabelCharges], dist_cost: float, emit_cost: float) -> None:
        """Fill the "dist" and "emit" charges from the tallied counts."""
        charges["dist"] = LabelCharges(
            self.dist_counts * dist_cost, self.dist_counts > 0
        )
        charges["emit"] = LabelCharges(
            self.emit_counts * emit_cost, self.emit_counts > 0
        )


def selfjoin_bulk(launch: BulkLaunch, args: KernelArgs) -> BulkKernelResult:
    """Array-level evaluation of a whole :func:`selfjoin_kernel` launch.

    Produces the same pairs (in buffer order), per-thread charges and
    queue-counter side effects as interpreting the kernel thread by thread
    — see :mod:`repro.simt.vectorized` for the contract and
    ``tests/simt/test_vectorized_engine.py`` for the proof.
    """
    index = args.index
    k = args.k
    width = launch.num_threads
    issue_pos, n_active, groups, q_of_group, live, charges = resolve_bulk_queries(
        launch, args
    )

    lg = np.flatnonzero(live)
    qs = q_of_group[lg]
    qcell = index.point_cell_rank[qs]
    plan = get_pattern_plan(args.pattern, index)

    # setup + cell-visit charges: identical for every thread of a live group
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

    visit_of_group = np.zeros(groups, dtype=np.int64)
    if len(lg):
        visit_of_group[lg] = 1 + plan.visited_counts()[qcell]
    cells = np.zeros(width, dtype=np.float64)
    cells[live_tids] = visit_of_group[live_tids // k] * launch.costs.c_cell
    charges["cells"] = LabelCharges(cells, present.copy())

    emitter = BulkEmitter(
        index, issue_pos, n_active, k, width, include_self=args.include_self
    )
    if len(lg):
        q_slots = point_slots(index, qs)
        flat_base = np.zeros(len(lg), dtype=np.int64)
        # own cell first, then the pattern offsets in ascending order: only
        # the live ones, as an offset whose neighbour is empty for every
        # cell yields no stage (its visits are charged by visited_counts)
        emitter.process_stage(lg, qs, q_slots, qcell, flat_base, mirror=False)
        flat_base += index.cell_counts.take(qcell)
        mirror = args.pattern != "full"
        for o in plan.live_offsets():
            _, nranks = plan.offset_visits(int(o), qcell)
            sel = np.flatnonzero(nranks >= 0)
            if not len(sel):
                continue
            ranks = nranks.take(sel)
            emitter.process_stage(
                lg.take(sel),
                qs.take(sel),
                q_slots.take(sel),
                ranks,
                flat_base.take(sel),
                mirror=mirror,
            )
            flat_base[sel] += index.cell_counts.take(ranks)

    emitter.charge(charges, launch.costs.dist_cost(index.ndim), launch.costs.c_emit)
    return BulkKernelResult(charges=charges, pairs=emitter.pairs())


register_bulk_kernel(selfjoin_kernel, selfjoin_bulk)
