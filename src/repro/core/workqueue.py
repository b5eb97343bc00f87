"""The WORKQUEUE (Section III-D): the device-side queue-fetch protocol.

The queue is "the equivalent of the head of a queue": a global counter over
the workload-sorted array D', persistent across all kernel invocations
(batches). Each query's thread group advances it once by an atomic add —
with ``k > 1``, via a cooperative group where only the leader performs the
atomic and shuffles the slot to the other members.

Because warps are issued in order and each fetch hands out the next-heaviest
query point, warps end up packed with similar workloads *and* executed from
most to least work — the two halves of the optimization.
"""

from __future__ import annotations

from repro.simt import AtomicCounter, ThreadContext

__all__ = ["fetch_query_slot"]


def fetch_query_slot(ctx: ThreadContext, k: int, counter: AtomicCounter) -> int:
    """Device-side queue fetch for one thread.

    Returns the slot (index into D') this thread's group will process. Every
    thread of the group must call this; with ``k > 1`` the group leader pays
    the atomic and the rest pay a shuffle.
    """
    if k > 1:
        group = ctx.coop_group(k)
        return group.leader_fetch_add(ctx, counter)
    return ctx.atomic_add(counter)

