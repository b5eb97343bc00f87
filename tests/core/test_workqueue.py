"""Unit tests for the work-queue protocol."""

from __future__ import annotations

from repro.core.workqueue import fetch_query_slot
from repro.simt import AtomicCounter, DeviceSpec, GpuMachine


def tiny_device():
    return DeviceSpec(num_sms=2, warps_per_sm_slot=1, warp_size=8)


class TestFetchQuerySlot:
    def test_k1_each_thread_gets_unique_slot(self):
        counter = AtomicCounter()
        slots = {}

        def kernel(ctx):
            slots[ctx.tid] = fetch_query_slot(ctx, 1, counter)

        GpuMachine(tiny_device()).launch(kernel, 16)
        assert sorted(slots.values()) == list(range(16))

    def test_k4_groups_share_slots(self):
        counter = AtomicCounter()
        slots = {}

        def kernel(ctx):
            slots[ctx.tid] = fetch_query_slot(ctx, 4, counter)

        GpuMachine(tiny_device()).launch(kernel, 16, coop_groups=True)
        for g in range(4):
            group_slots = {slots[4 * g + r] for r in range(4)}
            assert group_slots == {g}
        assert counter.num_ops == 4

    def test_fifo_hands_out_slots_in_warp_order(self):
        counter = AtomicCounter()
        slots = {}

        def kernel(ctx):
            slots[ctx.tid] = fetch_query_slot(ctx, 1, counter)

        GpuMachine(tiny_device(), issue_order="fifo").launch(kernel, 24)
        # thread t fetches slot t: most-work-first is preserved end to end
        assert all(slots[t] == t for t in range(24))

