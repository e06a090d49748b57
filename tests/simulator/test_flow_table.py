"""Unit tests for the structure-of-arrays FlowTable.

Covers the row-slot lifecycle (acquire / release / reuse / growth) under
arrive–finish–fail churn, the ownership contract (Flow properties read and
write the table row; a controller's state is copied in at acquire and back
at release), the per-class congestion-control dispatch, and the epoch
guard that keeps recycled slots from receiving a previous tenant's
in-flight feedback.
"""

import numpy as np
import pytest

from repro.congestion_control import DCQCN, FixedRate
from repro.congestion_control import make_cc_factory
from repro.routing import make_router_factory
from repro.simulator import (
    FlowDemand,
    FlowTable,
    FluidSimulation,
    RuntimeLink,
    RuntimeNetwork,
)
from repro.simulator.flow import Flow
from repro.topology.graph import LinkSpec


def make_flow(flow_id: int, cc=None, size_bytes: int = 1_000_000) -> Flow:
    demand = FlowDemand(
        flow_id=flow_id,
        src_dc="DC1",
        dst_dc="DC2",
        src_host=0,
        dst_host=1,
        size_bytes=size_bytes,
        arrival_s=0.0,
    )
    link = RuntimeLink(LinkSpec("A", "B", 1e9, 0.005, 1_000_000, True))
    cc = cc or FixedRate(1e9, 0.01)
    return Flow(demand, [link], cc, base_rtt_s=0.01)


class TestSlotLifecycle:
    def test_slots_are_stable_and_reused_lifo(self):
        table = FlowTable(capacity=4)
        flows = [make_flow(i) for i in range(3)]
        slots = [table.acquire(f) for f in flows]
        assert slots == [0, 1, 2]
        assert len(table) == 3

        table.release(flows[1])
        assert len(table) == 2
        assert table.flow_at(1) is None
        # the freed slot is handed to the next arrival
        newcomer = make_flow(99)
        assert table.acquire(newcomer) == 1
        assert table.flow_at(1) is newcomer

    def test_acquire_batch_equals_one_acquire_per_flow(self):
        """Free-list reuse, fresh slots and growth inside one batch hand
        out the slots and write the rows one acquire per flow would."""

        def fill(table, acquire):
            flows = [make_flow(i, cc=DCQCN(1e9, 0.01) if i % 2 else None) for i in range(6)]
            acquire(table, flows[:3])
            table.release(flows[0])
            table.release(flows[2])
            slots = acquire(table, flows[3:])
            assert [f._slot for f in flows[3:]] == slots
            return slots

        batched, single = FlowTable(capacity=2), FlowTable(capacity=2)
        assert fill(batched, FlowTable.acquire_batch) == [2, 0, 3]
        assert fill(single, lambda t, flows: [t.acquire(f) for f in flows]) == [2, 0, 3]
        assert batched.capacity == single.capacity
        for name in ("remaining_bytes", "base_rtt_s", "cc_rate_bps", "epoch", "cc_class_id"):
            assert np.array_equal(getattr(batched, name), getattr(single, name)), name
        for name in ("target", "p_line", "congested"):
            assert np.array_equal(
                getattr(batched.cc_block(DCQCN), name), getattr(single.cc_block(DCQCN), name)
            ), name

    def test_release_requires_occupancy(self):
        table = FlowTable(capacity=2)
        flow = make_flow(0)
        table.acquire(flow)
        table.release(flow)
        with pytest.raises(ValueError):
            table.release(flow)

    def test_growth_preserves_rows(self):
        table = FlowTable(capacity=2)
        flows = [make_flow(i, size_bytes=1000 * (i + 1)) for i in range(5)]
        for f in flows:
            table.acquire(f)
        assert table.capacity >= 5
        for i, f in enumerate(flows):
            assert table.remaining_bytes[f._slot] == 1000 * (i + 1)
            assert table.flow_at(f._slot) is f

    def test_churn_interleavings(self):
        """Arrive/finish/fail interleavings never alias two live flows."""
        table = FlowTable(capacity=2)
        rng = np.random.default_rng(42)
        live = []
        next_id = 0
        for _ in range(300):
            if live and rng.random() < 0.45:
                victim = live.pop(int(rng.integers(len(live))))
                table.release(victim)
            else:
                flow = make_flow(next_id, size_bytes=next_id + 1)
                next_id += 1
                table.acquire(flow)
                live.append(flow)
            # invariant: every live flow occupies its own slot and the
            # table sees exactly the live set
            assert len(table) == len(live)
            slots = {f._slot for f in live}
            assert len(slots) == len(live)
            for f in live:
                assert table.flow_at(f._slot) is f
                assert table.remaining_bytes[f._slot] == f.demand.flow_id + 1

    def test_epoch_bumps_on_reuse(self):
        table = FlowTable(capacity=2)
        first = make_flow(0)
        slot = table.acquire(first)
        epoch_first = int(table.epoch[slot])
        table.release(first)
        second = make_flow(1)
        assert table.acquire(second) == slot
        assert int(table.epoch[slot]) == epoch_first + 1
        # feedback addressed to the first tenant fails the epoch guard
        assert bool(table.feedback_live[slot])
        assert int(table.epoch[slot]) != epoch_first


class TestBoundViews:
    def test_flow_properties_are_table_resident_while_bound(self):
        table = FlowTable(capacity=2)
        flow = make_flow(0, size_bytes=5000)
        slot = table.acquire(flow)
        assert table.remaining_bytes[slot] == 5000
        flow.remaining_bytes = 1234.5
        assert table.remaining_bytes[slot] == 1234.5
        table.remaining_bytes[slot] = 99.0
        assert flow.remaining_bytes == 99.0
        flow.disrupted_s = 0.25
        assert table.disrupted_s[slot] == 0.25
        flow.disrupted_s = None
        assert np.isnan(table.disrupted_s[slot])

    def test_release_copies_final_values_back(self):
        table = FlowTable(capacity=2)
        flow = make_flow(0, size_bytes=5000)
        table.acquire(flow)
        flow.remaining_bytes = 0.0
        flow.achieved_bps = 3e9
        table.release(flow)
        assert flow._table is None
        assert flow.remaining_bytes == 0.0
        assert flow.achieved_bps == 3e9
        assert flow.completed

    def test_dcqcn_state_copied_in_at_acquire_and_back_at_release(self):
        table = FlowTable(capacity=2)
        cc = DCQCN(100e9, 0.05)
        flow = make_flow(0, cc=cc)
        slot = table.acquire(flow)
        block = table.cc_block(DCQCN)
        assert block.alpha[slot] == 1.0
        assert table.cc_rate_bps[slot] == 100e9
        # the kernels write the row; the object keeps its admission copy
        block.alpha[slot] = 0.5
        table.cc_rate_bps[slot] = 42e9
        block.stage[slot] = 7.0
        assert cc.alpha == 1.0
        table.release(flow)
        assert cc.alpha == 0.5
        assert cc.rate_bps == 42e9
        assert cc._increase_stage == 7

    def test_sending_rate_reads_the_row_while_bound(self):
        """Rerouting, failure handling and the scenario injector read a
        flow's rate through the flow on both cores."""
        table = FlowTable(capacity=2)
        cc = DCQCN(100e9, 0.05)
        flow = make_flow(0, cc=cc)
        slot = table.acquire(flow)
        table.cc_rate_bps[slot] = 42e9
        assert flow.sending_rate_bps == 42e9
        table.release(flow)
        assert flow.sending_rate_bps == cc.rate_bps == 42e9

    def test_class_id_column_tracks_live_fleet(self):
        table = FlowTable(capacity=4)
        dcqcn_flow = make_flow(0, cc=DCQCN(100e9, 0.05))
        fixed_flow = make_flow(1)
        table.acquire(dcqcn_flow)
        table.acquire(fixed_flow)
        ids = {int(table.cc_class_id[f._slot]) for f in (dcqcn_flow, fixed_flow)}
        assert ids == {0, 1}
        slot = dcqcn_flow._slot
        table.release(dcqcn_flow)
        assert table.cc_class_id[slot] == -1


def _spy(monkeypatch, calls):
    """Record every advance-kernel call as ``(class, rows)``."""
    for cc_cls in (DCQCN, FixedRate):
        original = cc_cls.advance_batch_slots.__func__

        def kernel(klass, table, slots, dt, now, _original=original):
            calls.append((klass, slots.copy()))
            _original(klass, table, slots, dt, now)

        monkeypatch.setattr(cc_cls, "advance_batch_slots", classmethod(kernel))


class TestClassDispatch:
    """One kernel call per class present, grouped by the class-id column."""

    def test_one_call_per_class_present(self, monkeypatch):
        table = FlowTable(capacity=4)
        dcqcn_flows = [make_flow(i, cc=DCQCN(100e9, 0.05)) for i in range(2)]
        fixed_flows = [make_flow(10 + i) for i in range(3)]
        for f in dcqcn_flows + fixed_flows:
            table.acquire(f)
        calls = []
        _spy(monkeypatch, calls)
        rows = np.array([f._slot for f in fixed_flows + dcqcn_flows], dtype=np.intp)
        assert table.advance_cc(rows, 1e-3, 0.0) == 2
        # classes in first-acquire order, each with exactly its own rows
        assert [cls for cls, _ in calls] == [DCQCN, FixedRate]
        assert calls[0][1].tolist() == [f._slot for f in dcqcn_flows]
        assert calls[1][1].tolist() == [f._slot for f in fixed_flows]
        # a batch holding only one class of a mixed table makes one call
        calls.clear()
        assert table.advance_cc(rows[:3], 1e-3, 0.0) == 1
        assert [cls for cls, _ in calls] == [FixedRate]

    def test_single_class_table_skips_grouping(self, monkeypatch):
        table = FlowTable(capacity=4)
        flows = [make_flow(i, cc=DCQCN(100e9, 0.05)) for i in range(4)]
        for f in flows:
            table.acquire(f)
        table.release(flows[1])
        table.cc_class_id[:] = 99  # never read for a single-class table
        calls = []
        _spy(monkeypatch, calls)
        rows = np.array([flows[3]._slot, flows[0]._slot], dtype=np.intp)
        assert table.advance_cc(rows, 1e-3, 0.0) == 1
        assert calls[0][0] is DCQCN
        assert calls[0][1].tolist() == rows.tolist()

    def test_groups_partition_rows_under_growth_and_churn(self, monkeypatch):
        table = FlowTable(capacity=2)
        rng = np.random.default_rng(3)
        live = []
        next_id = 0
        calls = []
        _spy(monkeypatch, calls)
        for _ in range(400):
            if live and rng.random() < 0.45:
                victim = live.pop(int(rng.integers(len(live))))
                table.release(victim)
            else:
                cc = DCQCN(100e9, 0.05) if next_id % 3 else FixedRate(1e9, 0.01)
                flow = make_flow(next_id, cc=cc)
                next_id += 1
                table.acquire(flow)
                live.append(flow)
            # invariant: the kernel calls partition the live rows by class
            calls.clear()
            rows = np.array([f._slot for f in live], dtype=np.intp)
            table.advance_cc(rows, 1e-3, 0.0)
            union = []
            for cc_cls, slots in calls:
                for slot in slots.tolist():
                    assert type(table.flow_at(slot).cc) is cc_cls
                union.extend(slots.tolist())
            assert sorted(union) == sorted(rows.tolist())


class TestSimulationChurn:
    def test_slot_reuse_under_simulated_churn(self, tiny_topology, tiny_pathset, quick_sim_config):
        """Staggered arrivals/completions force slot reuse mid-run and the
        run still completes every flow exactly once."""
        demands = [
            FlowDemand(i, "A", "B", i % 4, (i + 1) % 4, 2_000_000, 0.002 * i)
            for i in range(40)
        ]
        config = quick_sim_config.with_overrides(vectorized=True)
        network = RuntimeNetwork(
            tiny_topology, tiny_pathset, make_router_factory("ecmp"), config
        )
        sim = FluidSimulation(network, demands, make_cc_factory("dcqcn"), config)
        result = sim.run()
        assert result.unfinished_flows == 0
        assert sorted(r.flow_id for r in result.records) == list(range(40))
        # churn kept the table far smaller than the demand count
        assert sim._table.capacity < 256 + 1
        assert len(sim._table) == 0
