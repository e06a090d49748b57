"""Unit tests for the structure-of-arrays FlowTable.

Covers the row-slot lifecycle (acquire / release / reuse / growth) under
arrive–finish–fail churn, the bound-view semantics of Flow and DCQCN
(properties read and write the table row; release copies final values
back), and the epoch guard that keeps recycled slots from receiving a
previous tenant's in-flight feedback.
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

    def test_dcqcn_state_is_block_resident_while_bound(self):
        table = FlowTable(capacity=2)
        cc = DCQCN(100e9, 0.05)
        flow = make_flow(0, cc=cc)
        slot = table.acquire(flow)
        block = table.cc_block(DCQCN)
        assert block.alpha[slot] == 1.0
        assert table.cc_rate_bps[slot] == 100e9
        cc.alpha = 0.5
        cc.rate_bps = 42e9
        cc._increase_stage = 7
        assert block.alpha[slot] == 0.5
        assert table.cc_rate_bps[slot] == 42e9
        assert block.stage[slot] == 7.0
        table.release(flow)
        assert cc.alpha == 0.5
        assert cc.rate_bps == 42e9
        assert cc._increase_stage == 7

    def test_bound_and_unbound_dcqcn_stay_bitwise_identical(self):
        """The scalar methods produce identical state through the views."""
        table = FlowTable(capacity=2)
        bound_cc = DCQCN(100e9, 0.05)
        plain_cc = DCQCN(100e9, 0.05)
        flow = make_flow(0, cc=bound_cc)
        table.acquire(flow)
        from repro.simulator.flow import FeedbackSignal

        for step in range(50):
            signal = FeedbackSignal(step * 1e-3, 0.1 if step % 7 == 0 else 0.0, 0.5, 0.05, 0.0)
            bound_cc.on_feedback(signal, step * 1e-3)
            plain_cc.on_feedback(signal, step * 1e-3)
            bound_cc.on_interval(1e-3, step * 1e-3)
            plain_cc.on_interval(1e-3, step * 1e-3)
        assert bound_cc.rate_bps == plain_cc.rate_bps
        assert bound_cc.alpha == plain_cc.alpha
        assert bound_cc.target_rate_bps == plain_cc.target_rate_bps
        assert bound_cc._increase_stage == plain_cc._increase_stage

    def test_class_counts_track_live_fleet(self):
        table = FlowTable(capacity=4)
        dcqcn_flow = make_flow(0, cc=DCQCN(100e9, 0.05))
        fixed_flow = make_flow(1)
        table.acquire(dcqcn_flow)
        table.acquire(fixed_flow)
        assert table.class_counts == {DCQCN: 1, FixedRate: 1}
        table.release(dcqcn_flow)
        assert table.class_counts == {FixedRate: 1}


class TestClassRowRegistries:
    """Cached per-class row sets + the class-id column (grouped dispatch)."""

    def test_rows_tracked_per_class(self):
        table = FlowTable(capacity=4)
        dcqcn_flows = [make_flow(i, cc=DCQCN(100e9, 0.05)) for i in range(2)]
        fixed_flows = [make_flow(10 + i) for i in range(3)]
        for f in dcqcn_flows + fixed_flows:
            table.acquire(f)
        assert sorted(table.class_rows(DCQCN).tolist()) == sorted(
            f._slot for f in dcqcn_flows
        )
        assert sorted(table.class_rows(FixedRate).tolist()) == sorted(
            f._slot for f in fixed_flows
        )
        for f in dcqcn_flows:
            assert table.cc_class_at(int(table.cc_class_id[f._slot])) is DCQCN
        by_class = dict(table.rows_by_class())
        assert set(by_class) == {DCQCN, FixedRate}
        assert len(by_class[FixedRate]) == 3

    def test_swap_remove_keeps_registry_consistent(self):
        table = FlowTable(capacity=4)
        flows = [make_flow(i, cc=DCQCN(100e9, 0.05)) for i in range(4)]
        for f in flows:
            table.acquire(f)
        # remove from the middle: the registry swap-removes and repositions
        table.release(flows[1])
        assert sorted(table.class_rows(DCQCN).tolist()) == sorted(
            f._slot for f in (flows[0], flows[2], flows[3])
        )
        assert table.cc_class_id[1] == -1
        # the freed slot goes to a different class; registries stay disjoint
        newcomer = make_flow(99)
        slot = table.acquire(newcomer)
        assert slot == 1
        assert table.class_rows(FixedRate).tolist() == [1]
        assert 1 not in table.class_rows(DCQCN).tolist()

    def test_registry_survives_growth_and_churn(self):
        table = FlowTable(capacity=2)
        rng = np.random.default_rng(3)
        live = []
        next_id = 0
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
            # invariant: registries partition the live set exactly
            union = []
            for cc_cls, rows in table.rows_by_class():
                rows = rows.tolist()
                assert len(set(rows)) == len(rows)
                for slot in rows:
                    assert type(table.flow_at(slot).cc) is cc_cls
                    assert table.cc_class_at(int(table.cc_class_id[slot])) is cc_cls
                union.extend(rows)
            assert sorted(union) == sorted(f._slot for f in live)


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
