"""Tests for ideal-FCT computation and the FCT collector."""

import numpy as np
import pytest

from repro.congestion_control import FixedRate
from repro.simulator import FCTCollector, Flow, FlowDemand, IdealFctModel, RuntimeLink
from repro.topology import GBPS, MS
from repro.topology.graph import LinkSpec


@pytest.fixture
def ideal_model(tiny_topology, tiny_pathset):
    return IdealFctModel(tiny_topology, tiny_pathset)


class TestIdealFct:
    def test_small_flow_uses_shortest_delay_path(self, ideal_model):
        # for a small flow the best candidate is the low-delay route via C:
        # 2 ms propagation, 40 Gbps bottleneck
        demand = FlowDemand(1, "A", "B", 0, 0, size_bytes=100_000, arrival_s=0.0)
        ideal = ideal_model.ideal_fct_s(demand)
        expected = 2 * 2e-6 + 2 * MS + 100_000 * 8 / (40 * GBPS)
        assert ideal == pytest.approx(expected, rel=1e-6)

    def test_large_flow_may_prefer_high_capacity_path(self, ideal_model):
        # a 100 MB flow finishes earlier on the direct 100 Gbps / 5 ms route
        demand = FlowDemand(1, "A", "B", 0, 0, size_bytes=100_000_000, arrival_s=0.0)
        ideal = ideal_model.ideal_fct_s(demand)
        expected_direct = 2 * 2e-6 + 5 * MS + 100_000_000 * 8 / (100 * GBPS)
        assert ideal == pytest.approx(expected_direct, rel=1e-6)

    def test_ideal_is_lower_bound_over_candidates(self, ideal_model):
        demand = FlowDemand(1, "A", "B", 0, 0, size_bytes=1_000_000, arrival_s=0.0)
        ideal = ideal_model.ideal_fct_s(demand)
        for delay, rate in ideal_model.reference("A", "B"):
            assert ideal <= delay + demand.size_bytes * 8 / rate + 1e-12

    def test_nic_rate_limits_ideal(self, tiny_topology, tiny_pathset):
        # hosts have 100 Gbps NICs; every attainable rate is clamped to that
        model = IdealFctModel(tiny_topology, tiny_pathset)
        for _, rate in model.reference("A", "B"):
            assert rate <= 100 * GBPS

    def test_reference_cached(self, ideal_model):
        first = ideal_model.reference("A", "B")
        second = ideal_model.reference("A", "B")
        assert first == second

    def test_unknown_pair_raises(self, tiny_topology, tiny_pathset):
        model = IdealFctModel(tiny_topology, tiny_pathset)
        demand = FlowDemand(1, "A", "Z", 0, 0, size_bytes=100, arrival_s=0.0)
        with pytest.raises(Exception):
            model.ideal_fct_s(demand)


class TestCollector:
    def _finished_flow(self, demand):
        spec = LinkSpec(demand.src_dc, demand.dst_dc, 40 * GBPS, 2 * MS, 1_000_000, True)
        flow = Flow(demand, [RuntimeLink(spec)], FixedRate(40 * GBPS, 4 * MS), 4 * MS)
        flow.transfer(40 * GBPS, 10.0)
        flow.mark_finished(now=demand.arrival_s + 0.01)
        return flow

    @staticmethod
    def _collect(collector, flow):
        """Collect ``flow`` and return its stored :class:`FlowRecord` view."""
        return collector.store.record(collector.collect(flow))

    def test_record_computes_slowdown(self, ideal_model):
        collector = FCTCollector(ideal_model)
        demand = FlowDemand(7, "A", "B", 0, 0, size_bytes=10_000, arrival_s=1.0)
        record = self._collect(collector, self._finished_flow(demand))
        assert record.flow_id == 7
        assert record.fct_s > 0
        assert record.slowdown == pytest.approx(record.fct_s / record.ideal_fct_s)
        assert len(collector.store) == 1

    def test_pair_mask(self, ideal_model):
        collector = FCTCollector(ideal_model)
        for i, (src, dst) in enumerate([("A", "B"), ("A", "C"), ("A", "B")]):
            demand = FlowDemand(i, src, dst, 0, 0, size_bytes=1_000, arrival_s=0.0)
            collector.collect(self._finished_flow(demand))
        store = collector.store
        assert store.pair_mask("A", "B").sum() == 2
        assert store.pair_mask("B", "A").sum() == 0
        assert len(store.slowdowns()) == 3

    def test_fidelity_noise_perturbs_fct(self, ideal_model):
        rng = np.random.default_rng(3)
        noisy = FCTCollector(ideal_model, fidelity_noise=0.2, rng=rng)
        clean = FCTCollector(ideal_model)
        demand = FlowDemand(1, "A", "B", 0, 0, size_bytes=50_000, arrival_s=0.0)
        noisy_rec = self._collect(noisy, self._finished_flow(demand))
        clean_rec = self._collect(clean, self._finished_flow(demand))
        assert noisy_rec.fct_s != pytest.approx(clean_rec.fct_s)

    def test_path_dcs_recorded(self, ideal_model):
        collector = FCTCollector(ideal_model)
        demand = FlowDemand(1, "A", "B", 0, 0, size_bytes=1_000, arrival_s=0.0)
        record = self._collect(collector, self._finished_flow(demand))
        assert record.path_dcs[0] == "A"
        assert record.path_dcs[-1] == "B"
