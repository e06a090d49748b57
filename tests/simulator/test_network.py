"""Tests for the runtime network and hop-by-hop path resolution."""

import pytest

from repro.routing import make_router_factory
from repro.simulator import FlowDemand, RuntimeNetwork, SimulationConfig
from repro.topology import TopologyError


@pytest.fixture
def tiny_network(tiny_topology, tiny_pathset):
    return RuntimeNetwork(
        tiny_topology, tiny_pathset, make_router_factory("ecmp"), SimulationConfig()
    )


def demand(flow_id=1, src="A", dst="B", size=10_000):
    return FlowDemand(flow_id, src, dst, 0, 1, size, 0.0)


class TestConstruction:
    def test_switch_per_dc_with_ports(self, tiny_network):
        assert set(tiny_network.switches) == {"A", "B", "C"}
        assert set(tiny_network.switch("A").ports) == {"B", "C"}
        assert set(tiny_network.switch("C").ports) == {"A", "B"}

    def test_runtime_link_per_directed_inter_dc_link(self, tiny_network, tiny_topology):
        assert len(tiny_network.inter_dc_links) == len(tiny_topology.inter_dc_links())
        assert tiny_network.link("A", "B").cap_bps == tiny_topology.link("A", "B").cap_bps

    def test_missing_link_raises(self, tiny_network):
        with pytest.raises(TopologyError):
            tiny_network.link("B", "Z")


class TestHostLinks:
    def test_host_links_created_lazily_and_cached(self, tiny_network):
        up1 = tiny_network.host_link("A", 0, "up")
        up2 = tiny_network.host_link("A", 0, "up")
        down = tiny_network.host_link("A", 0, "down")
        assert up1 is up2
        assert up1 is not down
        assert up1.cap_bps == 100e9
        assert not up1.spec.inter_dc

    def test_invalid_host_requests(self, tiny_network):
        with pytest.raises(ValueError):
            tiny_network.host_link("A", 0, "sideways")
        with pytest.raises(TopologyError):
            tiny_network.host_link("A", 99, "up")


class TestPathResolution:
    def test_path_structure(self, tiny_network):
        path = tiny_network.resolve_path(demand(), now=0.0)
        # NIC uplink, >=1 inter-DC link, NIC downlink
        assert len(path) >= 3
        assert not path[0].spec.inter_dc
        assert not path[-1].spec.inter_dc
        assert any(l.spec.inter_dc for l in path)
        # the inter-DC portion starts at A and ends at B
        inter = [l for l in path if l.spec.inter_dc]
        assert inter[0].spec.src == "A"
        assert inter[-1].spec.dst == "B"

    def test_paths_are_loop_free(self, tiny_network):
        for flow_id in range(50):
            path = tiny_network.resolve_path(demand(flow_id), now=0.0)
            inter = [l for l in path if l.spec.inter_dc]
            visited = [inter[0].spec.src] + [l.spec.dst for l in inter]
            assert len(set(visited)) == len(visited)

    def test_decisions_recorded_at_source_switch(self, tiny_network):
        tiny_network.resolve_path(demand(), now=0.0)
        assert len(tiny_network.switch("A").decisions) == 1

    def test_failed_first_hop_avoided(self, tiny_network):
        tiny_network.fail_link("A", "B")
        for flow_id in range(20):
            path = tiny_network.resolve_path(demand(flow_id), now=0.0)
            inter = [l for l in path if l.spec.inter_dc]
            assert inter[0].spec.dst == "C"
        tiny_network.recover_link("A", "B")

    def test_same_dc_flow_uses_only_host_links(self, tiny_network):
        d = FlowDemand(9, "A", "A", 0, 1, 1_000, 0.0)
        path = tiny_network.resolve_path(d, now=0.0)
        assert len(path) == 2
        assert not any(l.spec.inter_dc for l in path)

    def test_tick_all(self, tiny_network):
        tiny_network.tick_all(now=0.5)


class TestLargerTopologyResolution:
    def test_testbed_paths_resolve_for_all_pairs(self, scaled_testbed, scaled_testbed_paths):
        network = RuntimeNetwork(
            scaled_testbed, scaled_testbed_paths, make_router_factory("ecmp"), SimulationConfig()
        )
        flow_id = 0
        for src, dst in scaled_testbed.dc_pairs(ordered=True):
            d = FlowDemand(flow_id, src, dst, 0, 1, 1_000, 0.0)
            flow_id += 1
            path = network.resolve_path(d, now=0.0)
            inter = [l for l in path if l.spec.inter_dc]
            assert inter[0].spec.src == src
            assert inter[-1].spec.dst == dst
