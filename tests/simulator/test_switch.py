"""Tests for the DCI switch runtime model."""

import pytest

from repro.routing import ECMPRouter
from repro.simulator import DCISwitch, FlowDemand, RuntimeLink
from repro.topology.graph import GBPS, MS, LinkSpec
from repro.topology.paths import CandidatePath


def make_link(src, dst, cap=100 * GBPS, delay=5 * MS) -> RuntimeLink:
    return RuntimeLink(LinkSpec(src, dst, cap, delay, 1_000_000, True))


def make_candidate(dcs, links) -> CandidatePath:
    return CandidatePath(
        dcs=tuple(dcs),
        links=tuple(l.spec for l in links),
        delay_s=sum(l.delay_s for l in links),
        bottleneck_bps=min(l.cap_bps for l in links),
    )


@pytest.fixture
def switch_and_candidates():
    link_b = make_link("A", "B")
    link_c = make_link("A", "C", cap=40 * GBPS)
    switch = DCISwitch("A", ECMPRouter())
    switch.add_port("B", link_b)
    switch.add_port("C", link_c)
    cand_direct = make_candidate(["A", "B"], [link_b])
    cand_via_c = make_candidate(["A", "C", "B"], [link_c, make_link("C", "B")])
    return switch, [cand_direct, cand_via_c], link_b, link_c


def demand(flow_id=1):
    return FlowDemand(flow_id, "A", "B", 0, 0, 1_000, 0.0)


class TestPorts:
    def test_ports_registered(self, switch_and_candidates):
        switch, _, link_b, link_c = switch_and_candidates
        assert switch.port_to("B") is link_b
        assert switch.port_to("C") is link_c
        assert switch.port_to("Z") is None
        assert switch.port_up("B")
        assert not switch.port_up("Z")


class TestRouting:
    def test_route_flow_records_decision(self, switch_and_candidates):
        switch, candidates, _, _ = switch_and_candidates
        chosen = switch.route_flow("B", candidates, demand(1), now=0.0)
        assert chosen in candidates
        assert len(switch.decisions) == 1
        assert switch.decisions[0].num_candidates == 2
        assert not switch.decisions[0].fallback

    def test_empty_candidates_rejected(self, switch_and_candidates):
        switch, _, _, _ = switch_and_candidates
        with pytest.raises(ValueError):
            switch.route_flow("B", [], demand(), now=0.0)

    def test_dead_port_excluded(self, switch_and_candidates):
        switch, candidates, link_b, _ = switch_and_candidates
        link_b.fail()
        for flow_id in range(20):
            chosen = switch.route_flow("B", candidates, demand(flow_id), now=0.0)
            assert chosen.first_hop == "C"

    def test_all_ports_dead_falls_back(self, switch_and_candidates):
        switch, candidates, link_b, link_c = switch_and_candidates
        link_b.fail()
        link_c.fail()
        chosen = switch.route_flow("B", candidates, demand(), now=0.0)
        assert chosen in candidates
        assert switch.decisions[-1].fallback


class TestRouteFlowsBatch:
    def test_one_select_batch_call_per_group(self, switch_and_candidates):
        switch, candidates, _, _ = switch_and_candidates
        demands = [demand(flow_id) for flow_id in range(5)]
        route = switch.batch_route("B", candidates, (10, 11))
        rows = []
        chosen = switch.route_flows_batch(route, demands, [0.0] * 5, rows)
        assert switch.batch_calls == 1
        assert len(chosen) == 5 and set(chosen) <= {0, 1}
        # rows collect in the caller's list until it writes them
        assert len(rows) == 5 and switch.decision_count == 0
        switch.decision_log.append_batch(rows)
        assert [(d.flow_id, d.chosen) for d in switch.decisions] == [
            (flow_id, candidates[j]) for flow_id, j in enumerate(chosen)
        ]

    def test_route_records_the_all_dead_fallback(self, switch_and_candidates):
        switch, candidates, link_b, link_c = switch_and_candidates
        link_b.fail()
        assert switch.batch_route("B", candidates, (10, 11)).candidates == (candidates[1],)
        link_c.fail()
        route = switch.batch_route("B", candidates, (10, 11))
        assert route.fallback and route.candidates == tuple(candidates)
        rows = []
        switch.route_flows_batch(route, [demand()], [0.5], rows)
        switch.decision_log.append_batch(rows)
        decision = switch.decisions[-1]
        assert decision.fallback and decision.num_candidates == 2 and decision.time_s == 0.5


class TestTick:
    def test_tick_delegates_to_router(self, switch_and_candidates):
        switch, _, _, _ = switch_and_candidates
        switch.tick(now=2.0)  # ECMP's on_tick is a no-op; must not raise
