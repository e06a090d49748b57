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


class TestBatchUsableMemo:
    """route_flows_batch memoises its liveness filter per (dst, path ids)."""

    IDS = (10, 11)

    @staticmethod
    def count_filters(switch, monkeypatch):
        calls = []
        real = switch._usable_candidates

        def counting(dst_dc, candidates, path_ids=None):
            calls.append(dst_dc)
            return real(dst_dc, candidates, path_ids)

        monkeypatch.setattr(switch, "_usable_candidates", counting)
        return calls

    def route(self, switch, candidates, flow_id):
        chosen_idx, usable = switch.route_flows_batch(
            "B", candidates, [demand(flow_id)], [0.0], path_ids=self.IDS
        )
        return usable, switch.decisions[-1]

    def test_filter_reused_while_links_are_unchanged(self, switch_and_candidates, monkeypatch):
        switch, candidates, _, _ = switch_and_candidates
        calls = self.count_filters(switch, monkeypatch)
        for flow_id in range(4):
            usable, _ = self.route(switch, candidates, flow_id)
            assert list(usable) == candidates
        assert calls == ["B"]
        # without path ids there is nothing to key on: filtered every call
        switch.route_flows_batch("B", candidates, [demand(9)], [0.0])
        assert calls == ["B", "B"]

    def test_filter_rerun_after_link_fails_and_recovers(self, switch_and_candidates, monkeypatch):
        switch, candidates, link_b, link_c = switch_and_candidates
        calls = self.count_filters(switch, monkeypatch)
        self.route(switch, candidates, 1)
        link_b.fail()
        usable, decision = self.route(switch, candidates, 2)
        assert list(usable) == [candidates[1]]
        assert decision.num_candidates == 1 and not decision.fallback
        link_c.fail()
        usable, decision = self.route(switch, candidates, 3)
        assert list(usable) == candidates and decision.fallback
        link_b.recover()
        link_c.recover()
        usable, decision = self.route(switch, candidates, 4)
        assert list(usable) == candidates and not decision.fallback
        assert len(calls) == 4


class TestTick:
    def test_tick_delegates_to_router(self, switch_and_candidates):
        switch, _, _, _ = switch_and_candidates
        switch.tick(now=2.0)  # ECMP's on_tick is a no-op; must not raise
