"""Tests for the runtime network and hop-by-hop path resolution."""

import numpy as np
import pytest

from repro.core import lcmp_router_factory
from repro.routing import make_router_factory
from repro.simulator import FlowDemand, RuntimeNetwork, SimulationConfig
from repro.topology import PathSet, TopologyError, bso13_pathset


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


class TestHopTable:
    """The grouped walk keeps one entry per (current, dst, visited) hop."""

    ROOT = ("A", "B", frozenset({"A"}))

    @staticmethod
    def count_filters(network, monkeypatch, dc="A"):
        calls = []
        switch = network.switch(dc)
        real = switch.batch_route

        def counting(dst_dc, candidates, path_ids):
            calls.append(dst_dc)
            return real(dst_dc, candidates, path_ids)

        monkeypatch.setattr(switch, "batch_route", counting)
        return calls

    @staticmethod
    def route(network, flow_id, src="A", dst="B"):
        network.resolve_paths_batch([demand(flow_id, src, dst)], [0.0])
        return network.switch(src).decisions[-1]

    def test_filter_runs_once_while_links_are_unchanged(self, tiny_network, monkeypatch):
        calls = self.count_filters(tiny_network, monkeypatch)
        for flow_id in range(4):
            self.route(tiny_network, flow_id)
        assert calls == ["B"]
        # a batch of several flows reads the same entry
        demands = [demand(flow_id) for flow_id in range(10, 16)]
        tiny_network.resolve_paths_batch(demands, [0.0] * len(demands))
        assert calls == ["B"]
        assert tiny_network.switch("A").decision_count == 10

    def test_filter_reruns_after_a_fail_and_after_a_recover(self, tiny_network, monkeypatch):
        calls = self.count_filters(tiny_network, monkeypatch)
        self.route(tiny_network, 1)
        tiny_network.fail_link("A", "B")
        decision = self.route(tiny_network, 2)
        assert decision.chosen.first_hop == "C"
        assert decision.num_candidates == 1 and not decision.fallback
        tiny_network.recover_link("A", "B")
        decision = self.route(tiny_network, 3)
        assert decision.num_candidates == 2 and not decision.fallback
        assert len(calls) == 3

    def test_all_dead_fallback_flag_is_recorded(self, tiny_network):
        tiny_network.fail_link("A", "B")
        tiny_network.fail_link("A", "C")
        decision = self.route(tiny_network, 1)
        route = tiny_network._hops[self.ROOT].route
        assert route.fallback and decision.fallback
        assert len(route.candidates) == decision.num_candidates == 2
        tiny_network.recover_link("A", "B")
        tiny_network.recover_link("A", "C")
        assert not self.route(tiny_network, 2).fallback
        assert not tiny_network._hops[self.ROOT].route.fallback

    def test_eviction_drops_entries_holding_evicted_views(self, tiny_topology):
        pathset = PathSet(tiny_topology, max_candidates=4, max_extra_hops=1, cache_pairs=2)
        network = RuntimeNetwork(
            tiny_topology, pathset, make_router_factory("ecmp"), SimulationConfig()
        )
        dc_id = pathset._index.dc_id

        def assert_entries_hold_cached_views():
            for (current, dst, _), entry in network._hops.items():
                cached = pathset._pair_cache.get((dc_id(current), dc_id(dst)))
                assert cached is not None, f"entry for evicted pair {current}->{dst}"
                if entry.switch is not None:
                    assert all(
                        any(c is v for v in cached[0]) for c in entry.route.candidates
                    )

        self.route(network, 1)
        assert self.ROOT in network._hops
        for flow_id, (src, dst) in enumerate([("B", "A"), ("C", "A"), ("A", "B"), ("B", "C")]):
            evictions = pathset.cache_evictions
            self.route(network, 10 + flow_id, src, dst)
            assert_entries_hold_cached_views()
        assert pathset.cache_evictions > evictions >= 1


def walk_rows(network):
    """Each switch's decision rows, as a sorted list per switch."""
    return {
        dc: sorted(
            (d.flow_id, d.time_s, d.dst_dc, d.chosen.dcs, d.num_candidates, d.fallback)
            for d in switch.decisions
        )
        for dc, switch in network.switches.items()
    }


class TestWalkParity:
    """resolve_paths_batch equals a loop of resolve_path calls: the same
    link path per flow, the same per-switch decision rows (as multisets —
    the grouped walk orders rows depth-first by group) and the same router
    statistics."""

    @staticmethod
    def networks(topology, router, make_pathset):
        built = []
        for _ in range(2):
            pathset = make_pathset(topology)
            if router == "lcmp":
                factory = lcmp_router_factory(topology, pathset)
            else:
                factory = make_router_factory(router)
            built.append(RuntimeNetwork(topology, pathset, factory, SimulationConfig()))
        return built

    @staticmethod
    def all_to_all(topology, pairs, count, id_offset):
        """``count`` flows over ``pairs``, cycling so every pair recurs."""
        out = []
        for k in range(count):
            src, dst = pairs[(id_offset + k) % len(pairs)]
            out.append(FlowDemand(id_offset + k, src, dst, k % 2, (k + 1) % 2, 10_000, 0.0))
        return out

    def check(
        self, topology, router, make_pathset, sizes, cut=None, cut_at=None, pairs=None, seed=5
    ):
        batched, scalar = self.networks(topology, router, make_pathset)
        remainders = []
        real = batched._fallback_remainder
        batched._fallback_remainder = lambda c, d: (remainders.append((c, d)), real(c, d))[1]
        if pairs is None:
            pairs = list(topology.dc_pairs(ordered=True))
            np.random.default_rng(seed).shuffle(pairs)
        cut_at = len(sizes) // 2 if cut_at is None else cut_at
        flow_id = 0
        now = 0.0
        used_cut = []
        for b, size in enumerate(sizes):
            if cut is not None and b == cut_at:
                for network in (batched, scalar):
                    network.fail_link(*cut)
                cut_s = now
            demands = self.all_to_all(topology, pairs, size, flow_id)
            flow_id += size
            times = now + 1e-5 * np.arange(size)
            now = float(times[-1]) + 1e-3
            got = [
                [l.spec.key for l in p] for p in batched.resolve_paths_batch(demands, times)
            ]
            want = [
                [l.spec.key for l in scalar.resolve_path(d, float(t))]
                for d, t in zip(demands, times)
            ]
            assert got == want
            if cut is not None:
                used_cut.append(any(cut in p for p in got))
        assert walk_rows(batched) == walk_rows(scalar)
        for dc, switch in batched.switches.items():
            if hasattr(switch.router, "stats"):
                assert switch.router.stats() == scalar.switch(dc).router.stats()
        assert batched.pathset.searches_run == scalar.pathset.searches_run
        assert batched.pathset.cache_evictions == scalar.pathset.cache_evictions
        if cut is not None:
            # the cut link carried flows before the cut; afterwards its
            # switch picks it only when every loop-free port is dead
            assert any(used_cut[:cut_at])
            after = [d for d in batched.switch(cut[0]).decisions if d.time_s >= cut_s]
            assert after and all(d.fallback for d in after if d.chosen.first_hop == cut[1])
        return remainders, batched.pathset

    @pytest.mark.parametrize("router", ["lcmp", "ecmp"])
    def test_batches_of_1_to_40_with_a_first_hop_cut(self, router, bso_topology):
        sizes = [1, 2, 3, 5, 8, 13, 21, 40, 40, 40, 1, 7, 40, 4]
        # every pair is routed before the cut; DC1's egress toward DC2 is a
        # first hop of many DC1 candidates
        self.check(bso_topology, router, bso13_pathset, sizes, cut=("DC1", "DC2"), cut_at=10)

    @pytest.mark.parametrize("router", ["lcmp", "ecmp"])
    def test_walks_that_end_on_the_fallback_remainder(self, router, bso_topology):
        # with two detour hops allowed, some walks run out of loop-free
        # candidates and commit to the shortest-delay remainder
        remainders, _ = self.check(
            bso_topology,
            router,
            lambda t: PathSet(t, max_candidates=8, max_extra_hops=2),
            [40] * 10,
            cut=("DC1", "DC3"),
        )
        assert remainders, "no walk reached the fallback remainder"

    def test_capped_path_set_sees_the_same_searches(self, bso_topology):
        # batches of one request pairs in the scalar walk's order, so the
        # LRU, its evictions and the search count must agree exactly; a few
        # recurring multi-hop pairs make the LRU order decide evictions
        pairs = [("DC13", "DC12"), ("DC2", "DC5"), ("DC5", "DC10"), ("DC1", "DC3"), ("DC2", "DC7")]
        _, pathset = self.check(
            bso_topology,
            "lcmp",
            lambda t: PathSet(t, max_candidates=8, max_extra_hops=1, cache_pairs=7),
            [1] * 120,
            pairs=pairs,
        )
        assert pathset.cache_evictions > 0
