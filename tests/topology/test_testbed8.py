"""Tests for the 8-DC evaluation topology (paper Fig. 1a / 4a)."""

import itertools

import pytest

from repro.topology import GBPS, MS, RELAY_PLAN, build_testbed8


class TestStructure:
    def test_eight_dcs(self, testbed_topology):
        assert len(testbed_topology.dcs) == 8
        assert testbed_topology.dcs[0] == "DC1"
        assert testbed_topology.dcs[-1] == "DC8"

    def test_relay_links_match_plan(self, testbed_topology):
        for relay, (cap, delay) in RELAY_PLAN.items():
            for src, dst in (("DC1", relay), (relay, "DC8")):
                spec = testbed_topology.link(src, dst)
                assert spec.cap_bps == cap
                assert spec.delay_s == pytest.approx(delay)

    def test_three_capacity_classes_with_delay_asymmetry(self):
        caps = sorted({cap for cap, _ in RELAY_PLAN.values()})
        assert caps == [40 * GBPS, 100 * GBPS, 200 * GBPS]
        # each capacity class has one low-delay and one high-delay member
        by_cap = {}
        for cap, delay in RELAY_PLAN.values():
            by_cap.setdefault(cap, []).append(delay)
        for delays in by_cap.values():
            assert len(delays) == 2
            assert max(delays) / min(delays) >= 5

    def test_hosts_attached(self, testbed_topology):
        for dc in testbed_topology.dcs:
            assert testbed_topology.hosts_in(dc) == 16

    def test_capacity_scale(self):
        topo = build_testbed8(capacity_scale=0.1)
        assert topo.link("DC1", "DC2").cap_bps == pytest.approx(20 * GBPS)
        assert topo.host_groups["DC1"].nic_bps == pytest.approx(10 * GBPS)

    def test_invalid_capacity_scale(self):
        with pytest.raises(ValueError):
            build_testbed8(capacity_scale=0)


class TestPathStructure:
    def test_six_candidates_between_endpoints(self, testbed_paths):
        cands = testbed_paths.candidates("DC1", "DC8")
        assert len(cands) == 6
        # one candidate through each relay DC
        assert {c.first_hop for c in cands} == set(RELAY_PLAN)
        # capacities and delays span the advertised ranges
        assert {c.bottleneck_bps for c in cands} == {40 * GBPS, 100 * GBPS, 200 * GBPS}
        assert min(c.delay_s for c in cands) == pytest.approx(10 * MS)
        assert max(c.delay_s for c in cands) == pytest.approx(500 * MS)

    def test_multipath_fraction_matches_paper(self, testbed_topology, testbed_paths):
        """The paper reports 16 of 28 unordered pairs (57.1 %) are multipath."""
        multi = sum(
            1
            for a, b in itertools.combinations(testbed_topology.dcs, 2)
            if len(testbed_paths.candidates(a, b)) >= 2
        )
        assert multi == 16

    def test_relay_pairs_have_two_candidates(self, testbed_paths):
        cands = testbed_paths.candidates("DC2", "DC7")
        assert len(cands) == 2
        assert {c.dcs[1] for c in cands} == {"DC1", "DC8"}

    def test_endpoint_to_relay_single_path(self, testbed_paths):
        assert len(testbed_paths.candidates("DC1", "DC4")) == 1
