"""Tests for the full LCMP data-plane decision pipeline."""

import pytest

from repro.core import ControlPlane, LCMPConfig, LCMPRouter
from repro.simulator import FlowDemand
from repro.topology import GBPS

from tests.helpers import port_view


def make_demand(flow_id=1, dst="DC8"):
    return FlowDemand(flow_id, "DC1", dst, 0, 0, 1_000_000, 0.0)


@pytest.fixture
def provisioned_router(testbed_topology, testbed_paths):
    """An LCMP router for DC1, provisioned by the control plane."""
    config = LCMPConfig()
    router = LCMPRouter(config)
    ControlPlane(testbed_topology, testbed_paths, config).install(router, "DC1")
    return router


@pytest.fixture
def dc1_candidates(testbed_paths):
    return testbed_paths.candidates("DC1", "DC8")


class TestProvisioning:
    def test_installed_after_control_plane(self, provisioned_router):
        assert provisioned_router.installed
        assert provisioned_router.tables is not None
        assert provisioned_router.estimator is not None

    def test_uninstalled_router_falls_back_to_ecmp(self, dc1_candidates):
        router = LCMPRouter()
        chosen = router.select("DC8", dc1_candidates, make_demand(1), now=0.0)
        assert chosen in dc1_candidates
        assert router.ecmp_fallbacks == 1

    def test_on_demand_bootstrap_from_samples(self, dc1_candidates):
        """A router that has only seen monitor samples (no control-plane
        install) builds minimal tables on demand and stops falling back."""
        router = LCMPRouter()
        router.on_telemetry(port_view("DC2"), now=0.0)
        assert router.installed
        chosen = router.select("DC8", dc1_candidates, make_demand(2), now=0.0)
        assert chosen in dc1_candidates
        assert router.ecmp_fallbacks == 0


class TestDecision:
    def test_idle_network_prefers_low_delay_paths(self, provisioned_router, dc1_candidates):
        """Without congestion the reduced set is exactly the three low-delay
        relays (DC3, DC5, DC7) and every decision lands on one of them."""
        chosen_hops = set()
        for flow_id in range(100):
            chosen = provisioned_router.select("DC8", dc1_candidates, make_demand(flow_id), now=0.0)
            chosen_hops.add(chosen.first_hop)
        assert chosen_hops == {"DC3", "DC5", "DC7"}

    def test_congestion_steers_away_from_hot_port(self, provisioned_router, dc1_candidates):
        """When the favourite low-delay port develops a standing queue its
        congestion score rises and it drops out of the reduced set."""
        buffer_bytes = provisioned_router.tables.buffer_bytes
        # DC7 (the 40G, 5 ms relay) becomes persistently congested
        for i in range(30):
            provisioned_router.on_telemetry(
                port_view("DC7", queue_bytes=buffer_bytes * 0.9, cap_bps=40 * GBPS), now=i * 1e-3
            )
            provisioned_router.on_telemetry(
                port_view("DC3", cap_bps=200 * GBPS), now=i * 1e-3
            )
            provisioned_router.on_telemetry(
                port_view("DC5", cap_bps=100 * GBPS), now=i * 1e-3
            )
        chosen_hops = set()
        for flow_id in range(200):
            chosen = provisioned_router.select(
                "DC8", dc1_candidates, make_demand(flow_id + 1000), now=0.05
            )
            chosen_hops.add(chosen.first_hop)
        assert "DC7" not in chosen_hops
        assert chosen_hops  # still uses the remaining good paths

    def test_herd_fallback_when_everything_congested(self, testbed_topology, testbed_paths, dc1_candidates):
        config = LCMPConfig(congested_threshold=100)
        router = LCMPRouter(config)
        ControlPlane(testbed_topology, testbed_paths, config).install(router, "DC1")
        buffer_bytes = router.tables.buffer_bytes
        for i in range(50):
            for cand in dc1_candidates:
                router.on_telemetry(
                    port_view(cand.first_hop, queue_bytes=buffer_bytes * 0.95), now=i * 1e-3
                )
        chosen = router.select("DC8", dc1_candidates, make_demand(1), now=0.1)
        assert router.herd_fallbacks == 1
        # the fallback picks the overall minimum-cost candidate
        assert chosen in dc1_candidates

    def test_decisions_counted(self, provisioned_router, dc1_candidates):
        for flow_id in range(5):
            provisioned_router.select("DC8", dc1_candidates, make_demand(flow_id), now=0.0)
        stats = provisioned_router.stats()
        assert stats["decisions"] == 5
        assert stats["flow_cache_entries"] == 5


class TestStickinessAndFailover:
    def test_repeated_packets_follow_cached_egress(self, provisioned_router, dc1_candidates):
        demand = make_demand(flow_id=42)
        first = provisioned_router.select("DC8", dc1_candidates, demand, now=0.0)
        again = provisioned_router.select("DC8", dc1_candidates, demand, now=0.1)
        assert first.first_hop == again.first_hop
        assert provisioned_router.sticky_hits == 1

    def test_failed_port_triggers_lazy_rehash(self, provisioned_router, dc1_candidates):
        demand = make_demand(flow_id=43)
        first = provisioned_router.select("DC8", dc1_candidates, demand, now=0.0)
        # the chosen port dies
        provisioned_router.on_telemetry(
            port_view(first.first_hop, up=False), now=0.01
        )
        live_candidates = [c for c in dc1_candidates if c.first_hop != first.first_hop]
        rerouted = provisioned_router.select("DC8", live_candidates, demand, now=0.02)
        assert rerouted.first_hop != first.first_hop
        assert provisioned_router.failover_rehashes == 1
        assert provisioned_router.liveness.lazy_invalidations == 1

    def test_gc_tick_evicts_idle_flows(self, testbed_topology, testbed_paths, dc1_candidates):
        config = LCMPConfig(flow_idle_timeout_s=0.5)
        router = LCMPRouter(config)
        ControlPlane(testbed_topology, testbed_paths, config).install(router, "DC1")
        router.select("DC8", dc1_candidates, make_demand(1), now=0.0)
        assert len(router.flow_cache) == 1
        router.on_tick(now=2.0)
        assert len(router.flow_cache) == 0


class TestAblationBehaviour:
    def test_rm_alpha_ignores_path_quality(self, testbed_topology, testbed_paths, dc1_candidates):
        """With alpha = 0 and an idle network every candidate costs the same,
        so the selection spreads over half of *all* candidates regardless of
        delay — including high-delay ones (the Fig. 11a failure mode)."""
        config = LCMPConfig().ablate_path_quality()
        router = LCMPRouter(config)
        ControlPlane(testbed_topology, testbed_paths, config).install(router, "DC1")
        chosen_hops = {
            router.select("DC8", dc1_candidates, make_demand(i), now=0.0).first_hop
            for i in range(300)
        }
        high_delay_relays = {"DC2", "DC4", "DC6"}
        assert chosen_hops & high_delay_relays

    def test_rm_beta_never_reacts_to_congestion(self, testbed_topology, testbed_paths, dc1_candidates):
        config = LCMPConfig().ablate_congestion()
        router = LCMPRouter(config)
        ControlPlane(testbed_topology, testbed_paths, config).install(router, "DC1")
        buffer_bytes = router.tables.buffer_bytes
        for i in range(50):
            router.on_telemetry(
                port_view("DC7", queue_bytes=buffer_bytes * 0.95, cap_bps=40 * GBPS), now=i * 1e-3
            )
        chosen_hops = {
            router.select("DC8", dc1_candidates, make_demand(i + 500), now=0.1).first_hop
            for i in range(300)
        }
        # DC7 stays in the reduced set despite being saturated
        assert "DC7" in chosen_hops
