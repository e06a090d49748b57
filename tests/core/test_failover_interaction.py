"""Failover + flow-cache interaction under injected port failures.

Covers the coupling the scenario engine now exercises end to end: port
liveness flaps feeding :class:`~repro.core.failover.PortLivenessTracker`,
lazy invalidation counts matching the number of re-hashed cached flows, and
the double-failure corner where every candidate port is dead at once.
"""

import pytest

from repro.core import ControlPlane, LCMPConfig, LCMPRouter
from repro.simulator import FlowDemand

from tests.helpers import port_view


def make_demand(flow_id, dst="DC8"):
    return FlowDemand(flow_id, "DC1", dst, 0, 0, 1_000_000, 0.0)


@pytest.fixture
def router(testbed_topology, testbed_paths):
    config = LCMPConfig()
    router = LCMPRouter(config)
    ControlPlane(testbed_topology, testbed_paths, config).install(router, "DC1")
    return router


@pytest.fixture
def candidates(testbed_paths):
    return testbed_paths.candidates("DC1", "DC8")


class TestLivenessFlaps:
    def test_flap_updates_tracker_each_observation(self, router):
        for i in range(5):
            router.on_telemetry(port_view("DC7", up=False), float(i))
            assert not router.liveness.is_up("DC7")
            router.on_telemetry(port_view("DC7", up=True), i + 0.5)
            assert router.liveness.is_up("DC7")
        assert router.liveness.down_ports == set()

    def test_flap_invalidates_once_per_down_epoch(self, router, candidates):
        """A flap only costs one lazy invalidation per flow per down epoch."""
        demand = make_demand(1)
        chosen = router.select("DC8", candidates, demand, now=0.0)
        port = chosen.first_hop

        router.on_telemetry(port_view(port, up=False), 0.1)
        live = [c for c in candidates if c.first_hop != port]
        router.select("DC8", live, demand, now=0.2)
        assert router.liveness.lazy_invalidations == 1

        # port comes back; the flow re-hashed elsewhere, so further selects
        # hit the (healthy) new cache entry and invalidate nothing
        router.on_telemetry(port_view(port, up=True), 0.3)
        router.select("DC8", candidates, demand, now=0.4)
        assert router.liveness.lazy_invalidations == 1
        assert router.sticky_hits >= 1


class TestLazyInvalidationCounts:
    def test_one_invalidation_per_cached_flow_on_dead_port(self, router, candidates):
        """N flows cached on a port that dies => exactly N lazy invalidations."""
        # pin a batch of flows, remember who landed on which port
        placements = {}
        for flow_id in range(40):
            chosen = router.select("DC8", candidates, make_demand(flow_id), now=0.0)
            placements[flow_id] = chosen.first_hop
        victim_port = max(set(placements.values()), key=list(placements.values()).count)
        victims = [fid for fid, port in placements.items() if port == victim_port]
        assert victims, "the hash must place at least one flow per popular port"

        router.on_telemetry(port_view(victim_port, up=False), 1.0)
        live = [c for c in candidates if c.first_hop != victim_port]
        before = router.liveness.lazy_invalidations
        for flow_id in range(40):
            router.select("DC8", live, make_demand(flow_id), now=1.1)
        assert router.liveness.lazy_invalidations - before == len(victims)
        assert router.failover_rehashes == len(victims)

    def test_rehashed_flows_avoid_dead_port_and_stay_sticky(self, router, candidates):
        demand = make_demand(7)
        first = router.select("DC8", candidates, demand, now=0.0)
        router.on_telemetry(port_view(first.first_hop, up=False), 0.1)
        live = [c for c in candidates if c.first_hop != first.first_hop]
        second = router.select("DC8", live, demand, now=0.2)
        assert second.first_hop != first.first_hop
        # later packets of the re-hashed flow stick to the new egress
        third = router.select("DC8", live, demand, now=0.3)
        assert third.first_hop == second.first_hop
        assert router.sticky_hits >= 1


class TestDoubleFailure:
    def test_all_candidates_dead_still_returns_a_route(self, router, candidates):
        """When every port is down the router must still pick something
        (the switch passes the full candidate list through as fallback)."""
        demand = make_demand(3)
        router.select("DC8", candidates, demand, now=0.0)
        for candidate in candidates:
            router.on_telemetry(port_view(candidate.first_hop, up=False), 0.1)
        assert router.liveness.down_ports == {c.first_hop for c in candidates}

        chosen = router.select("DC8", candidates, demand, now=0.2)
        assert chosen in candidates
        # the cached entry pointed at a dead port, so it was lazily dropped
        assert router.liveness.lazy_invalidations >= 1

    def test_recovery_after_double_failure_restores_stickiness(self, router, candidates):
        demand = make_demand(9)
        for candidate in candidates:
            router.on_telemetry(port_view(candidate.first_hop, up=False), 0.1)
        chosen_down = router.select("DC8", candidates, demand, now=0.2)
        for candidate in candidates:
            router.on_telemetry(port_view(candidate.first_hop, up=True), 0.3)
        chosen_up = router.select("DC8", candidates, demand, now=0.4)
        # the entry cached during the outage points at a now-live port, so
        # per-flow path consistency holds across the recovery
        assert chosen_up.first_hop == chosen_down.first_hop
        assert router.liveness.down_ports == set()
