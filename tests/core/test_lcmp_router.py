"""Tests for the full LCMP data-plane decision pipeline."""

import numpy as np
import pytest

from repro.core import ControlPlane, LCMPConfig, LCMPRouter
from repro.core import lcmp_router as lcmp_router_module
from repro.simulator import FlowDemand, TelemetryView
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

    def test_on_demand_bootstrap_sizes_tables_from_the_fastest_port(self):
        """The capacity classes and queue levels come from the largest
        capacity and buffer in the view, not from its first port."""
        router = LCMPRouter()
        view = TelemetryView(
            switch="DC1",
            port_dcs=("DC2", "DC3"),
            queue_bytes=np.zeros(2),
            carried_bytes=np.zeros(2),
            cap_bps=np.array([100 * GBPS, 400 * GBPS]),
            buffer_bytes=np.array([64e6, 512e6]),
            up=np.ones(2, dtype=bool),
        )
        router.on_telemetry(view, now=0.0)
        assert router.tables.max_capacity_bps == 400 * GBPS
        assert router.tables.buffer_bytes == 512e6
        # the 100G port is a middle class, not the top one
        assert router.tables.capacity_level(100 * GBPS) < router.config.num_levels - 1


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


class TestOneDecisionLoop:
    """``select_batch`` runs :meth:`LCMPRouter.select`'s per-flow decision in
    arrival order, whatever mix of cached and fresh flows a call carries."""

    def test_mixed_batch_equals_sequential_select(
        self, testbed_topology, testbed_paths, dc1_candidates
    ):
        routers = []
        for _ in range(2):
            router = LCMPRouter(LCMPConfig())
            ControlPlane(testbed_topology, testbed_paths, router.config).install(router, "DC1")
            sweep(router, dc1_candidates, now=0.0)
            routers.append(router)
        sequential, batched = routers
        # two established flows on different egress ports
        hops = {}
        for flow_id in range(1, 50):
            for router in routers:
                hop = router.select("DC8", dc1_candidates, make_demand(flow_id), now=0.0).first_hop
            hops.setdefault(hop, flow_id)
            if len(hops) == 2:
                break
        (dead_port, dying_flow), (live_port, live_flow) = sorted(hops.items())
        for router in routers:
            router.on_telemetry(port_view(dead_port, up=False), now=1e-3)
        live = [c for c in dc1_candidates if c.first_hop != dead_port]

        # sticky hit, lazy invalidation, fresh flows (one of them twice)
        ids = [live_flow, dying_flow, 100, 101, 102, 101]
        demands = [make_demand(flow_id) for flow_id in ids]
        times = [2e-3 + i * 1e-4 for i in range(len(ids))]
        expected = [
            live.index(sequential.select("DC8", live, d, t)) for d, t in zip(demands, times)
        ]
        got = batched.select_batch("DC8", live, demands, times)
        assert got.tolist() == expected
        assert live[expected[0]].first_hop == live_port
        assert batched.stats() == sequential.stats()
        assert batched.stats()["sticky_hits"] == 2
        assert batched.failover_rehashes == 1
        assert batched.liveness.lazy_invalidations == sequential.liveness.lazy_invalidations == 1


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


@pytest.fixture
def plan_builds(monkeypatch):
    """Count the router's ``reduce_set`` calls: one per plan it builds."""
    calls = []
    real = lcmp_router_module.reduce_set

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(lcmp_router_module, "reduce_set", counting)
    return calls


def c_cong(router, port):
    """``port``'s C_cong, read from the router's own register row."""
    return router.registers.c_cong_list[router.port_rows[port]]


def sweep(router, candidates, now, queue_bytes=None):
    """One telemetry sample of every first-hop port (``queue_bytes`` per port, default 0)."""
    for cand in candidates:
        queue = (queue_bytes or {}).get(cand.first_hop, 0.0)
        router.on_telemetry(port_view(cand.first_hop, queue_bytes=queue), now)


class TestSelectionPlan:
    """One memoised selection plan per candidate set, revalidated on C_cong."""

    def test_plan_reused_while_first_hop_c_cong_is_unchanged(
        self, provisioned_router, dc1_candidates, plan_builds
    ):
        router = provisioned_router
        for flow_id in range(10):
            router.select("DC8", dc1_candidates, make_demand(flow_id), now=0.0)
        assert len(plan_builds) == 1
        for step in range(5):
            # every sample drops the port's C_cong memo, but idle ports
            # keep scoring 0, so the C_cong tuple and the plan still hold
            sweep(router, dc1_candidates, now=(step + 1) * 1e-3)
            router.select("DC8", dc1_candidates, make_demand(100 + step), now=0.01)
        assert len(plan_builds) == 1

    def test_select_and_select_batch_share_the_plan_logic(
        self, provisioned_router, testbed_paths, dc1_candidates, plan_builds
    ):
        router = provisioned_router
        ids = testbed_paths.candidate_ids("DC1", "DC8")
        demands = [make_demand(i) for i in range(6)]
        router.select_batch("DC8", dc1_candidates, demands[:3], [0.0] * 3, path_ids=ids)
        router.select_batch("DC8", dc1_candidates, demands[3:], [0.0] * 3, path_ids=ids)
        # keyed on the path ids here and on the DC tuples below
        assert len(plan_builds) == 1
        router.select("DC8", dc1_candidates, make_demand(50), now=0.0)
        router.select_batch("DC8", dc1_candidates, [make_demand(51)], [0.0])
        assert len(plan_builds) == 2

    def test_plan_rebuilt_when_one_first_hop_c_cong_changes(
        self, provisioned_router, dc1_candidates, plan_builds
    ):
        router = provisioned_router
        deep = {"DC7": router.tables.buffer_bytes * 0.9}
        router.select("DC8", dc1_candidates, make_demand(1), now=0.0)
        assert len(plan_builds) == 1
        before = [c_cong(router, c.first_hop) for c in dc1_candidates]
        sweep(router, dc1_candidates, now=1e-3, queue_bytes=deep)
        after = [c_cong(router, c.first_hop) for c in dc1_candidates]
        changed = [c.first_hop for c, b, a in zip(dc1_candidates, before, after) if a != b]
        assert changed == ["DC7"]
        hops = {
            router.select("DC8", dc1_candidates, make_demand(flow_id), now=2e-3).first_hop
            for flow_id in range(2, 60)
        }
        assert len(plan_builds) == 2
        assert "DC7" not in hops

    def test_install_tables_resets_plans(
        self, provisioned_router, testbed_topology, testbed_paths, dc1_candidates, plan_builds
    ):
        router = provisioned_router
        router.select("DC8", dc1_candidates, make_demand(1), now=0.0)
        ControlPlane(testbed_topology, testbed_paths, router.config).install(router, "DC1")
        router.select("DC8", dc1_candidates, make_demand(2), now=0.0)
        assert len(plan_builds) == 2

    def test_on_demand_bootstrap_resets_plans(self, dc1_candidates, plan_builds):
        router = LCMPRouter()
        router.select("DC8", dc1_candidates, make_demand(1), now=0.0)
        assert plan_builds == []  # ECMP fallback: no plan before tables exist
        sweep(router, dc1_candidates, now=0.0)
        router.select("DC8", dc1_candidates, make_demand(2), now=0.0)
        assert len(plan_builds) == 1
        # dropping the tables makes the next sample bootstrap new ones
        deep = {c.first_hop: 1e9 for c in dc1_candidates}
        sweep(router, dc1_candidates, now=1e-3, queue_bytes=deep)
        assert max(c_cong(router, c.first_hop) for c in dc1_candidates) > 0
        router.tables = None
        sweep(router, dc1_candidates, now=2e-3)
        router.select("DC8", dc1_candidates, make_demand(3), now=2e-3)
        assert len(plan_builds) == 2
        # the bootstrap started this switch's registers afresh
        assert all(router.registers.sample_s[router.port_rows[c.first_hop]] == 2e-3
                   for c in dc1_candidates)
        for c in dc1_candidates:
            row = router.port_rows[c.first_hop]
            assert router.registers.interval_s[row] == 0.0
            assert router.registers.trend[row] == 0

    def test_herd_plan_counts_every_flow(
        self, testbed_topology, testbed_paths, dc1_candidates, plan_builds
    ):
        config = LCMPConfig(congested_threshold=100)
        router = LCMPRouter(config)
        ControlPlane(testbed_topology, testbed_paths, config).install(router, "DC1")
        deep = {c.first_hop: router.tables.buffer_bytes * 0.95 for c in dc1_candidates}
        for i in range(50):
            sweep(router, dc1_candidates, now=i * 1e-3, queue_bytes=deep)
        demands = [make_demand(i) for i in range(4)]
        chosen = router.select_batch("DC8", dc1_candidates, demands, np.full(4, 0.1))
        assert router.herd_fallbacks == 4
        assert len(set(chosen.tolist())) == 1
        assert len(plan_builds) == 1
