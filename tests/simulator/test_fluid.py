"""Integration tests for the fluid flow-level simulation."""

import numpy as np
import pytest

from repro.congestion_control import make_cc_factory
from repro.routing import ECMPRouter, make_router_factory
from repro.scenarios.events import LinkDown, LinkUp, Scenario
from repro.core.config import LCMPConfig
from repro.simulator import (
    FlowDemand,
    FluidSimulation,
    RoutingLoopError,
    RuntimeNetwork,
    SimulationConfig,
    SimulationResult,
)
from tests.helpers import store_of


def make_network(topology, pathset, config, router="ecmp"):
    return RuntimeNetwork(topology, pathset, make_router_factory(router), config)


def run_sim(topology, pathset, demands, config, cc="fixed", router="ecmp", **kwargs):
    network = make_network(topology, pathset, config, router)
    sim = FluidSimulation(network, demands, make_cc_factory(cc), config, **kwargs)
    return sim.run()


class TestSingleFlow:
    def test_unloaded_flow_close_to_ideal(self, tiny_topology, tiny_pathset, quick_sim_config):
        """A single flow with no competition should finish near its ideal FCT."""
        size = 50_000_000  # 50 MB so transmission dominates the 1 ms step size
        demands = [FlowDemand(0, "A", "B", 0, 0, size, 0.0)]
        result = run_sim(tiny_topology, tiny_pathset, demands, quick_sim_config)
        assert len(result.records) == 1
        record = result.records[0]
        assert result.unfinished_flows == 0
        # slowdown close to 1 (some slack for the discrete update step and
        # for landing on a path other than the ideal one)
        assert record.slowdown < 3.0
        assert record.fct_s >= record.ideal_fct_s * 0.99

    def test_flow_record_fields(self, tiny_topology, tiny_pathset, quick_sim_config):
        demands = [FlowDemand(3, "A", "C", 1, 2, 1_000_000, 0.5)]
        result = run_sim(tiny_topology, tiny_pathset, demands, quick_sim_config)
        record = result.records[0]
        assert record.flow_id == 3
        assert record.src_dc == "A" and record.dst_dc == "C"
        assert record.arrival_s == pytest.approx(0.5)
        assert record.path_dcs[0] == "A" and record.path_dcs[-1] == "C"


class TestContention:
    def test_two_flows_share_bottleneck(self, tiny_topology, tiny_pathset, quick_sim_config):
        """Two simultaneous flows on the same host NIC take about twice as long."""
        size = 100_000_000
        solo = run_sim(
            tiny_topology, tiny_pathset,
            [FlowDemand(0, "A", "B", 0, 0, size, 0.0)],
            quick_sim_config,
        ).records[0]
        shared = run_sim(
            tiny_topology, tiny_pathset,
            [
                FlowDemand(0, "A", "B", 0, 0, size, 0.0),
                FlowDemand(1, "A", "B", 0, 1, size, 0.0),
            ],
            quick_sim_config,
        )
        assert shared.unfinished_flows == 0
        mean_shared_fct = np.mean([r.fct_s for r in shared.records])
        assert mean_shared_fct > solo.fct_s * 1.4

    def test_overload_builds_queues(self, tiny_topology, tiny_pathset, quick_sim_config):
        """Many synchronised flows toward one DC must grow some egress queue."""
        size = 20_000_000
        demands = [FlowDemand(i, "A", "B", i % 4, i % 4, size, 0.0) for i in range(12)]
        result = run_sim(tiny_topology, tiny_pathset, demands, quick_sim_config, cc="fixed")
        peak = max(stats.peak_queue_bytes for stats in result.link_stats)
        assert peak > 0
        assert result.unfinished_flows == 0


class TestCongestionControlInteraction:
    def test_dcqcn_throttles_under_overload(self, tiny_topology, tiny_pathset, quick_sim_config):
        """With DCQCN the peak queue should stay below the fixed-rate peak."""
        size = 40_000_000
        demands = [FlowDemand(i, "A", "B", i % 4, i % 4, size, 0.0) for i in range(8)]
        fixed = run_sim(tiny_topology, tiny_pathset, demands, quick_sim_config, cc="fixed")
        dcqcn = run_sim(tiny_topology, tiny_pathset, demands, quick_sim_config, cc="dcqcn")
        peak_fixed = max(s.peak_queue_bytes for s in fixed.link_stats)
        peak_dcqcn = max(s.peak_queue_bytes for s in dcqcn.link_stats)
        assert peak_dcqcn <= peak_fixed


class TestBookkeeping:
    def test_determinism_same_seed(self, tiny_topology, tiny_pathset, quick_sim_config):
        demands = [FlowDemand(i, "A", "B", i % 4, i % 4, 5_000_000, i * 0.001) for i in range(20)]
        r1 = run_sim(tiny_topology, tiny_pathset, demands, quick_sim_config, cc="dcqcn")
        r2 = run_sim(tiny_topology, tiny_pathset, demands, quick_sim_config, cc="dcqcn")
        assert [rec.fct_s for rec in r1.records] == [rec.fct_s for rec in r2.records]

    def test_monitor_and_decision_counters(self, tiny_topology, tiny_pathset, quick_sim_config):
        demands = [FlowDemand(i, "A", "B", 0, 0, 1_000_000, 0.0) for i in range(5)]
        result = run_sim(tiny_topology, tiny_pathset, demands, quick_sim_config)
        assert result.monitor_samples > 0
        # at least one decision per flow; flows routed over multi-hop
        # candidates trigger one decision per intermediate DCI switch too
        assert result.routing_decisions >= 5

    def test_trace_collection(self, tiny_topology, tiny_pathset, quick_sim_config):
        demands = [FlowDemand(0, "A", "B", 0, 0, 10_000_000, 0.0)]
        network = make_network(tiny_topology, tiny_pathset, quick_sim_config)
        sim = FluidSimulation(
            network, demands, make_cc_factory("fixed"), quick_sim_config, trace_links=True
        )
        result = sim.run()
        assert result.trace is not None
        assert result.trace.keys()
        series = result.trace.series(result.trace.keys()[0])
        assert len(series) > 0

    def test_empty_demand_list(self, tiny_topology, tiny_pathset, quick_sim_config):
        result = run_sim(tiny_topology, tiny_pathset, [], quick_sim_config)
        assert result.records == []
        assert result.unfinished_flows == 0

    def test_link_stats_utilization_bounded(self, tiny_topology, tiny_pathset, quick_sim_config):
        demands = [FlowDemand(i, "A", "B", i % 4, i % 4, 10_000_000, 0.0) for i in range(6)]
        result = run_sim(tiny_topology, tiny_pathset, demands, quick_sim_config)
        for stats in result.link_stats:
            assert 0.0 <= stats.utilization <= 1.0


class TestResultRepresentation:
    def test_default_result_has_an_empty_store(self):
        result = SimulationResult()
        assert len(result.store) == 0
        assert result.records == []
        assert result.slowdowns() == []
        arrivals, slowdowns = result.arrival_slowdown_columns()
        assert arrivals.size == 0 and slowdowns.size == 0
        assert result.stats is None

    def test_records_are_a_read_only_view(self, tiny_topology, tiny_pathset, quick_sim_config):
        demands = [FlowDemand(i, "A", "B", 0, 0, 1_000_000, 0.0) for i in range(3)]
        result = run_sim(tiny_topology, tiny_pathset, demands, quick_sim_config)
        with pytest.raises(AttributeError):
            result.records = []
        view = result.records
        view.clear()
        assert len(result.records) == 3
        # the view round-trips through a store built from it
        rebuilt = SimulationResult(store=store_of(result.records))
        assert rebuilt.slowdowns() == result.slowdowns()

    def test_flow_idle_timeout_belongs_to_the_router_config(self):
        with pytest.raises(TypeError):
            SimulationConfig(flow_idle_timeout_s=2.0)
        assert LCMPConfig(flow_idle_timeout_s=2.0).flow_idle_timeout_s == 2.0


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides, match",
        [
            (dict(update_interval_s=0.0), "update_interval_s"),
            (dict(monitor_interval_s=-1e-3), "monitor_interval_s"),
            (dict(gc_interval_s=0.0), "gc_interval_s"),
            (dict(ecn_kmin_fraction=-0.1), "ecn_kmin_fraction"),
            (dict(ecn_kmin_fraction=0.6, ecn_kmax_fraction=0.5), "ecn_kmin_fraction"),
            (dict(ecn_kmax_fraction=1.5), "ecn_kmax_fraction"),
            (dict(ecn_pmax=1.2), "ecn_pmax"),
            (dict(ecn_pmax=-0.1), "ecn_pmax"),
            (dict(max_sim_time_s=0.0), "max_sim_time_s"),
            (dict(drain_timeout_s=-1.0), "drain_timeout_s"),
            (dict(fidelity_noise=-0.01), "fidelity_noise"),
        ],
        ids=lambda v: "-".join(f"{k}={v[k]!r}" for k in v) if isinstance(v, dict) else "",
    )
    def test_validate_rejects(self, overrides, match):
        config = SimulationConfig().with_overrides(**overrides)
        with pytest.raises(ValueError, match=match):
            config.validate()

    @pytest.mark.parametrize(
        "field, value",
        [
            # a NaN interval hangs run() or schedules an event in the past
            ("update_interval_s", float("nan")),
            ("monitor_interval_s", float("nan")),
            ("gc_interval_s", float("nan")),
            # an infinite interval never fires: the run drains unfinished
            ("update_interval_s", float("inf")),
            ("monitor_interval_s", float("inf")),
            ("gc_interval_s", float("inf")),
            ("max_sim_time_s", float("nan")),
            ("drain_timeout_s", float("nan")),
            ("fidelity_noise", float("nan")),
        ],
        ids=lambda v: v if isinstance(v, str) else repr(v),
    )
    def test_validate_rejects_non_finite(self, field, value):
        """Only ``validate()`` runs: a bad interval would hang ``run()``."""
        config = SimulationConfig().with_overrides(**{field: value})
        with pytest.raises(ValueError, match=field):
            config.validate()

    def test_default_and_zero_drain_are_valid(self):
        SimulationConfig().validate()
        SimulationConfig(drain_timeout_s=0.0).validate()


class TestRerouteErrors:
    """A fast-failover reroute only tolerates "no route": any other error
    raised while re-resolving a disrupted flow's path propagates."""

    CUT_AT_S = 0.005

    @staticmethod
    def cut_off_sim(topology, pathset, config, error):
        """One long A->B flow; both egress ports of A die at ``CUT_AT_S``
        (so the flow is disrupted whichever path it took and the reroute
        reaches the router) and recover at 20 ms.  From the cut on, the
        router's per-flow ``select`` raises ``error``."""
        cut_at_s = TestRerouteErrors.CUT_AT_S

        class RaisingRouter(ECMPRouter):
            def select(self, dst_dc, candidates, demand, now):
                if now >= cut_at_s:
                    raise error
                return super().select(dst_dc, candidates, demand, now)

        network = RuntimeNetwork(
            topology, pathset, lambda dc: RaisingRouter(), config
        )
        scenario = Scenario(
            name="cut-all-of-A",
            events=(
                LinkDown(cut_at_s, "A", "B"),
                LinkDown(cut_at_s, "A", "C"),
                LinkUp(0.02, "A", "B"),
                LinkUp(0.02, "A", "C"),
            ),
        )
        # 500 MB at 100 Gbps: still in flight when the cut lands
        demands = [FlowDemand(0, "A", "B", 0, 0, 500_000_000, 0.0)]
        return FluidSimulation(
            network, demands, make_cc_factory("fixed"), config, scenario=scenario
        )

    @pytest.mark.parametrize("vectorized", [False, True], ids=["scalar", "array"])
    def test_router_bug_during_reroute_propagates(
        self, tiny_topology, tiny_pathset, quick_sim_config, vectorized
    ):
        sim = self.cut_off_sim(
            tiny_topology,
            tiny_pathset,
            quick_sim_config.with_overrides(vectorized=vectorized),
            ZeroDivisionError("router bug during reroute"),
        )
        with pytest.raises(ZeroDivisionError, match="router bug"):
            sim.run()

    @pytest.mark.parametrize("vectorized", [False, True], ids=["scalar", "array"])
    def test_no_route_during_reroute_pins_the_flow(
        self, tiny_topology, tiny_pathset, quick_sim_config, vectorized
    ):
        """"No route" is the one tolerated reroute error: the flow stays
        pinned on its dead path and resumes when the path recovers."""
        sim = self.cut_off_sim(
            tiny_topology,
            tiny_pathset,
            quick_sim_config.with_overrides(vectorized=vectorized),
            RoutingLoopError("no route while A is cut off"),
        )
        result = sim.run()
        assert [r.flow_id for r in result.records] == [0]
        assert not result.failed_flows
        metrics = result.scenario_metrics
        assert metrics.total_disrupted == 1
        assert metrics.total_rerouted == 0
