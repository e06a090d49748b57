"""LCMP's register columns against the per-port reference, after every sweep.

Each run attaches a :class:`~tests.core.congestion_oracle.RegisterOracle`,
which replays every telemetry sweep the switches receive through a
per-port reference estimator and asserts that every LCMP row's registers,
C_cong and port liveness match it.  The runs cover both cores, a congested
testbed, a cut and repair, a capacity change into a new trend bucket, two
Fig. 11d weight settings and switches that bootstrap their tables on
demand.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.congestion_control import make_cc_factory
from repro.core import LCMPConfig, LCMPRouter, LCMPTelemetryFeed, lcmp_router_factory
from repro.routing import make_router_factory
from repro.scenarios import single_link_cut
from repro.scenarios.events import CapacityChange, Scenario
from repro.simulator import FluidSimulation, RuntimeNetwork, SimulationConfig
from repro.topology import GBPS, build_testbed8
from repro.topology import testbed8_pathset as _testbed8_pathset
from repro.workloads import TrafficConfig, TrafficGenerator

from tests.core.congestion_oracle import RegisterOracle

CORES = pytest.mark.parametrize("vectorized", [False, True], ids=["scalar", "array"])


def build_sim(
    vectorized,
    *,
    capacity_scale=0.1,
    load=0.9,
    num_flows=120,
    lcmp_config=None,
    provisioned=True,
    make_scenario=None,
):
    topology = build_testbed8(capacity_scale=capacity_scale)
    paths = _testbed8_pathset(topology)
    config = SimulationConfig(seed=3, vectorized=vectorized)
    traffic = TrafficConfig(
        workload="websearch",
        load=load,
        num_flows=num_flows,
        pairs=[("DC1", "DC8"), ("DC8", "DC1")],
        seed=3,
    )
    demands = TrafficGenerator(topology, paths, traffic).generate()
    if provisioned:
        factory = lcmp_router_factory(topology, paths, config=lcmp_config)
    else:
        factory = make_router_factory("lcmp", config=lcmp_config)
    network = RuntimeNetwork(topology, paths, factory, config)
    scenario = make_scenario(demands) if make_scenario else None
    return FluidSimulation(network, demands, make_cc_factory("dcqcn"), config, scenario=scenario)


def checked_run(sim) -> RegisterOracle:
    oracle = RegisterOracle().attach(sim)
    sim.run()
    assert oracle.sweeps == sim.telemetry.sweeps > 10
    return oracle


def _cut_repair(demands):
    last = max(d.arrival_s for d in demands)
    return single_link_cut(fail_at_s=0.25 * last, recover_at_s=0.75 * last)


def _halve_dc7(demands):
    last = max(d.arrival_s for d in demands)
    return Scenario(
        name="dc7-brownout",
        events=(CapacityChange(time_s=0.3 * last, src="DC1", dst="DC7", factor=0.5),),
    )


class TestRegistersMatchReference:
    @CORES
    def test_congested_testbed(self, vectorized):
        oracle = checked_run(build_sim(vectorized))
        assert oracle.max_c_cong > 0
        assert oracle.max_trend > 0
        assert oracle.max_dur_cnt > 0

    @CORES
    def test_cut_and_repair(self, vectorized):
        sim = build_sim(vectorized, make_scenario=_cut_repair)
        oracle = checked_run(sim)
        assert oracle.down_seen == {("DC1", "DC7"), ("DC7", "DC1")}
        assert sim.network.switch("DC1").router.liveness.is_up("DC7")

    @CORES
    def test_capacity_change_into_a_new_trend_bucket(self, vectorized):
        # full-rate testbed: its 40/100/200 G buckets are pre-installed, and
        # the halved 40 G DC1->DC7 port needs a 25 G bucket
        sim = build_sim(vectorized, capacity_scale=1.0, num_flows=200, make_scenario=_halve_dc7)
        tables = sim.network.switch("DC1").router.tables
        assert 25 * GBPS not in tables.trend_thresholds
        oracle = checked_run(sim)
        assert 25 * GBPS in tables.trend_thresholds
        assert 20 * GBPS in oracle.trending_rates

    @CORES
    @pytest.mark.parametrize("weights", [(1, 2, 1), (1, 1, 2)], ids=["1:2:1", "1:1:2"])
    def test_fig11d_weights(self, vectorized, weights):
        w_ql, w_tl, w_dp = weights
        config = LCMPConfig(w_ql=w_ql, w_tl=w_tl, w_dp=w_dp)
        oracle = checked_run(build_sim(vectorized, lcmp_config=config))
        assert oracle.max_c_cong > 0

    @CORES
    def test_switches_that_bootstrap_on_demand(self, vectorized):
        sim = build_sim(vectorized, provisioned=False)
        routers = [switch.router for switch in sim.network.switches.values()]
        assert not any(r.installed for r in routers)
        oracle = checked_run(sim)
        assert all(r.installed for r in routers)
        # each switch bootstrapped its own tables, so each is its own group
        assert len({id(r.tables) for r in routers}) == len(routers)
        assert oracle.max_c_cong > 0


class TestOracleSensitivity:
    @pytest.mark.parametrize("column", ["trend", "dur_cnt", "c_cong_list"])
    def test_one_perturbed_register_fails_the_check(self, column):
        sim = build_sim(True)
        plane = sim.telemetry
        feed = plane.feed_routers
        router = sim.network.switch("DC1").router

        def perturbing(now):
            feed(now)
            if plane.sweeps == 10:
                getattr(router.registers, column)[router.port_rows["DC7"]] += 1

        plane.feed_routers = perturbing
        with pytest.raises(AssertionError, match="DC1 port DC7"):
            checked_run(sim)


class TestDeliveryByClass:
    def test_one_block_and_one_pass_for_all_lcmp_switches(self, monkeypatch):
        sim = build_sim(True, num_flows=40)
        per_view = []
        monkeypatch.setattr(
            LCMPRouter, "on_telemetry", lambda self, view, now: per_view.append(view)
        )
        plane = sim.telemetry
        sim.run()
        assert per_view == []
        (feed,) = plane._feeds
        assert isinstance(feed, LCMPTelemetryFeed)
        assert len(feed._groups) == 1
        routers = [switch.router for switch in sim.network.switches.values()]
        assert all(r.registers is feed.registers for r in routers)
        rows = sorted(row for r in routers for row in r.port_rows.values())
        assert rows == list(range(plane.num_ports))

    def test_liveness_delivered_only_when_a_port_flips(self, monkeypatch):
        sim = build_sim(True, make_scenario=_cut_repair)
        calls = []
        tracker = type(sim.network.switch("DC1").router.liveness)
        observe = tracker.observe

        def counting(self, port, up):
            calls.append((port, up))
            return observe(self, port, up)

        monkeypatch.setattr(tracker, "observe", counting)
        sim.run()
        ports = sim.telemetry.num_ports
        # every port once on the first sweep, then DC1<->DC7 down and up
        assert len(calls) == ports + 4
        assert calls[ports:] == [("DC7", False), ("DC1", False), ("DC7", True), ("DC1", True)]

    def test_registers_follow_a_router_into_a_second_plane(self):
        """Binding moves a switch's register state with it, so a router fed
        by a new plane continues exactly where its registers stood."""
        sim = build_sim(True, num_flows=40)
        sim.run()
        router = sim.network.switch("DC1").router
        before = {port: router.registers.trend[row] for port, row in router.port_rows.items()}
        assert any(before.values())
        fresh = LCMPTelemetryFeed(sim.telemetry, [("DC1", router)])
        fresh._regroup()
        assert router.registers is fresh.registers
        after = {port: router.registers.trend[row] for port, row in router.port_rows.items()}
        assert after == before
        assert np.array_equal(
            np.sort(list(router.port_rows.values())), np.arange(len(before))
        )
