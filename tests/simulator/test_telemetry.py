"""Tests for the telemetry plane.

The plane's contract: a plane that sweeps the link objects (the scalar
core) and one that sweeps the array core's incidence arrays hold identical
columns at every instant, oblivious routers are skipped, views are
read-only, and telemetry-consuming routers end up in bit-identical state on
the scalar and array cores, fault injection included.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.congestion_control import make_cc_factory
from repro.core import lcmp_router_factory
from repro.routing import make_router_factory
from repro.routing.ecmp import ECMPRouter
from repro.routing.redte import RedTERouter
from repro.scenarios import single_link_cut
from repro.simulator import (
    FluidSimulation,
    RuntimeNetwork,
    SimulationConfig,
    TelemetryPlane,
)
from repro.topology import build_testbed8
from repro.topology import testbed8_pathset as _testbed8_pathset
from repro.workloads import TrafficConfig, TrafficGenerator

COLUMNS = ("queue_bytes", "carried_bytes", "offered_bps", "cap_bps", "up", "buffer_bytes")


@pytest.fixture
def network(tiny_topology, tiny_pathset):
    return RuntimeNetwork(
        tiny_topology, tiny_pathset, make_router_factory("ecmp"), SimulationConfig()
    )


def build_cut_repair_sim(router, vectorized, num_flows=80):
    """A testbed8 run whose DC1<->DC7 cut and repair land while flows are in flight."""
    topology = build_testbed8(capacity_scale=0.1)
    paths = _testbed8_pathset(topology)
    # a 5 ms tick so RedTE's control loop runs within the short run
    config = SimulationConfig(seed=3, vectorized=vectorized, gc_interval_s=0.005)
    traffic = TrafficConfig(
        workload="websearch",
        load=0.5,
        num_flows=num_flows,
        pairs=[("DC1", "DC8"), ("DC8", "DC1")],
        seed=3,
    )
    demands = TrafficGenerator(topology, paths, traffic).generate()
    last = max(d.arrival_s for d in demands)
    if router == "lcmp":
        factory = lcmp_router_factory(topology, paths)
    else:
        factory = make_router_factory("redte", control_interval_s=0.005)
    network = RuntimeNetwork(topology, paths, factory, config)
    scenario = single_link_cut(fail_at_s=0.25 * last, recover_at_s=0.75 * last)
    return FluidSimulation(
        network, demands, make_cc_factory("dcqcn"), config, scenario=scenario
    )


class TestRegistry:
    def test_ports_grouped_per_switch(self, network):
        plane = TelemetryPlane(network)
        assert plane.num_ports == len(network.inter_dc_links)
        assert set(plane.switches) == set(network.switches)
        for dc in plane.switches:
            view = plane.view(dc)
            assert view.switch == dc
            assert set(view.port_dcs) == set(network.switch(dc).ports)

    def test_oblivious_routers_not_consumers(self, network):
        plane = TelemetryPlane(network)
        assert plane._consumers == []
        assert not ECMPRouter().consumes_telemetry()
        assert RedTERouter().consumes_telemetry()


class TestSweep:
    def test_columns_match_link_objects(self, network):
        link = network.link("A", "B")
        link.queue_bytes = 123_456.0
        link.carried_bytes = 42.0
        plane = TelemetryPlane(network)
        plane.sweep(now=0.001)
        for dc in plane.switches:
            view = plane.view(dc)
            for i, next_dc in enumerate(view.port_dcs):
                port = network.switch(dc).port_to(next_dc)
                assert view.queue_bytes[i] == port.queue_bytes
                assert view.carried_bytes[i] == port.carried_bytes
                assert view.cap_bps[i] == port.cap_bps
                assert bool(view.up[i]) == port.up
                assert view.buffer_bytes[i] == port.buffer_bytes
        assert plane.sweeps == 1

    def test_liveness_column_tracks_failures(self, network):
        plane = TelemetryPlane(network)
        plane.sweep(now=0.0)
        network.fail_link("A", "B")
        plane.sweep(now=0.001)
        view = plane.view("A")
        assert not view.up[view.port_dcs.index("B")]

    def test_columns_are_read_only(self, network):
        """Views window the live plane arrays; an in-place write by a
        router must raise instead of silently corrupting shared state."""
        plane = TelemetryPlane(network)
        plane.sweep(now=0.001)
        view = plane.view("A")
        with pytest.raises(ValueError):
            view.queue_bytes[:] = 0.0
        with pytest.raises(ValueError):
            view.up[0] = False
        with pytest.raises(dataclasses.FrozenInstanceError):
            view.queue_bytes = np.zeros(len(view.port_dcs))


class TestObjectVsIncidenceSweep:
    def test_planes_agree_at_every_step(self):
        """A plane sweeping the scalar core's link objects and a plane
        gathering from the array core's incidence arrays read the same
        columns after every update step, through the cut and the repair."""

        def sweeps(vectorized):
            sim = build_cut_repair_sim("lcmp", vectorized=vectorized)
            plane = TelemetryPlane(sim.network)
            if vectorized:
                plane.attach_incidence(sim._incidence)
            columns = []

            def sweep(sim, now):
                plane.sweep(now)
                columns.append({name: getattr(plane, name) for name in COLUMNS})

            sim.add_step_observer(sweep)
            sim.run()
            return columns

        objects, arrays = sweeps(vectorized=False), sweeps(vectorized=True)
        assert len(objects) == len(arrays) > 20
        for step, (a, b) in enumerate(zip(objects, arrays)):
            for name in COLUMNS:
                assert a[name].dtype == b[name].dtype, (name, step)
                assert np.array_equal(a[name], b[name]), (name, step)
        assert any(not step["up"].all() for step in objects)


class TestRouterStateAcrossCores:
    """Both cores must leave every telemetry consumer in identical state
    after every update step of a cut/repair run."""

    @staticmethod
    def snapshot(sim):
        state = {}
        for dc, switch in sim.network.switches.items():
            router = switch.router
            if router.name == "lcmp":
                regs = router.registers
                registers = {
                    port: tuple(
                        getattr(regs, name)[row].item()
                        for name in ("queue_cur", "trend", "dur_cnt", "sample_s",
                                     "interval_s", "rate_bps", "c_cong")
                    ) + (regs.c_cong_list[row],)
                    for port, row in router.port_rows.items()
                }
                state[dc] = (registers, dataclasses.asdict(router.liveness))
            else:
                state[dc] = (dict(router._weights), dict(router._carried))
        return state

    def run(self, router, vectorized):
        sim = build_cut_repair_sim(router, vectorized)
        states = []
        sim.add_step_observer(lambda sim, now: states.append(self.snapshot(sim)))
        sim.run()
        return sim, states

    @pytest.mark.parametrize("router", ["lcmp", "redte"])
    def test_identical_router_state(self, router):
        scalar_sim, scalar = self.run(router, vectorized=False)
        array_sim, array = self.run(router, vectorized=True)
        assert len(scalar) == len(array) > 0
        for step, (a, b) in enumerate(zip(scalar, array)):
            assert a == b, f"router state diverged after update step {step}"
        if router == "lcmp":
            assert any("DC7" in s["DC1"][1]["_down"] for s in scalar)
        else:
            assert any(r.control_updates > 0 for r in _routers(array_sim))
        assert scalar_sim.telemetry.sweeps == array_sim.telemetry.sweeps


def _routers(sim):
    return [switch.router for switch in sim.network.switches.values()]


class TestEndToEndTraceEquivalence:
    """Link traces must stay bit-identical across both cores."""

    def run(self, vectorized):
        topology = build_testbed8(capacity_scale=0.1)
        paths = _testbed8_pathset(topology)
        config = SimulationConfig(seed=3, vectorized=vectorized)
        traffic = TrafficConfig(
            workload="websearch",
            load=0.3,
            num_flows=80,
            pairs=[("DC1", "DC8")],
            seed=3,
        )
        demands = TrafficGenerator(topology, paths, traffic).generate()
        network = RuntimeNetwork(
            topology, paths, lcmp_router_factory(topology, paths), config
        )
        sim = FluidSimulation(
            network, demands, make_cc_factory("dcqcn"), config, trace_links=True
        )
        return sim.run()

    def test_trace_identical_across_cores(self):
        batched = self.run(vectorized=True)
        scalar = self.run(vectorized=False)
        assert batched.trace.keys() == scalar.trace.keys()
        for key in batched.trace.keys():
            sa = batched.trace.series(key)
            sc = scalar.trace.series(key)
            assert len(sa) == len(sc)
            for pa, pc in zip(sa, sc):
                assert dataclasses.asdict(pa) == dataclasses.asdict(pc)
        assert [r.fct_s for r in batched.records] == [r.fct_s for r in scalar.records]
