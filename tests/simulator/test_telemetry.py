"""Tests for the array-resident telemetry plane.

The plane's contract: its columns hold exactly the values the object-path
sampler reads, its :class:`PortSample` shims are field-for-field identical
to :meth:`DCISwitch.sample_ports` output, oblivious routers are skipped,
and telemetry-hungry routers end up in the same state whether fed per
sample or per columnar sweep.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import lcmp_router_factory
from repro.routing import make_router_factory
from repro.routing.ecmp import ECMPRouter
from repro.routing.redte import RedTERouter
from repro.simulator import (
    FluidSimulation,
    RuntimeNetwork,
    SimulationConfig,
    TelemetryPlane,
)
from repro.simulator.flow import FlowDemand
from repro.topology import build_testbed8
from repro.topology import testbed8_pathset as _testbed8_pathset


@pytest.fixture
def network(tiny_topology, tiny_pathset):
    return RuntimeNetwork(
        tiny_topology, tiny_pathset, make_router_factory("ecmp"), SimulationConfig()
    )


class TestRegistry:
    def test_ports_grouped_per_switch(self, network):
        plane = TelemetryPlane(network)
        assert plane.num_ports == len(network.inter_dc_links)
        assert set(plane.switches) == set(network.switches)
        for dc in plane.switches:
            view = plane.view(dc)
            assert set(view.port_dcs) == set(network.switch(dc).ports)

    def test_oblivious_routers_not_consumers(self, network):
        plane = TelemetryPlane(network)
        assert plane._consumers == []
        assert not ECMPRouter().consumes_telemetry()
        assert RedTERouter().consumes_telemetry()

    def test_rejects_bad_alpha(self, network):
        with pytest.raises(ValueError, match="ewma_alpha"):
            TelemetryPlane(network, ewma_alpha=0.0)


class TestSweep:
    def test_columns_match_object_samples(self, network):
        link = network.link("A", "B")
        link.queue_bytes = 123_456.0
        link.carried_bytes = 42.0
        plane = TelemetryPlane(network)
        plane.sweep(now=0.001)
        for dc in plane.switches:
            view = plane.view(dc)
            samples = network.switch(dc).sample_ports(now=0.001)
            for i, sample in enumerate(samples):
                assert view.queue_bytes[i] == sample.queue_bytes
                assert view.carried_bytes[i] == sample.carried_bytes
                assert view.cap_bps[i] == sample.cap_bps
                assert bool(view.up[i]) == sample.up
                assert view.buffer_bytes[i] == sample.buffer_bytes

    def test_shim_samples_identical_to_object_path(self, network):
        network.link("A", "C").queue_bytes = 77_000.0
        plane = TelemetryPlane(network)
        plane.sweep(now=0.002)
        for dc in plane.switches:
            shim = plane.view(dc).build_samples(now=0.002)
            direct = network.switch(dc).sample_ports(now=0.002)
            assert [dataclasses.asdict(s) for s in shim] == [
                dataclasses.asdict(s) for s in direct
            ]

    def test_utilization_and_ewma_columns(self, network):
        plane = TelemetryPlane(network, ewma_alpha=0.5)
        link = network.link("A", "B")
        plane.sweep(now=0.0)
        assert plane.utilization.max() == 0.0  # first sweep: no interval yet
        link.queue_bytes = 1000.0
        link.carried_bytes = 12_500.0  # 100 kbit over 1 ms
        plane.sweep(now=0.001)
        view = plane.view("A")
        i = view.port_dcs.index("B")
        expected_util = (12_500.0 * 8.0) / (link.cap_bps * 0.001)
        assert view.utilization[i] == pytest.approx(expected_util)
        assert view.queue_ewma[i] == pytest.approx(0.5 * 1000.0)  # EWMA from 0
        plane.sweep(now=0.002)
        assert plane.view("A").queue_ewma[i] == pytest.approx(750.0)
        assert plane.sweeps == 3

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
            view.queue_ewma[0] = 1.0


class TestRouterStateEquivalence:
    """Columnar delivery must leave routers in exactly the per-sample state."""

    @pytest.mark.parametrize("router", ["redte", "lcmp"])
    def test_sweep_vs_samples(self, router, tiny_topology, tiny_pathset):
        def build(use_plane):
            if router == "lcmp":
                factory = lcmp_router_factory(tiny_topology, tiny_pathset)
            else:
                factory = make_router_factory(router)
            network = RuntimeNetwork(
                tiny_topology, tiny_pathset, factory, SimulationConfig()
            )
            network.link("A", "B").queue_bytes = 300_000.0
            network.link("A", "C").queue_bytes = 10_000.0
            if use_plane:
                plane = TelemetryPlane(network)
                for step in range(5):
                    network.link("A", "B").queue_bytes += 50_000.0
                    plane.sweep(now=0.001 * (step + 1))
                    plane.feed_routers(now=0.001 * (step + 1))
            else:
                for step in range(5):
                    network.link("A", "B").queue_bytes += 50_000.0
                    network.sample_all_ports(now=0.001 * (step + 1))
            return network.switch("A").router

        plane_router = build(use_plane=True)
        sample_router = build(use_plane=False)
        candidates = tiny_pathset.candidates("A", "B")
        for flow_id in range(40):
            demand = FlowDemand(flow_id, "A", "B", 0, 1, 50_000, 0.01)
            a = plane_router.select("B", candidates, demand, 0.01)
            b = sample_router.select("B", candidates, demand, 0.01)
            assert a.dcs == b.dcs
        if router == "redte":
            assert plane_router._weights == sample_router._weights
            assert plane_router._carried == sample_router._carried
        else:
            for port in sample_router.estimator.ports():
                a_state = plane_router.estimator.port_state(port)
                b_state = sample_router.estimator.port_state(port)
                assert dataclasses.asdict(a_state) == dataclasses.asdict(b_state)


class TestEndToEndTraceEquivalence:
    """Telemetry traces must stay bit-identical across both control planes
    (the monitored half of the equivalence criterion; the cross-core
    scenario equivalence lives in test_vectorized_equivalence.py)."""

    def run(self, vectorized):
        from repro.congestion_control import make_cc_factory
        from repro.workloads import TrafficConfig, TrafficGenerator

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

    def test_trace_identical_across_control_planes(self):
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
