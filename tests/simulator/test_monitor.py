"""Tests for link tracing at the monitor cadence."""

import numpy as np
import pytest

from repro.routing import make_router_factory
from repro.simulator import LinkTrace, RuntimeNetwork, SimulationConfig, TelemetryPlane


@pytest.fixture
def network(tiny_topology, tiny_pathset):
    return RuntimeNetwork(
        tiny_topology, tiny_pathset, make_router_factory("ecmp"), SimulationConfig()
    )


class TestSweepTrace:
    def test_sweep_appends_trace(self, network):
        trace = LinkTrace()
        plane = TelemetryPlane(network)
        network.link("A", "B").queue_bytes = 500.0
        for now in (0.001, 0.002):
            plane.sweep(now)
            plane.observe_trace(trace, now)
        series = trace.series(("A", "B"))
        assert len(series) == 2
        assert series[0].queue_bytes == 500.0
        assert [s.time_s for s in series] == [0.001, 0.002]
        assert trace.keys() == [link.key for link in network.inter_dc_links]


class TestLinkTrace:
    def test_peak_queue(self):
        trace = LinkTrace()
        zeros = np.zeros(1)
        for now, queue in ((0.0, 100.0), (0.1, 900.0), (0.2, 300.0)):
            trace.observe_batch([("A", "C")], now, np.array([queue]), zeros, zeros)
        assert trace.peak_queue(("A", "C")) == 900
        assert trace.peak_queue(("C", "A")) == 0.0

    def test_unknown_key_empty(self):
        trace = LinkTrace()
        assert trace.series(("X", "Y")) == []
        assert trace.keys() == []
