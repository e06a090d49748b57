"""Tests for the RedTE-style split-ratio TE baseline."""

from collections import Counter


from repro.routing import RedTERouter
from repro.simulator import FlowDemand

from tests.helpers import port_view


def demand(flow_id):
    return FlowDemand(flow_id, "DC1", "DC8", 0, 0, 1_000, 0.0)


class TestControlLoop:
    def test_no_update_before_control_interval(self, testbed_paths):
        router = RedTERouter(control_interval_s=0.1)
        router.on_telemetry(port_view("DC2", carried_bytes=0), now=0.0)
        router.on_tick(now=0.05)
        assert router.control_updates == 0

    def test_update_after_control_interval(self, testbed_paths):
        router = RedTERouter(control_interval_s=0.1)
        router.on_telemetry(port_view("DC2", carried_bytes=0), now=0.0)
        router.on_telemetry(port_view("DC3", carried_bytes=0), now=0.0)
        router.on_telemetry(port_view("DC2", carried_bytes=10_000_000), now=0.1)
        router.on_telemetry(port_view("DC3", carried_bytes=1_000_000), now=0.1)
        router.on_tick(now=0.15)
        assert router.control_updates == 1

    def test_weights_shift_toward_underutilised_ports(self, testbed_paths):
        router = RedTERouter(control_interval_s=0.1, step_size=0.5)
        # DC2 carried 10x the bytes of DC3 over the interval
        router.on_telemetry(port_view("DC2", carried_bytes=0), now=0.0)
        router.on_telemetry(port_view("DC3", carried_bytes=0), now=0.0)
        router.on_telemetry(port_view("DC2", carried_bytes=50_000_000), now=0.1)
        router.on_telemetry(port_view("DC3", carried_bytes=5_000_000), now=0.1)
        router.on_tick(now=0.11)
        assert router._weights["DC3"] > router._weights["DC2"]

    def test_weights_never_drop_below_floor(self, testbed_paths):
        router = RedTERouter(control_interval_s=0.05, step_size=1.0, min_weight=0.05)
        router.on_telemetry(port_view("DC2", carried_bytes=0), now=0.0)
        router.on_telemetry(port_view("DC3", carried_bytes=0), now=0.0)
        for i in range(1, 30):
            router.on_telemetry(port_view("DC2", carried_bytes=i * 50_000_000), now=i * 0.05)
            router.on_telemetry(port_view("DC3", carried_bytes=0), now=i * 0.05)
            router.on_tick(now=i * 0.05 + 0.01)
        assert router._weights["DC2"] >= 0.05


class TestSelection:
    def test_uniform_before_any_telemetry(self, testbed_paths):
        """Before the first control-loop execution RedTE behaves like static
        hashing — the paper's observation about its coarse timescale."""
        router = RedTERouter()
        candidates = testbed_paths.candidates("DC1", "DC8")
        counts = Counter(
            router.select("DC8", candidates, demand(i), 0.0).first_hop for i in range(1200)
        )
        assert set(counts) == {c.first_hop for c in candidates}
        assert min(counts.values()) > 1200 / 6 / 2

    def test_selection_follows_updated_weights(self, testbed_paths):
        router = RedTERouter(control_interval_s=0.1, step_size=1.0, min_weight=0.01)
        candidates = testbed_paths.candidates("DC1", "DC8")
        # make DC2 look persistently overloaded relative to everyone else
        for port in ("DC2", "DC3", "DC4", "DC5", "DC6", "DC7"):
            router.on_telemetry(port_view(port, carried_bytes=0), now=0.0)
        for step in range(1, 6):
            now = step * 0.1
            router.on_telemetry(port_view("DC2", carried_bytes=step * 100_000_000), now=now)
            for port in ("DC3", "DC4", "DC5", "DC6", "DC7"):
                router.on_telemetry(port_view(port, carried_bytes=step * 1_000_000), now=now)
            router.on_tick(now=now + 0.01)
        counts = Counter(
            router.select("DC8", candidates, demand(i), 1.0).first_hop for i in range(3000)
        )
        assert counts["DC2"] < counts["DC3"]

    def test_deterministic_per_flow(self, testbed_paths):
        router = RedTERouter()
        candidates = testbed_paths.candidates("DC1", "DC8")
        assert (
            router.select("DC8", candidates, demand(5), 0.0)
            is router.select("DC8", candidates, demand(5), 0.0)
        )
