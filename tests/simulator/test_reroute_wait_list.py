"""The re-route wait list: a stranded flow retries only when its walk can change.

After a failed re-route the simulation parks the flow; it is retried when
link state moves, or — when its failed walk made an adaptive choice — when
the routers see a telemetry sweep or a housekeeping tick (DESIGN.md,
"Injection flow").  Each case runs on both cores and is checked against
``RetryEveryStep``, a test-local subclass that never parks — the
retry-on-every-sweep behaviour the wait list replaced, kept here as an
oracle: the flow-id, FCT, slowdown and failed-flow columns must be
identical.

The last class pins a fix that rides along: a re-route rebases the
controller's base-RTT parameters (TIMELY's thresholds), so a TIMELY flow
moved onto a longer path is not driven to its rate floor.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.congestion_control import make_cc_factory
from repro.core import lcmp_router_factory
from repro.routing import make_router_factory
from repro.scenarios.events import LinkDown, LinkUp, Scenario
from repro.scenarios.invariants import FailoverRecorder
from repro.simulator import FluidSimulation, RuntimeNetwork, SimulationConfig
from repro.simulator.flow import FlowDemand
from repro.topology import GBPS, MS, PathSet, Topology

CORES = pytest.mark.parametrize("vectorized", [False, True], ids=["scalar", "array"])


class RetryEveryStep(FluidSimulation):
    """The oracle: a failed re-route never parks, so every sweep retries it."""

    def _park(self, flow, first):
        pass


def build_topology(links, name="wait-list"):
    """DCs with 4 hosts each, joined by 1 Gbps links ``(a, b, delay_ms)``."""
    topo = Topology(name)
    for dc in sorted({dc for a, b, _ in links for dc in (a, b)}):
        topo.add_dc(dc)
    for a, b, delay_ms in links:
        topo.add_inter_dc_link(a, b, cap_bps=1 * GBPS, delay_s=delay_ms * MS)
    for dc in topo.dcs:
        topo.add_hosts(dc, count=4, nic_bps=1 * GBPS)
    topo.validate()
    return topo


def demands(src, dst, count, size_bytes=5_000_000):
    return [
        FlowDemand(
            flow_id=i,
            src_dc=src,
            dst_dc=dst,
            src_host=i % 4,
            dst_host=(i + 1) % 4,
            size_bytes=size_bytes,
            arrival_s=1e-3 * i,
        )
        for i in range(count)
    ]


def run(links, flows, scenario, vectorized, router="ecmp", cc="dcqcn", sim_cls=FluidSimulation):
    """One instrumented run; returns ``(result, recorder)``."""
    topology = build_topology(links)
    paths = PathSet(topology, max_candidates=4, max_extra_hops=1)
    config = SimulationConfig(
        seed=5,
        vectorized=vectorized,
        instrumentation=True,
        max_sim_time_s=2.0,
        drain_timeout_s=2.0,
    )
    factory = (
        lcmp_router_factory(topology, paths) if router == "lcmp" else make_router_factory(router)
    )
    network = RuntimeNetwork(topology, paths, factory, config)
    sim = sim_cls(network, flows, make_cc_factory(cc), config, scenario=scenario)
    recorder = FailoverRecorder().attach(sim)
    return sim.run(), recorder


def columns(result):
    store = result.store
    return (
        store.column("flow_id").tolist(),
        store.fcts().tolist(),
        store.slowdowns().tolist(),
        [dataclasses.asdict(f) for f in result.failed_flows],
    )


def assert_matches_oracle(links, flows, scenario, vectorized, **kwargs):
    """Run with the wait list and with the oracle; the output columns agree."""
    result, recorder = run(links, flows, scenario, vectorized, **kwargs)
    oracle, oracle_recorder = run(
        links, flows, scenario, vectorized, sim_cls=RetryEveryStep, **kwargs
    )
    assert columns(result) == columns(oracle)
    assert result.scenario_metrics.total_disrupted > 0
    assert len(recorder.attempts) < len(oracle_recorder.attempts)
    return result, recorder


#: X - Y - W: the X->Y flows have no alternative to the X-Y link
LINE = (("X", "Y", 1.0), ("Y", "W", 1.0))


@CORES
class TestNoAlternative:
    def test_one_attempt_per_wake(self, vectorized):
        """A cut with no alternative, two unrelated link events, then the
        repair: each stranded flow is tried once when cut and once per link
        event, and heals in place at the repair without an attempt."""
        scenario = Scenario(
            name="no-alternative",
            events=(
                LinkDown(0.010, "X", "Y"),
                LinkDown(0.020, "Y", "W"),
                LinkUp(0.030, "Y", "W"),
                LinkUp(0.040, "X", "Y"),
            ),
        )
        result, recorder = assert_matches_oracle(
            LINE, demands("X", "Y", 6), scenario, vectorized
        )
        stranded = result.scenario_metrics.total_disrupted
        counters = result.stats["counters"]
        assert counters["failover.reroute_attempts"] == stranded * 3
        assert counters["failover.parked"] == stranded
        assert counters["failover.wakeups"] == stranded * 2
        assert result.scenario_metrics.total_restored == stranded
        assert sorted({t for t, _ in recorder.attempts}) == [0.010, 0.020, 0.030]

    def test_stranded_timeout_fails_a_parked_flow(self, vectorized):
        """A parked flow still fails at the first sweep past its stranded
        timeout, although no wake condition holds there."""
        scenario = Scenario(
            name="no-alternative-timeout",
            events=(
                LinkDown(0.010, "X", "Y"),
                LinkDown(0.020, "Y", "W"),
                LinkUp(0.040, "X", "Y"),
            ),
            stranded_timeout_s=0.015,
        )
        result, recorder = assert_matches_oracle(
            LINE, demands("X", "Y", 6), scenario, vectorized
        )
        failed = result.failed_flows
        assert len(failed) == result.scenario_metrics.total_disrupted
        assert {f.failed_s for f in failed} == {failed[0].failed_s}
        assert failed[0].failed_s >= 0.025
        # the failing sweep made no attempt: the flows were still parked
        assert max(t for t, _ in recorder.attempts) == 0.020
        assert result.stats["counters"]["failover.reroute_attempts"] == len(failed) * 2


#: S -> M is the only way out of S; M has three ways on to D, and M-B is
#: the short one LCMP prefers
FAN = (
    ("S", "M", 1.0),
    ("M", "B", 1.0),
    ("M", "C", 2.0),
    ("M", "E", 2.0),
    ("B", "D", 1.0),
    ("C", "D", 2.0),
    ("E", "D", 2.0),
)


@CORES
class TestAdaptiveDownstreamChoice:
    def test_telemetry_wakes_fire(self, vectorized):
        """LCMP, with the only choice at a downstream switch: the source has
        one next hop, M loses the preferred next hop B and re-hashes among C
        and E, whose links on to D are cut too.  That walk made an adaptive
        choice, so the next telemetry sweep wakes the flow (an attempt at an
        instant with no link event); the retry follows M's new cache pin and
        parks until a link comes back."""
        scenario = Scenario(
            name="downstream-choice",
            events=(
                LinkDown(0.010, "C", "D"),
                LinkDown(0.010, "E", "D"),
                LinkDown(0.010, "M", "B"),
                LinkUp(0.030, "C", "D"),
                LinkUp(0.040, "E", "D"),
                LinkUp(0.050, "M", "B"),
            ),
        )
        result, recorder = assert_matches_oracle(
            FAN, demands("S", "D", 8), scenario, vectorized, router="lcmp"
        )
        events = {0.010, 0.030, 0.040, 0.050}
        telemetry_wakes = [t for t, _ in recorder.attempts if t not in events]
        assert telemetry_wakes
        assert result.stats["counters"]["failover.wakeups"] >= len(telemetry_wakes)
        assert result.scenario_metrics.total_rerouted > 0


@CORES
class TestTimelyRerouteOntoLongerPath:
    def test_rerouted_flow_finishes(self, vectorized):
        """X-Y is 1 ms, X-Z-Y 10 ms.  The flow starts on X-Y (X-Z is down at
        its arrival) and is moved onto X-Z-Y at 10 ms.  With TIMELY's
        thresholds rebased on the new path it finishes at full speed; with
        the old path's thresholds every RTT sample exceeded ``t_high`` and
        the flow sat at its 1 Mbps floor past the 2 s deadline."""
        links = (("X", "Y", 1.0), ("X", "Z", 5.0), ("Z", "Y", 5.0))
        scenario = Scenario(
            name="onto-longer-path",
            events=(
                LinkDown(0.0, "X", "Z"),
                LinkUp(0.010, "X", "Z"),
                LinkDown(0.010, "X", "Y"),
            ),
        )
        flows = demands("X", "Y", 1, size_bytes=20_000_000)
        result, _ = run(links, flows, scenario, vectorized, cc="timely")
        other, _ = run(links, flows, scenario, not vectorized, cc="timely")
        assert result.stats["counters"]["slow_path.reroutes"] == 1
        assert result.unfinished_flows == 0
        assert result.store.column("flow_id").tolist() == [0]
        assert result.store.route(int(result.store.path_indices()[0])) == ("X", "Z", "Y")
        # 20 MB at 1 Gbps is 160 ms; the floor would take minutes
        assert result.store.fcts()[0] < 0.25
        assert columns(result) == columns(other)
        assert np.array_equal(result.store.column("arrival_s"), other.store.column("arrival_s"))
