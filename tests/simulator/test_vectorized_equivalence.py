"""Scalar-vs-array equivalence: the core guarantee of the numpy paths.

The array core (``SimulationConfig(vectorized=True)``, the default) must
produce *bit-for-bit* identical results to the pure-Python scalar update
loop on the same seed: every FCT record field, every link statistic,
every scenario recovery metric.  These tests run both cores on identical
inputs — static runs, scenario runs exercising mid-run reroutes, capacity
changes, refcounted link-down windows, surges and stranded-flow failures,
and a high-concurrency (≥1500 flows) run with mid-run reroutes that forces
FlowTable slot churn — and compare everything the simulation reports.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.congestion_control import (
    available_ccs,
    make_cc_factory,
    make_mixed_cc_factory,
)
from repro.congestion_control.base import CongestionControl
from repro.core import lcmp_router_factory
from repro.experiments import ExperimentRunner, ExperimentSpec
from repro.routing import make_router_factory
from repro.scenarios import get_scenario
from repro.scenarios.events import CapacityChange, LinkDown, LinkUp, Scenario, TrafficSurge
from repro.scenarios.library import single_link_cut
from repro.simulator import FluidSimulation, RuntimeNetwork, SimulationConfig
from repro.simulator import fluid as fluid_module
from repro.simulator.flow import FeedbackSignal, FlowDemand
from repro.simulator.incidence import FlowLinkIncidence
from repro.topology import build_bso13, bso13_pathset, build_testbed8
from repro.topology import testbed8_pathset as _testbed8_pathset
from repro.workloads import TrafficConfig, TrafficGenerator


def run_sim(
    vectorized,
    scenario=None,
    cc="dcqcn",
    num_flows=160,
    trace_links=False,
    instrumentation=False,
):
    topology = build_testbed8(capacity_scale=0.1)
    paths = _testbed8_pathset(topology)
    config = SimulationConfig(
        seed=7, vectorized=vectorized, instrumentation=instrumentation
    )
    traffic = TrafficConfig(
        workload="websearch",
        load=0.35,
        num_flows=num_flows,
        pairs=[("DC1", "DC8"), ("DC8", "DC1")],
        seed=7,
    )
    demands = TrafficGenerator(topology, paths, traffic).generate()
    network = RuntimeNetwork(topology, paths, make_router_factory("ecmp"), config)
    factory = (
        make_mixed_cc_factory(cc, seed=7) if isinstance(cc, tuple) else make_cc_factory(cc)
    )
    sim = FluidSimulation(
        network,
        demands,
        factory,
        config,
        trace_links=trace_links,
        scenario=scenario,
    )
    return sim.run()


#: heterogeneous fleet used by the mixed-CC equivalence cases
MIX = (("dcqcn", 0.6), ("hpcc", 0.2), ("timely", 0.2))


def assert_records_identical(scalar, vectorized):
    assert len(scalar.records) == len(vectorized.records)
    for a, b in zip(scalar.records, vectorized.records):
        assert dataclasses.asdict(a) == dataclasses.asdict(b)


def assert_results_identical(scalar, vectorized):
    assert_records_identical(scalar, vectorized)
    assert scalar.duration_s == vectorized.duration_s
    assert scalar.unfinished_flows == vectorized.unfinished_flows
    assert scalar.routing_decisions == vectorized.routing_decisions
    assert scalar.monitor_samples == vectorized.monitor_samples
    assert len(scalar.link_stats) == len(vectorized.link_stats)
    for a, b in zip(scalar.link_stats, vectorized.link_stats):
        assert dataclasses.asdict(a) == dataclasses.asdict(b)
    assert len(scalar.failed_flows) == len(vectorized.failed_flows)
    for a, b in zip(scalar.failed_flows, vectorized.failed_flows):
        assert dataclasses.asdict(a) == dataclasses.asdict(b)


def assert_scenario_metrics_identical(scalar, vectorized):
    a, b = scalar.scenario_metrics, vectorized.scenario_metrics
    assert (a is None) == (b is None)
    if a is None:
        return
    assert a.scenario_name == b.scenario_name
    assert len(a.outcomes) == len(b.outcomes)
    for oa, ob in zip(a.outcomes, b.outcomes):
        assert dataclasses.asdict(oa) == dataclasses.asdict(ob)



#: per-scenario builder kwargs that land every event inside the default
#: ~50 ms run of :func:`run_sim`, so the scenario equivalence cases
#: exercise real mid-run disruptions instead of passing vacuously
EARLY_EVENTS = {
    "single-link-cut": dict(fail_at_s=0.01, recover_at_s=0.03),
    "cascading-failure": dict(first_at_s=0.01, interval_s=0.005, repair_at_s=0.035),
    "diurnal-surge": dict(first_peak_s=0.01, period_s=0.015, peaks=2, flows_per_peak=40),
    "rolling-maintenance": dict(first_at_s=0.005, window_s=0.01, gap_s=0.005),
    "conduit-cut": dict(cut_at_s=0.01, repair_at_s=0.025, stagger_s=0.005),
    "regional-power-outage": dict(start_at_s=0.01, duration_s=0.025),
    "maintenance-calendar": dict(first_at_s=0.005, window_s=0.01, period_s=0.02, occurrences=2),
}


def early_scenario(name):
    """A canned scenario whose events actually fire inside a run_sim run."""
    return get_scenario(name, **EARLY_EVENTS[name])


class TestStaticEquivalence:
    def test_static_run_bitwise_identical(self):
        scalar = run_sim(vectorized=False)
        vector = run_sim(vectorized=True)
        assert_results_identical(scalar, vector)

    def test_link_trace_identical(self):
        scalar = run_sim(vectorized=False, num_flows=60, trace_links=True)
        vector = run_sim(vectorized=True, num_flows=60, trace_links=True)
        assert scalar.trace.keys() == vector.trace.keys()
        for key in scalar.trace.keys():
            sa, sb = scalar.trace.series(key), vector.trace.series(key)
            assert len(sa) == len(sb)
            for pa, pb in zip(sa, sb):
                assert dataclasses.asdict(pa) == dataclasses.asdict(pb)


class TestScenarioEquivalence:
    """Mid-run reroutes, capacity events and refcounted link-down windows
    must stay bit-for-bit compatible (the ISSUE's hard requirement)."""

    @pytest.mark.parametrize(
        "instrumentation", [False, True], ids=["plain", "instrumented"]
    )
    @pytest.mark.parametrize("name", sorted(EARLY_EVENTS))
    def test_canned_scenarios(self, name, instrumentation):
        """The array core under every canned scenario matches the scalar
        spec bit for bit.  Instrumented, it must still match (observing a
        run must not change it) and its reroute counter must agree with the
        scenario metrics."""
        scalar = run_sim(vectorized=False, scenario=early_scenario(name))
        array = run_sim(
            vectorized=True, scenario=early_scenario(name),
            instrumentation=instrumentation,
        )
        assert any(
            o.applied_s is not None for o in scalar.scenario_metrics.outcomes
        ), f"{name}: no event fired; the equivalence case is vacuous"
        assert_results_identical(scalar, array)
        assert_scenario_metrics_identical(scalar, array)
        assert scalar.stats is None
        if instrumentation:
            counters = array.stats["counters"]
            assert counters["slow_path.reroutes"] == array.scenario_metrics.total_rerouted
            assert counters["engine.events_fired"] > 0

    @pytest.mark.parametrize("cc", ["hpcc", "timely", "dctcp", "ideal"])
    def test_single_link_cut_per_cc(self, cc):
        """Scenario disruption under every migrated CC class: the in-place
        kernels stay bit-identical through mid-run reroutes."""
        scalar = run_sim(
            vectorized=False, cc=cc, num_flows=100,
            scenario=early_scenario("single-link-cut"),
        )
        array = run_sim(
            vectorized=True, cc=cc, num_flows=100,
            scenario=early_scenario("single-link-cut"),
        )
        assert_results_identical(scalar, array)
        assert_scenario_metrics_identical(scalar, array)

    def test_single_link_cut_mixed_fleet(self):
        """Scenario disruption on a heterogeneous fleet (grouped kernels)."""
        scalar = run_sim(
            vectorized=False, cc=MIX, num_flows=100,
            scenario=early_scenario("single-link-cut"),
        )
        array = run_sim(
            vectorized=True, cc=MIX, num_flows=100,
            scenario=early_scenario("single-link-cut"),
        )
        assert_results_identical(scalar, array)
        assert_scenario_metrics_identical(scalar, array)

    def test_overlapping_faults_and_capacity_events(self):
        # an explicit cut overlapping a brownout plus a surge: exercises
        # refcounted down-causes, capacity_factor changes and injected
        # arrivals on the vectorized incidence structure
        scenario = Scenario(
            name="composite",
            events=(
                CapacityChange(0.2, "DC1", "DC7", factor=0.5),
                LinkDown(0.3, "DC1", "DC7"),
                TrafficSurge(
                    0.4,
                    pairs=(("DC1", "DC8"),),
                    load=0.3,
                    num_flows=60,
                    workload="websearch",
                    seed=99,
                ),
                LinkUp(0.9, "DC1", "DC7"),
                CapacityChange(1.1, "DC1", "DC7", factor=1.0),
            ),
            stranded_timeout_s=0.4,
        )
        scalar = run_sim(vectorized=False, scenario=scenario)
        vector = run_sim(vectorized=True, scenario=scenario)
        assert_results_identical(scalar, vector)
        assert_scenario_metrics_identical(scalar, vector)


#: size and horizon of the RTT-shortening reroute case
RTT_SHORTENING_FLOWS = 80
RTT_SHORTENING_WINDOW_S = 1.3


def build_rtt_shortening_sim(vectorized, cc, instrumentation=False):
    """Flows on the 500 ms DC1–DC2 route re-routed onto far shorter RTTs mid-run.

    Signals already in flight (stamped with the old RTT) land in the same
    ticks as freshly enqueued ones, so rows get several signals due at once.
    """
    topology = build_testbed8(capacity_scale=0.1)
    paths = _testbed8_pathset(topology)
    hosts = topology.host_groups["DC1"].count
    demands = [
        FlowDemand(
            flow_id=i,
            src_dc="DC1" if i % 2 == 0 else "DC8",
            dst_dc="DC8" if i % 2 == 0 else "DC1",
            src_host=i % hosts,
            dst_host=(i * 7 + 1) % hosts,
            # huge flows outlive the old-RTT feedback horizon under
            # every CC (the collision needs the rerouted flows alive
            # when their stale signals land); small ones yield records
            size_bytes=120_000 if i % 5 == 0 else 2_000_000_000,
            arrival_s=0.001 * (i % 10) + 1e-4,
        )
        for i in range(RTT_SHORTENING_FLOWS)
    ]
    scenario = Scenario(
        name="rtt-shortening",
        events=(LinkDown(0.05, "DC1", "DC2"), LinkUp(1.2, "DC1", "DC2")),
    )
    config = SimulationConfig(
        seed=11,
        vectorized=vectorized,
        max_sim_time_s=RTT_SHORTENING_WINDOW_S,
        drain_timeout_s=RTT_SHORTENING_WINDOW_S,
        instrumentation=instrumentation,
    )
    network = RuntimeNetwork(topology, paths, make_router_factory("ecmp"), config)
    factory = (
        make_mixed_cc_factory(cc, seed=11) if isinstance(cc, tuple) else make_cc_factory(cc)
    )
    return FluidSimulation(network, demands, factory, config, scenario=scenario)


class TestRttShorteningRerouteEquivalence:
    """Several feedback lanes coming due in one step — the repeated-delivery
    slow path (per-row deliver-time waves in ``FlowTable.deliver_feedback``).

    Flows hashed onto the 500 ms DC1–DC2 route lose it mid-run and re-route
    onto paths with RTTs shorter by far more than an update step, so the
    signals already in flight (stamped with the old RTT) land in the same
    ticks as freshly enqueued ones.  Delivery order must match the scalar
    core's per-flow deliver-time order exactly, for every CC class and for
    a mixed fleet; the test also asserts the slow path actually ran."""

    def run_reroute(self, vectorized, cc, instrumentation=False):
        return build_rtt_shortening_sim(vectorized, cc, instrumentation).run()

    @pytest.mark.parametrize(
        "cc", ["dcqcn", "hpcc", "timely", "dctcp", "ideal", MIX],
        ids=["dcqcn", "hpcc", "timely", "dctcp", "ideal", "mixed"],
    )
    def test_repeated_delivery_matches_scalar(self, cc):
        # the array run carries the observability plane, which both proves
        # the slow path ran (slow_path.deliver_repeated) and — compared
        # against the uninstrumented scalar run — that instrumentation
        # leaves the numerics untouched
        array = self.run_reroute(vectorized=True, cc=cc, instrumentation=True)
        repeated = array.stats["counters"].get("slow_path.deliver_repeated", 0)
        assert repeated > 0, "the repeated-delivery path never ran"
        assert array.scenario_metrics.total_rerouted > 0
        assert array.stats["counters"]["slow_path.reroutes"] > 0
        assert len(array.records) > 0
        scalar = self.run_reroute(vectorized=False, cc=cc)
        assert scalar.stats is None
        assert_results_identical(scalar, array)
        assert_scenario_metrics_identical(scalar, array)


class TestHighConcurrencyEquivalence:
    """≥1500 concurrent flows with mid-run reroutes.  Sustained
    concurrency at this scale plus a link-down/link-up window exercises
    FlowTable slot churn, the slot-keyed feedback delay line, the epoch
    guard and the flatnonzero-based re-validation sweep — and the result
    must still be bit-for-bit identical across both update cores."""

    NUM_FLOWS = 1500
    WINDOW_S = 0.08

    def run_high_concurrency(self, vectorized):
        topology = build_testbed8(capacity_scale=0.1)
        paths = _testbed8_pathset(topology)
        hosts = topology.host_groups["DC1"].count
        demands = [
            FlowDemand(
                flow_id=i,
                src_dc="DC1" if i % 2 == 0 else "DC8",
                dst_dc="DC8" if i % 2 == 0 else "DC1",
                src_host=i % hosts,
                dst_host=(i * 7 + 1) % hosts,
                # mixed sizes so a share of flows completes inside the
                # window (slot reuse) while most sustain the concurrency
                size_bytes=60_000 if i % 5 == 0 else 20_000_000,
                arrival_s=0.001 * (i % 10) + 1e-4,
            )
            for i in range(self.NUM_FLOWS)
        ]
        scenario = Scenario(
            name="hc-reroute",
            events=(
                LinkDown(0.02, "DC1", "DC7"),
                LinkUp(0.055, "DC1", "DC7"),
            ),
        )
        config = SimulationConfig(
            seed=11,
            vectorized=vectorized,
            max_sim_time_s=self.WINDOW_S,
            drain_timeout_s=self.WINDOW_S,
        )
        network = RuntimeNetwork(topology, paths, make_router_factory("ecmp"), config)
        sim = FluidSimulation(
            network, demands, make_cc_factory("dcqcn"), config, scenario=scenario
        )
        return sim.run()

    def test_both_cores_bitwise_identical(self):
        scalar = self.run_high_concurrency(vectorized=False)
        array = self.run_high_concurrency(vectorized=True)
        # the run is cut at the window, so some flows must still be live
        # (sustained concurrency) and some must have finished (slot churn)
        assert array.unfinished_flows > 1000
        assert len(array.records) > 100
        assert array.scenario_metrics.total_disrupted > 0
        assert (
            array.scenario_metrics.total_rerouted
            + array.scenario_metrics.total_restored
            > 0
        )
        assert_results_identical(scalar, array)
        assert_scenario_metrics_identical(scalar, array)


class PerFlowIncidence(FlowLinkIncidence):
    """The layout the hop matrix replaced: one slot array per row, and a
    grid rebuilt by padding the active rows' arrays with the sentinel."""

    def __init__(self):
        super().__init__()
        self.per_flow = {}

    def set_paths(self, rows, paths):
        super().set_paths(rows, paths)
        for row, path in zip(rows, paths):
            self.per_flow[row] = np.array([self._slot(link) for link in path], dtype=np.intp)

    def remove_row(self, row):
        super().remove_row(row)
        self.per_flow.pop(row, None)

    def refresh(self, active_rows):
        rebuild = self._membership_dirty
        super().refresh(active_rows)
        if rebuild:
            arrays = [self.per_flow[row] for row in active_rows.tolist()]
            width = max((len(a) for a in arrays), default=0)
            self.grid = np.full((len(arrays), width), self.sentinel, dtype=np.intp)
            for i, slots in enumerate(arrays):
                self.grid[i, : len(slots)] = slots
            self.active_slots = np.unique(np.concatenate([[], *arrays])).astype(np.intp)


class TestHopMatrixChurnEquivalence:
    """LCMP on the 13-DC all-to-all matrix with a DC4<->DC6 cut: reroutes
    rewrite rows, completions free rows that later arrivals reuse with
    other hop counts, and a path longer than any seen at the first update
    step widens the hop matrix mid-run."""

    def run_churn(self, vectorized):
        topology = build_bso13(capacity_scale=0.1)
        paths = bso13_pathset(topology)
        config = SimulationConfig(seed=5, vectorized=vectorized, instrumentation=True)
        traffic = TrafficConfig(
            workload="websearch", load=0.1, num_flows=300, pairs="all_to_all", seed=5
        )
        demands = TrafficGenerator(topology, paths, traffic).generate()
        network = RuntimeNetwork(
            topology, paths, lcmp_router_factory(topology, paths), config
        )
        scenario = single_link_cut(
            fail_at_s=0.01, recover_at_s=0.03, src="DC4", dst="DC6"
        )
        sim = FluidSimulation(
            network, demands, make_cc_factory("dcqcn"), config, scenario=scenario
        )
        shapes = []
        self.sentinel_on_a_path = []
        if vectorized:

            def observe(s, now):
                inc = s._incidence
                shapes.append(inc.hops.shape)
                self.sentinel_on_a_path.append(inc.sentinel in inc.active_slots)

            sim.add_step_observer(observe)
        self.sim = sim
        return sim.run(), shapes

    def test_scalar_identical_through_row_reuse_and_widening(self):
        scalar, _ = self.run_churn(vectorized=False)
        array, shapes = self.run_churn(vectorized=True)
        assert_results_identical(scalar, array)
        assert_scenario_metrics_identical(scalar, array)
        counters = array.stats["counters"]
        assert counters["slow_path.reroutes"] > 0
        # rows were freed and reused: fewer matrix rows than flows admitted
        rows, width = shapes[-1]
        assert rows < counters["arrivals.flows_admitted"]
        assert len(array.records) == counters["arrivals.flows_admitted"]
        assert width > shapes[0][1], "the hop matrix never widened mid-run"

    def test_sentinel_stays_invisible(self):
        """After a ragged run the sentinel column is no link, was on no
        active path, was never integrated and still holds its identities."""
        self.run_churn(vectorized=True)
        inc = self.sim._incidence
        sentinel = inc.sentinel
        assert sentinel == len(inc.links) and len(inc.queue_bytes) == sentinel + 1
        assert self.sentinel_on_a_path and not any(self.sentinel_on_a_path)
        for name in (
            "queue_bytes", "peak_queue_bytes", "carried_bytes", "dropped_bytes", "offered_bps"
        ):
            assert getattr(inc, name)[sentinel] == 0.0, name
        assert inc.cap_bps[sentinel] == np.inf and inc.up[sentinel]

    def test_counters_match_the_per_flow_layout(self, monkeypatch):
        array, _ = self.run_churn(vectorized=True)
        monkeypatch.setattr(fluid_module, "FlowLinkIncidence", PerFlowIncidence)
        reference, _ = self.run_churn(vectorized=True)
        assert_results_identical(reference, array)
        assert_scenario_metrics_identical(reference, array)
        assert array.stats["counters"] == reference.stats["counters"]
        assert array.stats["counters"]["incidence.membership_rebuilds"] > 0


class TestCorrelatedScenarioEquivalence:
    """The correlated-failure families (SRLG conduit cuts, regional power
    events, compiled maintenance calendars) on both cores: per-link
    staggered repairs, blackout/degraded partitions and calendar-expanded
    timelines must not disturb cross-core bit-identity."""

    @pytest.mark.parametrize(
        "name", ["conduit-cut", "regional-power-outage", "maintenance-calendar"]
    )
    def test_all_cores_bitwise_identical(self, name):
        scenario = early_scenario(name)
        scalar = run_sim(vectorized=False, scenario=scenario)
        fired = [o for o in scalar.scenario_metrics.outcomes if o.applied_s is not None]
        assert fired, f"{name}: no event fired; the equivalence case is vacuous"
        assert any(o.links_affected > 0 for o in fired)
        array = run_sim(vectorized=True, scenario=scenario)
        assert_results_identical(scalar, array)
        assert_scenario_metrics_identical(scalar, array)

    def test_conduit_cut_mixed_fleet(self):
        scenario = early_scenario("conduit-cut")
        scalar = run_sim(vectorized=False, cc=MIX, scenario=scenario)
        array = run_sim(vectorized=True, cc=MIX, scenario=scenario)
        assert_results_identical(scalar, array)
        assert_scenario_metrics_identical(scalar, array)

    def test_empty_timeline_matches_no_scenario(self):
        """A scenario with no events (and no recurring expansion) leaves
        the run bit-identical to a scenario-free one: compiled_events() is
        the identity for non-calendar timelines."""
        empty = Scenario(name="empty")
        with_scenario = run_sim(vectorized=True, scenario=empty)
        without = run_sim(vectorized=True, scenario=None)
        assert_results_identical(with_scenario, without)


class TestEarlyStopEquivalence:
    """A run that stops before its first update step still builds a result."""

    def test_stop_before_first_update_step(self):
        spec = ExperimentSpec(name="early-stop")
        runner = ExperimentRunner()
        topology, pathset = runner.topology_for(spec)
        demands = runner.demands_for(spec, topology, pathset)

        def run(vectorized):
            config = runner.simulation_config_for(spec).with_overrides(
                max_sim_time_s=5e-4, vectorized=vectorized
            )
            network = RuntimeNetwork(
                topology, pathset, runner.router_factory_for(spec, topology, pathset), config
            )
            sim = FluidSimulation(network, demands, runner.cc_factory_for(spec), config)
            return sim.run()

        scalar, array = run(vectorized=False), run(vectorized=True)
        assert array.duration_s == 5e-4
        assert array.unfinished_flows > 0
        assert_results_identical(scalar, array)


class TestArrayCoreCallsNoController:
    """On the array core every CC call is a class kernel over table rows:
    no controller's ``on_feedback`` / ``on_interval`` runs and no
    ``FeedbackSignal`` is built — including the repeated-delivery reroute
    case."""

    @pytest.fixture
    def forbid_controller_calls(self, monkeypatch):
        def forbidden(self, *args, **kwargs):
            raise AssertionError(f"{type(self).__name__} object path used")

        classes = [type(make_cc_factory(name)(1e9, 0.01, 0)) for name in available_ccs()]
        for cls in classes + [CongestionControl]:
            monkeypatch.setattr(cls, "on_feedback", forbidden)
            monkeypatch.setattr(cls, "on_interval", forbidden)
        monkeypatch.setattr(FeedbackSignal, "__init__", forbidden)

    @pytest.mark.parametrize("cc", ["dcqcn", "hpcc", MIX], ids=["dcqcn", "hpcc", "mixed"])
    def test_static_and_scenario_runs(self, cc, forbid_controller_calls):
        result = run_sim(
            vectorized=True, cc=cc, num_flows=100,
            scenario=early_scenario("single-link-cut"),
        )
        assert len(result.records) > 0

    def test_rtt_shortening_reroute(self, forbid_controller_calls):
        result = TestRttShorteningRerouteEquivalence().run_reroute(
            vectorized=True, cc=MIX, instrumentation=True
        )
        assert result.stats["counters"]["slow_path.deliver_repeated"] > 0

    def test_scalar_core_does_call_them(self, forbid_controller_calls):
        """The guard is live: the scalar core trips it at once."""
        with pytest.raises(AssertionError, match="object path used"):
            run_sim(vectorized=False, num_flows=20)
