"""The reusable invariant checkers: they hold on good runs and fire on bad.

The cross-core fuzz harness (``tests/scenarios/fuzz``) exercises the
checkers on real simulations; these unit tests feed them synthetic
results to pin down their *sensitivity* — a checker that never fires is
no invariant at all — and the declarative outage-interval reconstruction
they share.
"""

import math

import pytest

from repro.scenarios import Scenario
from repro.scenarios.events import (
    DCMaintenance,
    LinkDown,
    LinkUp,
    MaintenanceCalendar,
    SRLGFailure,
)
from repro.scenarios.injector import EventOutcome, ScenarioMetrics
from repro.congestion_control import make_cc_factory
from repro.core import PortLivenessTracker, lcmp_router_factory
from repro.routing import make_router_factory
from repro.scenarios import invariants as invariants_module
from repro.scenarios.fuzz import build_fuzz_pathset, build_fuzz_topology
from repro.scenarios.invariants import (
    CORE_CONFIGS,
    FailoverRecorder,
    InvariantViolation,
    StepStateMonitor,
    assert_results_identical,
    check_decision_accounting,
    check_demand_conservation,
    check_lazy_invalidation,
    check_live_first_hop,
    check_loop_free_paths,
    check_recovery_bound,
    check_stranded_retry,
    down_intervals,
)
from repro.simulator import (
    FluidSimulation,
    RuntimeNetwork,
    SimulationConfig,
    SimulationResult,
)
from repro.simulator.fct import FlowRecord
from repro.simulator.flow import FlowDemand
from tests.helpers import store_of


def record(flow_id, arrival_s=0.0, fct_s=0.01):
    return FlowRecord(
        flow_id=flow_id,
        src_dc="A",
        dst_dc="B",
        size_bytes=100_000,
        arrival_s=arrival_s,
        fct_s=fct_s,
        ideal_fct_s=fct_s,
        slowdown=1.0,
        path_dcs=("A", "B"),
    )


def result_of(num_records, unfinished=0, metrics=None):
    return SimulationResult(
        store=store_of(record(i) for i in range(num_records)),
        link_stats=[],
        duration_s=1.0,
        unfinished_flows=unfinished,
        routing_decisions=0,
        monitor_samples=0,
        scenario_metrics=metrics,
    )


class TestCoreConfigs:
    def test_cores_with_distinct_flag_combinations(self):
        assert set(CORE_CONFIGS) == {"scalar", "array"}
        combos = {tuple(sorted(c.items())) for c in CORE_CONFIGS.values()}
        assert len(combos) == len(CORE_CONFIGS)


class TestDemandConservation:
    def test_balanced_run_passes(self):
        check_demand_conservation(result_of(10), num_demands=10)

    def test_lost_demand_fires(self):
        with pytest.raises(InvariantViolation, match="demand conservation"):
            check_demand_conservation(result_of(9), num_demands=10)

    def test_injected_and_cancelled_enter_the_balance(self):
        metrics = ScenarioMetrics(
            scenario_name="s",
            outcomes=[
                EventOutcome(
                    index=0, kind="traffic-surge", description="", scheduled_s=0.1,
                    applied_s=0.1, flows_injected=3,
                ),
                EventOutcome(
                    index=1, kind="traffic-drain", description="", scheduled_s=0.2,
                    applied_s=0.2, flows_cancelled=2,
                ),
            ],
        )
        # 10 base + 3 injected == 11 completed + 2 cancelled
        check_demand_conservation(result_of(11, metrics=metrics), num_demands=10)
        with pytest.raises(InvariantViolation):
            check_demand_conservation(result_of(12, metrics=metrics), num_demands=10)

    def test_duplicate_completion_fires(self):
        result = result_of(2)
        result.store = store_of([record(0), record(0)])
        with pytest.raises(InvariantViolation, match="duplicate"):
            check_demand_conservation(result, num_demands=2)


class TestDownIntervals:
    def topo(self, tiny_topology):
        return tiny_topology

    def test_cut_and_repair_span(self, tiny_topology):
        scenario = Scenario(
            name="s", events=(LinkDown(0.1, "A", "B"), LinkUp(0.3, "A", "B"))
        )
        intervals = down_intervals(scenario, tiny_topology)
        assert intervals[("A", "B")] == [(0.1, 0.3)]
        assert intervals[("B", "A")] == [(0.1, 0.3)]

    def test_unrepaired_cut_extends_forever(self, tiny_topology):
        scenario = Scenario(name="s", events=(LinkDown(0.1, "A", "B"),))
        (span,) = down_intervals(scenario, tiny_topology)[("A", "B")]
        assert span[0] == 0.1 and math.isinf(span[1])

    def test_coincident_cut_and_repair_net_to_nothing(self, tiny_topology):
        scenario = Scenario(
            name="s", events=(LinkDown(0.1, "A", "B"), LinkUp(0.1, "A", "B"))
        )
        assert down_intervals(scenario, tiny_topology) == {}

    def test_overlapping_causes_merge(self, tiny_topology):
        scenario = Scenario(
            name="s",
            events=(
                DCMaintenance(0.1, dc="B", duration_s=0.2),
                SRLGFailure(
                    0.2, name="g", links=(("A", "B"),), recover_at_s=0.5
                ),
            ),
        )
        intervals = down_intervals(scenario, tiny_topology)
        # maintenance [0.1, 0.3) and the cut [0.2, 0.5) merge into one span
        assert intervals[("A", "B")] == [(0.1, 0.5)]
        # the C<->B ports only suffer the maintenance window
        assert intervals[("C", "B")] == [(0.1, pytest.approx(0.3))]

    def test_staggered_srlg_repairs(self, tiny_topology):
        scenario = Scenario(
            name="s",
            events=(
                SRLGFailure(
                    0.1,
                    name="g",
                    links=(("A", "B"), ("C", "B")),
                    recover_at_s=0.2,
                    stagger_s=0.1,
                ),
            ),
        )
        intervals = down_intervals(scenario, tiny_topology)
        assert intervals[("A", "B")] == [(0.1, 0.2)]
        assert intervals[("C", "B")] == [(0.1, pytest.approx(0.3))]

    def test_calendar_expands_before_reconstruction(self, tiny_topology):
        scenario = Scenario(
            name="s",
            events=(
                MaintenanceCalendar(
                    0.1, dc="C", window_s=0.1, period_s=0.3, occurrences=2
                ),
            ),
        )
        intervals = down_intervals(scenario, tiny_topology)
        assert intervals[("A", "C")] == [
            (0.1, pytest.approx(0.2)),
            (pytest.approx(0.4), pytest.approx(0.5)),
        ]


class TestRecoveryBound:
    def metrics(self, disrupted=2, rerouted=2, restored=0, failed=0, latencies=()):
        return ScenarioMetrics(
            scenario_name="s",
            outcomes=[
                EventOutcome(
                    index=0, kind="link-down", description="", scheduled_s=0.1,
                    applied_s=0.1, flows_disrupted=disrupted,
                    flows_rerouted=rerouted, flows_restored=restored,
                    flows_failed=failed, reroute_latencies_s=list(latencies),
                ),
            ],
        )

    def scenario(self):
        return Scenario(
            name="s", events=(LinkDown(0.1, "A", "B"), LinkUp(0.3, "A", "B"))
        )

    def test_closed_disruptions_pass(self):
        result = result_of(5, metrics=self.metrics())
        check_recovery_bound(result, self.scenario(), update_interval_s=1e-3)

    def test_open_disruption_fires(self):
        result = result_of(5, metrics=self.metrics(disrupted=3, rerouted=2))
        with pytest.raises(InvariantViolation, match="open"):
            check_recovery_bound(result, self.scenario(), update_interval_s=1e-3)

    def test_slow_recovery_fires(self):
        # repair span is 0.2s; a 0.5s reroute latency breaches the bound
        result = result_of(5, metrics=self.metrics(latencies=(0.5,)))
        with pytest.raises(InvariantViolation, match="exceeding"):
            check_recovery_bound(result, self.scenario(), update_interval_s=1e-3)

    def test_residual_flows_fire_when_drain_required(self):
        result = result_of(5, unfinished=1, metrics=self.metrics())
        with pytest.raises(InvariantViolation, match="unfinished"):
            check_recovery_bound(result, self.scenario(), update_interval_s=1e-3)
        check_recovery_bound(
            result, self.scenario(), update_interval_s=1e-3, require_drained=False
        )


class TestBitIdentity:
    def test_identical_results_pass(self):
        assert_results_identical(result_of(3), result_of(3))

    def test_differing_record_fires(self):
        a, b = result_of(3), result_of(3)
        b.store = store_of([record(0), record(1, fct_s=0.011), record(2)])
        with pytest.raises(InvariantViolation, match="record mismatch"):
            assert_results_identical(a, b)

    def test_differing_counter_fires(self):
        a, b = result_of(3), result_of(3)
        b.unfinished_flows = 1
        with pytest.raises(InvariantViolation, match="unfinished_flows"):
            assert_results_identical(a, b)

    def test_metrics_presence_mismatch_fires(self):
        a = result_of(1)
        b = result_of(1, metrics=ScenarioMetrics(scenario_name="s"))
        with pytest.raises(InvariantViolation, match="only one side"):
            assert_results_identical(a, b)


# ---------------------------------------------------------------------- #
# strict step-state monitor
# ---------------------------------------------------------------------- #
def monitored_sim(tiny_topology, tiny_pathset, vectorized, corrupt=None):
    """A small congested run on the triangle with a StepStateMonitor attached.

    ``corrupt(sim)`` (optional) runs as an earlier step observer and may
    break the state the monitor then reads.
    """
    config = SimulationConfig(
        seed=3, vectorized=vectorized, max_sim_time_s=0.2, drain_timeout_s=0.2
    )
    demands = [
        FlowDemand(
            flow_id=i,
            src_dc="A",
            dst_dc="B",
            src_host=i % 4,
            dst_host=(i + 1) % 4,
            size_bytes=2_000_000,
            arrival_s=1e-4 * i,
        )
        for i in range(12)
    ]
    network = RuntimeNetwork(tiny_topology, tiny_pathset, make_router_factory("ecmp"), config)
    sim = FluidSimulation(network, demands, make_cc_factory("dcqcn"), config)
    if corrupt is not None:
        sim.add_step_observer(lambda s, now: corrupt(s))
    monitor = StepStateMonitor().attach(sim)
    return sim, monitor


@pytest.mark.parametrize("vectorized", [False, True], ids=["scalar", "array"])
class TestStepStateMonitor:
    def test_holds_on_a_real_run(self, tiny_topology, tiny_pathset, vectorized):
        sim, monitor = monitored_sim(tiny_topology, tiny_pathset, vectorized)
        result = sim.run()
        monitor.check()
        assert monitor.steps_observed > 0
        assert len(result.records) == 12
        # the run queued, so the queue bound was exercised above zero
        assert max(stat.peak_queue_bytes for stat in result.link_stats) > 0

    @pytest.mark.parametrize("kind", ["sending-rate", "remaining-bytes", "queue"])
    def test_fires_on_corrupted_state(self, tiny_topology, tiny_pathset, vectorized, kind):
        def corrupt(sim):
            if not sim._active:
                return
            flow = sim._active[0]
            if kind == "sending-rate":
                if sim._table is None:
                    flow.cc.rate_bps = float("nan")
                else:
                    sim._table.cc_rate_bps[flow._slot] = float("nan")
            elif kind == "remaining-bytes":
                flow.remaining_bytes = -1.0
            elif sim._incidence is None:
                link = flow.path[0]
                link.queue_bytes = link.buffer_bytes * 2.0
            else:
                sim._incidence.queue_bytes[0] = -1.0

        sim, monitor = monitored_sim(tiny_topology, tiny_pathset, vectorized, corrupt)
        sim.run()
        assert monitor.violations and monitor.violations[0][0] == kind
        with pytest.raises(InvariantViolation, match=kind):
            monitor.check()


# ---------------------------------------------------------------------- #
# routing invariants: decision accounting (iii) and stranded retries (v)
# ---------------------------------------------------------------------- #
#: every way into DC4 is cut at 10 ms; DC3-DC4 returns at 20 ms, which
#: must retry the flows still stranded behind DC2-DC4 (back at 30 ms)
DC4_CUT = Scenario(
    name="dc4-cut",
    events=(
        LinkDown(0.010, "DC2", "DC4"),
        LinkDown(0.010, "DC3", "DC4"),
        LinkUp(0.020, "DC3", "DC4"),
        LinkUp(0.030, "DC2", "DC4"),
    ),
)


class NeverWakes(FluidSimulation):
    """A broken wait list: a parked flow is never retried."""

    def _wakes(self, parked):
        return False


def recorded_run(vectorized, sim_cls=FluidSimulation, router="ecmp"):
    """Eight DC1->DC4 flows on the diamond through :data:`DC4_CUT`, recorded."""
    topology = build_fuzz_topology("diamond")
    paths = build_fuzz_pathset(topology)
    config = SimulationConfig(seed=2, vectorized=vectorized)
    if router == "lcmp":
        factory = lcmp_router_factory(topology, paths)
    else:
        factory = make_router_factory(router)
    network = RuntimeNetwork(topology, paths, factory, config)
    demands = [
        FlowDemand(
            flow_id=i,
            src_dc="DC1",
            dst_dc="DC4",
            src_host=i % 4,
            dst_host=(i + 1) % 4,
            size_bytes=3_000_000,
            arrival_s=5e-4 * i,
        )
        for i in range(8)
    ]
    sim = sim_cls(network, demands, make_cc_factory("dcqcn"), config, scenario=DC4_CUT)
    recorder = FailoverRecorder().attach(sim)
    sim.run()
    return sim, recorder


@pytest.mark.parametrize("vectorized", [False, True], ids=["scalar", "array"])
class TestRoutingInvariants:
    def test_hold_on_a_real_run(self, vectorized):
        sim, recorder = recorded_run(vectorized)
        check_decision_accounting(recorder)
        check_stranded_retry(recorder, DC4_CUT)
        assert len(recorder.admitted) == 8
        assert {t for t, _ in recorder.attempts} == {0.010, 0.020}
        # the 20 ms repair both retried some flows and healed others
        (repair,) = [c for c in recorder.calls if c.now == 0.020 and c.stranded]
        assert repair.settled == set(repair.stranded)
        retried = {fid for t, fid in recorder.attempts if t == 0.020}
        assert retried and repair.settled - retried

    def test_accounting_fires_on_an_extra_decision(self, vectorized):
        sim, recorder = recorded_run(vectorized)
        network = sim.network
        network.switch("DC1").decision_log.append(
            flow_id=0,
            time_s=0.05,
            chosen=network.pathset.candidates("DC1", "DC4")[0],
            dst_dc="DC4",
            num_candidates=1,
            fallback=False,
        )
        with pytest.raises(InvariantViolation, match="decisions at source switches"):
            check_decision_accounting(recorder)

    def test_accounting_fires_on_a_miscounted_attempt(self, vectorized):
        sim, recorder = recorded_run(vectorized)
        sim._reroute_attempts += 1
        with pytest.raises(InvariantViolation, match="reroute_attempts"):
            check_decision_accounting(recorder)

    def test_accounting_fires_on_an_undecided_admission(self, vectorized):
        _, recorder = recorded_run(vectorized)
        recorder.admitted[99] = ("DC1", "DC4")
        with pytest.raises(InvariantViolation, match=r"\[99\] have no decision"):
            check_decision_accounting(recorder)

    def test_retry_fires_on_a_dropped_attempt(self, vectorized):
        _, recorder = recorded_run(vectorized)
        retried = {fid for t, fid in recorder.attempts if t == 0.020}
        for call in recorder.calls:
            if call.now == 0.020:
                call.settled -= retried
        with pytest.raises(InvariantViolation, match="neither retried nor healed"):
            check_stranded_retry(recorder, DC4_CUT)

    def test_retry_fires_on_a_wait_list_that_never_wakes(self, vectorized):
        _, recorder = recorded_run(vectorized, sim_cls=NeverWakes)
        with pytest.raises(InvariantViolation, match="DC3->DC4"):
            check_stranded_retry(recorder, DC4_CUT)


@pytest.mark.parametrize("vectorized", [False, True], ids=["scalar", "array"])
class TestLoopFreePaths:
    """Routing invariant (ii), from the recorded path resolutions."""

    def test_holds_on_a_real_run(self, vectorized):
        _, recorder = recorded_run(vectorized)
        check_loop_free_paths(recorder)
        # every admission and every re-route attempt resolved one path
        assert len(recorder.resolved) == len(recorder.admitted) + len(recorder.attempts)
        assert {fid for fid, _ in recorder.resolved} == set(recorder.admitted)

    def test_fires_on_a_looping_path(self, vectorized):
        sim, recorder = recorded_run(vectorized)
        network = sim.network
        flow_id, path = recorder.resolved[0]
        # a detour DC1 -> DC2 -> DC1 before the walk's own first hop
        detour = [network.link("DC1", "DC2"), network.link("DC2", "DC1")]
        recorder.resolved[0] = (flow_id, path[:1] + detour + path[1:])
        with pytest.raises(InvariantViolation, match=f"flow {flow_id} resolved DC1->DC2->DC1->"):
            check_loop_free_paths(recorder)

    def test_fires_past_the_hop_bound(self, vectorized, monkeypatch):
        _, recorder = recorded_run(vectorized)
        monkeypatch.setattr(invariants_module, "_MAX_RESOLVE_HOPS", 1)
        with pytest.raises(InvariantViolation, match="2 inter-DC hops, over the 1-hop bound"):
            check_loop_free_paths(recorder)


@pytest.mark.parametrize("vectorized", [False, True], ids=["scalar", "array"])
class TestLiveFirstHop:
    """Routing invariant (i), from the DecisionLog and the outage timeline."""

    @pytest.mark.parametrize("router", ["ecmp", "lcmp"])
    def test_holds_on_a_real_run(self, vectorized, router):
        _, recorder = recorded_run(vectorized, router=router)
        check_live_first_hop(recorder, DC4_CUT)

    def test_fires_on_a_decision_through_a_dead_port(self, vectorized):
        sim, recorder = recorded_run(vectorized)
        network = sim.network
        via_dc2, via_dc3 = network.pathset.candidates("DC1", "DC4")[:2]
        assert {via_dc2.first_hop, via_dc3.first_hop} == {"DC2", "DC3"}
        # a flow walked DC1 -> DC2 -> DC4 while DC2->DC4 was down and
        # DC2's other candidate, via DC3, was up
        dc2_to_dc4 = next(c for c in network.pathset.candidates("DC2", "DC4") if c.first_hop == "DC4")
        network.switch("DC1").decision_log.append(
            flow_id=77, time_s=0.015,
            chosen=via_dc2 if via_dc2.first_hop == "DC2" else via_dc3,
            dst_dc="DC4", num_candidates=2, fallback=False,
        )
        network.switch("DC2").decision_log.append(
            flow_id=77, time_s=0.015, chosen=dc2_to_dc4,
            dst_dc="DC4", num_candidates=2, fallback=False,
        )
        with pytest.raises(InvariantViolation, match="DC2 sent flow 77 to dead DC2->DC4"):
            check_live_first_hop(recorder, DC4_CUT)


@pytest.mark.parametrize("vectorized", [False, True], ids=["scalar", "array"])
class TestLazyInvalidation:
    """Routing invariant (iv), from the recorded flow-cache lookups."""

    def test_holds_on_a_real_run(self, vectorized):
        sim, recorder = recorded_run(vectorized, router="lcmp")
        check_lazy_invalidation(recorder)
        on_dead = [lk for lk in recorder.lookups if lk.cached_port and not lk.port_up]
        # the 10 ms cut stranded every flow's cached DC2->DC4 (then DC3->DC4) entry
        assert {(lookup.switch, lookup.cached_port, lookup.now) for lookup in on_dead} == {
            ("DC2", "DC4", 0.010), ("DC3", "DC4", 0.010)
        }
        assert all(lookup.invalidations == 1 for lookup in on_dead)
        lazy = sum(s.router.liveness.lazy_invalidations for s in sim.network.switches.values())
        assert lazy == sum(lookup.invalidations for lookup in recorder.lookups)

    def test_fires_on_a_missed_invalidation(self, vectorized):
        _, recorder = recorded_run(vectorized, router="lcmp")
        lookup = next(
            lookup for lookup in recorder.lookups if lookup.invalidations == 1
        )
        lookup.invalidations = 0
        with pytest.raises(InvariantViolation, match="on dead port DC4"):
            check_lazy_invalidation(recorder)

    def test_fires_when_port_deaths_never_reach_the_tracker(self, vectorized, monkeypatch):
        observe = PortLivenessTracker.observe
        monkeypatch.setattr(
            PortLivenessTracker, "observe", lambda self, port, up: up and observe(self, port, up)
        )
        _, recorder = recorded_run(vectorized, router="lcmp")
        with pytest.raises(InvariantViolation, match="counted 0 lazy invalidations"):
            check_lazy_invalidation(recorder)
