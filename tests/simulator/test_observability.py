"""Integration tests for the simulator's observability plane.

One instrumented run must yield: a populated ``result.stats`` snapshot
whose ``update.*`` sub-phases account for ≥95 % of ``step.update`` wall
time, non-zero counters for every layer the run exercised, a
perfetto-loadable Chrome trace — and bit-identical numerics to the same
run without instrumentation.  An uninstrumented run must carry no stats
(the NOOP null-object path).
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.congestion_control import make_cc_factory
from repro.obs import NOOP, chrome_trace
from repro.routing import make_router_factory
from repro.scenarios.library import single_link_cut
from repro.simulator import FluidSimulation, RuntimeNetwork, SimulationConfig
from repro.topology import build_testbed8
from repro.topology import testbed8_pathset as _testbed8_pathset
from repro.workloads import TrafficConfig, TrafficGenerator


def run_sim(instrumentation, num_flows=120, router="ecmp", cut=False, **config_overrides):
    """One small websearch run; returns (simulation, result).

    ``cut`` adds a DC1<->DC7 cut at 25 % of the arrival span, repaired at
    75 %, so flows are in flight at both events.
    """
    topology = build_testbed8(capacity_scale=0.1)
    paths = _testbed8_pathset(topology)
    config = SimulationConfig(
        seed=7, instrumentation=instrumentation, **config_overrides
    )
    traffic = TrafficConfig(
        workload="websearch",
        load=0.35,
        num_flows=num_flows,
        pairs=[("DC1", "DC8"), ("DC8", "DC1")],
        seed=7,
    )
    demands = TrafficGenerator(topology, paths, traffic).generate()
    scenario = None
    if cut:
        last = max(d.arrival_s for d in demands)
        scenario = single_link_cut(fail_at_s=0.25 * last, recover_at_s=0.75 * last)
    network = RuntimeNetwork(topology, paths, make_router_factory(router), config)
    sim = FluidSimulation(
        network, demands, make_cc_factory("dcqcn"), config, scenario=scenario
    )
    return sim, sim.run()


@pytest.fixture(scope="module")
def instrumented():
    return run_sim(instrumentation=True)


@pytest.fixture(scope="module")
def lcmp_cut():
    return run_sim(instrumentation=True, router="lcmp", cut=True)


class TestDisabledPath:
    def test_uninstrumented_run_attaches_no_stats(self):
        sim, result = run_sim(instrumentation=False)
        assert result.stats is None
        assert sim.obs is NOOP
        assert sim.obs.trace_events() == []

    def test_counters_are_kept_without_instrumentation(self, instrumented):
        """Counters are plain ints every run keeps; instrumentation only
        decides whether they are harvested into ``result.stats``."""
        _, inst = instrumented
        sim, result = run_sim(instrumentation=False)
        harvested = sim._harvest_metrics(result.routing_decisions)
        assert harvested["counters"] == inst.stats["counters"]
        assert harvested["gauges"] == inst.stats["gauges"]


class TestInstrumentedRun:
    def test_stats_snapshot_attached_and_serialisable(self, instrumented):
        _, result = instrumented
        assert result.stats is not None
        assert set(result.stats) == {"counters", "gauges", "phases"}
        json.dumps(result.stats)

    @staticmethod
    def subphase_coverage(result):
        phases = result.stats["phases"]
        update_total = phases["step.update"]["total_ns"]
        assert update_total > 0
        sub_total = sum(
            p["total_ns"] for name, p in phases.items() if name.startswith("update.")
        )
        return sub_total / update_total

    def test_subphases_cover_95_percent_of_update(self, instrumented):
        """Acceptance: spans cover ≥95 % of the step wall-time — the
        ``update.*`` sub-phases must account for nearly all of the
        enclosing ``step.update`` span.

        The fraction is wall-clock (a context switch landing between two
        sub-spans counts against it), so like the benchmark gates this
        allows one re-measurement on a fresh run.
        """
        _, result = instrumented
        coverage = self.subphase_coverage(result)
        if coverage < 0.95:
            _, result = run_sim(instrumentation=True)
            coverage = self.subphase_coverage(result)
        assert coverage >= 0.95, (
            f"update.* sub-phases cover only {coverage:.1%} of step.update"
        )

    def test_expected_phases_present(self, instrumented):
        _, result = instrumented
        phases = result.stats["phases"]
        for name in (
            "step.update",
            "step.monitor",
            "step.arrivals",
            "arrivals.route",
            "update.signals",
            "update.feedback",
            "update.cc_advance",
            "update.completions",
        ):
            assert phases[name]["count"] > 0, f"phase {name} never ran"

    def test_layer_counters_harvested(self, instrumented, lcmp_cut):
        _, result = instrumented
        counters = result.stats["counters"]
        for name in (
            "engine.events_scheduled",
            "engine.events_fired",
            "incidence.registry_rebuilds",
            "telemetry.sweeps",
            "monitor.samples",
            "routing.decisions",
            "routing.batch_calls",
            "arrivals.batches",
            "arrivals.flows_admitted",
            "cc.kernel_dispatches",
        ):
            assert counters.get(name, 0) > 0, f"counter {name} is zero"
        assert counters["arrivals.flows_admitted"] == 120
        assert counters["engine.events_fired"] <= counters["engine.events_scheduled"]
        assert result.stats["gauges"]["engine.peak_pending_events"]["max"] > 0
        # the names the repository benchmark reads; it defaults a missing
        # counter to 0, so a renamed one would go unnoticed there
        _, result = lcmp_cut
        counters = result.stats["counters"]
        for name in (
            "flow_cache.hits",
            "flow_cache.misses",
            "routing.fallback_decisions",
            "routing.decisions",
            "engine.events_fired",
            "topology.pathset_searches",
            "slow_path.reroutes",
        ):
            assert counters.get(name, 0) > 0, f"counter {name} is zero"
        pathset_bytes = result.stats["gauges"]["topology.pathset_bytes"]
        assert pathset_bytes["last"] == pathset_bytes["max"] > 0

    def test_counters_are_plain_ints(self, lcmp_cut):
        _, result = lcmp_cut
        for name, value in result.stats["counters"].items():
            assert type(value) is int, f"counter {name} is {type(value).__name__}"
            assert value >= 0, f"counter {name} is negative"

    def test_gauges_read_once_have_equal_last_and_max(self, lcmp_cut):
        _, result = lcmp_cut
        gauges = result.stats["gauges"]
        assert {"engine.peak_pending_events", "topology.pathset_paths"} <= set(gauges)
        for name, gauge in gauges.items():
            assert set(gauge) == {"last", "max"}, name
            assert gauge["last"] == gauge["max"], name

    def test_phase_aggregates_are_consistent(self, lcmp_cut):
        _, result = lcmp_cut
        for name, phase in result.stats["phases"].items():
            assert set(phase) == {"count", "total_ns", "max_ns"}, name
            assert 0 <= phase["max_ns"] <= phase["total_ns"], name
            if phase["count"] == 0:
                assert phase["total_ns"] == 0, name

    def test_monitor_and_routing_counters_match_result_fields(self, instrumented):
        _, result = instrumented
        counters = result.stats["counters"]
        assert counters["monitor.samples"] == result.monitor_samples
        assert counters["routing.decisions"] == result.routing_decisions

    def test_chrome_trace_loadable_with_spans(self, instrumented, tmp_path):
        sim, _ = instrumented
        doc = chrome_trace(sim.obs)
        path = tmp_path / "run.trace.json"
        path.write_text(json.dumps(doc))
        loaded = json.loads(path.read_text())
        events = loaded["traceEvents"]
        assert len(events) > 0
        assert {e["name"] for e in events} >= {"step.update", "update.signals"}
        for e in events:
            assert e["ph"] == "X" and e["dur"] >= 0.0


class TestBitIdentity:
    def test_instrumentation_leaves_numerics_untouched(self, instrumented):
        """The observability plane observes; it must never perturb the
        simulation (numerics, RNG draws, event ordering)."""
        _, inst = instrumented
        _, base = run_sim(instrumentation=False)
        assert len(base.records) == len(inst.records)
        for a, b in zip(base.records, inst.records):
            assert dataclasses.asdict(a) == dataclasses.asdict(b)
        assert base.duration_s == inst.duration_s
        assert base.unfinished_flows == inst.unfinished_flows

    def test_scalar_core_instruments_outer_phases_only(self):
        _, result = run_sim(instrumentation=True, vectorized=False)
        phases = result.stats["phases"]
        assert phases["step.update"]["count"] > 0
        # the update sub-phases belong to the array core
        assert phases["update.signals"]["count"] == 0
