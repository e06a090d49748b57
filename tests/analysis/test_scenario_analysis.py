"""Unit tests for the scenario impact analysis helpers."""

import pytest

from repro.analysis import event_impacts, recovery_report, slowdown_timeline
from repro.scenarios.injector import EventOutcome, ScenarioMetrics
from repro.simulator import SimulationResult
from repro.simulator.fct import FlowRecord
from tests.helpers import store_of


def record(flow_id, arrival_s, slowdown):
    return FlowRecord(
        flow_id=flow_id,
        src_dc="DC1",
        dst_dc="DC8",
        size_bytes=100_000,
        arrival_s=arrival_s,
        fct_s=slowdown * 0.01,
        ideal_fct_s=0.01,
        slowdown=slowdown,
        path_dcs=("DC1", "DC8"),
    )


def synthetic_result():
    """Slowdown 1.0 before t=1, 3.0 during [1, 2), 1.2 after t=2."""
    records = (
        [record(i, 0.1 * i, 1.0) for i in range(10)]              # 0.0 .. 0.9
        + [record(100 + i, 1.0 + 0.1 * i, 3.0) for i in range(10)]  # 1.0 .. 1.9
        + [record(200 + i, 2.0 + 0.1 * i, 1.2) for i in range(10)]  # 2.0 .. 2.9
    )
    metrics = ScenarioMetrics(
        scenario_name="synthetic",
        outcomes=[
            EventOutcome(
                index=0, kind="link-down", description="cut", scheduled_s=1.0,
                applied_s=1.0, flows_disrupted=4, flows_rerouted=4,
                links_affected=2, reroute_latencies_s=[0.001, 0.003],
            ),
            EventOutcome(
                index=1, kind="link-up", description="repair", scheduled_s=2.0,
                applied_s=2.0,
            ),
            EventOutcome(
                index=2, kind="link-down", description="never fired", scheduled_s=9.0,
            ),
        ],
    )
    return SimulationResult(
        store=store_of(records),
        link_stats=[],
        duration_s=3.0,
        unfinished_flows=0,
        routing_decisions=0,
        monitor_samples=0,
        scenario_metrics=metrics,
    )


class TestEventImpacts:
    def test_deltas_have_expected_signs(self):
        impacts = event_impacts(synthetic_result(), window_s=1.0)
        assert [i.kind for i in impacts] == ["link-down", "link-up"]
        cut, repair = impacts
        assert cut.slowdown_delta == pytest.approx(2.0)
        assert repair.slowdown_delta == pytest.approx(-1.8)
        assert cut.pre_p50 == pytest.approx(1.0)
        assert repair.post_p50 == pytest.approx(1.2)

    def test_unfired_events_are_skipped(self):
        impacts = event_impacts(synthetic_result(), window_s=1.0)
        assert all(i.applied_s is not None for i in impacts)
        assert len(impacts) == 2

    def test_recovery_counts_carried_through(self):
        cut = event_impacts(synthetic_result(), window_s=1.0)[0]
        assert cut.flows_disrupted == 4
        assert cut.flows_rerouted == 4
        assert cut.mean_reroute_latency_s == pytest.approx(0.002)
        assert cut.max_reroute_latency_s == pytest.approx(0.003)

    def test_empty_window_yields_none_delta(self):
        impacts = event_impacts(synthetic_result(), window_s=0.01)
        # window [1.0, 1.01) contains the first during-flow, but [0.99, 1.0)
        # holds nothing -> no delta
        assert impacts[0].pre_p50 is None
        assert impacts[0].slowdown_delta is None

    def test_requires_scenario_metrics(self):
        result = synthetic_result()
        result.scenario_metrics = None
        with pytest.raises(ValueError, match="no scenario metrics"):
            event_impacts(result)

    def test_requires_positive_window(self):
        with pytest.raises(ValueError, match="window_s"):
            event_impacts(synthetic_result(), window_s=0.0)


class TestSlowdownTimeline:
    def test_buckets_follow_phases(self):
        points = dict(slowdown_timeline(synthetic_result(), bucket_s=1.0))
        assert points[0.0] == pytest.approx(1.0)
        assert points[1.0] == pytest.approx(3.0)
        assert points[2.0] == pytest.approx(1.2)

    def test_empty_result(self):
        result = synthetic_result()
        result.store = store_of([])
        assert slowdown_timeline(result) == []

    def test_requires_positive_bucket(self):
        with pytest.raises(ValueError, match="bucket_s"):
            slowdown_timeline(synthetic_result(), bucket_s=0)


class TestRecoveryReport:
    def test_renders_one_row_per_impact(self):
        impacts = event_impacts(synthetic_result(), window_s=1.0)
        text = recovery_report(impacts)
        lines = text.splitlines()
        assert len(lines) == 2 + len(impacts)  # header + rule + rows
        assert "link-down" in text and "link-up" in text
        assert "+2.00" in text and "-1.80" in text

    def test_empty_impacts(self):
        assert "no events" in recovery_report([])


class TestBlastRadius:
    def test_links_affected_carried_through(self):
        cut, repair = event_impacts(synthetic_result(), window_s=1.0)
        assert cut.links_affected == 2
        assert repair.links_affected == 0

    def test_report_has_links_column(self):
        impacts = event_impacts(synthetic_result(), window_s=1.0)
        header = recovery_report(impacts).splitlines()[0]
        assert "links" in header
