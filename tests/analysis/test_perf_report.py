"""Unit tests for the per-phase performance report helpers."""

import pytest

from repro.analysis import perf_report, phase_breakdown, top_counters
from repro.obs import Instrumentation


def make_snapshot():
    """A ``SimulationResult.stats``-shaped dict with deterministic timings."""
    return {
        "counters": {"slow_path.deliver_repeated": 4, "engine.events_fired": 100},
        "gauges": {"engine.peak_pending_events": {"last": 7.0, "max": 7.0}},
        "phases": {
            "step.update": {"count": 10, "total_ns": 8_000_000, "max_ns": 1_000_000},
            "update.signals": {"count": 10, "total_ns": 6_000_000, "max_ns": 700_000},
            "step.gc": {"count": 2, "total_ns": 2_000_000, "max_ns": 1_500_000},
            "never.ran": {"count": 0, "total_ns": 0, "max_ns": 0},
        },
    }


def span_snapshot():
    """A stats dict whose phases come from real nested spans, as a run nests them."""
    instr = Instrumentation()
    update, signals = instr.span("step.update"), instr.span("update.signals")
    arrivals, route = instr.span("step.arrivals"), instr.span("arrivals.route")
    for _ in range(20):
        with update:
            with signals:
                sum(range(200))
        with arrivals:
            with route:
                sum(range(100))
    with instr.span("step.gc"):
        pass
    return {"counters": {}, "gauges": {}, "phases": instr.phases()}


class TestPhaseBreakdown:
    def test_rows_sorted_by_total_time(self):
        rows = phase_breakdown(make_snapshot())
        assert [r["name"] for r in rows] == [
            "step.update",
            "update.signals",
            "step.gc",
            "never.ran",
        ]

    def test_row_fields(self):
        row = phase_breakdown(make_snapshot())[0]
        assert row["count"] == 10
        assert row["total_ms"] == 8.0
        assert row["mean_us"] == 800.0
        assert row["max_us"] == 1000.0
        assert row["share"] == 8 / 10

    def test_zero_count_phase_has_zero_mean(self):
        rows = {r["name"]: r for r in phase_breakdown(make_snapshot())}
        assert rows["never.ran"]["mean_us"] == 0.0

    def test_nested_share_is_its_cut_of_the_step_time(self):
        rows = {r["name"]: r for r in phase_breakdown(make_snapshot())}
        assert rows["update.signals"]["share"] == 6 / 10
        assert rows["step.gc"]["share"] == 2 / 10

    def test_empty_snapshot_has_no_rows(self):
        assert phase_breakdown({}) == []
        assert phase_breakdown({"counters": {}, "gauges": {}, "phases": {}}) == []

    def test_top_limits_rows(self):
        assert len(phase_breakdown(make_snapshot(), top=2)) == 2

    @pytest.mark.parametrize(
        "snapshot", [make_snapshot(), span_snapshot()], ids=["fixed", "spans"]
    )
    def test_shares_are_cuts_of_the_step_time(self, snapshot):
        """Top-level ``step.*`` shares sum to 1; a nested phase
        (``update.signals`` inside ``step.update``) never outweighs its parent."""
        shares = {r["name"]: r["share"] for r in phase_breakdown(snapshot)}
        top_level = [share for name, share in shares.items() if name.startswith("step.")]
        assert sum(top_level) == pytest.approx(1.0, abs=1e-9)
        nested = 0
        for name, share in shares.items():
            parent = "step." + name.split(".")[0]
            if parent != name and parent in shares:
                nested += 1
                assert share <= shares[parent], f"{name} outweighs {parent}"
        assert nested, "the snapshot has no nested phase"


class TestTopCounters:
    def test_sorted_by_value(self):
        rows = top_counters(make_snapshot())
        assert rows[0] == {"name": "engine.events_fired", "value": 100}
        assert rows[1] == {"name": "slow_path.deliver_repeated", "value": 4}

    def test_top_limits(self):
        assert len(top_counters(make_snapshot(), top=1)) == 1


class TestPerfReport:
    def test_none_snapshot_says_so(self):
        assert "instrumentation=True" in perf_report(None)

    def test_report_mentions_phases_and_counters(self):
        text = perf_report(make_snapshot())
        assert "step.update" in text
        assert "engine.events_fired" in text
        assert "phase breakdown" in text
