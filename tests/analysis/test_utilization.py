"""Tests for per-link utilisation analysis."""

import pytest

from repro.analysis import imbalance, jain_fairness, utilization_table
from repro.analysis.utilization import LinkUtilization
from repro.simulator.fluid import LinkStats, SimulationResult


def make_result(utils):
    stats = [
        LinkStats(
            key=(f"DC1", f"DC{i + 2}"),
            cap_bps=100e9,
            carried_bytes=u * 100e9 / 8,
            dropped_bytes=0.0,
            peak_queue_bytes=0.0,
            utilization=u,
        )
        for i, u in enumerate(utils)
    ]
    # one reverse-direction link that must be filtered out by sources=["DC1"]
    stats.append(
        LinkStats(key=("DC2", "DC1"), cap_bps=100e9, carried_bytes=0, dropped_bytes=0,
                  peak_queue_bytes=0, utilization=0.9)
    )
    return SimulationResult(
        link_stats=stats, duration_s=1.0, unfinished_flows=0,
        routing_decisions=0, monitor_samples=0,
    )


class TestTable:
    def test_rows_and_labels(self):
        result = make_result([0.1, 0.4, 0.2])
        rows = utilization_table(result, sources=["DC1"])
        assert len(rows) == 3
        assert rows[0].label == "1-2"
        assert rows[1].utilization == 0.4

    def test_without_source_filter_includes_everything(self):
        result = make_result([0.1, 0.4])
        assert len(utilization_table(result)) == 3


class TestMetrics:
    def test_imbalance_zero_for_uniform(self):
        rows = [LinkUtilization("DC1", f"DC{i}", 1e9, 0.5, 0) for i in range(4)]
        assert imbalance(rows) == pytest.approx(0.0)
        assert jain_fairness(rows) == pytest.approx(1.0)

    def test_imbalance_grows_with_skew(self):
        balanced = [LinkUtilization("DC1", f"DC{i}", 1e9, 0.5, 0) for i in range(4)]
        skewed = [
            LinkUtilization("DC1", "DC2", 1e9, 0.9, 0),
            LinkUtilization("DC1", "DC3", 1e9, 0.05, 0),
            LinkUtilization("DC1", "DC4", 1e9, 0.0, 0),
            LinkUtilization("DC1", "DC5", 1e9, 0.05, 0),
        ]
        assert imbalance(skewed) > imbalance(balanced)
        assert jain_fairness(skewed) < jain_fairness(balanced)

    def test_empty_rows(self):
        assert imbalance([]) == 0.0
        assert jain_fairness([]) == 1.0
