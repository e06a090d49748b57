"""Tests for the on-switch congestion estimator (Q, T, D and Eq. 3-5)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CongestionEstimator, LCMPConfig, SwitchTables
from repro.topology import GBPS


@pytest.fixture
def estimator(switch_tables):
    return CongestionEstimator(switch_tables)


RATE = 100 * GBPS


def feed(estimator, port, samples, rate=RATE, interval=1e-3, start=0.0):
    """Feed a sequence of queue-byte samples at a fixed cadence."""
    now = start
    for queue_bytes in samples:
        estimator.observe(port, queue_bytes, rate, now)
        now += interval
    return now


class TestQueueLevel:
    def test_empty_queue_scores_zero(self, estimator):
        feed(estimator, "p0", [0, 0, 0])
        assert estimator.queue_score("p0") == 0
        assert estimator.congestion_score("p0") == 0

    def test_deep_queue_scores_high(self, estimator, switch_tables):
        deep = switch_tables.buffer_bytes * 0.95
        feed(estimator, "p0", [deep, deep])
        assert estimator.queue_score("p0") == switch_tables.level_scores[-1]

    def test_unknown_port_scores_zero(self, estimator):
        assert estimator.queue_score("nope") == 0
        assert estimator.congestion_score("nope") == 0


class TestTrend:
    def test_growing_queue_positive_trend(self, estimator, switch_tables):
        step = switch_tables.buffer_bytes / 20
        feed(estimator, "p0", [i * step for i in range(10)])
        assert estimator.trend_score("p0") > 0
        state = estimator.port_state("p0")
        assert state.trend > 0

    def test_shrinking_queue_zero_trend_score(self, estimator, switch_tables):
        step = switch_tables.buffer_bytes / 20
        feed(estimator, "p0", [10 * step - i * step for i in range(10)])
        assert estimator.trend_score("p0") == 0

    def test_stable_queue_trend_decays_to_zero(self, estimator, switch_tables):
        """Eq. 3 is a decaying EWMA: once the queue stops changing, the trend
        accumulator (and hence the trend score) decays away, leaving only the
        instantaneous queue level to carry the congestion signal."""
        level = switch_tables.buffer_bytes * 0.3
        feed(estimator, "p0", [level] * 120)
        assert estimator.trend_score("p0") == 0
        assert estimator.queue_score("p0") > 0

    def test_trend_ewma_follows_eq3(self, switch_tables):
        cfg = LCMPConfig(trend_ewma_shift=3)
        est = CongestionEstimator(switch_tables, cfg)
        est.observe("p0", 0, RATE, 0.0)
        est.observe("p0", 800, RATE, 1e-3)
        # T = 0 - (0 >> 3) + (800 >> 3) = 100
        assert est.port_state("p0").trend == 100
        est.observe("p0", 800, RATE, 2e-3)
        # T = 100 - (100 >> 3) + (0 >> 3) = 88
        assert est.port_state("p0").trend == 88


class TestDuration:
    def test_persistent_congestion_accumulates(self, estimator, switch_tables):
        high = switch_tables.buffer_bytes * 0.85  # above the high-water level
        feed(estimator, "p0", [high] * 50)
        assert estimator.duration_score("p0") > 0
        assert estimator.port_state("p0").dur_cnt == 50

    def test_duration_decays_when_queue_drops(self, estimator, switch_tables):
        high = switch_tables.buffer_bytes * 0.85
        feed(estimator, "p0", [high] * 20)
        counter_peak = estimator.port_state("p0").dur_cnt
        feed(estimator, "p0", [0] * 20, start=0.02)
        assert estimator.port_state("p0").dur_cnt < counter_peak

    def test_duration_score_capped(self, estimator, switch_tables):
        high = switch_tables.buffer_bytes
        feed(estimator, "p0", [high] * 3000)
        assert estimator.duration_score("p0") == 255


class TestFusion:
    def test_congestion_score_range_and_monotonicity(self, estimator, switch_tables):
        low = switch_tables.buffer_bytes * 0.05
        high = switch_tables.buffer_bytes * 0.9
        feed(estimator, "idle", [low] * 10)
        feed(estimator, "busy", [high] * 10)
        idle_score = estimator.congestion_score("idle")
        busy_score = estimator.congestion_score("busy")
        assert 0 <= idle_score <= 255
        assert 0 <= busy_score <= 255
        assert busy_score > idle_score

    def test_weights_change_emphasis(self, switch_tables):
        """A queue-focused allocation reacts more to standing queues than a
        trend-focused one when the queue is high but flat."""
        high_flat = [switch_tables.buffer_bytes * 0.8] * 20
        queue_focused = CongestionEstimator(switch_tables, LCMPConfig(w_ql=2, w_tl=1, w_dp=1))
        trend_focused = CongestionEstimator(switch_tables, LCMPConfig(w_ql=1, w_tl=2, w_dp=1))
        feed(queue_focused, "p", high_flat)
        feed(trend_focused, "p", high_flat)
        assert queue_focused.congestion_score("p") >= trend_focused.congestion_score("p")

    def test_reset(self, estimator, switch_tables):
        feed(estimator, "p0", [switch_tables.buffer_bytes] * 5)
        estimator.reset("p0")
        assert estimator.congestion_score("p0") == 0
        feed(estimator, "p1", [switch_tables.buffer_bytes] * 5)
        estimator.reset()
        assert estimator.ports() == []


class TestScoreMemo:
    """C_cong is memoised per port until the port's next sample."""

    @staticmethod
    def count_fusions(estimator, monkeypatch):
        calls = []
        fused = estimator._fused_score

        def counting(port):
            calls.append(port)
            return fused(port)

        monkeypatch.setattr(estimator, "_fused_score", counting)
        return calls

    def test_repeated_reads_fuse_once(self, estimator, switch_tables, monkeypatch):
        calls = self.count_fusions(estimator, monkeypatch)
        feed(estimator, "p0", [switch_tables.buffer_bytes * 0.9] * 3)
        first = estimator.congestion_score("p0")
        assert [estimator.congestion_score("p0") for _ in range(5)] == [first] * 5
        assert calls == ["p0"]

    def test_observe_clears_only_that_port(self, estimator, switch_tables, monkeypatch):
        calls = self.count_fusions(estimator, monkeypatch)
        feed(estimator, "p0", [0.0])
        feed(estimator, "p1", [0.0])
        assert estimator.congestion_score("p0") == estimator.congestion_score("p1") == 0
        now = feed(estimator, "p0", [switch_tables.buffer_bytes * 0.9] * 10, start=1e-3)
        # a stale memo would still say 0
        peak = estimator.congestion_score("p0")
        assert peak > 0
        assert estimator.congestion_score("p1") == 0
        assert calls == ["p0", "p1", "p0"]
        feed(estimator, "p0", [0.0] * 30, start=now)
        assert estimator.congestion_score("p0") < peak

    def test_reset_clears_the_memo(self, estimator, switch_tables):
        deep = [switch_tables.buffer_bytes * 0.9] * 10
        feed(estimator, "p0", deep)
        feed(estimator, "p1", deep)
        assert estimator.congestion_score("p0") > 0
        assert estimator.congestion_score("p1") > 0
        estimator.reset("p0")
        assert estimator.congestion_score("p0") == 0
        assert estimator.congestion_score("p1") > 0
        estimator.reset()
        assert estimator.congestion_score("p1") == 0


@settings(max_examples=40, deadline=None)
@given(
    samples=st.lists(
        st.floats(min_value=0, max_value=512 * 1024 * 1024, allow_nan=False),
        min_size=1,
        max_size=60,
    )
)
def test_property_scores_always_in_range(samples):
    """Property: no sample sequence can push any component score outside 0-255."""
    tables = SwitchTables.bootstrap(
        LCMPConfig(), max_capacity_bps=400 * GBPS, buffer_bytes=512 * 1024 * 1024
    )
    est = CongestionEstimator(tables)
    now = 0.0
    for q in samples:
        est.observe("p", q, 100 * GBPS, now)
        now += 1e-3
        assert 0 <= est.queue_score("p") <= 255
        assert 0 <= est.trend_score("p") <= 255
        assert 0 <= est.duration_score("p") <= 255
        assert 0 <= est.congestion_score("p") <= 255
