"""Tests for the on-switch congestion estimator (Q, T, D and Eq. 3-5) on a register block."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CongestionEstimator, CongestionRegisters, LCMPConfig, SwitchTables
from repro.topology import GBPS

from .congestion_oracle import PortEstimator

RATE = 100 * GBPS

#: configs whose C_cong is exactly one component score
QUEUE_ONLY = LCMPConfig(w_ql=1, w_tl=0, w_dp=0, cong_shift=0)
TREND_ONLY = LCMPConfig(w_ql=0, w_tl=1, w_dp=0, cong_shift=0)
DURATION_ONLY = LCMPConfig(w_ql=0, w_tl=0, w_dp=1, cong_shift=0)


class Block:
    """A register block of ``rows`` ports under one estimator."""

    def __init__(self, tables, config=None, rows=2):
        self.regs = CongestionRegisters(rows)
        self.estimator = CongestionEstimator(tables, config)

    def sample(self, row, queue_bytes, now, rate=RATE):
        self.estimator.update(
            self.regs, np.array([row]), np.array([queue_bytes]), np.array([rate]), now
        )

    def feed(self, row, samples, rate=RATE, interval=1e-3, start=0.0):
        """Feed a sequence of queue-byte samples to ``row`` at a fixed cadence."""
        now = start
        for queue_bytes in samples:
            self.sample(row, queue_bytes, now, rate)
            now += interval
        return now

    def score(self, row):
        assert self.regs.c_cong_list[row] == self.regs.c_cong[row]
        return self.regs.c_cong_list[row]


@pytest.fixture
def block(switch_tables):
    return Block(switch_tables)


class TestQueueLevel:
    def test_empty_queue_scores_zero(self, block):
        block.feed(0, [0, 0, 0])
        assert block.score(0) == 0

    def test_deep_queue_scores_high(self, switch_tables):
        block = Block(switch_tables, QUEUE_ONLY)
        deep = switch_tables.buffer_bytes * 0.95
        block.feed(0, [deep, deep])
        assert block.score(0) == switch_tables.level_scores[-1]

    def test_unsampled_row_scores_zero(self, block):
        block.feed(0, [block.estimator.tables.buffer_bytes] * 5)
        assert block.score(1) == 0
        assert np.isnan(block.regs.sample_s[1])

    def test_queue_truncated_to_whole_bytes(self, block):
        block.feed(0, [799.9])
        assert block.regs.queue_cur[0] == 799


class TestTrend:
    def test_growing_queue_positive_trend(self, switch_tables):
        block = Block(switch_tables, TREND_ONLY)
        step = switch_tables.buffer_bytes / 20
        block.feed(0, [i * step for i in range(10)])
        assert block.score(0) > 0
        assert block.regs.trend[0] > 0

    def test_shrinking_queue_zero_trend_score(self, switch_tables):
        block = Block(switch_tables, TREND_ONLY)
        step = switch_tables.buffer_bytes / 20
        block.feed(0, [10 * step - i * step for i in range(10)])
        assert block.regs.trend[0] < 0
        assert block.score(0) == 0

    def test_stable_queue_trend_decays_to_zero(self, switch_tables):
        """Eq. 3 is a decaying EWMA: once the queue stops changing, the trend
        accumulator (and hence the trend score) decays away, leaving only the
        instantaneous queue level to carry the congestion signal."""
        level = switch_tables.buffer_bytes * 0.3
        trend = Block(switch_tables, TREND_ONLY)
        queue = Block(switch_tables, QUEUE_ONLY)
        trend.feed(0, [level] * 120)
        queue.feed(0, [level] * 120)
        assert trend.score(0) == 0
        assert queue.score(0) > 0

    def test_trend_ewma_follows_eq3(self, switch_tables):
        block = Block(switch_tables, LCMPConfig(trend_ewma_shift=3))
        block.sample(0, 0, 0.0)
        block.sample(0, 800, 1e-3)
        # T = 0 - (0 >> 3) + (800 >> 3) = 100
        assert block.regs.trend[0] == 100
        block.sample(0, 800, 2e-3)
        # T = 100 - (100 >> 3) + (0 >> 3) = 88
        assert block.regs.trend[0] == 88

    def test_negative_delta_shifts_its_magnitude(self, switch_tables):
        """A falling queue's delta rounds toward zero: -(|delta| >> K), not delta >> K."""
        block = Block(switch_tables, LCMPConfig(trend_ewma_shift=3))
        block.sample(0, 15, 0.0)
        # T = 0 + (15 >> 3) = 1
        assert block.regs.trend[0] == 1
        block.sample(0, 0, 1e-3)
        # T = 1 - (1 >> 3) - (15 >> 3) = 0; a floored shift would give -1
        assert block.regs.trend[0] == 0

    def test_trend_rescaled_to_the_observed_interval(self, switch_tables):
        """Samples twice as fast see half the growth per sample, and score the same."""
        nominal, fast = Block(switch_tables, TREND_ONLY), Block(switch_tables, TREND_ONLY)
        step = 8_000_000
        nominal.feed(0, [i * step for i in range(6)], interval=1e-3)
        fast.feed(0, [i * step / 2 for i in range(6)], interval=0.5e-3)
        assert fast.regs.interval_s[0] == 0.5e-3
        assert nominal.score(0) > 0
        assert fast.score(0) == nominal.score(0)

    def test_non_positive_rate_scores_no_trend(self, switch_tables):
        block = Block(switch_tables, TREND_ONLY)
        step = switch_tables.buffer_bytes / 20
        block.feed(0, [i * step for i in range(10)], rate=0.0)
        assert block.regs.trend[0] > 0
        assert block.score(0) == 0

    def test_new_rate_creates_its_trend_bucket(self, switch_tables):
        block = Block(switch_tables, TREND_ONLY)
        assert 25 * GBPS not in switch_tables.trend_thresholds
        block.feed(0, [0.0, 1e6], rate=20 * GBPS)
        assert 25 * GBPS in switch_tables.trend_thresholds


class TestDuration:
    def test_persistent_congestion_accumulates(self, switch_tables):
        block = Block(switch_tables, DURATION_ONLY)
        high = switch_tables.buffer_bytes * 0.85  # above the high-water level
        block.feed(0, [high] * 50)
        assert block.score(0) > 0
        assert block.regs.dur_cnt[0] == 50

    def test_duration_decays_when_queue_drops(self, block, switch_tables):
        high = switch_tables.buffer_bytes * 0.85
        block.feed(0, [high] * 20)
        counter_peak = block.regs.dur_cnt[0]
        block.feed(0, [0] * 20, start=0.02)
        assert block.regs.dur_cnt[0] < counter_peak
        block.feed(0, [0] * 20, start=0.04)
        assert block.regs.dur_cnt[0] == 0

    def test_duration_score_capped(self, switch_tables):
        block = Block(switch_tables, DURATION_ONLY)
        block.feed(0, [switch_tables.buffer_bytes] * 3000)
        assert block.score(0) == 255


class TestFusion:
    def test_congestion_score_range_and_monotonicity(self, block, switch_tables):
        low = switch_tables.buffer_bytes * 0.05
        high = switch_tables.buffer_bytes * 0.9
        block.feed(0, [low] * 10)
        block.feed(1, [high] * 10)
        assert 0 <= block.score(0) <= 255
        assert 0 <= block.score(1) <= 255
        assert block.score(1) > block.score(0)

    def test_fused_score_capped(self, switch_tables):
        block = Block(switch_tables, LCMPConfig(w_ql=8, w_tl=8, w_dp=8, cong_shift=0))
        block.feed(0, [switch_tables.buffer_bytes] * 20)
        assert block.score(0) == 255

    def test_weights_change_emphasis(self, switch_tables):
        """A queue-focused allocation reacts more to standing queues than a
        trend-focused one when the queue is high but flat."""
        high_flat = [switch_tables.buffer_bytes * 0.8] * 20
        queue_focused = Block(switch_tables, LCMPConfig(w_ql=2, w_tl=1, w_dp=1))
        trend_focused = Block(switch_tables, LCMPConfig(w_ql=1, w_tl=2, w_dp=1))
        queue_focused.feed(0, high_flat)
        trend_focused.feed(0, high_flat)
        assert queue_focused.score(0) >= trend_focused.score(0)


class TestRegisterBlock:
    def test_reset_returns_rows_to_unsampled(self, block, switch_tables):
        block.feed(0, [switch_tables.buffer_bytes] * 5)
        block.feed(1, [switch_tables.buffer_bytes] * 5)
        block.regs.reset([0])
        assert block.score(0) == 0
        assert np.isnan(block.regs.sample_s[0])
        assert block.regs.trend[0] == block.regs.dur_cnt[0] == block.regs.queue_cur[0] == 0
        assert block.score(1) > 0

    def test_add_rows_appends_fresh_rows(self, block, switch_tables):
        block.feed(0, [switch_tables.buffer_bytes] * 5)
        scores = block.regs.c_cong_list
        assert list(block.regs.add_rows(3)) == [2, 3, 4]
        assert len(block.regs) == 5
        assert block.regs.c_cong_list is scores
        assert scores[2:] == [0, 0, 0]
        assert block.score(0) > 0

    def test_copy_rows_moves_state(self, block, switch_tables):
        block.feed(0, [switch_tables.buffer_bytes * 0.9] * 5)
        other = CongestionRegisters(3)
        other.copy_rows(block.regs, [0], [2])
        for name in ("queue_cur", "trend", "dur_cnt", "sample_s", "interval_s", "rate_bps", "c_cong"):
            assert getattr(other, name)[2] == getattr(block.regs, name)[0], name
        assert other.c_cong_list == [0, 0, block.score(0)]

    def test_update_by_slice_and_by_index_agree(self, switch_tables):
        by_slice, by_index = Block(switch_tables, rows=3), Block(switch_tables, rows=3)
        rng = np.random.default_rng(7)
        for step in range(30):
            queues = rng.uniform(0, switch_tables.buffer_bytes, 3)
            rates = np.array([40, 100, 200]) * GBPS
            by_slice.estimator.update(by_slice.regs, slice(0, 3), queues, rates, step * 1e-3)
            by_index.estimator.update(
                by_index.regs, np.array([2, 0, 1]), queues[[2, 0, 1]], rates[[2, 0, 1]], step * 1e-3
            )
        assert by_slice.regs.c_cong_list == by_index.regs.c_cong_list
        assert np.array_equal(by_slice.regs.trend, by_index.regs.trend)


@settings(max_examples=40, deadline=None)
@given(
    samples=st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=512 * 1024 * 1024, allow_nan=False),
            st.floats(min_value=0, max_value=512 * 1024 * 1024, allow_nan=False),
            st.sampled_from([0.0, 20 * GBPS, 40 * GBPS, 100 * GBPS, 400 * GBPS]),
            st.sampled_from([1e-3, 0.5e-3, 2e-3, 0.0]),
        ),
        min_size=1,
        max_size=60,
    ),
    weights=st.tuples(*[st.integers(0, 4)] * 3),
)
def test_property_block_matches_per_port_reference(samples, weights):
    """Property: two rows sampled together hold exactly the registers and
    C_cong of the per-port reference, for any queue sequence, rate and
    cadence, and every score stays in 0-255."""
    w_ql, w_tl, w_dp = weights
    config = LCMPConfig(w_ql=w_ql, w_tl=w_tl, w_dp=w_dp)
    tables = SwitchTables.bootstrap(
        config, max_capacity_bps=400 * GBPS, buffer_bytes=512 * 1024 * 1024
    )
    regs, estimator = CongestionRegisters(2), CongestionEstimator(tables, config)
    reference = PortEstimator(tables, config)
    now = 0.0
    for q0, q1, rate, interval in samples:
        now += interval
        estimator.update(regs, slice(0, 2), np.array([q0, q1]), np.array([rate, RATE]), now)
        for row, (port, q, r) in enumerate((("a", q0, rate), ("b", q1, RATE))):
            state = reference.observe(port, q, r, now)
            assert regs.queue_cur[row] == state.queue_cur
            assert regs.trend[row] == state.trend
            assert regs.dur_cnt[row] == state.dur_cnt
            assert regs.interval_s[row] == state.observed_interval_s
            assert regs.c_cong_list[row] == reference.congestion_score(port)
            assert 0 <= regs.c_cong_list[row] <= 255
