"""Tests for the DCQCN model."""

import pytest

from repro.congestion_control import DCQCN, make_cc_factory
from repro.simulator import FeedbackSignal


def signal(ecn, t=0.0):
    return FeedbackSignal(generated_s=t, ecn_fraction=ecn, max_utilization=1.0, rtt_s=0.01, queue_delay_s=0.0)


class TestDCQCN:
    def test_starts_at_line_rate(self):
        cc = DCQCN(100e9, 0.01)
        assert cc.rate_bps == 100e9
        assert cc.alpha == 1.0

    def test_cnp_cuts_rate(self):
        cc = DCQCN(100e9, 0.01)
        cc.on_feedback(signal(ecn=0.5), now=0.0)
        assert cc.rate_bps < 100e9
        assert cc.target_rate_bps == 100e9

    def test_repeated_cnps_cut_further(self):
        cc = DCQCN(100e9, 0.01)
        cc.on_feedback(signal(ecn=0.8), now=0.0)
        after_one = cc.rate_bps
        cc.on_feedback(signal(ecn=0.8), now=0.001)
        assert cc.rate_bps < after_one

    def test_clean_feedback_does_not_cut(self):
        cc = DCQCN(100e9, 0.01)
        cc.on_feedback(signal(ecn=0.0), now=0.0)
        assert cc.rate_bps == 100e9

    def test_recovery_moves_back_toward_target(self):
        cc = DCQCN(100e9, 0.01, increase_timer_s=1e-3)
        cc.on_feedback(signal(ecn=0.9), now=0.0)
        throttled = cc.rate_bps
        for step in range(1, 50):
            cc.on_interval(1e-3, now=step * 1e-3)
        assert cc.rate_bps > throttled

    def test_alpha_decays_without_cnps(self):
        cc = DCQCN(100e9, 0.01, alpha_resume_interval_s=1e-3)
        cc.on_feedback(signal(ecn=0.9), now=0.0)
        alpha_after_cnp = cc.alpha
        for step in range(1, 100):
            cc.on_interval(1e-3, now=step * 1e-3)
        assert cc.alpha < alpha_after_cnp

    def test_eventual_full_recovery_via_hyper_increase(self):
        cc = DCQCN(100e9, 0.01, increase_timer_s=1e-3, rate_hai_bps=5e9)
        cc.on_feedback(signal(ecn=0.9), now=0.0)
        for step in range(1, 2000):
            cc.on_interval(1e-3, now=step * 1e-3)
        assert cc.rate_bps == pytest.approx(100e9, rel=0.05)


class TestParameterValidation:
    """A non-positive timer would make the interval loops spin forever."""

    @pytest.mark.parametrize(
        "param, value",
        [
            ("alpha_resume_interval_s", 0.0),
            ("alpha_resume_interval_s", -55e-6),
            ("increase_timer_s", 0.0),
            ("increase_timer_s", -1e-3),
            ("g", 0.0),
            ("g", -0.5),
            ("g", 1.5),
        ],
    )
    def test_rejects_bad_parameter_naming_it(self, param, value):
        with pytest.raises(ValueError, match=param):
            DCQCN(100e9, 1e-3, **{param: value})

    def test_factory_rejects_zero_alpha_interval(self):
        factory = make_cc_factory("dcqcn", alpha_resume_interval_s=0.0)
        with pytest.raises(ValueError, match="alpha_resume_interval_s"):
            factory(100e9, 1e-3, 0)

    def test_g_of_one_is_accepted(self):
        cc = DCQCN(100e9, 1e-3, g=1.0)
        cc.on_interval(1e-3, 0.0)
        assert cc.alpha == 0.0
