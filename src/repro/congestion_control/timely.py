"""TIMELY congestion-control model (Mittal et al., SIGCOMM 2015).

TIMELY adjusts the sending rate from RTT measurements: below ``t_low`` it
increases additively, above ``t_high`` it decreases multiplicatively, and in
between it follows the RTT gradient.  The fluid simulation's RTT sample
(base RTT + total queueing delay along the path, delivered one RTT late) is
the input signal.
"""

from __future__ import annotations

import numpy as np

from ..simulator.flow import FeedbackSignal
from .base import CongestionControl, cc_param, cc_state, register_cc

__all__ = ["Timely"]


@register_cc
class Timely(CongestionControl):
    """Rate-based TIMELY model driven by delayed RTT samples.

    The RTT-gradient state (previous sample, difference EWMA, HAI counter)
    is block-resident while the flow holds a
    :class:`~repro.simulator.flow_table.FlowTable` row; the slot-batch
    feedback kernel runs the exact scalar gradient update as in-place
    masked column operations.  TIMELY is ACK-clocked, so its periodic kernel is a no-op
    like :meth:`on_interval`.
    """

    name = "timely"

    cc_columns = {
        "prev_rtt": cc_state("_prev_rtt_s"),
        "rtt_diff": cc_state("_rtt_diff_s"),
        "hai": cc_state("_hai_counter", dtype="i8", py=int),
        "p_ewma": cc_param("ewma_alpha"),
        "p_add": cc_param("addstep_bps"),
        "p_beta": cc_param("beta"),
        "p_tlow": cc_param("t_low_s"),
        "p_thigh": cc_param("t_high_s"),
        "p_brtt": cc_param("base_rtt_s"),
        "p_line": cc_param("line_rate_bps"),
        "p_floor": cc_param("min_rate_bps"),
    }

    def __init__(
        self,
        line_rate_bps: float,
        base_rtt_s: float,
        min_rate_bps: float = 1e6,
        ewma_alpha: float = 0.875,
        addstep_fraction: float = 0.02,
        beta: float = 0.8,
        t_low_extra_s: float = 50e-6,
        t_high_extra_s: float = 2e-3,
    ) -> None:
        """Create a TIMELY instance.

        Args:
            ewma_alpha: weight of the previous RTT-difference EWMA.
            addstep_fraction: additive-increase step as fraction of line rate.
            beta: multiplicative-decrease aggressiveness.
            t_low_extra_s: queueing delay below which we always increase.
            t_high_extra_s: queueing delay above which we always decrease.
        """
        super().__init__(line_rate_bps, base_rtt_s, min_rate_bps)
        self.ewma_alpha = ewma_alpha
        self.addstep_bps = addstep_fraction * line_rate_bps
        self.beta = beta
        self.t_low_extra_s = t_low_extra_s
        self.t_high_extra_s = t_high_extra_s
        self.rebase_rtt(base_rtt_s)
        self._prev_rtt_s = base_rtt_s
        self._rtt_diff_s = 0.0
        self._hai_counter = 0

    def rebase_rtt(self, base_rtt_s: float) -> None:
        """The thresholds sit a fixed queueing delay above the base RTT."""
        super().rebase_rtt(base_rtt_s)
        self.t_low_s = base_rtt_s + self.t_low_extra_s
        self.t_high_s = base_rtt_s + self.t_high_extra_s

    # ------------------------------------------------------------------ #
    def on_feedback(self, signal: FeedbackSignal, now: float) -> None:
        """Gradient-based rate update from one RTT sample."""
        self.feedback_count += 1
        rtt = signal.rtt_s
        new_diff = rtt - self._prev_rtt_s
        self._prev_rtt_s = rtt
        self._rtt_diff_s = (
            self.ewma_alpha * self._rtt_diff_s + (1 - self.ewma_alpha) * new_diff
        )
        min_rtt = max(self.base_rtt_s, 1e-6)
        gradient = self._rtt_diff_s / min_rtt

        if rtt < self.t_low_s:
            self._hai_counter += 1
            step = self.addstep_bps * (5 if self._hai_counter >= 5 else 1)
            self.rate_bps += step
        elif rtt > self.t_high_s:
            self._hai_counter = 0
            self.rate_bps *= 1 - self.beta * (1 - self.t_high_s / rtt)
        elif gradient <= 0:
            self._hai_counter += 1
            step = self.addstep_bps * (5 if self._hai_counter >= 5 else 1)
            self.rate_bps += step
        else:
            self._hai_counter = 0
            self.rate_bps *= 1 - self.beta * min(1.0, gradient)
        self._clamp()

    def on_interval(self, dt: float, now: float) -> None:
        """TIMELY is ACK-clocked; nothing to do between feedback."""

    # ------------------------------------------------------------------ #
    # FlowTable slot batches: in-place column kernels, lane-for-lane
    # identical to on_feedback / on_interval above.
    # ------------------------------------------------------------------ #
    @classmethod
    def feedback_batch_slots(
        cls, table, slots, generated_s, ecn, util, rtt, qd, now
    ) -> None:
        """In-place :meth:`on_feedback` over FlowTable rows ``slots``."""
        if not len(slots):
            return
        block = table.cc_block(cls)
        table.feedback_count[slots] += 1

        # no boundary cast: feedback arrays arrive float64 (dtype-checked)
        where = table.backend.masked_where
        new_diff = rtt - block.prev_rtt[slots]
        block.prev_rtt[slots] = rtt
        ewma = block.p_ewma[slots]
        diff = ewma * block.rtt_diff[slots] + (1 - ewma) * new_diff
        block.rtt_diff[slots] = diff
        min_rtt = np.maximum(block.p_brtt[slots], 1e-6)
        gradient = diff / min_rtt

        # the four exclusive scalar branches as lane masks
        low = rtt < block.p_tlow[slots]
        t_high = block.p_thigh[slots]
        high = ~low & (rtt > t_high)
        mid = ~low & ~high
        increase = low | (mid & (gradient <= 0))
        grad_decrease = mid & (gradient > 0)

        hai = block.hai[slots]
        hai = where(increase, hai + 1, 0)
        beta = block.p_beta[slots]
        rate = table.cc_rate_bps[slots]
        step = block.p_add[slots] * where(hai >= 5, 5.0, 1.0)
        rate = where(increase, rate + step, rate)
        rate = where(high, rate * (1 - beta * (1 - t_high / rtt)), rate)
        rate = where(
            grad_decrease, rate * (1 - beta * np.minimum(1.0, gradient)), rate
        )
        rate = np.minimum(block.p_line[slots], np.maximum(block.p_floor[slots], rate))

        block.hai[slots] = hai
        table.cc_rate_bps[slots] = rate

    @classmethod
    def advance_batch_slots(cls, table, slots, dt: float, now: float) -> None:
        """TIMELY is ACK-clocked; the periodic kernel is a no-op."""
