"""DCQCN congestion-control model (Zhu et al., SIGCOMM 2015).

DCQCN is the default RDMA congestion control in the paper's evaluation.  The
switch ECN-marks packets with a RED profile; the receiver reflects marks as
CNPs; the sender keeps an EWMA ``alpha`` of the marking level, cuts its rate
multiplicatively when CNPs arrive and recovers through fast-recovery /
additive-increase / hyper-increase stages.

This model keeps the rate-based core of the algorithm (alpha EWMA, cut by
``alpha/2``, staged recovery toward a target rate) and drives it from the
fluid simulation's delayed ECN-fraction feedback.
"""

from __future__ import annotations

import numpy as np

from ..simulator.flow import FeedbackSignal
from .base import CongestionControl, cc_param, cc_state, register_cc

__all__ = ["DCQCN"]


@register_cc
class DCQCN(CongestionControl):
    """Rate-based DCQCN model.

    On the array simulator core, all mutable algorithm state (``alpha``,
    the target rate, both timer accumulators, the increase stage) plus the
    static parameters live in a per-class
    :class:`~repro.simulator.flow_table.ColumnBlock` of the
    :class:`~repro.simulator.flow_table.FlowTable` from the flow's
    admission to its release, and the batched feedback/advance kernels
    run as in-place masked column operations with no per-object gather or
    writeback.  The scalar core calls :meth:`on_feedback` /
    :meth:`on_interval` on the instance.
    """

    name = "dcqcn"

    #: declarative FlowTable block: algorithm state + static parameters
    #: (parameters are replicated per row so the masked column math never
    #: needs a per-object gather; ``rate_bps`` lives in the table's core
    #: ``cc_rate_bps`` column shared by every CC class)
    cc_columns = {
        "alpha": cc_state("alpha"),
        "target": cc_state("target_rate_bps"),
        "t_alpha": cc_state("_time_since_alpha_update"),
        "t_inc": cc_state("_time_since_increase"),
        "stage": cc_state("_increase_stage", py=int),
        "congested": cc_state("_congested_recently", dtype="?", py=bool),
        "p_interval": cc_param("alpha_resume_interval_s"),
        "p_g": cc_param("g"),
        "p_inc": cc_param("increase_timer_s"),
        "p_line": cc_param("line_rate_bps"),
        "p_ai": cc_param("rate_ai_bps"),
        "p_hai": cc_param("rate_hai_bps"),
        "p_floor": cc_param("min_rate_bps"),
        "p_thresh": cc_param("ecn_threshold"),
    }

    def __init__(
        self,
        line_rate_bps: float,
        base_rtt_s: float,
        min_rate_bps: float = 1e6,
        g: float = 1 / 16,
        rate_ai_bps: float = 200e6,
        rate_hai_bps: float = 1e9,
        alpha_resume_interval_s: float = 55e-6,
        increase_timer_s: float = 0.3e-3,
        ecn_threshold: float = 0.01,
    ) -> None:
        """Create a DCQCN instance.

        Args:
            g: alpha EWMA gain.
            rate_ai_bps: additive-increase step.
            rate_hai_bps: hyper-increase step.
            alpha_resume_interval_s: cadence of alpha decay without CNPs.
            increase_timer_s: cadence of rate-increase events.
            ecn_threshold: ECN fraction above which feedback counts as a CNP.

        Raises:
            ValueError: when ``alpha_resume_interval_s`` or
                ``increase_timer_s`` is not positive, or ``g`` is outside
                ``(0, 1]``.
        """
        super().__init__(line_rate_bps, base_rtt_s, min_rate_bps)
        # a non-positive timer would make the interval loops spin forever
        if alpha_resume_interval_s <= 0:
            raise ValueError(
                f"alpha_resume_interval_s must be positive, got {alpha_resume_interval_s!r}"
            )
        if increase_timer_s <= 0:
            raise ValueError(f"increase_timer_s must be positive, got {increase_timer_s!r}")
        if not 0 < g <= 1:
            raise ValueError(f"g must be in (0, 1], got {g!r}")
        self.g = g
        self.rate_ai_bps = rate_ai_bps
        self.rate_hai_bps = rate_hai_bps
        self.alpha_resume_interval_s = alpha_resume_interval_s
        self.increase_timer_s = increase_timer_s
        self.ecn_threshold = ecn_threshold

        self.alpha = 1.0
        self.target_rate_bps = float(line_rate_bps)
        self._time_since_increase = 0.0
        self._time_since_alpha_update = 0.0
        self._increase_stage = 0
        self._congested_recently = False

    # ------------------------------------------------------------------ #
    def on_feedback(self, signal: FeedbackSignal, now: float) -> None:
        """Process one (delayed) feedback sample as a CNP indication."""
        self.feedback_count += 1
        congested = signal.ecn_fraction > self.ecn_threshold
        if congested:
            # alpha rises toward the observed marking level, rate is cut
            self.alpha = (1 - self.g) * self.alpha + self.g * min(1.0, signal.ecn_fraction * 4)
            self.target_rate_bps = self.rate_bps
            self.rate_bps *= 1 - self.alpha / 2.0
            self._increase_stage = 0
            self._congested_recently = True
            self._clamp()
        else:
            self._congested_recently = False

    def on_interval(self, dt: float, now: float) -> None:
        """Alpha decay and staged rate recovery.

        The decay/recovery cadences are much shorter than the 1 ms update
        step, so both timer loops run many iterations per call for every
        active flow; they work on locals (hot path — exact same float
        operations as the straightforward attribute version).
        """
        elapsed = self._time_since_alpha_update + dt
        interval = self.alpha_resume_interval_s
        if elapsed >= interval:
            alpha = self.alpha
            decay = 1 - self.g
            while elapsed >= interval:
                elapsed -= interval
                alpha *= decay
            self.alpha = alpha
        self._time_since_alpha_update = elapsed

        elapsed = self._time_since_increase + dt
        interval = self.increase_timer_s
        while elapsed >= interval:
            elapsed -= interval
            self._increase_once()
        self._time_since_increase = elapsed

    # ------------------------------------------------------------------ #
    # FlowTable slot batches: the array core's hot paths.  Lane ``i``
    # applies exactly the float operations the scalar methods apply to
    # row ``slots[i]``; state is read from and written to the table's
    # column block directly — no object gather, no writeback loop.
    # ------------------------------------------------------------------ #
    @classmethod
    def feedback_batch_slots(
        cls, table, slots, generated_s, ecn, util, rtt, qd, now
    ) -> None:
        """:meth:`on_feedback` over FlowTable rows ``slots``, in place.

        DCQCN reacts only to the ECN fraction, so the other signal fields
        pass through untouched.  Uncongested lanes only clear the
        congested flag; congested lanes run the alpha EWMA, the
        multiplicative cut and the clamp.
        """
        if not len(slots):
            return
        block = table.cc_block(cls)
        # no boundary cast: feedback arrays and table columns hold their
        # canonical float64 dtype (enforced at FlowTable growth time)
        where = table.backend.masked_where
        g = block.p_g[slots]
        line = block.p_line[slots]
        floor = block.p_floor[slots]
        threshold = block.p_thresh[slots]
        alpha = block.alpha[slots]
        rate = table.cc_rate_bps[slots]
        target = block.target[slots]

        congested = ecn > threshold
        alpha = where(
            congested, (1 - g) * alpha + g * np.minimum(1.0, ecn * 4), alpha
        )
        target = where(congested, rate, target)
        rate = where(congested, rate * (1 - alpha / 2.0), rate)
        rate = where(congested, np.minimum(line, np.maximum(floor, rate)), rate)

        block.alpha[slots] = alpha
        table.cc_rate_bps[slots] = rate
        block.target[slots] = target
        block.stage[slots] = where(congested, 0.0, block.stage[slots])
        block.congested[slots] = congested
        table.feedback_count[slots] += 1

    @classmethod
    def advance_batch_slots(cls, table, slots, dt: float, now: float) -> None:
        """:meth:`on_interval` over FlowTable rows ``slots``, in place.

        Both timer cadences (55 µs alpha decay, 0.3 ms increase) are much
        shorter than the 1 ms update step, so the scalar method runs ~20
        Python loop iterations per flow per step; here the same iterations
        run as array operations across all rows at once.  While every lane
        still has a boundary to cross (the common count: dt / 55 µs ≈ 18
        alpha decays for every lane of a fleet in lockstep) an iteration
        runs unmasked; only the remainder, where some lanes are done, runs
        as masked in-place ufuncs that leave the finished lanes untouched.
        Either way every lane performs exactly the float operations, in
        the order, its instance would.
        """
        if not len(slots):
            return
        block = table.cc_block(cls)
        interval = block.p_interval[slots]
        inc_interval = block.p_inc[slots]
        line = block.p_line[slots]
        ai = block.p_ai[slots]
        hai = block.p_hai[slots]
        floor = block.p_floor[slots]
        alpha = block.alpha[slots]
        elapsed = block.t_alpha[slots] + dt
        inc_elapsed = block.t_inc[slots] + dt
        rate = table.cc_rate_bps[slots]
        target = block.target[slots]
        stage = block.stage[slots]

        # alpha decay
        decay = 1 - block.p_g[slots]
        pending = elapsed >= interval
        while pending.all():
            elapsed -= interval
            alpha *= decay
            np.greater_equal(elapsed, interval, out=pending)
        while pending.any():
            np.subtract(elapsed, interval, out=elapsed, where=pending)
            np.multiply(alpha, decay, out=alpha, where=pending)
            np.greater_equal(elapsed, interval, out=pending)

        # staged rate recovery (fast recovery / AI / hyper increase)
        pending = inc_elapsed >= inc_interval
        while pending.all():
            inc_elapsed -= inc_interval
            _increase_lanes(True, stage, target, rate, line, ai, hai, floor)
            np.greater_equal(inc_elapsed, inc_interval, out=pending)
        while pending.any():
            np.subtract(inc_elapsed, inc_interval, out=inc_elapsed, where=pending)
            _increase_lanes(pending, stage, target, rate, line, ai, hai, floor)
            np.greater_equal(inc_elapsed, inc_interval, out=pending)

        block.alpha[slots] = alpha
        block.t_alpha[slots] = elapsed
        block.t_inc[slots] = inc_elapsed
        table.cc_rate_bps[slots] = rate
        block.target[slots] = target
        block.stage[slots] = stage

    # ------------------------------------------------------------------ #
    def _increase_once(self) -> None:
        """One recovery step: fast recovery, then AI, then hyper increase."""
        if self._increase_stage < 5:
            # fast recovery: move halfway back to the target rate
            self.rate_bps = (self.rate_bps + self.target_rate_bps) / 2.0
        elif self._increase_stage < 10:
            self.target_rate_bps = min(
                self.line_rate_bps, self.target_rate_bps + self.rate_ai_bps
            )
            self.rate_bps = (self.rate_bps + self.target_rate_bps) / 2.0
        else:
            self.target_rate_bps = min(
                self.line_rate_bps, self.target_rate_bps + self.rate_hai_bps
            )
            self.rate_bps = (self.rate_bps + self.target_rate_bps) / 2.0
        self._increase_stage += 1
        self._clamp()


def _increase_lanes(lanes, stage, target, rate, line, ai, hai, floor) -> None:
    """:meth:`DCQCN._increase_once` on ``lanes`` (a mask, or True = all), in place.

    The stage picks the target step (none below 5, AI below 10, HAI from
    10); then the rate moves halfway to the target, the stage advances and
    the rate is clamped — the scalar method's operations, in its order.
    """
    hai_lane = lanes & (stage >= 10)
    ai_lane = lanes & (stage >= 5) & ~hai_lane
    np.minimum(line, target + ai, out=target, where=ai_lane)
    np.minimum(line, target + hai, out=target, where=hai_lane)
    np.add(rate, target, out=rate, where=lanes)
    np.divide(rate, 2.0, out=rate, where=lanes)
    np.add(stage, 1.0, out=stage, where=lanes)
    np.maximum(floor, rate, out=rate, where=lanes)
    np.minimum(line, rate, out=rate, where=lanes)
