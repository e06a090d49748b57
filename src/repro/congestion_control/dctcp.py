"""DCTCP congestion-control model (Alizadeh et al., SIGCOMM 2010).

DCTCP keeps an EWMA ``alpha`` of the fraction of ECN-marked packets per RTT
and reduces its window by ``alpha / 2`` once per RTT when marks were seen,
otherwise it grows by one segment per RTT.  We express the window behaviour
directly on the sending rate (rate = window / RTT), which is equivalent in
the fluid model.
"""

from __future__ import annotations

import numpy as np

from ..simulator.flow import FeedbackSignal
from .base import CongestionControl, cc_param, cc_state, register_cc

__all__ = ["DCTCP"]


@register_cc
class DCTCP(CongestionControl):
    """Rate-based DCTCP model driven by the delayed ECN fraction.

    Algorithm state (``alpha``, the per-RTT ECN accumulator and sample
    count, the window timer) and the static parameters are block-resident
    while the flow holds a :class:`~repro.simulator.flow_table.FlowTable`
    row; the slot-batch kernels below run the exact scalar arithmetic as in-place
    masked column operations.
    """

    name = "dctcp"

    cc_columns = {
        "alpha": cc_state("alpha"),
        "ecn_acc": cc_state("_ecn_accumulator"),
        "ecn_n": cc_state("_ecn_samples", dtype="i8", py=int),
        "t_win": cc_state("_time_since_window_update"),
        "p_g": cc_param("g"),
        "p_mss": cc_param("mss_bytes"),
        "p_rtt": cc_param("base_rtt_s"),
        "p_line": cc_param("line_rate_bps"),
        "p_floor": cc_param("min_rate_bps"),
    }

    def __init__(
        self,
        line_rate_bps: float,
        base_rtt_s: float,
        min_rate_bps: float = 1e6,
        g: float = 1 / 16,
        mss_bytes: int = 1500,
    ) -> None:
        """Create a DCTCP instance.

        Args:
            g: alpha EWMA gain.
            mss_bytes: segment size used for the per-RTT additive increase.
        """
        super().__init__(line_rate_bps, base_rtt_s, min_rate_bps)
        self.g = g
        self.mss_bytes = mss_bytes
        self.alpha = 0.0
        self._ecn_accumulator = 0.0
        self._ecn_samples = 0
        self._time_since_window_update = 0.0

    # ------------------------------------------------------------------ #
    def on_feedback(self, signal: FeedbackSignal, now: float) -> None:
        """Accumulate the marked fraction; the window updates once per RTT."""
        self.feedback_count += 1
        self._ecn_accumulator += signal.ecn_fraction
        self._ecn_samples += 1

    def on_interval(self, dt: float, now: float) -> None:
        """Once per RTT: update alpha and apply the window change."""
        self._time_since_window_update += dt
        rtt = max(self.base_rtt_s, 1e-6)
        if self._time_since_window_update < rtt:
            return
        self._time_since_window_update = 0.0

        marked_fraction = (
            self._ecn_accumulator / self._ecn_samples if self._ecn_samples else 0.0
        )
        self._ecn_accumulator = 0.0
        self._ecn_samples = 0

        self.alpha = (1 - self.g) * self.alpha + self.g * marked_fraction
        if marked_fraction > 0:
            self.rate_bps *= 1 - self.alpha / 2.0
        else:
            # one segment per RTT, expressed as a rate increment
            self.rate_bps += self.mss_bytes * 8.0 / rtt
        self._clamp()

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
        block.ecn_acc[slots] += ecn
        block.ecn_n[slots] += 1

    @classmethod
    def advance_batch_slots(cls, table, slots, dt: float, now: float) -> None:
        """In-place :meth:`on_interval` over FlowTable rows ``slots``."""
        if not len(slots):
            return
        block = table.cc_block(cls)
        bk = table.backend
        where = bk.masked_where
        t_win = block.t_win[slots] + dt
        rtt = np.maximum(block.p_rtt[slots], 1e-6)
        due = t_win >= rtt
        if not due.any():
            block.t_win[slots] = t_win
            return

        acc = block.ecn_acc[slots]
        n = block.ecn_n[slots]
        marked = bk.masked_divide(acc, n, n > 0)

        g = block.p_g[slots]
        alpha = block.alpha[slots]
        alpha = where(due, (1 - g) * alpha + g * marked, alpha)

        rate = table.cc_rate_bps[slots]
        cut = due & (marked > 0)
        grow = due & ~(marked > 0)
        rate = where(cut, rate * (1 - alpha / 2.0), rate)
        rate = where(grow, rate + block.p_mss[slots] * 8.0 / rtt, rate)
        rate = where(
            due,
            np.minimum(block.p_line[slots], np.maximum(block.p_floor[slots], rate)),
            rate,
        )

        block.t_win[slots] = where(due, 0.0, t_win)
        block.ecn_acc[slots] = where(due, 0.0, acc)
        block.ecn_n[slots] = where(due, 0, n)
        block.alpha[slots] = alpha
        table.cc_rate_bps[slots] = rate
