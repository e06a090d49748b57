"""HPCC congestion-control model (Li et al., SIGCOMM 2019).

HPCC uses in-band network telemetry: every ACK carries the precise
utilisation of each hop, and the sender adjusts its window so the bottleneck
stays just below a target utilisation ``eta`` (0.95 in the paper).  The fluid
simulation summarises the per-hop telemetry as the maximum utilisation along
the path, which is exactly the quantity HPCC's window update reacts to.
"""

from __future__ import annotations

import numpy as np

from ..simulator.flow import FeedbackSignal
from .base import CongestionControl, cc_param, cc_state, register_cc

__all__ = ["HPCC"]


@register_cc
class HPCC(CongestionControl):
    """Rate-based HPCC model driven by max-hop utilisation telemetry.

    The reference rate and AI stage are block-resident while the flow
    holds a :class:`~repro.simulator.flow_table.FlowTable` row; the
    slot-batch feedback kernel runs the exact scalar window update as
    in-place masked column operations.  HPCC is purely ACK-clocked, so its periodic kernel is a
    no-op like :meth:`on_interval`.
    """

    name = "hpcc"

    cc_columns = {
        "ref": cc_state("_reference_rate_bps"),
        "stage": cc_state("_stage", dtype="i8", py=int),
        "p_eta": cc_param("eta"),
        "p_maxstage": cc_param("max_stage", dtype="i8"),
        "p_wai": cc_param("wai_bps"),
        "p_line": cc_param("line_rate_bps"),
        "p_floor": cc_param("min_rate_bps"),
    }

    def __init__(
        self,
        line_rate_bps: float,
        base_rtt_s: float,
        min_rate_bps: float = 1e6,
        eta: float = 0.95,
        max_stage: int = 5,
        wai_fraction: float = 0.01,
    ) -> None:
        """Create an HPCC instance.

        Args:
            eta: target bottleneck utilisation.
            max_stage: additive-increase stages before a fresh multiplicative
                adjustment is allowed (mirrors HPCC's ``maxStage``).
            wai_fraction: additive-increase step as a fraction of line rate.
        """
        super().__init__(line_rate_bps, base_rtt_s, min_rate_bps)
        self.eta = eta
        self.max_stage = max_stage
        self.wai_bps = wai_fraction * line_rate_bps
        self._stage = 0
        self._reference_rate_bps = float(line_rate_bps)

    # ------------------------------------------------------------------ #
    def on_feedback(self, signal: FeedbackSignal, now: float) -> None:
        """Window update from the max-hop utilisation sample."""
        self.feedback_count += 1
        utilization = max(signal.max_utilization, 1e-6)
        if utilization > self.eta or self._stage >= self.max_stage:
            # multiplicative adjustment toward eta, plus a small AI term
            self._reference_rate_bps = (
                self._reference_rate_bps * (self.eta / utilization) + self.wai_bps
            )
            self._stage = 0
        else:
            # additive increase while comfortably below target
            self._reference_rate_bps = self._reference_rate_bps + self.wai_bps
            self._stage += 1
        self.rate_bps = self._reference_rate_bps
        self._clamp()
        self._reference_rate_bps = self.rate_bps

    def on_interval(self, dt: float, now: float) -> None:
        """HPCC is purely ACK-clocked; nothing to do between feedback."""

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

        # no boundary cast: the feedback arrays arrive float64 (FlowTable
        # columns are dtype-checked at growth time)
        where = table.backend.masked_where
        utilization = np.maximum(util, 1e-6)
        eta = block.p_eta[slots]
        wai = block.p_wai[slots]
        stage = block.stage[slots]
        ref = block.ref[slots]

        adjust = (utilization > eta) | (stage >= block.p_maxstage[slots])
        ref = where(adjust, ref * (eta / utilization) + wai, ref + wai)
        stage = where(adjust, 0, stage + 1)
        # rate = clamp(ref); the reference rate then snaps to the clamped rate
        rate = np.minimum(block.p_line[slots], np.maximum(block.p_floor[slots], ref))

        block.ref[slots] = rate
        block.stage[slots] = stage
        table.cc_rate_bps[slots] = rate

    @classmethod
    def advance_batch_slots(cls, table, slots, dt: float, now: float) -> None:
        """HPCC is purely ACK-clocked; the periodic kernel is a no-op."""
