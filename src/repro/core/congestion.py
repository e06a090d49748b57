"""Realtime on-switch congestion estimator C_cong (paper §3.3, Eq. 3–5).

Each DCI egress port keeps four small registers (the paper's §4 accounting:
``queueCur``, ``queuePrev``, ``trend``, ``durCnt`` plus a timestamp).  The
monitor samples the port queue at a modest cadence and the estimator fuses
three signals:

* ``Q`` — the instantaneous queue level, quantised through the bootstrap
  queue thresholds and converted to a 0–255 score;
* ``T`` — a short-term trend from a shift-based EWMA of the queue-byte delta
  between samples (Eq. 3), normalised per link-rate bucket; negative trends
  map to zero so only *growing* queues attract cost;
* ``D`` — a duration (persistence) penalty that accumulates while the queue
  level stays above a high-water mark and decays otherwise.

The fused score is ``C_cong = min((w_ql*Q + w_tl*T + w_dp*D) >> S_cong, 255)``.
A port's score only changes when the port is sampled, so the estimator
memoises it per port: the port's next :meth:`CongestionEstimator.observe`
(or :meth:`CongestionEstimator.reset`) drops the memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .config import LCMPConfig
from .switch_tables import SwitchTables

__all__ = ["PortCongestionState", "CongestionEstimator"]


@dataclass
class PortCongestionState:
    """The per-port registers of the congestion estimator (24 B on-switch)."""

    queue_cur: int = 0
    queue_prev: int = 0
    trend: int = 0
    dur_cnt: int = 0
    last_sample_s: float = -1.0
    #: port rate, used to choose the trend-normalisation bucket
    rate_bps: float = 0.0
    #: most recently observed sampling interval (robustness to cadence)
    observed_interval_s: float = 0.0


class CongestionEstimator:
    """Maintains per-port congestion state and produces C_cong scores."""

    def __init__(self, tables: SwitchTables, config: Optional[LCMPConfig] = None) -> None:
        self.tables = tables
        self.config = config or tables.config
        self._ports: Dict[str, PortCongestionState] = {}
        #: memoised C_cong per port, dropped by the port's next observe
        self._scores: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # sampling
    # ------------------------------------------------------------------ #
    def observe(self, port: str, queue_bytes: float, rate_bps: float, now: float) -> PortCongestionState:
        """Feed one monitor sample for ``port``.

        Updates the instantaneous queue register, the shift-EWMA trend
        (Eq. 3) and the duration counter, and records the observed sampling
        interval so trend normalisation stays correct if the cadence drifts.
        """
        self._scores.pop(port, None)
        state = self._ports.setdefault(port, PortCongestionState(rate_bps=rate_bps))
        state.rate_bps = rate_bps

        if state.last_sample_s >= 0:
            state.observed_interval_s = max(0.0, now - state.last_sample_s)
        state.last_sample_s = now

        state.queue_prev = state.queue_cur
        state.queue_cur = int(queue_bytes)

        delta = state.queue_cur - state.queue_prev
        k = self.config.trend_ewma_shift
        # Eq. 3: T = T_old - (T_old >> K) + (delta >> K), in integer arithmetic.
        # Python's >> floors toward -inf which matches the hardware behaviour
        # for non-negative accumulators; deltas may be negative so we shift
        # their magnitude and restore the sign.
        delta_shifted = (abs(delta) >> k) * (1 if delta >= 0 else -1)
        state.trend = state.trend - (state.trend >> k) + delta_shifted

        level = self.tables.queue_level(state.queue_cur)
        if level >= self.config.high_water_level:
            state.dur_cnt += 1
        else:
            state.dur_cnt = max(0, state.dur_cnt - self.config.duration_decay)
        return state

    # ------------------------------------------------------------------ #
    # scoring
    # ------------------------------------------------------------------ #
    def queue_score(self, port: str) -> int:
        """Q: quantised instantaneous queue level as a 0–255 score."""
        state = self._ports.get(port)
        if state is None:
            return 0
        return self.tables.level_score(self.tables.queue_level(state.queue_cur))

    def trend_score(self, port: str) -> int:
        """T: trend level as a 0–255 score (zero for non-growing queues)."""
        state = self._ports.get(port)
        if state is None or state.trend <= 0 or state.rate_bps <= 0:
            return 0
        level = self.tables.trend_level(
            state.trend, state.rate_bps, state.observed_interval_s or None
        )
        return self.tables.level_score(level)

    def duration_score(self, port: str) -> int:
        """D: persistence penalty (right-shifted duration counter, capped)."""
        state = self._ports.get(port)
        if state is None:
            return 0
        return min(255, state.dur_cnt >> self.config.duration_shift)

    def congestion_score(self, port: str) -> int:
        """C_cong for ``port`` (Eq. 4 and Eq. 5), memoised until its next sample."""
        score = self._scores.get(port)
        if score is None:
            score = self._scores[port] = self._fused_score(port)
        return score

    def _fused_score(self, port: str) -> int:
        q = self.queue_score(port)
        t = self.trend_score(port)
        d = self.duration_score(port)
        cong_score = self.config.w_ql * q + self.config.w_tl * t + self.config.w_dp * d
        return min(cong_score >> self.config.cong_shift, 255)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def port_state(self, port: str) -> Optional[PortCongestionState]:
        """Raw register state of a port (None when never sampled)."""
        return self._ports.get(port)

    def ports(self) -> list:
        """All ports the estimator has seen."""
        return sorted(self._ports)

    def reset(self, port: Optional[str] = None) -> None:
        """Drop state for one port, or all ports when ``port`` is None."""
        if port is None:
            self._ports.clear()
            self._scores.clear()
        else:
            self._ports.pop(port, None)
            self._scores.pop(port, None)
