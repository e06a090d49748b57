"""Realtime on-switch congestion estimator C_cong (paper §3.3, Eq. 3–5).

Each DCI egress port keeps a few small registers (the paper's §4 accounting:
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

The registers are columns of a :class:`CongestionRegisters` block, one row
per port.  :meth:`CongestionEstimator.update` samples any set of rows in one
vector pass and writes the fused ``C_cong`` column in the same pass, so the
telemetry plane updates every LCMP switch of a run at once, and a switch
reads only its own rows.  The per-port register footprint of §4 describes
the switch, not this layout.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from .config import LCMPConfig
from .switch_tables import SwitchTables

__all__ = ["CongestionRegisters", "CongestionEstimator"]

#: a set of register rows: a slice, or an integer index array
Rows = Union[slice, np.ndarray]

#: the register columns (besides the C_cong outputs) and their fresh values
_REGISTERS = (
    ("queue_cur", np.int64, 0),
    ("trend", np.int64, 0),
    ("dur_cnt", np.int64, 0),
    ("sample_s", np.float64, np.nan),
    ("interval_s", np.float64, 0.0),
    ("rate_bps", np.float64, 0.0),
)


class CongestionRegisters:
    """The estimator registers of a set of ports, one row per port.

    Attributes:
        queue_cur: last sampled queue, truncated to whole bytes.
        trend: the shift-EWMA trend accumulator of Eq. 3.
        dur_cnt: the duration counter.
        sample_s: time of the last sample (NaN before the first).
        interval_s: the last observed sampling interval (0 until a port has
            two samples).
        rate_bps: the port rate at the last sample.
        c_cong: the fused C_cong per row.
        c_cong_list: :attr:`c_cong` as Python ints, for scalar reads.
    """

    def __init__(self, rows: int = 0) -> None:
        for name, dtype, fresh in _REGISTERS:
            setattr(self, name, np.full(rows, fresh, dtype=dtype))
        self.c_cong = np.zeros(rows, dtype=np.int64)
        self.c_cong_list: List[int] = [0] * rows

    def __len__(self) -> int:
        return len(self.c_cong_list)

    def add_rows(self, count: int) -> range:
        """Append ``count`` fresh rows; returns their indices."""
        start = len(self)
        for name, dtype, fresh in _REGISTERS:
            setattr(self, name, np.append(getattr(self, name), np.full(count, fresh, dtype)))
        self.c_cong = np.append(self.c_cong, np.zeros(count, dtype=np.int64))
        self.c_cong_list.extend([0] * count)
        return range(start, start + count)

    def reset(self, rows: Sequence[int]) -> None:
        """Return ``rows`` to the state of a never-sampled port."""
        rows = np.asarray(rows, dtype=np.intp)
        for name, _, fresh in _REGISTERS:
            getattr(self, name)[rows] = fresh
        self.c_cong[rows] = 0
        for row in rows.tolist():
            self.c_cong_list[row] = 0

    def copy_rows(self, source: "CongestionRegisters", src: Sequence[int], dst: Sequence[int]) -> None:
        """Copy ``source``'s rows ``src`` into this block's rows ``dst``."""
        src = np.asarray(src, dtype=np.intp)
        dst = np.asarray(dst, dtype=np.intp)
        for name, _, _ in _REGISTERS:
            getattr(self, name)[dst] = getattr(source, name)[src]
        self.c_cong[dst] = source.c_cong[src]
        for d, value in zip(dst.tolist(), source.c_cong[src].tolist()):
            self.c_cong_list[d] = value


class CongestionEstimator:
    """The Eq. 3–5 arithmetic over register rows that share one switch table.

    One estimator serves every port whose switch holds ``tables`` and
    ``config``.  The level lookups count thresholds: the number of queue
    thresholds at or below a queue is its level plus one, and the level
    score tables are indexed by that count (the tables' thresholds
    increase, so counting equals :func:`~repro.core.switch_tables.lookup_level`).
    The estimator keeps the per-row trend-threshold matrix of the rates it
    saw last, and rebuilds it only when a rate changes.
    """

    def __init__(self, tables: SwitchTables, config: Optional[LCMPConfig] = None) -> None:
        self.tables = tables
        self.config = cfg = config or tables.config
        scores = np.asarray(tables.level_scores, dtype=np.int64)
        # a level lookup never falls below level 0: the first threshold
        # counts every queue, so the count is the level plus one ...
        self._queue_thresholds = np.array([-np.inf] + list(tables.queue_thresholds[1:]))
        self._queue_scores = cfg.w_ql * np.concatenate(([0], scores))
        # ... and the duration counter's step per count: +1 at or above the
        # high-water level, -duration_decay below it
        counts = np.arange(len(scores) + 1)
        self._duration_steps = np.where(counts > cfg.high_water_level, 1, -cfg.duration_decay)
        # a trend that does not grow (or a port without a rate) counts no
        # threshold and scores 0; a growing one counts level plus one
        self._trend_scores = cfg.w_tl * np.concatenate(([0], scores))
        self._shift = np.int64(cfg.trend_ewma_shift)
        self._inverse_shift = 1.0 / (1 << cfg.trend_ewma_shift)
        self._rates = b""
        self._trend_thresholds = np.empty((0, len(scores) + 1))

    def _trend_matrix(self, rates: np.ndarray) -> np.ndarray:
        """Trend thresholds per row for ``rates``, padded with a final +inf.

        The first threshold of a positive rate is the least positive float,
        so only a growing trend counts it; a row whose rate is not positive
        counts nothing.
        """
        key = rates.tobytes()
        if key != self._rates:
            width = len(self.tables.level_scores)
            never = [np.inf] * (width + 1)
            matrix = []
            for rate in rates.tolist():
                if rate > 0:
                    levels = self.tables.trend_thresholds_for(rate)
                    matrix.append([_LEAST_POSITIVE] + list(levels[1:]) + [np.inf])
                else:
                    matrix.append(never)
            self._trend_thresholds = np.array(matrix, dtype=np.float64).reshape(
                len(matrix), width + 1
            )
            self._rates = key
        return self._trend_thresholds

    def update(
        self,
        regs: CongestionRegisters,
        rows: Rows,
        queue_bytes: np.ndarray,
        rate_bps: np.ndarray,
        now: float,
    ) -> None:
        """Sample ``rows`` at ``now`` and refresh their C_cong.

        ``queue_bytes`` and ``rate_bps`` hold one value per row.  Each row
        records the interval since its last sample; the trend accumulator
        is rescaled to the table's interval whenever that observed interval
        differs from it (the robustness-to-cadence property of §3.3).
        """
        cfg = self.config
        k = self._shift
        rate = np.asarray(rate_bps, dtype=np.float64)

        # a never-sampled row's time is NaN, and fmax turns its interval into 0
        interval = np.fmax(now - regs.sample_s[rows], 0.0)

        # Eq. 3 on int64 registers.  The delta's magnitude is shifted and its
        # sign restored, so a negative delta rounds toward zero: scaling by
        # 2^-K is exact in float64 for queues below 2^53 bytes, and astype
        # truncates toward zero
        cur = np.asarray(queue_bytes).astype(np.int64)
        delta = cur - regs.queue_cur[rows]
        trend = regs.trend[rows]
        trend = trend - (trend >> k) + (delta * self._inverse_shift).astype(np.int64)

        q_count = self._queue_thresholds.searchsorted(cur, "right")
        dur = np.maximum(regs.dur_cnt[rows] + self._duration_steps[q_count], 0)

        # rescaling by base / interval is exact (1.0) when the two are equal
        base = self.tables.trend_interval_s
        trend_bytes = trend * (base / np.where(interval > 0.0, interval, base))
        t_count = (self._trend_matrix(rate) <= trend_bytes[:, None]).argmin(axis=1)
        fused = (
            self._queue_scores[q_count]
            + self._trend_scores[t_count]
            + cfg.w_dp * np.minimum(dur >> cfg.duration_shift, 255)
        )
        fused = np.minimum(fused >> cfg.cong_shift, 255)

        regs.queue_cur[rows] = cur
        regs.trend[rows] = trend
        regs.dur_cnt[rows] = dur
        regs.sample_s[rows] = now
        regs.interval_s[rows] = interval
        regs.rate_bps[rows] = rate
        regs.c_cong[rows] = fused
        if isinstance(rows, slice):
            regs.c_cong_list[rows] = fused.tolist()
        else:
            scores_list = regs.c_cong_list
            for row, value in zip(rows.tolist(), fused.tolist()):
                scores_list[row] = value


#: the first trend threshold: only a positive trend reaches it
_LEAST_POSITIVE = float(np.nextafter(0.0, 1.0))
