"""Per-link time-series tracing at the queue-monitor cadence.

The paper's LCMP prototype runs a lightweight monitor routine on each DCI
switch that samples per-port queue depth at a modest cadence; here the
simulation's monitor step sweeps the
:class:`~repro.simulator.telemetry.TelemetryPlane` and, when tracing is on,
appends the sweep's inter-DC rows to a :class:`LinkTrace`.

:class:`LinkTrace` records per-link time series (queue depth, utilisation)
for the motivation figure (Fig. 1b) and debugging.  Samples live in
growable numpy columns per link — long sweep-run traces no longer hold one
dataclass per point — and the :class:`LinkTraceSample` objects are
materialised freshly on access, so callers cannot mutate trace state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = ["LinkTrace", "LinkTraceSample"]


@dataclass(frozen=True)
class LinkTraceSample:
    """One point of a per-link time series."""

    time_s: float
    queue_bytes: float
    carried_bytes: float
    offered_bps: float


class _TraceColumns:
    """Growable parallel arrays holding one link's time series."""

    __slots__ = ("n", "time_s", "queue_bytes", "carried_bytes", "offered_bps")

    def __init__(self, capacity: int = 64) -> None:
        self.n = 0
        self.time_s = np.empty(capacity)
        self.queue_bytes = np.empty(capacity)
        self.carried_bytes = np.empty(capacity)
        self.offered_bps = np.empty(capacity)

    def append(self, time_s: float, queue: float, carried: float, offered: float) -> None:
        n = self.n
        if n == len(self.time_s):
            for name in self.__slots__[1:]:
                old = getattr(self, name)
                grown = np.empty(2 * len(old))
                grown[:n] = old
                setattr(self, name, grown)
        self.time_s[n] = time_s
        self.queue_bytes[n] = queue
        self.carried_bytes[n] = carried
        self.offered_bps[n] = offered
        self.n = n + 1


class LinkTrace:
    """Records per-link time series at the monitoring cadence (columnar)."""

    def __init__(self) -> None:
        self._series: Dict[Tuple[str, str], _TraceColumns] = {}

    def _columns_for(self, key: Tuple[str, str]) -> _TraceColumns:
        cols = self._series.get(key)
        if cols is None:
            cols = self._series[key] = _TraceColumns()
        return cols

    def observe_batch(
        self,
        keys: Sequence[Tuple[str, str]],
        now: float,
        queue_bytes: np.ndarray,
        carried_bytes: np.ndarray,
        offered_bps: np.ndarray,
    ) -> None:
        """Append one sweep's worth of samples (element i belongs to keys[i])."""
        queue_l = queue_bytes.tolist()
        carried_l = carried_bytes.tolist()
        offered_l = offered_bps.tolist()
        for i, key in enumerate(keys):
            self._columns_for(key).append(now, queue_l[i], carried_l[i], offered_l[i])

    # ------------------------------------------------------------------ #
    def series(self, key: Tuple[str, str]) -> List[LinkTraceSample]:
        """Time series for a directed link key, empty when never observed.

        Materialised freshly per call — the returned samples are copies,
        mutating the list cannot affect the trace.
        """
        cols = self._series.get(key)
        if cols is None:
            return []
        n = cols.n
        times = cols.time_s[:n].tolist()
        queues = cols.queue_bytes[:n].tolist()
        carried = cols.carried_bytes[:n].tolist()
        offered = cols.offered_bps[:n].tolist()
        return [
            LinkTraceSample(
                time_s=times[i],
                queue_bytes=queues[i],
                carried_bytes=carried[i],
                offered_bps=offered[i],
            )
            for i in range(n)
        ]

    def columns(
        self, key: Tuple[str, str]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The raw column arrays ``(time_s, queue, carried, offered)``.

        Returned as copies so callers cannot mutate the trace in place.
        """
        cols = self._series.get(key)
        if cols is None:
            empty = np.empty(0)
            return empty, empty.copy(), empty.copy(), empty.copy()
        n = cols.n
        return (
            cols.time_s[:n].copy(),
            cols.queue_bytes[:n].copy(),
            cols.carried_bytes[:n].copy(),
            cols.offered_bps[:n].copy(),
        )

    def keys(self) -> List[Tuple[str, str]]:
        """All link keys with recorded samples."""
        return list(self._series.keys())

    def peak_queue(self, key: Tuple[str, str]) -> float:
        """Maximum observed queue depth for a link."""
        cols = self._series.get(key)
        if cols is None or cols.n == 0:
            return 0.0
        return float(cols.queue_bytes[: cols.n].max())
