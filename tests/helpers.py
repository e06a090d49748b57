"""Shared test helpers."""

from __future__ import annotations

import numpy as np

from repro.simulator import TelemetryView
from repro.topology import GBPS


def _column(value, dtype=np.float64) -> np.ndarray:
    column = np.array([value], dtype=dtype)
    column.flags.writeable = False
    return column


def port_view(
    next_dc: str,
    *,
    queue_bytes: float = 0.0,
    carried_bytes: float = 0.0,
    cap_bps: float = 100 * GBPS,
    buffer_bytes: float = 512 * 1024 * 1024,
    up: bool = True,
    switch: str = "DC1",
) -> TelemetryView:
    """A one-port :class:`TelemetryView` of ``switch``'s port toward ``next_dc``."""
    return TelemetryView(
        switch=switch,
        port_dcs=(next_dc,),
        queue_bytes=_column(queue_bytes),
        carried_bytes=_column(carried_bytes),
        cap_bps=_column(cap_bps),
        buffer_bytes=_column(buffer_bytes),
        up=_column(up, bool),
    )
