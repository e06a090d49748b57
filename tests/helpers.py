"""Shared test helpers."""

from __future__ import annotations

import numpy as np

from repro.simulator import TelemetryView
from repro.simulator.fct import MetricsStore
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


def store_of(records) -> MetricsStore:
    """A :class:`MetricsStore` holding ``records`` as completed flows, in order."""
    store = MetricsStore()
    for r in records:
        store.append(
            flow_id=r.flow_id,
            src_dc=r.src_dc,
            dst_dc=r.dst_dc,
            size_bytes=r.size_bytes,
            arrival_s=r.arrival_s,
            fct_s=r.fct_s,
            ideal_fct_s=r.ideal_fct_s,
            slowdown=r.slowdown,
            path_index=store.intern_route(r.path_dcs),
        )
    return store
