"""Switch telemetry — the control plane's data layer.

The paper's LCMP prototype keeps per-port congestion registers on every DCI
switch, refreshed by a lightweight monitor routine.  :class:`TelemetryPlane`
models those registers as per-switch × per-port *columns*:

* a **port registry** built once from the runtime network — every DCI
  egress port gets a stable row, ports of one switch are contiguous;
* **telemetry columns** (queue depth, cumulative carried bytes, offered
  load, capacity, liveness) refreshed by one :meth:`~TelemetryPlane.sweep`
  per monitor interval.  The scalar core sweeps the
  :class:`~repro.simulator.link.RuntimeLink` objects; the array core
  attaches its flow×link incidence arrays
  (:mod:`repro.simulator.incidence`) and sweeps them with a handful of
  fancy-indexed gathers;
* **router delivery by class**: each router class that consumes telemetry
  supplies one feed for all of its switches
  (:meth:`~repro.routing.base.Router.telemetry_feed`).  The default hands
  every router a :class:`TelemetryView` of its switch's ports through
  :meth:`~repro.routing.base.Router.on_telemetry` (RedTE); LCMP updates
  every switch's congestion registers in one vector pass
  (:class:`~repro.core.lcmp_router.LCMPTelemetryFeed`).  Routers that
  ignore telemetry (ECMP, WCMP, UCMP) are detected once and skipped
  entirely.

Bit-equivalence contract: the array core syncs link state back to the link
objects at the end of every update step, and the monitor fires *before* the
update when both land on the same instant — so the incidence gather at time
t reads exactly the values the scalar core's object sweep reads, and router
state and link traces stay bit-identical across both cores (guarded by
``tests/simulator/test_telemetry.py`` and the equivalence suite).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..backend import get_backend
from .link import RuntimeLink

__all__ = ["TelemetryPlane", "TelemetryView"]

#: the plane's per-port columns
_COLUMNS = ("queue_bytes", "carried_bytes", "offered_bps", "cap_bps", "up", "buffer_bytes")


@dataclass(frozen=True)
class TelemetryView:
    """One switch's egress ports after a sweep (read-only columns).

    Row ``i`` of every column belongs to the port toward ``port_dcs[i]``.
    """

    # explicit slots: ``dataclass(slots=True)`` needs Python 3.10
    __slots__ = (
        "switch", "port_dcs", "queue_bytes", "carried_bytes", "cap_bps", "buffer_bytes", "up"
    )

    #: name of the monitored DCI switch
    switch: str
    #: neighbouring DC per port row
    port_dcs: Tuple[str, ...]
    #: instantaneous egress-queue occupancy
    queue_bytes: np.ndarray
    #: cumulative bytes carried by the port
    carried_bytes: np.ndarray
    #: effective capacity
    cap_bps: np.ndarray
    #: egress buffer size (static)
    buffer_bytes: np.ndarray
    #: port liveness
    up: np.ndarray


class TelemetryPlane:
    """Per-switch × per-port telemetry columns for one runtime network."""

    def __init__(self, network) -> None:
        """Build the port registry and allocate the columns.

        Args:
            network: the :class:`~repro.simulator.network.RuntimeNetwork`
                whose DCI switch ports are monitored.
        """
        #: the shared kernels the sweep gathers run on
        self.backend = get_backend("numpy")

        #: links in port-registry order (rows of every column)
        self.links: List[RuntimeLink] = []
        #: neighbouring DC per row
        self.port_dcs: List[str] = []
        #: per switch: its row slice and the neighbouring DC per row
        self._switch_rows: Dict[str, Tuple[slice, Tuple[str, ...]]] = {}
        for dc, switch in network.switches.items():
            start = len(self.links)
            for next_dc, link in switch.ports.items():
                self.links.append(link)
                self.port_dcs.append(next_dc)
            self._switch_rows[dc] = (slice(start, len(self.links)), tuple(self.port_dcs[start:]))

        n = len(self.links)
        self.queue_bytes = np.zeros(n)
        self.carried_bytes = np.zeros(n)
        self.offered_bps = np.zeros(n)
        self.cap_bps = np.zeros(n)
        self.up = np.ones(n, dtype=bool)
        self.buffer_bytes = np.array([float(link.buffer_bytes) for link in self.links])
        self.sweeps = 0
        self._freeze()

        #: routers that actually consume telemetry, resolved once
        self._consumers: List[Tuple[str, object]] = [
            (dc, switch.router)
            for dc, switch in network.switches.items()
            if switch.router.consumes_telemetry()
        ]
        by_class: Dict[type, List[Tuple[str, object]]] = {}
        for dc, router in self._consumers:
            by_class.setdefault(type(router), []).append((dc, router))
        #: one delivery per router class (see :meth:`feed_routers`)
        self._feeds = [cls.telemetry_feed(self, members) for cls, members in by_class.items()]

        # trace ordering: rows permuted into network.inter_dc_links order so
        # traces keep the key order of the network's link list
        row_of = {id(link): i for i, link in enumerate(self.links)}
        self._trace_rows = np.array(
            [row_of[id(link)] for link in network.inter_dc_links if id(link) in row_of],
            dtype=np.intp,
        )
        self._trace_keys = [
            link.key for link in network.inter_dc_links if id(link) in row_of
        ]

        # the array core's gather path from the incidence arrays
        self._incidence = None
        self._inc_slots: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    @property
    def num_ports(self) -> int:
        """Number of registered egress ports across all switches."""
        return len(self.links)

    @property
    def switches(self) -> List[str]:
        """Switch names in registry order."""
        return list(self._switch_rows)

    def rows_of(self, switch: str) -> Tuple[slice, Tuple[str, ...]]:
        """``switch``'s row slice of every column and the neighbouring DC per row."""
        return self._switch_rows[switch]

    def view(self, switch: str) -> TelemetryView:
        """One switch's rows of the current columns."""
        rows, port_dcs = self._switch_rows[switch]
        return TelemetryView(
            switch,
            port_dcs,
            self.queue_bytes[rows],
            self.carried_bytes[rows],
            self.cap_bps[rows],
            self.buffer_bytes[rows],
            self.up[rows],
        )

    # ------------------------------------------------------------------ #
    def attach_incidence(self, incidence) -> None:
        """Source sweeps from the array core's link arrays.

        Registers every monitored port in the incidence link registry (their
        mutable state then lives in the arrays for the whole run) and
        remembers the registry slots so a sweep is a fancy-indexed gather.
        """
        slots = incidence.register_links(self.links)
        self._incidence = incidence
        self._inc_slots = np.asarray(slots, dtype=np.intp)

    # ------------------------------------------------------------------ #
    def sweep(self, now: float) -> None:
        """Refresh every column from current link state.

        With an attached incidence (the array core) this reads the
        incidence arrays, the authoritative home of link state between
        update steps; otherwise it reads the link objects (the scalar
        core).  Both observe the identical post-step values.
        """
        inc = self._incidence
        if inc is not None:
            inc.ensure_fresh_links()
            slots = self._inc_slots
            bk = self.backend
            self.queue_bytes = bk.gather_rows(inc.queue_bytes, slots)
            self.carried_bytes = bk.gather_rows(inc.carried_bytes, slots)
            self.offered_bps = bk.gather_rows(inc.offered_bps, slots)
            self.cap_bps = bk.gather_rows(inc.cap_bps, slots)
            self.up = bk.gather_rows(inc.up, slots)
        else:
            links = self.links
            n = len(links)
            self.queue_bytes = np.fromiter(
                (link.queue_bytes for link in links), dtype=np.float64, count=n
            )
            self.carried_bytes = np.fromiter(
                (link.carried_bytes for link in links), dtype=np.float64, count=n
            )
            self.offered_bps = np.fromiter(
                (link.offered_bps for link in links), dtype=np.float64, count=n
            )
            self.cap_bps = np.fromiter(
                (link.cap_bps for link in links), dtype=np.float64, count=n
            )
            self.up = np.fromiter((link.up for link in links), dtype=bool, count=n)
        self.sweeps += 1
        self._freeze()

    def _freeze(self) -> None:
        """Mark every column read-only.

        Views hand out slices of the live arrays; freezing makes an
        accidental in-place write by a router raise instead of silently
        corrupting the state every other consumer reads.  Each sweep builds
        fresh (writable) arrays, so freezing costs nothing.
        """
        for name in _COLUMNS:
            getattr(self, name).flags.writeable = False

    def feed_routers(self, now: float) -> None:
        """Deliver the sweep to every telemetry-consuming router, class by class."""
        for feed in self._feeds:
            feed(now)

    def observe_trace(self, trace, now: float) -> None:
        """Append this sweep's inter-DC rows to a link trace."""
        rows = self._trace_rows
        trace.observe_batch(
            self._trace_keys,
            now,
            self.queue_bytes[rows],
            self.carried_bytes[rows],
            self.offered_bps[rows],
        )
