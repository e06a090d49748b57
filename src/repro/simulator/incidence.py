"""Flow×link incidence arrays — the vectorized core's data layout.

The scalar update step walks Python dicts over every flow×link pair at every
1 ms tick.  :class:`FlowLinkIncidence` replaces those walks with a padded
index structure over numpy arrays:

* a **link registry**: every :class:`~repro.simulator.link.RuntimeLink` that
  has ever appeared on an active flow's path gets a stable integer slot;
  static per-link attributes (buffer size, ECN thresholds) live in parallel
  arrays indexed by slot;
* a **hop matrix**: one row of registry slots per
  :class:`~repro.simulator.flow_table.FlowTable` row slot, plus a hop-count
  column.  A flow's row is written once at arrival (or re-route) time; the
  matrix doubles in rows when a row past its capacity arrives and widens
  when a path longer than any seen arrives;
* a **sentinel link column**: every per-link array ends with one extra
  entry (slot :attr:`~FlowLinkIncidence.sentinel`, one past the last
  link), and every hop-matrix slot past a row's hop count points at it.
  Up, with infinite capacity, an empty queue and no offered load, it is
  the identity of every per-path reduction.  A link registered later
  takes the sentinel's slot, so registration first moves the padding one
  slot on.  The sentinel is in neither :attr:`~FlowLinkIncidence.links`
  nor :attr:`~FlowLinkIncidence.active_slots`, and is never integrated
  or written back;
* a **path grid** over the active flows: ``grid = hops[active_rows,
  :width]`` (``width`` = the longest active path), one row per active flow
  in active-list order.  Every geometry, uniform or ragged, is that one
  gather, and the kernels of :mod:`repro.backend` reduce it column by
  column; ``grid.ravel()`` is the flow-major lane order of the offered-load
  scatter.

The grid is rebuilt **only when flow membership or a path changes**
(arrival, completion, failure, re-route) or a link registers — rare
relative to update ticks.  Link capacity / liveness arrays are cached and
re-gathered only when :attr:`RuntimeLink.state_version` says some link
mutated (scenario fault injection, capacity events) or the registry grew;
the re-gather also records whether every registered link is up, and while
that holds :meth:`FlowLinkIncidence.broken_flows` skips its reduction.

Mutable per-link state (queue, carried/dropped bytes, peak queue, offered
load) is held *in the arrays* while an array run is in flight: the
telemetry plane sweeps the monitored ports straight from them, and nothing
reads that state off the ``RuntimeLink`` objects between steps.  The
owning :class:`~repro.simulator.fluid.FluidSimulation` writes it back to
the objects once, via :meth:`sync_all`, before results are built.  See
DESIGN.md ("Vectorized core") for the layout contract and the
scalar-vs-vector equivalence guarantee.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..backend import get_backend
from .link import RuntimeLink

__all__ = ["FlowLinkIncidence"]

#: per-link state held in the arrays while a run is in flight
_STATE = (
    "queue_bytes",
    "peak_queue_bytes",
    "carried_bytes",
    "dropped_bytes",
    "offered_bps",
)


class FlowLinkIncidence:
    """Padded flow×link incidence over a stable link registry."""

    def __init__(self) -> None:
        """Create an empty incidence structure."""
        #: the shared kernels for the structure's liveness reductions
        self.backend = get_backend("numpy")
        # --- link registry (append-only) ---
        self._links: List[RuntimeLink] = []
        self._slot_of: Dict[RuntimeLink, int] = {}
        # static per-link attributes, as python lists until frozen to arrays
        self._buffer_l: List[float] = []
        self._kmin_l: List[float] = []
        self._kmax_l: List[float] = []
        self._pmax_l: List[float] = []
        # every per-link array below ends with the sentinel column; the
        # sentinel has no buffer and never marks (kmin = kmax = 0 with an
        # empty queue)
        # frozen static arrays (rebuilt when the registry grows)
        self.buffer_bytes = np.zeros(1)
        self.ecn_kmin = np.zeros(1)
        self.ecn_kmax = np.zeros(1)
        self.ecn_pmax = np.zeros(1)
        # mutable per-link state (authoritative between syncs)
        self.queue_bytes = np.zeros(1)
        self.peak_queue_bytes = np.zeros(1)
        self.carried_bytes = np.zeros(1)
        self.dropped_bytes = np.zeros(1)
        self.offered_bps = np.zeros(1)
        # cached dynamic per-link attributes (capacity, liveness)
        self.cap_bps = np.full(1, np.inf)
        self.up = np.ones(1, dtype=bool)
        self._all_up = True
        self._seen_state_version = -1
        # --- per-flow structure, indexed by FlowTable row slot ---
        #: registry slots of each row's path, sentinel-padded (row-major)
        self.hops = np.zeros((0, 0), dtype=np.intp)
        #: hop count of each row's path (0 for a free row)
        self.hop_counts = np.zeros(0, dtype=np.intp)
        #: the active rows' paths, ``(active flows, longest active path)``
        self.grid = np.zeros((0, 0), dtype=np.intp)
        #: registered slots on some active path (the sentinel excluded)
        self.active_slots = np.empty(0, dtype=np.intp)
        self._membership_dirty = True
        self._registry_dirty = True
        # lifetime rebuild counters (plain ints; harvested into
        # ``SimulationResult.stats`` at result-build time when enabled)
        self.registry_rebuilds = 0
        self.membership_rebuilds = 0
        self.dynamic_regathers = 0

    # ------------------------------------------------------------------ #
    # registry
    # ------------------------------------------------------------------ #
    @property
    def num_links(self) -> int:
        """Number of links ever registered."""
        return len(self._links)

    @property
    def sentinel(self) -> int:
        """The sentinel column's slot: one past the last registered link."""
        return len(self._links)

    @property
    def links(self) -> List[RuntimeLink]:
        """The registered links, in slot order."""
        return list(self._links)

    def _slot(self, link: RuntimeLink) -> int:
        slot = self._slot_of.get(link)
        if slot is None:
            slot = len(self._links)
            # the new link takes the sentinel's slot: move the padding one
            # slot on first, and regather the grid from the moved padding
            self.hops[self.hops == slot] = slot + 1
            self._membership_dirty = True
            self._slot_of[link] = slot
            self._links.append(link)
            self._buffer_l.append(float(link.buffer_bytes))
            self._kmin_l.append(link.ecn_kmin_bytes)
            self._kmax_l.append(link.ecn_kmax_bytes)
            self._pmax_l.append(link.ecn_pmax)
            self._registry_dirty = True
        return slot

    def _refresh_registry(self) -> None:
        """Regrow the static and state arrays after new links registered."""
        self.registry_rebuilds += 1
        old = len(self.queue_bytes) - 1
        new = len(self._links)
        self.buffer_bytes = np.array(self._buffer_l + [0.0])
        self.ecn_kmin = np.array(self._kmin_l + [0.0])
        self.ecn_kmax = np.array(self._kmax_l + [0.0])
        self.ecn_pmax = np.array(self._pmax_l + [0.0])
        for name in _STATE:
            grown = np.zeros(new + 1)
            grown[:old] = getattr(self, name)[:old]
            grown[old:new] = [getattr(link, name) for link in self._links[old:]]
            setattr(self, name, grown)
        self._registry_dirty = False
        self._seen_state_version = -1  # force a cap/up re-gather

    def _refresh_dynamic(self) -> None:
        """Re-gather capacity / liveness when some link mutated."""
        self.dynamic_regathers += 1
        n = len(self._links)
        cap = np.fromiter(
            (link.cap_bps for link in self._links), dtype=np.float64, count=n
        )
        up = np.fromiter((link.up for link in self._links), dtype=bool, count=n)
        self.cap_bps = np.append(cap, np.inf)
        self.up = np.append(up, True)
        self._all_up = bool(up.all())
        self._seen_state_version = RuntimeLink.state_version

    def register_links(self, links: Sequence[RuntimeLink]) -> List[int]:
        """Register links up front and return their registry slots.

        Used by the telemetry plane: registering every monitored port at
        simulation start makes the incidence arrays the authoritative home
        of their mutable state for the whole run, so a monitor sweep can
        gather straight from the arrays.  Registration is idempotent and
        slot-stable (the registry is append-only).
        """
        return [self._slot(link) for link in links]

    def ensure_fresh_links(self) -> None:
        """Bring the registry-wide link arrays up to date.

        The cheap subset of :meth:`refresh` that does not touch flow
        membership — regrows the state arrays after new registrations and
        re-gathers capacity/liveness when some link mutated.  Telemetry
        sweeps call this between update steps.
        """
        if self._registry_dirty:
            self._refresh_registry()
        if self._seen_state_version != RuntimeLink.state_version:
            self._refresh_dynamic()

    # ------------------------------------------------------------------ #
    # flow membership (keyed by FlowTable row slot)
    # ------------------------------------------------------------------ #
    def set_path(self, row: int, path: Sequence[RuntimeLink]) -> None:
        """(Re-)index the path of the flow occupying FlowTable row ``row``.

        Called after every re-route; :meth:`set_paths` of one row.
        """
        self.set_paths([row], [path])

    def set_paths(
        self, rows: Sequence[int], paths: Sequence[Sequence[RuntimeLink]]
    ) -> None:
        """(Re-)index the paths of FlowTable ``rows`` with one matrix write.

        Links register in path order, as one :meth:`set_path` per row
        would, and the matrix grows to the same shape.
        """
        slots = [[self._slot(link) for link in path] for path in paths]
        counts = [len(s) for s in slots]
        num_rows, width = self.hops.shape
        grown_rows = num_rows
        for row in rows:
            if row >= grown_rows:
                grown_rows = max(row + 1, 2 * grown_rows)
        longest = max(counts, default=0)
        if grown_rows > num_rows or longest > width:
            self._grow(grown_rows, longest)
            width = self.hops.shape[1]
        sentinel = self.sentinel
        self.hops[rows] = [s + [sentinel] * (width - len(s)) for s in slots]
        self.hop_counts[rows] = counts
        self._membership_dirty = True

    def _grow(self, rows: int, length: int) -> None:
        """Reallocate the hop matrix to ``rows`` rows and ``length`` hops.

        The width never shrinks below the longest path seen.  New slots
        point at the sentinel.
        """
        old_rows, old_width = self.hops.shape
        width = max(old_width, length)
        hops = np.full((rows, width), self.sentinel, dtype=np.intp)
        hops[:old_rows, :old_width] = self.hops
        counts = np.zeros(rows, dtype=np.intp)
        counts[:old_rows] = self.hop_counts
        self.hops, self.hop_counts = hops, counts

    def update_flow_path(self, flow) -> None:
        """Re-index a flow after a re-route changed its path."""
        self.set_path(flow._slot, flow.path)

    def remove_row(self, row: int) -> None:
        """Drop the path of a finished or failed flow's row."""
        if row < len(self.hop_counts):
            self.hop_counts[row] = 0
        self._membership_dirty = True

    # ------------------------------------------------------------------ #
    # refresh
    # ------------------------------------------------------------------ #
    def refresh(self, active_rows: np.ndarray) -> None:
        """Bring every cached array up to date for the given active rows.

        Args:
            active_rows: FlowTable row slots of the active flows, in
                active-list order (the grid's row order).

        Cheap when nothing changed: two flag checks and one integer
        comparison against :attr:`RuntimeLink.state_version`.
        """
        if self._registry_dirty:
            self._refresh_registry()
        if self._membership_dirty:
            self.membership_rebuilds += 1
            width = int(self.hop_counts[active_rows].max()) if len(active_rows) else 0
            self.grid = self.hops[active_rows, :width]
            mask = np.zeros(len(self._links) + 1, dtype=bool)
            mask[self.grid] = True
            self.active_slots = np.flatnonzero(mask[:-1])
            self._membership_dirty = False
        if self._seen_state_version != RuntimeLink.state_version:
            self._refresh_dynamic()

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def broken_flows(self) -> np.ndarray:
        """Boolean per active flow: does its path cross a dead link?

        Requires :meth:`refresh` to have run for the current active list.
        While every registered link is up no path can cross a dead one, so
        the answer is all-False without a gather or reduction.
        """
        if self._all_up or not len(self.grid):
            return np.zeros(len(self.grid), dtype=bool)
        bk = self.backend
        path_up = bk.segment_reduce(
            bk.gather_rows(self.up, self.grid).astype(np.float64), "min"
        )
        return path_up < 0.5

    # ------------------------------------------------------------------ #
    # write-back
    # ------------------------------------------------------------------ #
    def sync_all(self) -> None:
        """Write the state arrays back to their links (result build).

        Only slots the arrays already cover are written, the sentinel
        column excluded: a link registered after the last refresh — or a
        run that stopped before its first update step — still holds its
        own state on the object.
        """
        links = self._links
        for name in _STATE:
            for link, value in zip(links, getattr(self, name)[:-1].tolist()):
                setattr(link, name, value)
