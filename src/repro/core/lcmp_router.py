"""The LCMP data-plane router: the full per-flow decision pipeline (paper §3).

For the first packet of a new flow the switch

1. refreshes the congestion state of every candidate egress port (done
   continuously by the queue monitor: the telemetry plane runs one
   :class:`CongestionEstimator` pass per sweep over every LCMP switch's
   register rows, and each switch reads only its own rows),
2. derives the path-quality score C_path of each candidate on demand from
   its static attributes under the installed tables, once per path (the
   paper's on-demand table creation),
3. fuses the two into the weighted cost C(p) = alpha*C_path + beta*C_cong
   and filters the high-cost suffix (:func:`~repro.core.selection.reduce_set`,
   memoised per candidate set as a selection plan),
4. performs a diversity-preserving hash inside the reduced set, and
5. records the chosen egress in the bounded flow cache so subsequent packets
   follow the same path (per-flow stickiness; garbage-collected when idle).

Port failures are handled lazily: a cached entry pointing at a dead port is
invalidated on the fly and the flow is re-hashed onto a healthy candidate.
When no tables are available at all the router falls back to plain ECMP
(paper §5, safe fallbacks).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..routing.base import Router, flow_hash, register_router
from ..simulator.flow import FlowDemand
from ..topology.paths import CandidatePath
from .config import LCMPConfig
from .congestion import CongestionEstimator, CongestionRegisters
from .control_plane import PathKey
from .failover import PortLivenessTracker
from .flow_cache import FlowCache
from .path_quality import candidate_path_quality
from .selection import reduce_set
from .switch_tables import SwitchTables

__all__ = ["LCMPRouter", "LCMPTelemetryFeed"]


@register_router
class LCMPRouter(Router):
    """Distributed long-haul cost-aware multi-path router (one per DCI switch)."""

    name = "lcmp"

    def __init__(self, config: Optional[LCMPConfig] = None) -> None:
        super().__init__()
        self.config = config or LCMPConfig()
        self.config.validate()

        self.tables: Optional[SwitchTables] = None
        self._path_scores: Dict[PathKey, int] = {}
        self._estimator: Optional[CongestionEstimator] = None
        #: the block holding this switch's congestion registers: a private
        #: one, or the telemetry feed's shared one (see :meth:`bind_registers`)
        self.registers = CongestionRegisters()
        #: this switch's register row per egress port
        self._rows: Dict[str, int] = {}
        self.flow_cache = FlowCache(
            capacity=self.config.flow_cache_capacity,
            idle_timeout_s=self.config.flow_idle_timeout_s,
        )
        self.liveness = PortLivenessTracker()

        # decision statistics
        self.ecmp_fallbacks = 0
        self.herd_fallbacks = 0
        self.sticky_hits = 0
        self.failover_rehashes = 0
        #: selection plan per candidate set (see :meth:`_plan`)
        self._plans: Dict[tuple, tuple] = {}

    # ------------------------------------------------------------------ #
    # control-plane installation
    # ------------------------------------------------------------------ #
    def install_tables(self, tables: SwitchTables) -> None:
        """Adopt ``tables``; this switch's registers and C_path scores start afresh under them."""
        self.tables = tables
        self._path_scores.clear()
        if self._rows:
            self.registers.reset(list(self._rows.values()))
        self._plans.clear()

    def bootstrap_from(self, view) -> None:
        """On-demand table creation from a monitor sample (paper §3.1.2).

        A switch the control plane has not provisioned sizes its capacity
        classes and queue levels from the fastest port and the deepest
        buffer the monitor reports, as :meth:`ControlPlane.build_tables`
        does over the topology's links.
        """
        self.install_tables(
            SwitchTables.bootstrap(
                config=self.config,
                max_capacity_bps=max(max(view.cap_bps.tolist()), 1.0),
                buffer_bytes=max(max(view.buffer_bytes.tolist()), 1.0),
            )
        )

    @property
    def installed(self) -> bool:
        """True once the control plane has provisioned this switch."""
        return self.tables is not None

    @property
    def estimator(self) -> Optional[CongestionEstimator]:
        """The Eq. 3-5 arithmetic under this switch's tables (None until provisioned)."""
        if self.tables is None:
            return None
        if self._estimator is None or self._estimator.tables is not self.tables:
            self._estimator = CongestionEstimator(self.tables, self.config)
        return self._estimator

    # ------------------------------------------------------------------ #
    # congestion registers
    # ------------------------------------------------------------------ #
    @property
    def port_rows(self) -> Dict[str, int]:
        """This switch's row of :attr:`registers` per egress port (a copy)."""
        return dict(self._rows)

    def _row_of(self, port: str) -> int:
        """The register row of ``port``; a never-sampled port gets a fresh one."""
        row = self._rows.get(port)
        if row is None:
            row = self._rows[port] = self.registers.add_rows(1)[0]
        return row

    def bind_registers(self, registers: CongestionRegisters, rows: Dict[str, int]) -> None:
        """Keep this switch's registers in ``registers``, at ``rows`` per port.

        The ports' current register state moves along, so binding changes
        where the registers live and nothing else.
        """
        ports = [port for port in self._rows if port in rows]
        registers.copy_rows(
            self.registers, [self._rows[p] for p in ports], [rows[p] for p in ports]
        )
        self.registers = registers
        self._rows = dict(rows)
        self._plans.clear()

    # ------------------------------------------------------------------ #
    # telemetry hook
    # ------------------------------------------------------------------ #
    @classmethod
    def telemetry_feed(cls, plane, members):
        """One register pass per sweep for all of a plane's LCMP switches."""
        return LCMPTelemetryFeed(plane, members)

    def on_telemetry(self, view, now: float) -> None:
        """Refresh congestion state (step 1 of the decision pipeline).

        Runs the estimator on this switch's rows of the view's ports; a
        telemetry plane updates every LCMP switch at once instead
        (:class:`LCMPTelemetryFeed`).
        """
        ports = view.port_dcs
        for port, up in zip(ports, view.up.tolist()):
            self.liveness.observe(port, up)
        if not ports:
            return
        if self.tables is None:
            # the switch has not been provisioned yet: bootstrap minimal
            # tables from what the monitor tells us (on-demand creation)
            self.bootstrap_from(view)
        rows = np.array([self._row_of(port) for port in ports], dtype=np.intp)
        self.estimator.update(self.registers, rows, view.queue_bytes, view.cap_bps, now)

    def on_tick(self, now: float) -> None:
        """Periodic garbage collection of the flow cache."""
        self.flow_cache.garbage_collect(now)

    # ------------------------------------------------------------------ #
    # the per-flow decision
    # ------------------------------------------------------------------ #
    def select(
        self,
        dst_dc: str,
        candidates: Sequence[CandidatePath],
        demand: FlowDemand,
        now: float,
    ) -> CandidatePath:
        """Full LCMP decision for the first packet of a flow (a batch of one)."""
        return candidates[self._decide(candidates, (demand,), (now,), None)[0]]

    def select_batch(
        self,
        dst_dc: str,
        candidates: Sequence[CandidatePath],
        demands: Sequence[FlowDemand],
        times: Optional[Sequence[float]] = None,
        now: float = 0.0,
        path_ids: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Batched LCMP decision: :meth:`select`'s decision per flow, in arrival order."""
        times = [now] * len(demands) if times is None else times
        return np.array(self._decide(candidates, demands, times, path_ids), dtype=np.intp)

    def _decide(
        self,
        candidates: Sequence[CandidatePath],
        demands: Sequence[FlowDemand],
        times: Sequence[float],
        path_ids: Optional[Sequence[int]],
    ) -> List[int]:
        """One candidate position per flow, decided flow by flow in arrival order.

        Per flow: the flow-identification lookup (an established flow
        follows its cached egress while that port is up; a cached entry on
        a dead port is invalidated on the fly and the flow treated as new),
        then the ECMP safe fallback until provisioned, or the diversity-
        preserving hash into the candidate set's selection plan
        (:meth:`_plan`), and the cache insert.  No decision changes a
        plan's inputs, so the first flow that needs the plan fetches it
        for the whole call.
        """
        cache = self.flow_cache
        liveness = self.liveness
        installed = self.tables is not None
        positions: Optional[Sequence[int]] = None
        chosen: List[int] = []
        self.decisions += len(demands)
        for demand, t in zip(demands, times):
            flow_id = demand.flow_id
            t = float(t)
            self.last_choice_pinned = False
            cached = cache.lookup(flow_id, t)
            if cached is not None:
                port = cached.out_port
                if liveness.is_up(port):
                    j = next((j for j, c in enumerate(candidates) if c.first_hop == port), None)
                    if j is not None:
                        self.sticky_hits += 1
                        self.last_choice_pinned = True
                        chosen.append(j)
                        continue
                else:
                    # lazy fast-failover: invalidate and treat as a new flow
                    cache.invalidate(flow_id)
                    liveness.record_lazy_invalidation()
                    self.failover_rehashes += 1
            if positions is None:
                # safe fallback: behave exactly like ECMP until provisioned
                herd, positions = (
                    self._plan(candidates, path_ids)
                    if installed
                    else (False, range(len(candidates)))
                )
            if not installed:
                self.ecmp_fallbacks += 1
            elif herd:
                self.herd_fallbacks += 1
            j = self._pick(positions, flow_id)
            chosen.append(j)
            cache.insert(flow_id, candidates[j].first_hop, t)
        return chosen

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _plan(
        self, candidates: Sequence[CandidatePath], path_ids: Optional[Sequence[int]]
    ) -> Tuple[bool, Tuple[int, ...]]:
        """The selection plan of one candidate set: :func:`reduce_set`'s ``(herd, positions)``.

        A plan depends on C_path, which changes only when tables are
        installed (that drops every plan), and on the first hops' C_cong,
        which changes only when the estimator samples a port.  So the plan
        is memoised per candidate set (keyed on ``path_ids``, the
        candidates' global path ids, or else on their DC tuples) with a
        reader of its first hops' register rows, its C_path scores and DC
        tuples, and recomputed only when those rows' C_cong differ from
        the values it was built from.
        """
        key = tuple(path_ids) if path_ids is not None else tuple([c.dcs for c in candidates])
        scores = self.registers.c_cong_list
        plan = self._plans.get(key)
        if plan is None:
            read = itemgetter(*[self._row_of(c.first_hop) for c in candidates])
            c_paths = [self._path_quality_of(c) for c in candidates]
            dcs = [c.dcs for c in candidates]
        else:
            read, cong, herd, positions, c_paths, dcs = plan
            if read(scores) == cong:
                return herd, positions
        cong = read(scores)
        herd, positions = reduce_set(
            c_paths, cong if len(candidates) > 1 else (cong,), dcs, self.config
        )
        self._plans[key] = (read, cong, herd, positions, c_paths, dcs)
        return herd, positions

    def _pick(self, positions: Sequence[int], flow_id: int) -> int:
        """The diversity-preserving hash of ``flow_id`` into ``positions``."""
        if len(positions) == 1:
            return positions[0]
        return positions[flow_hash(flow_id, self.config.hash_salt) % len(positions)]

    def _path_quality_of(self, candidate: CandidatePath) -> int:
        """C_path of ``candidate`` under the installed tables, derived once per path."""
        key: PathKey = (candidate.dst, candidate.dcs)
        score = self._path_scores.get(key)
        if score is None:
            score = candidate_path_quality(candidate, self.tables, self.config)
            self._path_scores[key] = score
        return score

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, int]:
        """Decision statistics (used by tests and the experiment reports)."""
        return {
            "decisions": self.decisions,
            "ecmp_fallbacks": self.ecmp_fallbacks,
            "herd_fallbacks": self.herd_fallbacks,
            "sticky_hits": self.sticky_hits,
            "failover_rehashes": self.failover_rehashes,
            "flow_cache_entries": len(self.flow_cache),
            "flow_cache_hits": self.flow_cache.hits,
            "flow_cache_misses": self.flow_cache.misses,
        }


class LCMPTelemetryFeed:
    """Delivers each telemetry sweep to a plane's LCMP switches in one pass.

    The feed owns one :class:`CongestionRegisters` block whose rows are its
    switches' port rows of the plane, in plane order, and binds every switch
    to its rows.  Switches that share tables and config form one group,
    and a sweep runs one :meth:`CongestionEstimator.update` per group (one
    for the whole run when the control plane provisioned every switch).
    Each switch still reads only its own rows.  A switch that is not yet
    provisioned bootstraps from its first sweep, as
    :meth:`LCMPRouter.on_telemetry` does.

    Port liveness reaches a switch's tracker only for rows whose ``up``
    flipped since the previous sweep (every row on the first sweep): a
    tracker's state is the last value it observed.
    """

    def __init__(self, plane, members: List[Tuple[str, LCMPRouter]]) -> None:
        self.plane = plane
        self.members = list(members)
        self.routers = [router for _, router in self.members]
        self.registers = CongestionRegisters()
        #: per member: its block row per port
        self._row_maps: List[Dict[str, int]] = []
        #: per block row: (router, port)
        self._owners: List[Tuple[LCMPRouter, str]] = []
        plane_rows: List[int] = []
        for dc, router in self.members:
            rows, ports = plane.rows_of(dc)
            self._row_maps.append(
                {port: len(plane_rows) + i for i, port in enumerate(ports)}
            )
            self._owners.extend((router, port) for port in ports)
            plane_rows.extend(range(rows.start, rows.stop))
        self.registers.add_rows(len(plane_rows))
        self._plane_rows = np.array(plane_rows, dtype=np.intp)
        #: block rows are exactly the plane's rows, so no gather is needed
        self._whole_plane = plane_rows == list(range(plane.num_ports))
        self._binding: Optional[list] = None
        self._groups: List[tuple] = []
        #: the ``up`` column the trackers last saw, as Python bools
        self._prev_up: Optional[List[bool]] = None

    def _regroup(self) -> None:
        """Bind every member to the block and group them by tables and config."""
        by_tables: Dict[Tuple[int, int], Tuple[LCMPRouter, List[int]]] = {}
        for (dc, router), rows in zip(self.members, self._row_maps):
            if router.registers is not self.registers:
                router.bind_registers(self.registers, rows)
            if router.tables is None:
                router.bootstrap_from(self.plane.view(dc))
            key = (id(router.tables), id(router.config))
            by_tables.setdefault(key, (router, []))[1].extend(rows.values())
        self._groups = []
        for router, rows in by_tables.values():
            rows.sort()
            if rows == list(range(rows[0], rows[-1] + 1)):
                block_rows = slice(rows[0], rows[-1] + 1)
            else:
                block_rows = np.array(rows, dtype=np.intp)
            plane_rows = self._plane_rows[rows]
            if self._whole_plane and len(rows) == len(self._plane_rows):
                plane_rows = None
            estimator = CongestionEstimator(router.tables, router.config)
            self._groups.append((estimator, block_rows, plane_rows))
        self._binding = list(map(_binding, self.routers))

    def __call__(self, now: float) -> None:
        plane = self.plane
        up = plane.up if self._whole_plane else plane.up[self._plane_rows]
        ups = up.tolist()
        prev = self._prev_up
        if ups != prev:
            owners = self._owners
            for row, value in enumerate(ups):
                if prev is None or value != prev[row]:
                    router, port = owners[row]
                    router.liveness.observe(port, value)
            self._prev_up = ups

        if self._binding != list(map(_binding, self.routers)):
            self._regroup()
        queues, caps = plane.queue_bytes, plane.cap_bps
        for estimator, block_rows, plane_rows in self._groups:
            if plane_rows is None:
                estimator.update(self.registers, block_rows, queues, caps, now)
            else:
                estimator.update(
                    self.registers, block_rows, queues[plane_rows], caps[plane_rows], now
                )


def _binding(router: LCMPRouter) -> Tuple[int, int]:
    """What a feed's grouping of ``router`` depends on: its tables and register block."""
    return id(router.tables), id(router.registers)
