"""DCI (datacenter-interconnect) switch runtime model.

Each datacenter has one DCI switch.  The switch owns the egress ports toward
neighbouring datacenters (one :class:`~repro.simulator.link.RuntimeLink` per
neighbour) and hosts a routing algorithm instance (ECMP, UCMP, RedTE or
LCMP); the router's port telemetry arrives from the
:class:`~repro.simulator.telemetry.TelemetryPlane`, not through the switch.

Only the *first packet* of a flow consults the router (per-flow stickiness);
in the fluid model that corresponds to the single routing decision taken at
flow-arrival time.  Port liveness is tracked here so that data-plane
fast-failover (paper §3.4) can exclude dead ports before the router sees the
candidate list.

Decision bookkeeping is columnar: every decision lands in the switch's
:class:`DecisionLog` (parallel numpy columns plus a small path-intern
table), and the legacy :class:`RoutingDecision` objects are materialised
lazily — and freshly on every access — by the :attr:`DCISwitch.decisions`
property, so callers can no longer mutate the switch's internal state
through the returned list.  Batched arrivals route through
:meth:`DCISwitch.route_flows_batch`: one
:meth:`~repro.routing.base.Router.select_batch` call per group of flows
over a :class:`BatchRoute` (live candidates and interned log references,
prepared once by :meth:`DCISwitch.batch_route` and kept by the network's
hop table).  The decision rows collect in a caller-owned list that one
:meth:`DecisionLog.append_batch` per switch writes at the end of an
arrival batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..topology.paths import CandidatePath
from .flow import FlowDemand
from .interning import Interner
from .link import RuntimeLink

__all__ = ["BatchRoute", "DCISwitch", "RoutingDecision", "DecisionLog"]


@dataclass(frozen=True)
class RoutingDecision:
    """Outcome of one routing decision at one DCI switch."""

    switch: str
    flow_id: int
    dst_dc: str
    chosen: CandidatePath
    num_candidates: int
    fallback: bool
    time_s: float


class DecisionLog:
    """Columnar per-switch decision record (array-resident control plane).

    One row per routing decision: flow id, decision time, an interned path
    reference, an interned destination reference, the live candidate count
    and the all-ports-dead fallback flag.  Columns grow by doubling;
    :meth:`materialize` rebuilds the legacy :class:`RoutingDecision`
    objects on demand (a fresh list every call — callers cannot mutate the
    log through it).
    """

    def __init__(self, capacity: int = 64) -> None:
        self._n = 0
        self.flow_id = np.empty(capacity, dtype=np.int64)
        self.time_s = np.empty(capacity)
        self.path_ref = np.empty(capacity, dtype=np.int64)
        self.dst_ref = np.empty(capacity, dtype=np.int64)
        self.num_candidates = np.empty(capacity, dtype=np.int64)
        self.fallback = np.empty(capacity, dtype=bool)
        #: interned chosen paths (reference -> CandidatePath); keyed by the
        #: pathset's precomputed global path id when the caller provides
        #: one (integer lookup, the batched walk) and by the DC tuple
        #: otherwise (the scalar route_flow path, ad-hoc candidates)
        self._paths = Interner()
        self._global_refs: Dict[int, int] = {}
        #: interned destination DC names
        self._dsts = Interner()

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._n

    def _grow_to(self, need: int) -> None:
        capacity = len(self.flow_id)
        if need <= capacity:
            return
        while capacity < need:
            capacity *= 2
        for name in ("flow_id", "time_s", "path_ref", "dst_ref", "num_candidates", "fallback"):
            old = getattr(self, name)
            grown = np.empty(capacity, dtype=old.dtype)
            grown[: self._n] = old[: self._n]
            setattr(self, name, grown)

    def _intern_path(self, candidate: CandidatePath, global_id: int = -1) -> int:
        if global_id >= 0:
            ref = self._global_refs.get(global_id)
            if ref is None:
                ref = self._paths.intern(candidate.dcs, candidate)
                self._global_refs[global_id] = ref
            return ref
        return self._paths.intern(candidate.dcs, candidate)

    # ------------------------------------------------------------------ #
    def append(
        self,
        flow_id: int,
        time_s: float,
        chosen: CandidatePath,
        dst_dc: str,
        num_candidates: int,
        fallback: bool,
    ) -> None:
        """Record one decision."""
        n = self._n
        self._grow_to(n + 1)
        self.flow_id[n] = flow_id
        self.time_s[n] = time_s
        self.path_ref[n] = self._intern_path(chosen)
        self.dst_ref[n] = self._dsts.intern(dst_dc)
        self.num_candidates[n] = num_candidates
        self.fallback[n] = fallback
        self._n = n + 1

    def intern_paths(
        self, candidates: Sequence[CandidatePath], path_ids: Sequence[int]
    ) -> List[int]:
        """Interned references of a candidate set, aligned with ``candidates``.

        Args:
            path_ids: the candidates' global path ids (see
                :meth:`PathSet.candidate_ids`); interning is an integer
                lookup for an id seen before.
        """
        return [self._intern_path(c, g) for c, g in zip(candidates, path_ids)]

    def intern_dst(self, dst_dc: str) -> int:
        """Interned reference of a destination DC name."""
        return self._dsts.intern(dst_dc)

    def append_batch(self, rows: Sequence[Tuple[int, float, int, int, int, bool]]) -> None:
        """Record decision rows as one columnar write.

        Each row is ``(flow_id, time_s, path_ref, dst_ref, num_candidates,
        fallback)``, with references from :meth:`intern_paths` and
        :meth:`intern_dst`, as :meth:`DCISwitch.route_flows_batch` forms
        them; rows land in the order given.
        """
        count = len(rows)
        n = self._n
        self._grow_to(n + count)
        end = n + count
        flow_ids, times, path_refs, dst_refs, counts, fallbacks = zip(*rows)
        self.flow_id[n:end] = flow_ids
        self.time_s[n:end] = times
        self.path_ref[n:end] = path_refs
        self.dst_ref[n:end] = dst_refs
        self.num_candidates[n:end] = counts
        self.fallback[n:end] = fallbacks
        self._n = end

    # ------------------------------------------------------------------ #
    def first_hops(self) -> List[str]:
        """Chosen first hop per decision (placement analysis helper)."""
        hops = [p.first_hop for p in self._paths.values]
        return [hops[ref] for ref in self.path_ref[: self._n].tolist()]

    def times(self) -> np.ndarray:
        """Decision times (a copy)."""
        return self.time_s[: self._n].copy()

    def materialize(self, switch: str) -> List[RoutingDecision]:
        """Rebuild the legacy per-decision objects (a fresh list)."""
        n = self._n
        flow_ids = self.flow_id[:n].tolist()
        times = self.time_s[:n].tolist()
        path_refs = self.path_ref[:n].tolist()
        dst_refs = self.dst_ref[:n].tolist()
        counts = self.num_candidates[:n].tolist()
        fallbacks = self.fallback[:n].tolist()
        return [
            RoutingDecision(
                switch=switch,
                flow_id=flow_ids[i],
                dst_dc=self._dsts[dst_refs[i]],
                chosen=self._paths[path_refs[i]],
                num_candidates=counts[i],
                fallback=fallbacks[i],
                time_s=times[i],
            )
            for i in range(n)
        ]


class BatchRoute:
    """A switch's prepared decision toward one destination.

    Built by :meth:`DCISwitch.batch_route` from one candidate set: the
    live candidates and their path ids, the all-ports-dead flag, and the
    switch log's interned references, so :meth:`DCISwitch.route_flows_batch`
    only calls the router and forms the rows.  Valid while link state holds.
    """

    __slots__ = ("dst_dc", "candidates", "ids", "fallback", "_refs", "_tail")

    def __init__(
        self,
        log: DecisionLog,
        dst_dc: str,
        candidates: Tuple[CandidatePath, ...],
        ids: Tuple[int, ...],
        fallback: bool,
    ) -> None:
        self.dst_dc = dst_dc
        self.candidates = candidates
        self.ids = ids
        self.fallback = fallback
        self._refs = log.intern_paths(candidates, ids)
        #: the row columns every decision of this route shares
        self._tail = (log.intern_dst(dst_dc), len(candidates), fallback)


class DCISwitch:
    """Runtime DCI switch: ports + router + columnar decision bookkeeping."""

    def __init__(self, dc: str, router) -> None:
        """Create the switch for datacenter ``dc`` running ``router``.

        The router must implement the :class:`repro.routing.base.Router`
        interface; it is attached (``router.attach(self)``) so it can learn
        the switch name and port set.
        """
        self.dc = dc
        self.router = router
        self._ports: Dict[str, RuntimeLink] = {}
        self.decision_log = DecisionLog()
        #: lifetime count of route_flows_batch calls (batched control plane)
        self.batch_calls = 0
        #: whether the router's choices follow telemetry (see
        #: :attr:`last_choice_adaptive`)
        self._adaptive_router = router.consumes_telemetry()
        #: whether the last :meth:`route_flow` choice could come out
        #: differently at the same link state: the router follows
        #: telemetry, did not follow a per-flow pin, and at least two live
        #: first hops were on offer
        self.last_choice_adaptive = False
        router.attach(self)

    # ------------------------------------------------------------------ #
    # ports
    # ------------------------------------------------------------------ #
    def add_port(self, next_dc: str, link: RuntimeLink) -> None:
        """Register the egress port toward ``next_dc``.

        Ports are registered while the owning network is built; a
        :class:`BatchRoute` assumes the port set stays fixed afterwards.
        """
        self._ports[next_dc] = link

    @property
    def ports(self) -> Dict[str, RuntimeLink]:
        """Mapping of neighbouring DC name to the egress link."""
        return dict(self._ports)

    def port_to(self, next_dc: str) -> Optional[RuntimeLink]:
        """The egress link toward ``next_dc``, or ``None``."""
        return self._ports.get(next_dc)

    def port_up(self, next_dc: str) -> bool:
        """Liveness of the port toward ``next_dc`` (False if unknown)."""
        link = self._ports.get(next_dc)
        return bool(link and link.up)

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    @property
    def decisions(self) -> List[RoutingDecision]:
        """All routing decisions taken so far.

        Materialised freshly from the columnar :attr:`decision_log` on
        every access, so mutating the returned list cannot corrupt switch
        state.  Prefer :attr:`decision_count` when only the count matters.
        """
        return self.decision_log.materialize(self.dc)

    @property
    def decision_count(self) -> int:
        """Number of decisions taken (O(1), no materialisation)."""
        return len(self.decision_log)

    def _usable_candidates(
        self,
        dst_dc: str,
        candidates: Sequence[CandidatePath],
        path_ids: Optional[Sequence[int]] = None,
    ) -> Tuple[Tuple[CandidatePath, ...], Optional[Tuple[int, ...]], bool]:
        """Exclude dead egress ports (data-plane fast-failover).

        When every port is dead the full candidate list is passed through so
        the caller can at least make progress and record the loss downstream.

        Returns:
            ``(usable, usable_ids, fallback)`` — the usable candidates, their
            path ids (``None`` without ``path_ids``) and the all-dead flag.
        """
        if not candidates:
            raise ValueError(f"{self.dc}: no candidate routes toward {dst_dc}")
        live = [j for j, c in enumerate(candidates) if self.port_up(c.first_hop)]
        fallback = not live
        positions = live if live else range(len(candidates))
        usable = tuple([candidates[j] for j in positions])
        usable_ids = tuple([path_ids[j] for j in positions]) if path_ids is not None else None
        return usable, usable_ids, fallback

    def route_flow(
        self,
        dst_dc: str,
        candidates: Sequence[CandidatePath],
        demand: FlowDemand,
        now: float,
    ) -> CandidatePath:
        """Pick the candidate route for a new flow toward ``dst_dc``.

        Raises:
            ValueError: when ``candidates`` is empty.
        """
        usable, _, fallback = self._usable_candidates(dst_dc, candidates)
        router = self.router
        chosen = router.select(dst_dc, usable, demand, now)
        self.last_choice_adaptive = (
            self._adaptive_router
            and not fallback
            and not router.last_choice_pinned
            and len({c.first_hop for c in usable}) > 1
        )
        self.decision_log.append(
            flow_id=demand.flow_id,
            time_s=now,
            chosen=chosen,
            dst_dc=dst_dc,
            num_candidates=len(usable),
            fallback=fallback,
        )
        return chosen

    def batch_route(
        self, dst_dc: str, candidates: Sequence[CandidatePath], path_ids: Sequence[int]
    ) -> BatchRoute:
        """Prepare decisions toward ``dst_dc`` over ``candidates``.

        Applies the liveness filter once (see :meth:`route_flow`) and
        interns the survivors in the decision log.  The caller keeps the
        result while :attr:`RuntimeLink.state_version` holds.

        Args:
            path_ids: the candidates' global path ids, aligned with
                ``candidates``.

        Raises:
            ValueError: when ``candidates`` is empty.
        """
        usable, usable_ids, fallback = self._usable_candidates(dst_dc, candidates, path_ids)
        return BatchRoute(self.decision_log, dst_dc, usable, usable_ids, fallback)

    def route_flows_batch(
        self,
        route: BatchRoute,
        demands: Sequence[FlowDemand],
        times: Sequence[float],
        rows: list,
    ) -> List[int]:
        """Route a group of simultaneous arrivals along ``route``.

        One :meth:`Router.select_batch` call covers the group; each flow is
        still stamped with its own decision time (``times[i]``).  One
        decision row per demand is appended to ``rows``, a caller-owned
        list that :meth:`DecisionLog.append_batch` writes once per arrival
        batch.

        Returns:
            Per-demand indices into ``route.candidates``.
        """
        self.batch_calls += 1
        chosen = self.router.select_batch(
            route.dst_dc, route.candidates, demands, times, path_ids=route.ids
        ).tolist()
        refs, tail = route._refs, route._tail
        rows.extend([(d.flow_id, t, refs[j]) + tail for d, t, j in zip(demands, times, chosen)])
        return chosen

    # ------------------------------------------------------------------ #
    def tick(self, now: float) -> None:
        """Periodic housekeeping (router GC, control loops)."""
        self.router.on_tick(now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DCISwitch({self.dc}, ports={sorted(self._ports)}, router={self.router.name})"
