"""Runtime network: topology + routers instantiated for simulation.

The :class:`RuntimeNetwork` owns every mutable piece of network state: one
:class:`~repro.simulator.link.RuntimeLink` per directed inter-DC link, one
:class:`~repro.simulator.switch.DCISwitch` (with its router instance) per
datacenter, and lazily created host NIC uplinks/downlinks.  It resolves the
path of a new flow by walking DCI switches hop by hop, asking each switch's
router for the next hop — the distributed decision process the paper
describes.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..topology.graph import Topology, TopologyError
from ..topology.paths import PathSet, shortest_delay_path
from .config import SimulationConfig
from .flow import FlowDemand
from .link import RuntimeLink
from .switch import DCISwitch

__all__ = ["RuntimeNetwork", "RoutingLoopError"]

#: maximum DCI hops a resolved path may take before we declare a loop
_MAX_RESOLVE_HOPS = 32


class RoutingLoopError(RuntimeError):
    """Raised when hop-by-hop resolution fails to reach the destination."""


class _HopEntry:
    """What the grouped walk needs at one ``(current, dst, visited)`` hop.

    With a switch decision to take: the switch, its
    :class:`~repro.simulator.switch.BatchRoute` over the loop-free
    candidates, and per live candidate the egress link and the next hop's
    key (``None`` when the candidate's first hop is the destination).
    Without one (``switch is None``): the links of the shortest-delay
    remainder, or ``None`` when the destination is unreachable.
    """

    __slots__ = ("switch", "route", "links", "child_keys", "remainder")

    def __init__(self) -> None:
        self.switch: Optional[DCISwitch] = None
        self.remainder: Optional[List[RuntimeLink]] = None


class RuntimeNetwork:
    """Mutable simulation-time view of a topology plus its routers."""

    def __init__(
        self,
        topology: Topology,
        pathset: PathSet,
        router_factory: Callable[[str], object],
        config: Optional[SimulationConfig] = None,
    ) -> None:
        """Instantiate runtime state.

        Args:
            topology: static topology.
            pathset: precomputed candidate paths (control-plane view).
            router_factory: callable mapping a DC name to a fresh router
                instance (each DCI switch gets its own router — the scheme is
                distributed, there is no shared state between switches unless
                a router implementation chooses to share it).
            config: simulation config (ECN profile for the links).
        """
        self.topology = topology
        self.pathset = pathset
        self.config = config or SimulationConfig()

        self._links: Dict[Tuple[str, str], RuntimeLink] = {}
        for spec in topology.inter_dc_links():
            self._links[spec.key] = RuntimeLink(
                spec,
                ecn_kmin_fraction=self.config.ecn_kmin_fraction,
                ecn_kmax_fraction=self.config.ecn_kmax_fraction,
                ecn_pmax=self.config.ecn_pmax,
            )

        self._switches: Dict[str, DCISwitch] = {}
        for dc in topology.dcs:
            switch = DCISwitch(dc, router_factory(dc))
            for neighbor in topology.neighbors(dc):
                if topology.nodes[neighbor].kind == "dci":
                    link = self._links.get((dc, neighbor))
                    if link is not None:
                        switch.add_port(neighbor, link)
            self._switches[dc] = switch

        self._host_links: Dict[Tuple[str, int, str], RuntimeLink] = {}
        #: cache of shortest-delay fallback remainders keyed by
        #: ``(current, dst)``.  ``resolve_path`` hits the fallback once per
        #: stranded flow per update step during an outage; recomputing
        #: Dijkstra each time made re-route sweeps O(flows x topology).
        #: Invalidated whenever :attr:`RuntimeLink.state_version` moves
        #: (fault injection / capacity events), mirroring the array core's
        #: liveness-array cache.
        self._fallback_cache: Dict[Tuple[str, str], object] = {}
        self._fallback_seen_version = RuntimeLink.state_version
        #: the grouped walk's hop table, keyed ``(current, dst, visited)``
        #: (see :meth:`_hop_entry`); emptied when link state or the path
        #: set's LRU moves
        self._hops: Dict[Tuple[str, str, FrozenSet[str]], _HopEntry] = {}
        self._hops_version = RuntimeLink.state_version
        self._hops_evictions = pathset.cache_evictions
        #: whether the last :meth:`resolve_path` walk made an adaptive
        #: choice (:attr:`DCISwitch.last_choice_adaptive`) at some switch —
        #: the one way the same link state can give a different walk; the
        #: simulation's re-route wait list reads it after a failed attempt
        self.last_walk_adaptive = False

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def switches(self) -> Dict[str, DCISwitch]:
        """DCI switches keyed by DC name."""
        return dict(self._switches)

    @property
    def inter_dc_links(self) -> List[RuntimeLink]:
        """All runtime inter-DC links."""
        return list(self._links.values())

    def link(self, src: str, dst: str) -> RuntimeLink:
        """The runtime inter-DC link from ``src`` to ``dst``."""
        try:
            return self._links[(src, dst)]
        except KeyError:
            raise TopologyError(f"no runtime link {src!r}->{dst!r}") from None

    def switch(self, dc: str) -> DCISwitch:
        """The DCI switch of datacenter ``dc``."""
        return self._switches[dc]

    def all_active_links(self) -> List[RuntimeLink]:
        """Every runtime link that may carry traffic (inter-DC + host NICs)."""
        return list(self._links.values()) + list(self._host_links.values())

    # ------------------------------------------------------------------ #
    # host NIC links (lazily created)
    # ------------------------------------------------------------------ #
    def host_link(self, dc: str, host_idx: int, direction: str) -> RuntimeLink:
        """The NIC uplink (``"up"``) or downlink (``"down"``) of a host.

        Host links model the access path between a server and its DCI
        switch: the NIC line rate bounds the flow and contention between
        co-located flows shows up as queueing at this link.
        """
        if direction not in ("up", "down"):
            raise ValueError("direction must be 'up' or 'down'")
        key = (dc, host_idx, direction)
        if key in self._host_links:
            return self._host_links[key]

        group = self.topology.host_groups.get(dc)
        if group is None:
            raise TopologyError(f"datacenter {dc!r} has no hosts")
        if not 0 <= host_idx < group.count:
            raise TopologyError(f"host index {host_idx} out of range for {dc!r}")

        host_name = f"{dc}/h{host_idx}"
        if direction == "up":
            src, dst = host_name, dc
        else:
            src, dst = dc, host_name
        from ..topology.graph import LinkSpec  # local import to avoid cycle at module load

        spec = LinkSpec(
            src=src,
            dst=dst,
            cap_bps=group.nic_bps,
            delay_s=group.access_delay_s,
            buffer_bytes=Topology.DEFAULT_INTRA_BUFFER,
            inter_dc=False,
        )
        link = RuntimeLink(
            spec,
            ecn_kmin_fraction=self.config.ecn_kmin_fraction,
            ecn_kmax_fraction=self.config.ecn_kmax_fraction,
            ecn_pmax=self.config.ecn_pmax,
        )
        self._host_links[key] = link
        return link

    # ------------------------------------------------------------------ #
    # path resolution (the distributed routing walk)
    # ------------------------------------------------------------------ #
    def resolve_path(self, demand: FlowDemand, now: float) -> List[RuntimeLink]:
        """Resolve the full path of a new flow.

        The walk starts at the source DC's DCI switch.  At every DCI switch
        the locally attached router picks one candidate route toward the
        destination (only the *first hop* of that candidate is committed —
        the next switch re-decides with its own local view), reproducing the
        paper's distributed per-switch decision model.  Visited DCs are
        excluded from candidate first hops to guarantee loop freedom; if that
        leaves no candidate the walk falls back to the shortest-delay path
        from the current DC.

        Returns:
            Ordered runtime links: source NIC uplink, inter-DC links,
            destination NIC downlink.
        """
        self.last_walk_adaptive = False
        links: List[RuntimeLink] = [
            self.host_link(demand.src_dc, demand.src_host, "up")
        ]

        if demand.src_dc != demand.dst_dc:
            links.extend(self._resolve_inter_dc(demand, now))

        links.append(self.host_link(demand.dst_dc, demand.dst_host, "down"))
        return links

    def _resolve_inter_dc(self, demand: FlowDemand, now: float) -> List[RuntimeLink]:
        current = demand.src_dc
        dst = demand.dst_dc
        visited = {current}
        hops: List[RuntimeLink] = []

        for _ in range(_MAX_RESOLVE_HOPS):
            if current == dst:
                return hops
            candidates = [
                c
                for c in self.pathset.candidates(current, dst)
                if c.first_hop not in visited
            ]
            if candidates:
                switch = self._switches[current]
                chosen = switch.route_flow(dst, candidates, demand, now)
                if switch.last_choice_adaptive:
                    self.last_walk_adaptive = True
                next_dc = chosen.first_hop
            else:
                # no loop-free candidate left: commit to the shortest-delay
                # remainder computed over the static topology
                remainder = self._fallback_remainder(current, dst)
                if remainder is None:
                    raise RoutingLoopError(
                        f"flow {demand.flow_id}: no route from {current} to {dst}"
                    )
                for spec in remainder.links:
                    hops.append(self._links[spec.key])
                return hops
            hops.append(self._links[(current, next_dc)])
            visited.add(next_dc)
            current = next_dc

        raise RoutingLoopError(
            f"flow {demand.flow_id}: exceeded {_MAX_RESOLVE_HOPS} DCI hops "
            f"resolving {demand.src_dc}->{demand.dst_dc}"
        )

    def resolve_paths_batch(
        self, demands: Sequence[FlowDemand], times: np.ndarray
    ) -> List[List[RuntimeLink]]:
        """Resolve the paths of a batch of simultaneous arrivals.

        Semantically identical to calling :meth:`resolve_path` once per
        demand at its own arrival instant (``times[i]``), but the hop-by-hop
        walk runs *per group*: demands sharing (source, destination) are
        routed together — one :meth:`~repro.routing.base.Router.select_batch`
        call per switch hop — then split by chosen next hop.  Everything a
        hop needs besides that call comes from the hop table (see
        :meth:`_hop_entry`), and each switch's decision rows are written
        with one columnar append at the end of the batch, in the walk's
        depth-first order.

        Args:
            demands: the arriving flows, in arrival order.
            times: per-demand decision timestamps (each flow is routed with
                its own arrival time even when the batch drains early).

        Returns:
            One ordered runtime-link path per demand (source NIC uplink,
            inter-DC links, destination NIC downlink), aligned with
            ``demands``.
        """
        self._sync_hop_table()
        host_link = self.host_link
        paths = [[host_link(d.src_dc, d.src_host, "up")] for d in demands]
        groups: Dict[Tuple[str, str], List[int]] = {}
        for i, demand in enumerate(demands):
            if demand.src_dc != demand.dst_dc:
                groups.setdefault((demand.src_dc, demand.dst_dc), []).append(i)
        times_l = np.asarray(times, dtype=np.float64).tolist()
        rows: Dict[DCISwitch, list] = {}
        try:
            for (src, dst), members in groups.items():
                self._walk(
                    (src, dst, frozenset((src,))), members, demands, times_l, paths, rows, 0
                )
        finally:
            for switch, switch_rows in rows.items():
                switch.decision_log.append_batch(switch_rows)
        for demand, path in zip(demands, paths):
            path.append(host_link(demand.dst_dc, demand.dst_host, "down"))
        return paths

    def _walk(
        self,
        key: Tuple[str, str, FrozenSet[str]],
        members: List[int],
        demands: Sequence[FlowDemand],
        times: List[float],
        paths: List[List[RuntimeLink]],
        rows: Dict[DCISwitch, list],
        depth: int,
    ) -> None:
        """Walk a group from hop ``key`` to its destination.

        Each hop makes one decision for every member.  While the members
        all pick the same next hop — always, for a group of one flow —
        the walk goes on in a loop; otherwise it splits by next hop and
        walks each subgroup in turn, so the walk is depth-first: a group
        reaches its destination before its sibling groups are routed.  At
        paper scale groups hold about one flow and their visited sets
        differ, so a hop-synchronous regroup would merge almost nothing.
        """
        dst = key[1]
        sub_demands = [demands[i] for i in members]
        sub_times = [times[i] for i in members]
        while True:
            if depth >= _MAX_RESOLVE_HOPS:
                raise RoutingLoopError(
                    f"flow {sub_demands[0].flow_id}: exceeded {_MAX_RESOLVE_HOPS} "
                    f"DCI hops resolving toward {dst}"
                )
            entry = self._hop_entry(key)
            switch = entry.switch
            if switch is None:
                if entry.remainder is None:
                    raise RoutingLoopError(
                        f"flow {sub_demands[0].flow_id}: no route from {key[0]} to {dst}"
                    )
                for i in members:
                    paths[i].extend(entry.remainder)
                return
            switch_rows = rows.get(switch)
            if switch_rows is None:
                switch_rows = rows[switch] = []
            chosen = switch.route_flows_batch(entry.route, sub_demands, sub_times, switch_rows)
            links, child_keys = entry.links, entry.child_keys
            by_hop: Dict[Optional[tuple], List[int]] = {}
            for i, j in zip(members, chosen):
                paths[i].append(links[j])
                by_hop.setdefault(child_keys[j], []).append(i)
            depth += 1
            if len(by_hop) > 1:
                for child_key, sub_members in by_hop.items():
                    if child_key is not None:
                        self._walk(child_key, sub_members, demands, times, paths, rows, depth)
                return
            key = child_keys[chosen[0]]
            if key is None:
                return

    # ------------------------------------------------------------------ #
    # the hop table
    # ------------------------------------------------------------------ #
    def _sync_hop_table(self) -> None:
        """Drop every hop entry when link state or the path set's LRU moved."""
        version = RuntimeLink.state_version
        evictions = self.pathset.cache_evictions
        if version != self._hops_version or evictions != self._hops_evictions:
            self._hops.clear()
            self._hops_version = version
            self._hops_evictions = evictions

    def _hop_entry(self, key: Tuple[str, str, FrozenSet[str]]) -> "_HopEntry":
        """The hop table's entry for ``(current, dst, visited)``, built on a miss.

        A hit still requests the pair's candidate ids, so a capped path
        set's LRU sees one touch per hop, as it would if every hop looked
        its candidates up.  A build that evicts a pair drops the table:
        entries may hold the evicted pair's views.
        """
        entry = self._hops.get(key)
        if entry is not None:
            self.pathset.candidate_ids(key[0], key[1])
            return entry
        entry = self._build_hop(*key)
        self._sync_hop_table()
        self._hops[key] = entry
        return entry

    def _build_hop(self, current: str, dst: str, visited: FrozenSet[str]) -> "_HopEntry":
        """Compute one hop entry: the switch's route over the loop-free candidates."""
        entry = _HopEntry()
        candidates = []
        candidate_ids = []
        for c, pid in zip(
            self.pathset.candidates(current, dst), self.pathset.candidate_ids(current, dst)
        ):
            if c.first_hop not in visited:
                candidates.append(c)
                candidate_ids.append(pid)
        if not candidates:
            # no loop-free candidate left: the shortest-delay remainder
            # computed over the static topology
            remainder = self._fallback_remainder(current, dst)
            if remainder is not None:
                entry.remainder = [self._links[spec.key] for spec in remainder.links]
            return entry
        switch = self._switches[current]
        entry.switch = switch
        entry.route = switch.batch_route(dst, candidates, candidate_ids)
        next_dcs = [c.first_hop for c in entry.route.candidates]
        entry.links = [self._links[(current, hop)] for hop in next_dcs]
        entry.child_keys = [
            None if hop == dst else (hop, dst, visited | {hop}) for hop in next_dcs
        ]
        return entry

    def _fallback_remainder(self, current: str, dst: str):
        """Cached shortest-delay remainder for the candidate-less fallback."""
        if self._fallback_seen_version != RuntimeLink.state_version:
            self._fallback_cache.clear()
            self._fallback_seen_version = RuntimeLink.state_version
        key = (current, dst)
        try:
            return self._fallback_cache[key]
        except KeyError:
            remainder = shortest_delay_path(self.topology, current, dst)
            self._fallback_cache[key] = remainder
            return remainder

    # ------------------------------------------------------------------ #
    # periodic housekeeping and fault injection
    # ------------------------------------------------------------------ #
    def tick_all(self, now: float) -> None:
        """Run the periodic tick (GC, control loops) on every switch."""
        for switch in self._switches.values():
            switch.tick(now)

    def fail_link(self, src: str, dst: str) -> None:
        """Fail the directed inter-DC link ``src -> dst`` (fault injection)."""
        self.link(src, dst).fail()

    def recover_link(self, src: str, dst: str) -> None:
        """Recover a previously failed link."""
        self.link(src, dst).recover()
