"""Integer-indexed view of the inter-DC graph.

Everything downstream of the topology builder — candidate-path search,
reachability checks, runtime network wiring — wants the same three
things: a dense ``dc name <-> int id`` mapping, the inter-DC link
attributes as columns, and a CSR adjacency it can walk without hashing
strings.  :class:`TopologyIndex` builds them once per topology version;
:meth:`repro.topology.graph.Topology.inter_dc_index` caches the instance
and every consumer shares it.

The index is *static*: it snapshots the topology at construction time
and is invalidated (rebuilt) by the owning :class:`Topology` when the
graph mutates.  Runtime link state (capacity scaling, failures) lives in
the simulator layer and does not touch this view — candidate paths are
defined over provisioned capacities, matching the paper's control plane.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from .graph import LinkSpec, Topology

__all__ = ["TopologyIndex"]

#: sentinel hop distance for unreachable nodes
UNREACHABLE = -1


class TopologyIndex:
    """CSR adjacency + link columns over the inter-DC graph.

    Attributes:
        dc_names: DC names in topology insertion order; position is the id.
        dc_ids: inverse mapping, name -> dense id.
        num_dcs: number of datacenters.
        link_specs: inter-DC :class:`LinkSpec` objects whose endpoints are
            both DCI nodes, in topology insertion order; position is the
            link row referenced by the CSR arrays.
        link_src / link_dst: per-link endpoint dc ids (``int32``).
        link_delay / link_cap: per-link propagation delay (s) and
            provisioned capacity (bps) columns (``float64``).
        adj_indptr / adj_dst / adj_link: CSR adjacency over dc ids;
            the neighbor slice of dc ``u`` is
            ``adj_dst[adj_indptr[u]:adj_indptr[u + 1]]`` with the matching
            link rows in ``adj_link``.  Neighbors are sorted by neighbor
            *name*, preserving the deterministic expansion order of the
            original DFS enumeration.
    """

    def __init__(self, topology: Topology) -> None:
        dcs = topology.dcs
        self.dc_names: Tuple[str, ...] = tuple(dcs)
        self.dc_ids: Dict[str, int] = {name: i for i, name in enumerate(dcs)}
        self.num_dcs = len(dcs)

        specs: List[LinkSpec] = []
        src_ids: List[int] = []
        dst_ids: List[int] = []
        for spec in topology.inter_dc_links():
            su = self.dc_ids.get(spec.src)
            sv = self.dc_ids.get(spec.dst)
            if su is None or sv is None:
                continue
            specs.append(spec)
            src_ids.append(su)
            dst_ids.append(sv)
        self.link_specs: Tuple[LinkSpec, ...] = tuple(specs)
        self.num_links = len(specs)
        self.link_src = np.asarray(src_ids, dtype=np.int32)
        self.link_dst = np.asarray(dst_ids, dtype=np.int32)
        self.link_delay = np.array([s.delay_s for s in specs], dtype=np.float64)
        self.link_cap = np.array([s.cap_bps for s in specs], dtype=np.float64)

        # CSR forward adjacency, neighbors sorted by name per source
        out: List[List[Tuple[str, int, int]]] = [[] for _ in range(self.num_dcs)]
        rev: List[List[int]] = [[] for _ in range(self.num_dcs)]
        for row in range(self.num_links):
            u = src_ids[row]
            v = dst_ids[row]
            out[u].append((self.dc_names[v], v, row))
            rev[v].append(u)
        indptr = np.zeros(self.num_dcs + 1, dtype=np.int64)
        adj_dst: List[int] = []
        adj_link: List[int] = []
        for u in range(self.num_dcs):
            out[u].sort()
            for _, v, row in out[u]:
                adj_dst.append(v)
                adj_link.append(row)
            indptr[u + 1] = len(adj_dst)
        self.adj_indptr = indptr
        self.adj_dst = np.asarray(adj_dst, dtype=np.int32)
        self.adj_link = np.asarray(adj_link, dtype=np.int32)

        # plain-python mirror of the CSR slices for the best-first search
        # inner loop (tuple iteration beats ndarray scalar indexing there)
        self.adjacency: Tuple[Tuple[Tuple[int, int, float, float], ...], ...] = tuple(
            tuple(
                (v, row, specs[row].delay_s, specs[row].cap_bps)
                for _, v, row in out[u]
            )
            for u in range(self.num_dcs)
        )
        self._reverse: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(rev[v]) for v in range(self.num_dcs)
        )
        self._hops_from: Dict[int, np.ndarray] = {}
        self._hops_to: Dict[int, np.ndarray] = {}
        self._specs_by_src: Optional[Dict[str, Tuple[LinkSpec, ...]]] = None

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def dc_id(self, name: str) -> int:
        """Dense id of DC ``name`` (-1 when unknown)."""
        return self.dc_ids.get(name, -1)

    def specs_from(self, name: str) -> Tuple[LinkSpec, ...]:
        """Outgoing inter-DC links of DC ``name`` in link *insertion* order.

        Insertion order (not the name-sorted CSR order) is what the
        delay-Dijkstra relaxes links in; preserving it keeps its
        equal-delay tie-breaks — and therefore the ideal-FCT reference
        path — bit-identical to the pre-index implementation.
        """
        if self._specs_by_src is None:
            by_src: Dict[str, List[LinkSpec]] = {}
            for spec in self.link_specs:
                by_src.setdefault(spec.src, []).append(spec)
            self._specs_by_src = {k: tuple(v) for k, v in by_src.items()}
        return self._specs_by_src.get(name, ())

    # ------------------------------------------------------------------ #
    # hop distances (BFS, cached per endpoint)
    # ------------------------------------------------------------------ #
    def min_hops_from(self, src_id: int) -> np.ndarray:
        """Minimum hop count from ``src_id`` to every DC (-1 unreachable)."""
        cached = self._hops_from.get(src_id)
        if cached is None:
            cached = self._bfs(src_id, forward=True)
            self._hops_from[src_id] = cached
        return cached

    def min_hops_to(self, dst_id: int) -> np.ndarray:
        """Minimum hop count from every DC to ``dst_id`` (-1 unreachable).

        This is the admissible remaining-hops heuristic of the bounded
        best-first candidate search.
        """
        cached = self._hops_to.get(dst_id)
        if cached is None:
            cached = self._bfs(dst_id, forward=False)
            self._hops_to[dst_id] = cached
        return cached

    def reachable(self, src_id: int, dst_id: int) -> bool:
        """True when ``dst_id`` is reachable from ``src_id``."""
        return int(self.min_hops_from(src_id)[dst_id]) != UNREACHABLE

    def _bfs(self, start: int, forward: bool) -> np.ndarray:
        hops = np.full(self.num_dcs, UNREACHABLE, dtype=np.int32)
        if not (0 <= start < self.num_dcs):
            return hops
        hops[start] = 0
        frontier = [start]
        depth = 0
        if forward:
            neighbor_ids = [
                [v for v, _, _, _ in self.adjacency[u]] for u in range(self.num_dcs)
            ]
        else:
            neighbor_ids = [list(t) for t in self._reverse]
        while frontier:
            depth += 1
            nxt: List[int] = []
            for node in frontier:
                for v in neighbor_ids[node]:
                    if hops[v] == UNREACHABLE:
                        hops[v] = depth
                        nxt.append(v)
            frontier = nxt
        return hops

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #
    def bytes_estimate(self) -> int:
        """Approximate resident size of the index's array payloads."""
        arrays = (
            self.link_src,
            self.link_dst,
            self.link_delay,
            self.link_cap,
            self.adj_indptr,
            self.adj_dst,
            self.adj_link,
        )
        total = sum(a.nbytes for a in arrays)
        total += sum(a.nbytes for a in self._hops_from.values())
        total += sum(a.nbytes for a in self._hops_to.values())
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TopologyIndex(dcs={self.num_dcs}, links={self.num_links})"

