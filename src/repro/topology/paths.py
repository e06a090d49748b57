"""Candidate-path enumeration over inter-DC topologies.

LCMP (and every baseline router in this repository) chooses among a set of
*candidate* inter-DC routes for each (source DC, destination DC) pair.  The
paper's evaluation topologies expose between one and six candidates per pair.
This module enumerates loop-free candidate paths, ranks them, and exposes the
static attributes the LCMP control plane needs: end-to-end propagation delay
and bottleneck capacity.

Candidates are computed over the *inter-DC* graph only (DCI switches and the
links between them); intra-DC hops are accounted for separately by the
simulator's access-delay model.

Scale design (ROADMAP item 2, "continent-scale topologies"):

* Enumeration runs as a **bounded best-first search** over the shared
  integer-indexed adjacency (:class:`repro.topology.index.TopologyIndex`)
  with an admissible remaining-hops heuristic, so it stops as soon as the
  top ``max_candidates`` routes are provably final instead of exhausting
  every simple path and truncating.  The output is *identical* to the
  historical exhaustive-DFS-then-sort enumeration (same set, same order,
  bit-identical delays) — a property the lazy/eager parity suite pins.
* :class:`PathSet` is **lazy**: a pair's candidates are materialized on
  first request, cached in an LRU keyed by the pair (cap configurable for
  huge fabrics), and stored **columnar** — a CSR path→link-row array plus
  delay/bottleneck/hop columns — with :class:`PathView` as a lazily built
  per-path view (the FlowRecord pattern).  Global integer path ids are
  deterministic functions of ``(src, dst, rank)``, so
  :meth:`PathSet.prewarm` and any materialization order assign identical
  ids.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .graph import LinkSpec, Topology, TopologyError
from .index import TopologyIndex

__all__ = [
    "CandidatePath",
    "PathSet",
    "PathView",
    "enumerate_paths",
    "shortest_delay_path",
]


@dataclass(frozen=True)
class CandidatePath:
    """A loop-free inter-DC route between two datacenters.

    Attributes:
        dcs: ordered DC names from source to destination (inclusive).
        links: the directed inter-DC links along the route.
        delay_s: total one-way propagation delay along ``links``.
        bottleneck_bps: minimum link capacity along ``links``.
        hop_count: number of inter-DC links.
    """

    dcs: Tuple[str, ...]
    links: Tuple[LinkSpec, ...]
    delay_s: float
    bottleneck_bps: float

    @property
    def src(self) -> str:
        """Source datacenter."""
        return self.dcs[0]

    @property
    def dst(self) -> str:
        """Destination datacenter."""
        return self.dcs[-1]

    @property
    def hop_count(self) -> int:
        """Number of inter-DC links traversed."""
        return len(self.links)

    @property
    def first_hop(self) -> str:
        """The next DC after the source — the egress decision LCMP makes."""
        return self.dcs[1]

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        route = "->".join(self.dcs)
        return f"{route} ({self.delay_s * 1e3:.1f} ms, {self.bottleneck_bps / 1e9:g} Gbps)"


class PathView:
    """Candidate-path view over a :class:`PathSet`'s columnar geometry.

    Exposes the :class:`CandidatePath` interface (``dcs``, ``links``,
    ``delay_s``, ``bottleneck_bps``, ``hop_count``, ``src`` …) while the
    underlying storage stays columnar: scalar attributes are reads of the
    delay/bottleneck/hop columns, and the ``dcs``/``links`` tuples are
    reconstructed from the CSR link rows on first access and cached on
    the view (mirroring the FlowRecord-over-MetricsStore pattern).
    """

    __slots__ = ("_ps", "_row", "path_id", "_dcs", "_links", "_first_hop")

    def __init__(self, pathset: "PathSet", row: int, path_id: int) -> None:
        self._ps = pathset
        self._row = row
        #: deterministic global id of this path within the owning PathSet
        self.path_id = path_id
        self._dcs: Optional[Tuple[str, ...]] = None
        self._links: Optional[Tuple[LinkSpec, ...]] = None
        self._first_hop: Optional[str] = None

    @property
    def links(self) -> Tuple[LinkSpec, ...]:
        """The directed inter-DC links along the route."""
        if self._links is None:
            ps = self._ps
            start = ps._geom_indptr[self._row]
            end = ps._geom_indptr[self._row + 1]
            specs = ps._index.link_specs
            self._links = tuple(
                specs[r] for r in ps._geom_links[start:end].tolist()
            )
            self._first_hop = self._links[0].dst
        return self._links

    @property
    def dcs(self) -> Tuple[str, ...]:
        """Ordered DC names from source to destination (inclusive)."""
        if self._dcs is None:
            links = self.links
            self._dcs = (links[0].src,) + tuple(spec.dst for spec in links)
        return self._dcs

    @property
    def delay_s(self) -> float:
        """Total one-way propagation delay along the route."""
        return float(self._ps._geom_delay[self._row])

    @property
    def bottleneck_bps(self) -> float:
        """Minimum link capacity along the route."""
        return float(self._ps._geom_bneck[self._row])

    @property
    def hop_count(self) -> int:
        """Number of inter-DC links traversed."""
        return int(self._ps._geom_hops[self._row])

    @property
    def src(self) -> str:
        """Source datacenter."""
        return self.links[0].src

    @property
    def dst(self) -> str:
        """Destination datacenter."""
        return self.links[-1].dst

    @property
    def first_hop(self) -> str:
        """The next DC after the source — the egress decision LCMP makes.

        Read several times per routing decision, so it is cached when
        :attr:`links` is first built.
        """
        hop = self._first_hop
        return hop if hop is not None else self.links[0].dst

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        route = "->".join(self.dcs)
        return f"{route} ({self.delay_s * 1e3:.1f} ms, {self.bottleneck_bps / 1e9:g} Gbps)"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PathView(id={self.path_id}, {'->'.join(self.dcs)})"


class _GrowColumn:
    """Minimal growable 1-D array column (amortised-doubling appends)."""

    __slots__ = ("_arr", "_n")

    def __init__(self, dtype, capacity: int = 64) -> None:
        self._arr = np.empty(capacity, dtype=dtype)
        self._n = 0

    def append(self, value) -> None:
        if self._n == len(self._arr):
            self._arr = np.resize(self._arr, max(64, 2 * len(self._arr)))
        self._arr[self._n] = value
        self._n += 1

    def extend(self, values: Sequence) -> None:
        need = self._n + len(values)
        if need > len(self._arr):
            cap = max(64, len(self._arr))
            while cap < need:
                cap *= 2
            self._arr = np.resize(self._arr, cap)
        self._arr[self._n : need] = values
        self._n = need

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, item):
        return self._arr[:self._n][item]

    @property
    def nbytes(self) -> int:
        return self._arr.nbytes


class PathSet:
    """Candidate paths for every ordered DC pair of a topology.

    The path set is the control-plane view of the network: the LCMP control
    plane derives per-path quality scores from it, and routers query it at
    flow-arrival time for the candidate list of a destination.

    Candidates are **lazy**: a pair is enumerated the first time it is
    queried and cached (LRU, ``cache_pairs`` cap; ``None`` = unbounded).
    :meth:`prewarm` enumerates every pair up front — identical candidates
    and ids.  Path geometry is stored columnar; :meth:`candidates` returns
    :class:`PathView` objects built over the columns.

    Global path ids are deterministic:
    ``((src_id * num_dcs) + dst_id) * max_candidates + rank`` — sparse but
    stable across materialization order, so columnar decision logs and
    batched routing can key on them safely.
    """

    def __init__(
        self,
        topology: Topology,
        max_candidates: int = 8,
        max_extra_hops: int = 2,
        cache_pairs: Optional[int] = None,
    ) -> None:
        """Prepare the path set; pairs are enumerated on first request.

        Args:
            topology: the inter-DC topology.
            max_candidates: keep at most this many candidates per pair.
            max_extra_hops: keep only paths whose hop count is within this
                many hops of the minimum hop count for the pair (prevents
                absurdly long detours on dense graphs).
            cache_pairs: LRU cap on cached materialized pairs (``None`` =
                unbounded).  Evicted pairs re-enumerate on next access;
                ids and geometry stay stable.
        """
        if max_candidates <= 0:
            raise TopologyError("max_candidates must be positive")
        self.topology = topology
        self.max_candidates = max_candidates
        self.max_extra_hops = max_extra_hops
        self.cache_pairs = cache_pairs
        self._index: TopologyIndex = topology.inter_dc_index()
        n = self._index.num_dcs
        self._num_pairs = n * (n - 1)

        # columnar path geometry: CSR path-row -> link rows, plus scalar
        # delay / bottleneck / hop columns.  Rows are append-only and
        # survive LRU eviction of the per-pair view cache.
        self._geom_indptr = _GrowColumn(np.int64)
        self._geom_indptr.append(0)
        self._geom_links = _GrowColumn(np.int32)
        self._geom_delay = _GrowColumn(np.float64)
        self._geom_bneck = _GrowColumn(np.float64)
        self._geom_hops = _GrowColumn(np.int32)
        self._pid_row: Dict[int, int] = {}

        # LRU over materialized pairs: (src_id, dst_id) -> (views, ids)
        self._pair_cache: "OrderedDict[Tuple[int, int], Tuple[Tuple[PathView, ...], Tuple[int, ...]]]" = (
            OrderedDict()
        )
        #: number of pair enumerations actually run (re-runs after
        #: eviction count again; benchmark/test observability)
        self.searches_run = 0
        #: number of LRU evictions (benchmark/test observability)
        self.cache_evictions = 0

    # ------------------------------------------------------------------ #
    # materialization
    # ------------------------------------------------------------------ #
    def _pair_entry(
        self, src_id: int, dst_id: int
    ) -> Tuple[Tuple[PathView, ...], Tuple[int, ...]]:
        """The (views, ids) entry for a pair, materializing if needed."""
        n = self._index.num_dcs
        if src_id < 0 or dst_id < 0 or src_id == dst_id:
            return (), ()
        key = (src_id, dst_id)
        cache = self._pair_cache
        entry = cache.get(key)
        if entry is not None:
            cache.move_to_end(key)
            return entry

        routes = _bounded_search(
            self._index, src_id, dst_id, self.max_candidates, self.max_extra_hops
        )
        self.searches_run += 1
        base = (src_id * n + dst_id) * self.max_candidates
        views = []
        ids = []
        for rank, (hops, delay, neg_bneck, link_rows) in enumerate(routes):
            pid = base + rank
            row = self._pid_row.get(pid)
            if row is None:
                row = len(self._geom_hops)
                self._geom_links.extend(link_rows)
                self._geom_indptr.append(len(self._geom_links))
                self._geom_delay.append(delay)
                self._geom_bneck.append(-neg_bneck)
                self._geom_hops.append(hops)
                self._pid_row[pid] = row
            views.append(PathView(self, row, pid))
            ids.append(pid)
        entry = (tuple(views), tuple(ids))
        cache[key] = entry
        if self.cache_pairs is not None and len(cache) > self.cache_pairs:
            cache.popitem(last=False)
            self.cache_evictions += 1
        return entry

    def prewarm(self, pairs: Optional[Iterable[Tuple[str, str]]] = None) -> int:
        """Materialize candidates for ``pairs`` (default: every ordered pair).

        Keeps the integer-index contract warm for batched consumers that
        want predictable first-query latency.  Returns the number of pairs
        visited.
        """
        if pairs is None:
            pairs = self.all_pairs()
        count = 0
        dc_id = self._index.dc_id
        for src, dst in pairs:
            self._pair_entry(dc_id(src), dc_id(dst))
            count += 1
        return count

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def candidates(self, src: str, dst: str) -> List[PathView]:
        """Candidate paths from ``src`` to ``dst`` (may be empty)."""
        dc_id = self._index.dc_id
        return list(self._pair_entry(dc_id(src), dc_id(dst))[0])

    def candidate_ids(self, src: str, dst: str) -> Tuple[int, ...]:
        """Global path ids of the pair's candidates, aligned with
        :meth:`candidates` order (empty tuple for unknown pairs)."""
        dc_id = self._index.dc_id
        return self._pair_entry(dc_id(src), dc_id(dst))[1]

    def has_path(self, src: str, dst: str) -> bool:
        """True when at least one candidate exists for the ordered pair.

        A pure reachability check over the shared index — it never
        materializes the pair (the hop-minimal route always satisfies the
        detour bound, so reachability and non-empty candidates coincide).
        """
        su = self._index.dc_id(src)
        sv = self._index.dc_id(dst)
        if su < 0 or sv < 0 or su == sv:
            return False
        return self._index.reachable(su, sv)

    def pair_metrics(self, src: str, dst: str) -> Tuple[np.ndarray, np.ndarray]:
        """Per-candidate ``(delays_s, bottlenecks_bps)`` columns for a pair.

        Aligned with :meth:`candidates` order; empty arrays for unknown or
        unreachable pairs.  Lets consumers (e.g. the ideal-FCT model) read
        path attributes without building per-path views.
        """
        dc_id = self._index.dc_id
        views, ids = self._pair_entry(dc_id(src), dc_id(dst))
        if not ids:
            return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.float64)
        rows = [self._pid_row[pid] for pid in ids]
        return self._geom_delay[rows], self._geom_bneck[rows]

    # ------------------------------------------------------------------ #
    # integer path index
    # ------------------------------------------------------------------ #
    @property
    def num_paths(self) -> int:
        """Number of distinct candidate paths materialized so far.

        After :meth:`prewarm` that is every candidate of every pair.
        """
        return len(self._pid_row)

    def path_id(self, candidate) -> int:
        """Stable integer id of a candidate (-1 for paths outside the set)."""
        if isinstance(candidate, PathView) and candidate._ps is self:
            return candidate.path_id
        dcs = candidate.dcs
        dc_id = self._index.dc_id
        views, ids = self._pair_entry(dc_id(dcs[0]), dc_id(dcs[-1]))
        for view, vid in zip(views, ids):
            if view.dcs == dcs:
                return vid
        return -1

    def path_by_id(self, path_id: int):
        """The candidate path registered under ``path_id``.

        Raises:
            IndexError: for ids outside the deterministic id space or
                ranks beyond the pair's candidate count.
        """
        n = self._index.num_dcs
        if path_id < 0:
            raise IndexError(f"path id {path_id} out of range")
        pair_code, rank = divmod(path_id, self.max_candidates)
        src_id, dst_id = divmod(pair_code, n)
        if src_id >= n or src_id == dst_id:
            raise IndexError(f"path id {path_id} out of range")
        views, _ = self._pair_entry(src_id, dst_id)
        if rank >= len(views):
            raise IndexError(f"path id {path_id} has no materialized path")
        return views[rank]

    # ------------------------------------------------------------------ #
    # aggregate views (materialize every pair on demand)
    # ------------------------------------------------------------------ #
    def pairs_with_multipath(self) -> List[Tuple[str, str]]:
        """Ordered DC pairs that have two or more candidate paths.

        Materializes every ordered pair (an aggregate statistic cannot be
        answered lazily); intended for topology-sized analysis, not the
        per-flow hot path.
        """
        dc_id = self._index.dc_id
        return [
            (src, dst)
            for src, dst in self.all_pairs()
            if len(self._pair_entry(dc_id(src), dc_id(dst))[1]) >= 2
        ]

    def multipath_fraction(self) -> float:
        """Fraction of ordered DC pairs with at least two candidates.

        The paper reports 57.1 % for the 8-DC testbed and 25.6 % for the
        13-DC BSONetwork topology (counting unordered pairs); this helper is
        used by the topology tests to check we are in the same regime.
        """
        if self._num_pairs == 0:
            return 0.0
        return len(self.pairs_with_multipath()) / self._num_pairs

    def ideal_delay(self, src: str, dst: str) -> float:
        """Minimum propagation delay among candidates for the pair."""
        delays, _ = self.pair_metrics(src, dst)
        if delays.size == 0:
            raise TopologyError(f"no path from {src!r} to {dst!r}")
        return float(delays.min())

    def best_bottleneck(self, src: str, dst: str) -> float:
        """Maximum bottleneck capacity among candidates for the pair."""
        _, bnecks = self.pair_metrics(src, dst)
        if bnecks.size == 0:
            raise TopologyError(f"no path from {src!r} to {dst!r}")
        return float(bnecks.max())

    def all_pairs(self) -> List[Tuple[str, str]]:
        """All ordered DC pairs covered by this path set."""
        names = self._index.dc_names
        return [(a, b) for a in names for b in names if a != b]

    def __len__(self) -> int:
        return self._num_pairs

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #
    def memory_bytes(self) -> int:
        """Structure-size estimate of the path set's resident payloads.

        Counts the columnar geometry arrays, the shared topology index's
        array payloads, and a per-entry estimate for the id→row map and
        the pair cache.  Feeds the ``topology.pathset_bytes`` gauge of the
        memory benchmark lane.
        """
        geom = (
            self._geom_indptr.nbytes
            + self._geom_links.nbytes
            + self._geom_delay.nbytes
            + self._geom_bneck.nbytes
            + self._geom_hops.nbytes
        )
        # dict-entry overhead estimates (key + value + hash slot)
        maps = 64 * len(self._pid_row) + 96 * len(self._pair_cache)
        return geom + maps + self._index.bytes_estimate()


def _bounded_search(
    index: TopologyIndex,
    src_id: int,
    dst_id: int,
    max_candidates: int,
    max_extra_hops: int,
) -> List[Tuple[int, float, float, Tuple[int, ...]]]:
    """Bounded best-first enumeration of loop-free routes between dc ids.

    Expands partial routes in order of ``(hops_so_far + min_remaining_hops,
    delay_so_far)`` — an admissible priority, so completed routes pop in
    nondecreasing ``(hop_count, delay)`` order.  The search stops once
    ``max_candidates`` routes are collected **and** the heap minimum is
    strictly worse in ``(hops, delay)`` than the current k-th route (ties
    must keep running: an equal-(hops, delay) route can still win on the
    bottleneck/name tie-break of the full ranking key).  The final sort by
    ``(hops, delay, -bottleneck, route)`` therefore returns exactly what
    the exhaustive enumeration would.

    Returns:
        Up to ``max_candidates`` tuples ``(hop_count, delay_s,
        -bottleneck_bps, link_rows)`` in ranking order.
    """
    dist_to = index.min_hops_to(dst_id)
    min_hops = int(dist_to[src_id])
    if min_hops < 0:
        return []
    hop_limit = min_hops + max_extra_hops
    remaining = dist_to.tolist()
    names = index.dc_names
    adjacency = index.adjacency
    k = max_candidates

    # (hops, delay, -bneck, name-route, link rows); name-route is the
    # ranking tie-break (identical to the old ``p.dcs`` sort component)
    completed: List[Tuple[int, float, float, Tuple[str, ...], Tuple[int, ...]]] = []
    heap = [
        (min_hops, 0.0, (names[src_id],), src_id, (src_id,), float("inf"), ())
    ]
    while heap:
        f, delay, route_names, node, route, bneck, link_rows = heapq.heappop(heap)
        if len(completed) >= k:
            kth = completed[k - 1]
            if (f, delay) > (kth[0], kth[1]):
                break
        if node == dst_id:
            completed.append((len(route) - 1, delay, -bneck, route_names, link_rows))
            continue
        next_hops = len(route)
        for v, row, d, cap in adjacency[node]:
            if v in route:
                continue
            rem = remaining[v]
            if rem < 0 or next_hops + rem > hop_limit:
                continue
            heapq.heappush(
                heap,
                (
                    next_hops + rem,
                    delay + d,
                    route_names + (names[v],),
                    v,
                    route + (v,),
                    bneck if bneck < cap else cap,
                    link_rows + (row,),
                ),
            )
    completed.sort()
    return [
        (hops, delay, neg_bneck, link_rows)
        for hops, delay, neg_bneck, _, link_rows in completed[:k]
    ]


def _build_path(topology: Topology, dcs: Sequence[str]) -> CandidatePath:
    links = []
    delay = 0.0
    bottleneck = float("inf")
    for a, b in zip(dcs[:-1], dcs[1:]):
        spec = topology.link(a, b)
        links.append(spec)
        delay += spec.delay_s
        bottleneck = min(bottleneck, spec.cap_bps)
    return CandidatePath(
        dcs=tuple(dcs),
        links=tuple(links),
        delay_s=delay,
        bottleneck_bps=bottleneck,
    )


def enumerate_paths(
    topology: Topology,
    src: str,
    dst: str,
    max_candidates: int = 8,
    max_extra_hops: int = 2,
) -> List[CandidatePath]:
    """Enumerate loop-free candidate paths between two datacenters.

    A bounded best-first search over the topology's shared integer index
    (see :func:`_bounded_search`); results are ranked by (hop count,
    propagation delay, -bottleneck, route) and truncated to
    ``max_candidates``; paths longer than ``min_hops + max_extra_hops``
    are discarded.  Output is identical to the historical exhaustive DFS
    enumeration.

    Args:
        topology: the inter-DC topology.
        src: source DC name.
        dst: destination DC name.
        max_candidates: cap on the number of returned candidates.
        max_extra_hops: detour bound relative to the hop-minimal path.

    Returns:
        A list of :class:`CandidatePath`, possibly empty when ``dst`` is
        unreachable from ``src``.
    """
    if src == dst:
        raise TopologyError("source and destination DC must differ")
    index = topology.inter_dc_index()
    src_id = index.dc_id(src)
    dst_id = index.dc_id(dst)
    if src_id < 0 or dst_id < 0:
        return []
    routes = _bounded_search(index, src_id, dst_id, max_candidates, max_extra_hops)
    specs = index.link_specs
    out = []
    for hops, delay, neg_bneck, link_rows in routes:
        links = tuple(specs[r] for r in link_rows)
        out.append(
            CandidatePath(
                dcs=(links[0].src,) + tuple(spec.dst for spec in links),
                links=links,
                delay_s=delay,
                bottleneck_bps=-neg_bneck,
            )
        )
    return out


def shortest_delay_path(
    topology: Topology, src: str, dst: str
) -> Optional[CandidatePath]:
    """Dijkstra over propagation delay on the inter-DC graph.

    Returns ``None`` when ``dst`` is unreachable.  Used to compute the ideal
    FCT reference (the paper normalises FCT by the flow's completion time on
    the shortest-propagation-delay path with no competing traffic).  Links
    are relaxed in insertion order (via :meth:`TopologyIndex.specs_from`),
    preserving the historical equal-delay tie-breaks bit for bit.
    """
    index = topology.inter_dc_index()

    best: Dict[str, float] = {src: 0.0}
    prev: Dict[str, str] = {}
    heap: List[Tuple[float, str]] = [(0.0, src)]
    visited = set()
    while heap:
        dist, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        if node == dst:
            break
        for spec in index.specs_from(node):
            cand = dist + spec.delay_s
            if cand < best.get(spec.dst, float("inf")):
                best[spec.dst] = cand
                prev[spec.dst] = node
                heapq.heappush(heap, (cand, spec.dst))
    if dst not in best:
        return None
    route = [dst]
    while route[-1] != src:
        route.append(prev[route[-1]])
    route.reverse()
    return _build_path(topology, route)
