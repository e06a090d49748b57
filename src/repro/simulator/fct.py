"""Flow-completion-time recording: columnar metrics plus slowdown math.

The paper's primary metric is *FCT slowdown*: a flow's measured FCT divided
by its ideal FCT, where the ideal FCT is the completion time the same flow
would achieve running alone on the shortest-propagation-delay path of the
topology.  The collector computes the ideal reference from the static
topology (so it is identical across routing algorithms) and records every
completed flow.

Storage is columnar: :class:`MetricsStore` keeps one growable numpy column
per field (arrival, FCT, ideal FCT, slowdown, size, an interned path index,
interned endpoint ids) and two small intern tables (DC names, DC-level
routes).  Completions append scalars to columns — no per-flow record object
is built on the hot path — and analysis code
(:mod:`repro.analysis.fct_analysis`, the experiment runner, the figure
drivers) consumes the columns directly.  The legacy :class:`FlowRecord`
dataclass survives as a *view*: :meth:`MetricsStore.records` (and
``SimulationResult.records``, built on it) materialise fresh record objects
on demand, so none of their callers can mutate collector state through a
returned list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..topology.graph import Topology
from ..topology.paths import PathSet, shortest_delay_path
from .flow import Flow, FlowDemand
from .interning import Interner

__all__ = ["FlowRecord", "IdealFctModel", "FCTCollector", "MetricsStore"]


@dataclass(frozen=True)
class FlowRecord:
    """One completed flow and its slowdown (a materialised column view).

    Attributes:
        flow_id: unique flow id.
        src_dc / dst_dc: endpoints.
        size_bytes: flow size.
        arrival_s: arrival time.
        fct_s: measured flow completion time.
        ideal_fct_s: ideal (unloaded, shortest-delay-path) completion time.
        slowdown: ``fct_s / ideal_fct_s`` (always >= 1 up to noise).
        path_dcs: the DC-level route the flow actually took.
    """

    flow_id: int
    src_dc: str
    dst_dc: str
    size_bytes: int
    arrival_s: float
    fct_s: float
    ideal_fct_s: float
    slowdown: float
    path_dcs: Tuple[str, ...]


def route_dcs_of(src_dc: str, path) -> Tuple[str, ...]:
    """DC-level route of a resolved link path (source DC first)."""
    return tuple(
        dict.fromkeys([src_dc] + [link.spec.dst for link in path if link.spec.inter_dc])
    )


class MetricsStore:
    """Growable columnar store of completed-flow metrics.

    Columns (one row per completed flow, in completion order):
    ``flow_id``, ``size_bytes``, ``arrival_s``, ``fct_s``, ``ideal_fct_s``,
    ``slowdown``, ``path_index`` (an id into the route intern table) and
    interned ``src``/``dst`` ids.  Column accessors return trimmed copies;
    the raw arrays stay private so callers cannot corrupt the store.
    """

    _COLUMNS = (
        ("flow_id", np.int64),
        ("size_bytes", np.int64),
        ("src_ref", np.int64),
        ("dst_ref", np.int64),
        ("arrival_s", np.float64),
        ("fct_s", np.float64),
        ("ideal_fct_s", np.float64),
        ("slowdown", np.float64),
        ("path_index", np.int64),
    )

    def __init__(self, capacity: int = 256) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._n = 0
        for name, dtype in self._COLUMNS:
            setattr(self, f"_{name}", np.empty(capacity, dtype=dtype))
        #: DC-name intern table
        self._dcs = Interner()
        #: DC-level route intern table (the "path index" targets)
        self._routes = Interner()

    # ------------------------------------------------------------------ #
    # interning
    # ------------------------------------------------------------------ #
    def intern_dc(self, name: str) -> int:
        """Integer id of a DC name (registered on first use)."""
        return self._dcs.intern(name)

    def intern_route(self, route: Tuple[str, ...]) -> int:
        """Integer id of a DC-level route (registered on first use)."""
        return self._routes.intern(route)

    def route(self, path_index: int) -> Tuple[str, ...]:
        """The DC-level route interned under ``path_index``."""
        return self._routes[path_index]

    # ------------------------------------------------------------------ #
    # appending
    # ------------------------------------------------------------------ #
    def _grow_to(self, need: int) -> None:
        capacity = len(self._flow_id)
        if need <= capacity:
            return
        while capacity < need:
            capacity *= 2
        n = self._n
        for name, _ in self._COLUMNS:
            old = getattr(self, f"_{name}")
            grown = np.empty(capacity, dtype=old.dtype)
            grown[:n] = old[:n]
            setattr(self, f"_{name}", grown)

    def append(
        self,
        flow_id: int,
        src_dc: str,
        dst_dc: str,
        size_bytes: int,
        arrival_s: float,
        fct_s: float,
        ideal_fct_s: float,
        slowdown: float,
        path_index: int,
    ) -> int:
        """Append one completed flow; returns its row index."""
        n = self._n
        self._grow_to(n + 1)
        self._flow_id[n] = flow_id
        self._size_bytes[n] = size_bytes
        self._src_ref[n] = self.intern_dc(src_dc)
        self._dst_ref[n] = self.intern_dc(dst_dc)
        self._arrival_s[n] = arrival_s
        self._fct_s[n] = fct_s
        self._ideal_fct_s[n] = ideal_fct_s
        self._slowdown[n] = slowdown
        self._path_index[n] = path_index
        self._n = n + 1
        return n

    # ------------------------------------------------------------------ #
    # column access (trimmed copies)
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._n

    def column(self, name: str) -> np.ndarray:
        """A trimmed copy of one column (``"slowdown"``, ``"arrival_s"``…)."""
        return getattr(self, f"_{name}")[: self._n].copy()

    def slowdowns(self) -> np.ndarray:
        """Slowdown column (copy)."""
        return self.column("slowdown")

    def arrivals(self) -> np.ndarray:
        """Arrival-time column (copy)."""
        return self.column("arrival_s")

    def fcts(self) -> np.ndarray:
        """Measured-FCT column (copy)."""
        return self.column("fct_s")

    def sizes(self) -> np.ndarray:
        """Flow-size column (copy)."""
        return self.column("size_bytes")

    def path_indices(self) -> np.ndarray:
        """Path-index column (copy); decode with :meth:`route`."""
        return self.column("path_index")

    def pair_mask(self, src_dc: str, dst_dc: str, bidirectional: bool = False) -> np.ndarray:
        """Boolean row mask selecting flows between an ordered DC pair."""
        src_ref = self._dcs.ref(src_dc)
        dst_ref = self._dcs.ref(dst_dc)
        srcs = self._src_ref[: self._n]
        dsts = self._dst_ref[: self._n]
        mask = (srcs == src_ref) & (dsts == dst_ref)
        if bidirectional:
            mask |= (srcs == dst_ref) & (dsts == src_ref)
        return mask

    # ------------------------------------------------------------------ #
    # record views
    # ------------------------------------------------------------------ #
    def record(self, row: int) -> FlowRecord:
        """Materialise the ``row``-th completed flow as a :class:`FlowRecord`."""
        return FlowRecord(
            flow_id=int(self._flow_id[row]),
            src_dc=self._dcs[int(self._src_ref[row])],
            dst_dc=self._dcs[int(self._dst_ref[row])],
            size_bytes=int(self._size_bytes[row]),
            arrival_s=float(self._arrival_s[row]),
            fct_s=float(self._fct_s[row]),
            ideal_fct_s=float(self._ideal_fct_s[row]),
            slowdown=float(self._slowdown[row]),
            path_dcs=self._routes[int(self._path_index[row])],
        )

    def records(self, mask: Optional[np.ndarray] = None) -> List[FlowRecord]:
        """Materialise (optionally masked) rows as a fresh record list."""
        n = self._n
        rows = range(n) if mask is None else np.flatnonzero(mask[:n]).tolist()
        flow_ids = self._flow_id[:n].tolist()
        sizes = self._size_bytes[:n].tolist()
        src_refs = self._src_ref[:n].tolist()
        dst_refs = self._dst_ref[:n].tolist()
        arrivals = self._arrival_s[:n].tolist()
        fcts = self._fct_s[:n].tolist()
        ideals = self._ideal_fct_s[:n].tolist()
        slowdowns = self._slowdown[:n].tolist()
        paths = self._path_index[:n].tolist()
        names = self._dcs.values
        routes = self._routes.values
        return [
            FlowRecord(
                flow_id=flow_ids[i],
                src_dc=names[src_refs[i]],
                dst_dc=names[dst_refs[i]],
                size_bytes=sizes[i],
                arrival_s=arrivals[i],
                fct_s=fcts[i],
                ideal_fct_s=ideals[i],
                slowdown=slowdowns[i],
                path_dcs=routes[paths[i]],
            )
            for i in rows
        ]


class IdealFctModel:
    """Computes the ideal FCT reference for each DC pair.

    The paper normalises FCT by the completion time the flow would achieve
    running alone on the best path of the topology.  For a flow of size
    ``S`` between DCs (a, b) each candidate path ``p`` offers::

        fct_p = access_delay(a) + access_delay(b) + prop_delay(p)
                + S * 8 / min(NIC rate, bottleneck of p)

    and the ideal FCT is the minimum over candidates — for small flows that
    is the shortest-propagation-delay route (the paper's description), for
    very large flows a higher-capacity route may win.  Taking the minimum
    keeps the slowdown a true ratio >= ~1 for every flow size.
    """

    def __init__(self, topology: Topology, pathset: PathSet) -> None:
        self._topology = topology
        self._pathset = pathset
        self._cache: Dict[Tuple[str, str], List[Tuple[float, float]]] = {}

    def reference(self, src_dc: str, dst_dc: str) -> List[Tuple[float, float]]:
        """Per-candidate (fixed delay seconds, attainable rate bps) options."""
        key = (src_dc, dst_dc)
        if key in self._cache:
            return self._cache[key]

        groups = self._topology.host_groups
        src_group = groups.get(src_dc)
        dst_group = groups.get(dst_dc)
        access_delay = 0.0
        nic_limit = float("inf")
        if src_group:
            access_delay += src_group.access_delay_s
            nic_limit = min(nic_limit, src_group.nic_bps)
        if dst_group:
            access_delay += dst_group.access_delay_s
            nic_limit = min(nic_limit, dst_group.nic_bps)

        options: List[Tuple[float, float]] = []
        if src_dc == dst_dc:
            rate = nic_limit if nic_limit != float("inf") else 100e9
            options.append((access_delay, rate))
        else:
            # columnar pair metrics: no CandidatePath views are built
            delays, bnecks = self._pathset.pair_metrics(src_dc, dst_dc)
            if len(delays) == 0:
                best = shortest_delay_path(self._topology, src_dc, dst_dc)
                if best is None:
                    raise ValueError(f"no path between {src_dc} and {dst_dc}")
                delays, bnecks = [best.delay_s], [best.bottleneck_bps]
            for delay_s, bneck_bps in zip(delays, bnecks):
                options.append(
                    (
                        access_delay + float(delay_s),
                        min(nic_limit, float(bneck_bps)),
                    )
                )
        self._cache[key] = options
        return options

    def ideal_fct_s(self, demand: FlowDemand) -> float:
        """Ideal FCT for a demand: best candidate, run alone (seconds)."""
        options = self.reference(demand.src_dc, demand.dst_dc)
        size_bits = demand.size_bytes * 8.0
        return min(delay + size_bits / rate for delay, rate in options)


class FCTCollector:
    """Accumulates completed-flow metrics in a :class:`MetricsStore`."""

    def __init__(self, ideal_model: IdealFctModel, fidelity_noise: float = 0.0, rng=None):
        """Create a collector.

        Args:
            ideal_model: the ideal-FCT reference.
            fidelity_noise: sigma of multiplicative log-normal noise applied
                to measured FCTs (0 disables noise; used only by the Fig. 6
                testbed-fidelity profile).
            rng: numpy Generator used when noise is enabled.
        """
        self._ideal = ideal_model
        self._noise = fidelity_noise
        self._rng = rng
        self.store = MetricsStore()

    def route_index_for(self, src_dc: str, path) -> int:
        """Intern the DC-level route of a resolved link path.

        The simulation calls this at flow-arrival (and re-route) time so
        completion only writes the precomputed integer — see
        :attr:`~repro.simulator.flow.Flow.route_id`.
        """
        return self.store.intern_route(route_dcs_of(src_dc, path))

    def collect(self, flow: Flow) -> int:
        """Record a completed flow; returns its store row (no object built)."""
        demand = flow.demand
        fct = flow.fct_s()
        if self._noise > 0 and self._rng is not None:
            fct *= float(self._rng.lognormal(mean=0.0, sigma=self._noise))
        ideal = self._ideal.ideal_fct_s(demand)
        slowdown = fct / ideal if ideal > 0 else float("inf")
        route_id = flow.route_id
        if route_id < 0:
            # standalone use (tests, ad-hoc flows): derive the route now
            route_id = self.route_index_for(demand.src_dc, flow.path)
        return self.store.append(
            flow_id=demand.flow_id,
            src_dc=demand.src_dc,
            dst_dc=demand.dst_dc,
            size_bytes=demand.size_bytes,
            arrival_s=demand.arrival_s,
            fct_s=fct,
            ideal_fct_s=ideal,
            slowdown=slowdown,
            path_index=route_id,
        )
