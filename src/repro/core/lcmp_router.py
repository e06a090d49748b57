"""The LCMP data-plane router: the full per-flow decision pipeline (paper §3).

For the first packet of a new flow the switch

1. refreshes the congestion state of every candidate egress port (done
   continuously by the queue monitor feeding :class:`CongestionEstimator`),
2. looks up the precomputed path-quality score C_path of each candidate (or,
   when the control plane has not installed it, derives it on demand from
   the candidate's static attributes — the paper's on-demand table creation),
3. fuses the two into the weighted cost C(p) = alpha*C_path + beta*C_cong,
4. filters the high-cost suffix and performs a diversity-preserving hash
   inside the reduced set, and
5. records the chosen egress in the bounded flow cache so subsequent packets
   follow the same path (per-flow stickiness; garbage-collected when idle).

Port failures are handled lazily: a cached entry pointing at a dead port is
invalidated on the fly and the flow is re-hashed onto a healthy candidate.
When no tables are available at all the router falls back to plain ECMP
(paper §5, safe fallbacks).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..routing.base import Router, flow_hash, register_router
from ..simulator.flow import FlowDemand
from ..topology.paths import CandidatePath
from .config import LCMPConfig
from .congestion import CongestionEstimator
from .control_plane import PathKey
from .cost_fusion import score_candidates
from .failover import PortLivenessTracker
from .flow_cache import FlowCache
from .path_quality import candidate_path_quality
from .selection import reduce_candidates
from .switch_tables import SwitchTables

__all__ = ["LCMPRouter"]


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
        self.estimator: Optional[CongestionEstimator] = None
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
    def install_tables(self, tables: SwitchTables, path_scores: Dict[PathKey, int]) -> None:
        """Install bootstrap tables and precomputed C_path scores."""
        self.tables = tables
        self._path_scores = dict(path_scores)
        self.estimator = CongestionEstimator(tables, self.config)
        self._plans.clear()

    @property
    def installed(self) -> bool:
        """True once the control plane has provisioned this switch."""
        return self.tables is not None

    # ------------------------------------------------------------------ #
    # telemetry hook
    # ------------------------------------------------------------------ #
    def on_telemetry(self, view, now: float) -> None:
        """Refresh congestion state (step 1 of the decision pipeline)."""
        ups = view.up.tolist()
        queues = view.queue_bytes.tolist()
        caps = view.cap_bps.tolist()
        buffers = view.buffer_bytes.tolist()
        for i, port in enumerate(view.port_dcs):
            self.liveness.observe(port, ups[i])
            if self.estimator is None:
                # the switch has not been provisioned yet; bootstrap minimal
                # tables from what the monitor tells us (on-demand creation)
                self.tables = SwitchTables.bootstrap(
                    config=self.config,
                    max_capacity_bps=max(caps[i], 1.0),
                    buffer_bytes=max(buffers[i], 1.0),
                )
                self.estimator = CongestionEstimator(self.tables, self.config)
                self._plans.clear()
            self.estimator.observe(port, queues[i], caps[i], now)

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
        """Full LCMP decision for the first packet of a flow."""
        self.decisions += 1
        self.last_choice_pinned = False

        # flow identification: established flows follow the cached egress
        cached = self.flow_cache.lookup(demand.flow_id, now)
        if cached is not None:
            if self.liveness.is_up(cached.out_port):
                sticky = self._candidate_via(candidates, cached.out_port)
                if sticky is not None:
                    self.sticky_hits += 1
                    self.last_choice_pinned = True
                    return sticky
            else:
                # lazy fast-failover: invalidate and treat as a new flow
                self.flow_cache.invalidate(demand.flow_id)
                self.liveness.record_lazy_invalidation()
                self.failover_rehashes += 1

        if not self.installed:
            # safe fallback: behave exactly like ECMP until provisioned
            self.ecmp_fallbacks += 1
            chosen = candidates[flow_hash(demand.flow_id, self.config.hash_salt) % len(candidates)]
            self.flow_cache.insert(demand.flow_id, chosen.first_hop, now)
            return chosen

        herd, positions = self._plan(candidates, tuple([c.dcs for c in candidates]))
        if herd:
            self.herd_fallbacks += 1
        chosen = candidates[self._pick(positions, demand.flow_id)]
        self.flow_cache.insert(demand.flow_id, chosen.first_hop, now)
        return chosen

    def select_batch(
        self,
        dst_dc: str,
        candidates: Sequence[CandidatePath],
        demands: Sequence[FlowDemand],
        times: Optional[Sequence[float]] = None,
        now: float = 0.0,
        path_ids: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Batched LCMP decision, identical per flow to :meth:`select`.

        The flow-independent stages (cost fusion, the herd filter and the
        reduced set) come from the candidate set's selection plan
        (:meth:`_plan`), so only the per-flow pieces remain: the
        flow-identification lookup, the diversity-preserving hash and the
        cache insert, in arrival order.  The fast path requires that the
        batch cannot interact with the flow cache's LRU state (the
        simulator's arrival batches carry fresh unique ids, so lookups all
        miss and inserts cannot evict); when a batched flow is already
        cached, or inserting the batch could evict, the batch takes the
        generic sequential loop instead, which is identical by
        construction.
        """
        n = len(demands)
        cache = self.flow_cache
        if len(cache) + n > cache.capacity or any(d.flow_id in cache for d in demands):
            return Router.select_batch(self, dst_dc, candidates, demands, times, now)
        times_l = [float(now)] * n if times is None else [float(t) for t in times]
        self.decisions += n
        if not self.installed:
            # safe fallback: behave exactly like ECMP until provisioned
            self.ecmp_fallbacks += n
            positions: Sequence[int] = range(len(candidates))
        else:
            key = tuple(path_ids) if path_ids is not None else tuple([c.dcs for c in candidates])
            herd, positions = self._plan(candidates, key)
            if herd:
                self.herd_fallbacks += n
        for demand, t in zip(demands, times_l):
            # guaranteed miss (guard above); keeps the miss counter exact
            cache.lookup(demand.flow_id, t)
        chosen = []
        for demand, t in zip(demands, times_l):
            j = self._pick(positions, demand.flow_id)
            chosen.append(j)
            cache.insert(demand.flow_id, candidates[j].first_hop, t)
        return np.array(chosen, dtype=np.intp)

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _plan(
        self, candidates: Sequence[CandidatePath], key: tuple
    ) -> Tuple[bool, Tuple[int, ...]]:
        """The selection plan of one candidate set: ``(all_congested, positions)``.

        ``positions`` are the candidate positions of the reduced set (just
        the minimum-cost one under the herd fallback).  A plan depends on
        C_path, which changes only when tables are installed (that drops
        every plan), and on the first hops' C_cong, which changes only
        when the estimator samples a port.  So the plan is memoised per
        ``key`` (the candidates' global path ids, or their DC tuples) and
        recomputed only when the first hops' C_cong tuple differs from the
        one it was built from.
        """
        score = self.estimator.congestion_score
        plan = self._plans.get(key)
        if plan is not None:
            hops, cong, herd, positions = plan
            if tuple(map(score, hops)) == cong:
                return herd, positions
        hops = tuple([c.first_hop for c in candidates])
        cong = tuple(map(score, hops))
        costs = score_candidates(
            candidates, [self._path_quality_of(c) for c in candidates], cong, self.config
        )
        reduced, herd = reduce_candidates(costs, self.config)
        position_of = {id(c): j for j, c in enumerate(costs)}
        positions = tuple([position_of[id(c)] for c in reduced])
        self._plans[key] = (hops, cong, herd, positions)
        return herd, positions

    def _pick(self, positions: Sequence[int], flow_id: int) -> int:
        """The diversity-preserving hash of ``flow_id`` into ``positions``."""
        if len(positions) == 1:
            return positions[0]
        return positions[flow_hash(flow_id, self.config.hash_salt) % len(positions)]

    def _candidate_via(
        self, candidates: Sequence[CandidatePath], next_hop: str
    ) -> Optional[CandidatePath]:
        for candidate in candidates:
            if candidate.first_hop == next_hop:
                return candidate
        return None

    def _path_quality_of(self, candidate: CandidatePath) -> int:
        key: PathKey = (candidate.dst, candidate.dcs)
        score = self._path_scores.get(key)
        if score is None:
            # on-demand derivation when the control plane table lacks the
            # entry (e.g. a path installed after bootstrap)
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
