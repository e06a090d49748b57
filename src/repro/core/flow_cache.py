"""Bounded per-switch flow cache (flow2output mapping, paper §3.1.2 step 4).

Per-flow path consistency is what keeps RDMA traffic in order: only the
*first* packet of a flow runs the full cost computation; every later packet
hits this cache, refreshes its ``lastSeen`` timestamp and is forwarded on the
recorded egress.  The cache is bounded (the paper sizes 50 k entries at 20 B
each ≈ 1.2 MB (together with port state); see :mod:`repro.core.resource_model`) and a periodic
garbage collection evicts entries idle longer than a configured timeout.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

__all__ = ["FlowCacheEntry", "FlowCache"]


@dataclass
class FlowCacheEntry:
    """One flow2output record: chosen egress + last-seen timestamp."""

    flow_id: int
    out_port: str
    last_seen_s: float


class FlowCache:
    """Bounded mapping from flow id to chosen egress port.

    Eviction policy: explicit garbage collection by idle timeout (the
    paper's mechanism) plus least-recently-seen eviction when an insert
    would exceed the bounded capacity.
    """

    def __init__(self, capacity: int = 50_000, idle_timeout_s: float = 1.0) -> None:
        """Create a cache.

        Args:
            capacity: maximum number of simultaneous entries.
            idle_timeout_s: entries idle longer than this are evicted by
                :meth:`garbage_collect`.
        """
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if idle_timeout_s <= 0:
            raise ValueError("idle_timeout_s must be positive")
        self.capacity = capacity
        self.idle_timeout_s = idle_timeout_s
        self._entries: "OrderedDict[int, FlowCacheEntry]" = OrderedDict()
        # statistics (useful for tests and the resource analysis)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.gc_evictions = 0

    # ------------------------------------------------------------------ #
    def lookup(self, flow_id: int, now: float) -> Optional[FlowCacheEntry]:
        """Look up a flow; refreshes ``lastSeen`` on a hit."""
        entry = self._entries.get(flow_id)
        if entry is None:
            self.misses += 1
            return None
        entry.last_seen_s = now
        self._entries.move_to_end(flow_id)
        self.hits += 1
        return entry

    def peek(self, flow_id: int) -> Optional[FlowCacheEntry]:
        """The entry of a flow, without touching its timestamp, order or counters."""
        return self._entries.get(flow_id)

    def insert(self, flow_id: int, out_port: str, now: float) -> FlowCacheEntry:
        """Insert (or overwrite) the mapping for a flow.

        When the cache is full the least-recently-seen entry is evicted to
        make room (bounded state, paper §3.1.2).
        """
        if flow_id in self._entries:
            entry = self._entries[flow_id]
            entry.out_port = out_port
            entry.last_seen_s = now
            self._entries.move_to_end(flow_id)
            return entry
        if len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        entry = FlowCacheEntry(flow_id=flow_id, out_port=out_port, last_seen_s=now)
        self._entries[flow_id] = entry
        return entry

    def invalidate(self, flow_id: int) -> bool:
        """Drop one entry (used by data-plane fast-failover); True if present."""
        return self._entries.pop(flow_id, None) is not None

    def garbage_collect(self, now: float) -> int:
        """Evict every entry idle for longer than the timeout.

        Returns:
            Number of entries evicted.
        """
        stale = [
            flow_id
            for flow_id, entry in self._entries.items()
            if now - entry.last_seen_s > self.idle_timeout_s
        ]
        for flow_id in stale:
            del self._entries[flow_id]
        self.gc_evictions += len(stale)
        return len(stale)

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, flow_id: int) -> bool:
        return flow_id in self._entries

    @property
    def occupancy(self) -> float:
        """Fraction of the bounded capacity currently used."""
        return len(self._entries) / self.capacity

    def entries(self) -> list:
        """Snapshot of all entries (for telemetry / tests)."""
        return list(self._entries.values())
