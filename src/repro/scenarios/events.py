"""Declarative scenario events and timelines.

A :class:`Scenario` is a named, immutable timeline of
:class:`ScenarioEvent` objects — link failures and recoveries, capacity
degradations, traffic surges and drains, whole-DC maintenance windows.  The
timeline is pure data: nothing here touches the simulator.  The
:class:`~repro.scenarios.injector.ScenarioInjector` schedules the events on
the simulation engine's heap and applies them to the runtime network
mid-run, which is what finally drives the paper's data-plane fast-failover
machinery (lazy flow-cache invalidation, §3.4) from inside the simulator
instead of from hand-written test scaffolding.

Event semantics:

* :class:`LinkDown` / :class:`LinkUp` — fail/recover an inter-DC link
  (bidirectionally by default, matching a fiber cut).
* :class:`CapacityChange` — scale a link's capacity relative to its
  provisioned rate (brownouts, partial LAG failures); ``factor=1`` restores.
* :class:`TrafficSurge` — inject an extra open-loop Poisson flow batch
  starting at the event time (diurnal peaks, replication bursts).
* :class:`TrafficDrain` — cancel a fraction of the not-yet-arrived demands
  matching a DC filter (upstream throttling, tenant migration).
* :class:`DCMaintenance` — take every inter-DC link adjacent to one DC down
  for a window (rolling maintenance drains).
* :class:`SRLGFailure` — one named conduit/cable fails a *set* of links
  atomically (a shared-risk link group), with optional staggered per-link
  repair.
* :class:`RegionalPowerEvent` — drop every DC matching a region/tier
  filter; DCs with sufficient power redundancy ride through with degraded
  capacity instead of blacking out.
* :class:`MaintenanceCalendar` — a recurring :class:`DCMaintenance`
  schedule, compiled to a flat timeline of windows at injection time.

Coincident timestamps
---------------------

The engine heap orders same-time events by scheduling sequence number
(FIFO).  The injector is installed before the run schedules workload
arrivals and the periodic ticks, so when several things share one float
timestamp the deterministic order is:

1. scenario events, in compiled-timeline order (so a ``LinkDown`` listed
   before a ``LinkUp`` at the same instant nets to *down then up* — the
   port ends the instant up, in-flight disruption accounting still runs);
2. workload flow arrivals (including surge-injected arrivals);
3. the periodic monitor, rate-update and gc ticks.

The batched-arrival control plane preserves this order by deferring any
arrival whose timestamp exactly equals a scheduled scenario instant (see
:meth:`~repro.scenarios.injector.ScenarioInjector.scheduled_event_times`).
This ordering is locked in by ``tests/scenarios/fuzz/test_event_ordering.py``
across both simulation cores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, List, Optional, Tuple

from ..topology.graph import power_redundancy_rank

__all__ = [
    "ScenarioEvent",
    "LinkEvent",
    "LinkDown",
    "LinkUp",
    "CapacityChange",
    "TrafficSurge",
    "TrafficDrain",
    "DCMaintenance",
    "SRLGFailure",
    "RegionalPowerEvent",
    "MaintenanceCalendar",
    "Scenario",
]

#: multiplicative hash constant used for deterministic fractional draining
_GOLDEN = 0x9E3779B1


@dataclass(frozen=True)
class ScenarioEvent:
    """Base class: something that happens at one simulated instant."""

    time_s: float
    kind: ClassVar[str] = "event"

    def validate(self, topology) -> None:
        """Check the event against a topology.

        Raises:
            ValueError: when the event is malformed for ``topology``.
        """
        if self.time_s < 0:
            raise ValueError(f"{self.kind}: time_s must be non-negative")

    def describe(self) -> str:
        """One-line human-readable summary."""
        return f"t={self.time_s:.3f}s {self.kind}"

    def compile(self) -> Tuple["ScenarioEvent", ...]:
        """Expand this event into concrete timeline events.

        Most events represent themselves; recurring events
        (:class:`MaintenanceCalendar`) override this to expand into their
        occurrences.  :meth:`Scenario.compiled_events` flattens the result.
        """
        return (self,)


def _require_link(topology, src: str, dst: str, kind: str) -> None:
    keys = {spec.key for spec in topology.inter_dc_links()}
    if (src, dst) not in keys:
        raise ValueError(f"{kind}: no inter-DC link {src!r}->{dst!r} in topology {topology.name!r}")


@dataclass(frozen=True)
class LinkEvent(ScenarioEvent):
    """Shared shape of events targeting one (optionally bidirectional) link."""

    src: str = ""
    dst: str = ""
    bidirectional: bool = True

    def validate(self, topology) -> None:
        super().validate(topology)
        _require_link(topology, self.src, self.dst, self.kind)
        if self.bidirectional:
            _require_link(topology, self.dst, self.src, self.kind)

    def describe(self) -> str:
        arrow = "<->" if self.bidirectional else "->"
        return f"t={self.time_s:.3f}s {self.kind} {self.src}{arrow}{self.dst}"


@dataclass(frozen=True)
class LinkDown(LinkEvent):
    """Fail the inter-DC link ``src -> dst`` (both directions by default).

    Down-causes are reference-counted on the runtime link: each
    :class:`LinkDown` adds one cause and pairs with one :class:`LinkUp`,
    so a cut that overlaps a :class:`DCMaintenance` window on the same
    link keeps the port down until *both* causes are cleared.
    """

    kind: ClassVar[str] = "link-down"

    def apply(self, network, now: float = 0.0) -> None:
        """Take the port(s) down on the runtime network."""
        network.fail_link(self.src, self.dst)
        if self.bidirectional:
            network.fail_link(self.dst, self.src)

    def affected_link_keys(self, network) -> Tuple[Tuple[str, str], ...]:
        """Directed (src, dst) keys this event takes down."""
        if self.bidirectional:
            return ((self.src, self.dst), (self.dst, self.src))
        return ((self.src, self.dst),)


@dataclass(frozen=True)
class LinkUp(LinkEvent):
    """Recover a previously failed inter-DC link.

    Removes one down-cause; the port only comes back up once no other
    cause (another cut, an open maintenance window) remains.
    """

    kind: ClassVar[str] = "link-up"

    def apply(self, network, now: float = 0.0) -> None:
        """Bring the port(s) back up."""
        network.recover_link(self.src, self.dst)
        if self.bidirectional:
            network.recover_link(self.dst, self.src)


@dataclass(frozen=True)
class CapacityChange(LinkEvent):
    """Scale a link's capacity to ``factor`` x its provisioned rate.

    Models brownouts (optical degradation, partial LAG-member failures):
    the port stays up but drains slower, so congestion-aware routers shift
    load away while oblivious ones keep hashing onto it.  ``factor=1``
    restores the provisioned rate; use :class:`LinkDown` for a full outage.
    """

    factor: float = 1.0
    kind: ClassVar[str] = "capacity-change"

    def validate(self, topology) -> None:
        super().validate(topology)
        if self.factor <= 0:
            raise ValueError(f"{self.kind}: factor must be positive (use LinkDown for an outage)")

    def apply(self, network, now: float = 0.0) -> None:
        """Apply the capacity factor to the runtime link(s)."""
        network.link(self.src, self.dst).set_capacity_factor(self.factor, now)
        if self.bidirectional:
            network.link(self.dst, self.src).set_capacity_factor(self.factor, now)

    def describe(self) -> str:
        return super().describe() + f" x{self.factor:g}"


@dataclass(frozen=True)
class TrafficSurge(ScenarioEvent):
    """Inject an extra Poisson flow batch starting at the event time.

    The surge is generated deterministically at scenario-install time (its
    own seed, flow ids offset far above the base workload's) and its
    arrivals are scheduled on the engine heap like any other demand, so a
    surge composes with the base traffic matrix without perturbing it.

    Exactly one of ``num_flows`` and ``duration_s`` must be given: with
    ``duration_s`` the flow count is derived from the surge load so the
    batch spans roughly that long.
    """

    pairs: Tuple[Tuple[str, str], ...] = ()
    load: float = 0.3
    num_flows: Optional[int] = None
    duration_s: Optional[float] = None
    workload: str = "websearch"
    seed: int = 4242
    kind: ClassVar[str] = "traffic-surge"

    def validate(self, topology) -> None:
        super().validate(topology)
        if not self.pairs:
            raise ValueError(f"{self.kind}: needs at least one (src, dst) DC pair")
        dcs = set(topology.dcs)
        for src, dst in self.pairs:
            if src not in dcs or dst not in dcs:
                raise ValueError(f"{self.kind}: unknown DC in pair ({src!r}, {dst!r})")
            if src == dst:
                raise ValueError(f"{self.kind}: surge pairs must connect distinct DCs")
        if self.load <= 0:
            raise ValueError(f"{self.kind}: load must be positive")
        if (self.num_flows is None) == (self.duration_s is None):
            raise ValueError(f"{self.kind}: give exactly one of num_flows / duration_s")
        if self.num_flows is not None and self.num_flows <= 0:
            raise ValueError(f"{self.kind}: num_flows must be positive")
        if self.duration_s is not None and self.duration_s <= 0:
            raise ValueError(f"{self.kind}: duration_s must be positive")

    def describe(self) -> str:
        span = (
            f"{self.num_flows} flows" if self.num_flows is not None
            else f"~{self.duration_s:g}s"
        )
        return f"t={self.time_s:.3f}s {self.kind} load={self.load:g} ({span})"


@dataclass(frozen=True)
class TrafficDrain(ScenarioEvent):
    """Cancel a fraction of the not-yet-arrived demands matching a filter.

    ``src_dc`` / ``dst_dc`` restrict which pending demands are drained
    (``None`` matches any); ``fraction`` selects a deterministic hash-based
    subset so repeated runs drain the same flows.
    """

    src_dc: Optional[str] = None
    dst_dc: Optional[str] = None
    fraction: float = 1.0
    kind: ClassVar[str] = "traffic-drain"

    def validate(self, topology) -> None:
        super().validate(topology)
        if not 0 < self.fraction <= 1.0:
            raise ValueError(f"{self.kind}: fraction must be in (0, 1]")
        dcs = set(topology.dcs)
        for name in (self.src_dc, self.dst_dc):
            if name is not None and name not in dcs:
                raise ValueError(f"{self.kind}: unknown DC {name!r}")

    def matches(self, demand) -> bool:
        """Whether a pending demand is drained by this event."""
        if self.src_dc is not None and demand.src_dc != self.src_dc:
            return False
        if self.dst_dc is not None and demand.dst_dc != self.dst_dc:
            return False
        if self.fraction >= 1.0:
            return True
        bucket = ((demand.flow_id * _GOLDEN) & 0xFFFFFFFF) / float(1 << 32)
        return bucket < self.fraction

    def describe(self) -> str:
        scope = f"{self.src_dc or '*'}->{self.dst_dc or '*'}"
        return f"t={self.time_s:.3f}s {self.kind} {scope} ({self.fraction:.0%})"


@dataclass(frozen=True)
class DCMaintenance(ScenarioEvent):
    """Take every inter-DC link adjacent to ``dc`` down for a window.

    Models a maintenance drain of one datacenter: all its DCI ports go dark
    at ``time_s`` and return at ``time_s + duration_s``.  In-flight flows
    relayed through the DC are disrupted and must fail over; flows sourced
    or sunk there are stranded until the window ends (or are failed once the
    scenario's stranded timeout expires).
    """

    dc: str = ""
    duration_s: float = 0.0
    kind: ClassVar[str] = "dc-maintenance"

    def validate(self, topology) -> None:
        super().validate(topology)
        if self.dc not in set(topology.dcs):
            raise ValueError(f"{self.kind}: unknown DC {self.dc!r}")
        if self.duration_s <= 0:
            raise ValueError(f"{self.kind}: duration_s must be positive")

    def _adjacent_links(self, network):
        return [
            link
            for link in network.inter_dc_links
            if self.dc in (link.spec.src, link.spec.dst)
        ]

    def apply(self, network, now: float = 0.0) -> None:
        """Start the maintenance window: all adjacent ports go down."""
        for link in self._adjacent_links(network):
            link.fail()

    def revert(self, network, now: float = 0.0) -> None:
        """End the maintenance window: all adjacent ports come back."""
        for link in self._adjacent_links(network):
            link.recover()

    def affected_link_keys(self, network) -> Tuple[Tuple[str, str], ...]:
        """Directed (src, dst) keys the maintenance window takes down."""
        return tuple(link.spec.key for link in self._adjacent_links(network))

    @property
    def end_s(self) -> float:
        """Absolute time the maintenance window closes."""
        return self.time_s + self.duration_s

    def describe(self) -> str:
        return f"t={self.time_s:.3f}s {self.kind} {self.dc} for {self.duration_s:g}s"


@dataclass(frozen=True)
class SRLGFailure(ScenarioEvent):
    """One shared-risk link group fails atomically (a conduit/cable cut).

    Real inter-DC links share physical conduits, submarine cable segments
    and microwave towers; one backhoe or one cable fault therefore takes
    down *several* logical links at the same instant.  The group is named
    after the shared resource; every listed link fails atomically at
    ``time_s``, and repair proceeds link by link: link ``i`` recovers at
    ``recover_at_s + i * stagger_s`` (splicing crews fix one fiber pair at
    a time).  With ``recover_at_s=None`` the cut is permanent for the run.

    Down-causes are reference-counted on the runtime links, so an SRLG cut
    overlapping a :class:`DCMaintenance` window (or another SRLG sharing a
    link) keeps each port down until every cause has cleared.

    Attributes:
        name: label of the shared resource, e.g. ``"west-conduit"``.
        links: the (src, dst) inter-DC links sharing the resource.
        bidirectional: fail both directions of each link (a physical cut).
        recover_at_s: absolute time the first link is repaired; ``None``
            means no repair within the run.
        stagger_s: delay between successive per-link repairs.
    """

    name: str = ""
    links: Tuple[Tuple[str, str], ...] = ()
    bidirectional: bool = True
    recover_at_s: Optional[float] = None
    stagger_s: float = 0.0
    kind: ClassVar[str] = "srlg-failure"

    def validate(self, topology) -> None:
        super().validate(topology)
        if not self.name:
            raise ValueError(f"{self.kind}: needs a group name")
        if not self.links:
            raise ValueError(f"{self.kind}: needs at least one link")
        if len(set(self.links)) != len(self.links):
            raise ValueError(f"{self.kind} {self.name!r}: duplicate link in group")
        for src, dst in self.links:
            _require_link(topology, src, dst, self.kind)
            if self.bidirectional:
                _require_link(topology, dst, src, self.kind)
        if self.recover_at_s is not None and self.recover_at_s <= self.time_s:
            raise ValueError(f"{self.kind} {self.name!r}: recover_at_s must come after time_s")
        if self.stagger_s < 0:
            raise ValueError(f"{self.kind} {self.name!r}: stagger_s must be non-negative")

    def apply(self, network, now: float = 0.0) -> None:
        """Fail every link of the group atomically."""
        for src, dst in self.links:
            network.fail_link(src, dst)
            if self.bidirectional:
                network.fail_link(dst, src)

    def revert_link(self, network, index: int, now: float = 0.0) -> None:
        """Repair the ``index``-th link of the group."""
        src, dst = self.links[index]
        network.recover_link(src, dst)
        if self.bidirectional:
            network.recover_link(dst, src)

    def recovery_times(self) -> Tuple[float, ...]:
        """Absolute per-link repair times (empty when never repaired)."""
        if self.recover_at_s is None:
            return ()
        return tuple(
            self.recover_at_s + i * self.stagger_s for i in range(len(self.links))
        )

    def affected_link_keys(self, network) -> Tuple[Tuple[str, str], ...]:
        """Directed (src, dst) keys the cut takes down."""
        keys: List[Tuple[str, str]] = []
        for src, dst in self.links:
            keys.append((src, dst))
            if self.bidirectional:
                keys.append((dst, src))
        return tuple(keys)

    def describe(self) -> str:
        repair = (
            f", repair from {self.recover_at_s:g}s every {self.stagger_s:g}s"
            if self.recover_at_s is not None
            else ", no repair"
        )
        return (
            f"t={self.time_s:.3f}s {self.kind} {self.name!r} "
            f"({len(self.links)} links{repair})"
        )


@dataclass(frozen=True)
class RegionalPowerEvent(ScenarioEvent):
    """A power event drops every DC matching a region/tier filter.

    For the window ``[time_s, time_s + duration_s)`` each matched DC is
    classified by its provisioned power redundancy
    (:func:`~repro.topology.graph.power_redundancy_rank`):

    * redundancy below ``survives_redundancy`` — **blackout**: every
      adjacent inter-DC link fails (reference-counted, like
      :class:`DCMaintenance`);
    * redundancy at or above ``survives_redundancy`` — **degraded**: the
      facility rides through on its spare feed but sheds cooling/optical
      margin, so adjacent links (those not already dark from a blacked-out
      neighbour) run at ``degraded_factor`` x provisioned capacity.

    Reverting restores degraded links to their provisioned rate
    (``factor=1``), so an overlapping :class:`CapacityChange` on the same
    link is clobbered at the window end — capacity factors are absolute,
    not reference-counted, and scenario authors should not aim two
    capacity writers at one link.

    Attributes:
        region / tier: DC filter (``None`` matches any; at least one must
            be set).
        duration_s: window length.
        survives_redundancy: minimum power-redundancy level that downgrades
            the blackout to a capacity loss.
        degraded_factor: capacity factor applied to surviving DCs' links.
    """

    region: Optional[str] = None
    tier: Optional[str] = None
    duration_s: float = 0.0
    survives_redundancy: str = "2N"
    degraded_factor: float = 0.5
    kind: ClassVar[str] = "regional-power"

    def validate(self, topology) -> None:
        super().validate(topology)
        if self.region is None and self.tier is None:
            raise ValueError(f"{self.kind}: needs a region and/or tier filter")
        if self.duration_s <= 0:
            raise ValueError(f"{self.kind}: duration_s must be positive")
        if not 0 < self.degraded_factor <= 1:
            raise ValueError(f"{self.kind}: degraded_factor must be in (0, 1]")
        power_redundancy_rank(self.survives_redundancy)
        if not topology.dcs_matching(region=self.region, tier=self.tier):
            raise ValueError(
                f"{self.kind}: no DC matches region={self.region!r} tier={self.tier!r}"
            )

    def classify_dcs(self, topology) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        """Matched DCs split into (blackout, degraded), insertion order."""
        threshold = power_redundancy_rank(self.survives_redundancy)
        blackout: List[str] = []
        degraded: List[str] = []
        for dc in topology.dcs_matching(region=self.region, tier=self.tier):
            rank = power_redundancy_rank(topology.dc_attrs(dc).power_redundancy)
            (degraded if rank >= threshold else blackout).append(dc)
        return tuple(blackout), tuple(degraded)

    def _partition_links(self, network):
        """Runtime links split into (dark, dimmed), insertion order.

        A link adjacent to any blacked-out DC goes dark; a link adjacent
        only to degraded DCs is dimmed.  Each link lands in at most one
        bucket so apply/revert stay balanced.
        """
        blackout, degraded = self.classify_dcs(network.topology)
        blackout_set, degraded_set = set(blackout), set(degraded)
        dark, dimmed = [], []
        for link in network.inter_dc_links:
            ends = {link.spec.src, link.spec.dst}
            if ends & blackout_set:
                dark.append(link)
            elif ends & degraded_set:
                dimmed.append(link)
        return dark, dimmed

    def apply(self, network, now: float = 0.0) -> None:
        """Start the power event: blackout links fail, survivors degrade."""
        dark, dimmed = self._partition_links(network)
        for link in dark:
            link.fail()
        for link in dimmed:
            link.set_capacity_factor(self.degraded_factor, now)

    def revert(self, network, now: float = 0.0) -> None:
        """End the power event: recover dark links, restore dimmed ones."""
        dark, dimmed = self._partition_links(network)
        for link in dark:
            link.recover()
        for link in dimmed:
            link.set_capacity_factor(1.0, now)

    def affected_link_keys(self, network) -> Tuple[Tuple[str, str], ...]:
        """Directed (src, dst) keys failed or degraded by this event."""
        dark, dimmed = self._partition_links(network)
        return tuple(link.spec.key for link in dark + dimmed)

    @property
    def end_s(self) -> float:
        """Absolute time the power event ends."""
        return self.time_s + self.duration_s

    def describe(self) -> str:
        scope = "/".join(s for s in (self.region, self.tier) if s is not None)
        return (
            f"t={self.time_s:.3f}s {self.kind} {scope} for {self.duration_s:g}s "
            f"(>= {self.survives_redundancy} survives at x{self.degraded_factor:g})"
        )


@dataclass(frozen=True)
class MaintenanceCalendar(ScenarioEvent):
    """A recurring :class:`DCMaintenance` schedule for one DC.

    Real fleets drain DCs on calendars (weekly patch windows, quarterly
    power tests), not as one-off events.  The calendar is pure data: it
    compiles to ``occurrences`` concrete :class:`DCMaintenance` windows —
    one every ``period_s`` starting at ``time_s``, each ``window_s`` long
    — via :meth:`compile`, which :meth:`Scenario.compiled_events` invokes
    before injection.  Per-window recovery metrics are therefore reported
    per occurrence, not per calendar.

    Attributes:
        dc: the datacenter drained by each window.
        window_s: length of each maintenance window.
        period_s: time between successive window starts; must be at least
            ``window_s`` so a window closes before the next opens
            (back-to-back windows, ``period_s == window_s``, are allowed).
        occurrences: number of windows.
    """

    dc: str = ""
    window_s: float = 0.0
    period_s: float = 0.0
    occurrences: int = 1
    kind: ClassVar[str] = "maintenance-calendar"

    def validate(self, topology) -> None:
        super().validate(topology)
        if self.occurrences < 1:
            raise ValueError(f"{self.kind}: occurrences must be at least 1")
        if self.window_s <= 0:
            raise ValueError(f"{self.kind}: window_s must be positive")
        if self.period_s < self.window_s:
            raise ValueError(f"{self.kind}: period_s must be at least window_s")
        for window in self.compile():
            window.validate(topology)

    def compile(self) -> Tuple[DCMaintenance, ...]:
        """Expand the calendar into its concrete maintenance windows."""
        return tuple(
            DCMaintenance(
                self.time_s + i * self.period_s, dc=self.dc, duration_s=self.window_s
            )
            for i in range(self.occurrences)
        )

    def describe(self) -> str:
        return (
            f"t={self.time_s:.3f}s {self.kind} {self.dc}: {self.occurrences} "
            f"windows of {self.window_s:g}s every {self.period_s:g}s"
        )


@dataclass(frozen=True)
class Scenario:
    """A named, immutable event timeline plus failure-handling policy.

    Attributes:
        name: label used in reports and metrics.
        events: the timeline (any order; sorted by time when injected).
        stranded_timeout_s: when set, a disrupted in-flight flow that cannot
            be re-routed onto a healthy path within this many seconds is
            explicitly failed (recorded in
            :attr:`~repro.simulator.fluid.SimulationResult.failed_flows`);
            when ``None`` stranded flows stay pinned and resume if their
            path recovers — the pre-scenario simulator behaviour.
        description: free-form notes for reports.
    """

    name: str
    events: Tuple[ScenarioEvent, ...] = ()
    stranded_timeout_s: Optional[float] = None
    description: str = ""

    def sorted_events(self) -> Tuple[ScenarioEvent, ...]:
        """Events ordered by time (stable for equal times)."""
        return tuple(sorted(self.events, key=lambda e: e.time_s))

    def compiled_events(self) -> Tuple[ScenarioEvent, ...]:
        """The concrete timeline: recurring events expanded, time-sorted.

        Each event's :meth:`ScenarioEvent.compile` is flattened (a
        :class:`MaintenanceCalendar` becomes its windows; every other
        event represents itself) and the result is stably sorted by time.
        For a scenario without recurring events this equals
        :meth:`sorted_events`, so injection order — and therefore results —
        are unchanged.  The injector schedules (and reports outcomes for)
        exactly this timeline.
        """
        flat = [concrete for event in self.events for concrete in event.compile()]
        return tuple(sorted(flat, key=lambda e: e.time_s))

    def validate(self, topology) -> None:
        """Validate every event against ``topology``.

        Raises:
            ValueError: when any event is malformed.
        """
        if not self.name:
            raise ValueError("scenario needs a name")
        if self.stranded_timeout_s is not None and self.stranded_timeout_s <= 0:
            raise ValueError("stranded_timeout_s must be positive when set")
        for event in self.events:
            event.validate(topology)

    def describe(self) -> str:
        """Multi-line summary of the timeline."""
        lines = [f"scenario {self.name!r} ({len(self.events)} events)"]
        lines.extend("  " + event.describe() for event in self.sorted_events())
        return "\n".join(lines)
