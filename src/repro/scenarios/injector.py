"""Scenario injection: scheduling timeline events on a live simulation.

The :class:`ScenarioInjector` is created by
:class:`~repro.simulator.fluid.FluidSimulation` when a scenario is passed,
and does three things:

1. **install** — validates the scenario against the simulation's topology,
   pre-generates surge traffic (deterministic, seeded, flow ids offset far
   above the base workload) and schedules every event on the engine heap;
2. **fire** — when a state event (link down/up, capacity change, DC
   maintenance) pops off the heap it mutates the runtime network, forces an
   immediate telemetry sweep (the data-plane "port down" signal the
   paper's switches see in real time) and asks the simulation to re-evaluate
   every in-flight flow, which drives the lazy flow-cache invalidation path
   for real;
3. **account** — the simulation calls back as flows are disrupted,
   re-routed, restored or failed, and the injector attributes each
   transition to the event that caused it, producing per-event recovery
   metrics (:class:`EventOutcome`) surfaced through
   :class:`~repro.simulator.fluid.SimulationResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from .events import (
    DCMaintenance,
    RegionalPowerEvent,
    Scenario,
    ScenarioEvent,
    SRLGFailure,
    TrafficDrain,
    TrafficSurge,
)

__all__ = ["EventOutcome", "ScenarioMetrics", "ScenarioInjector", "SURGE_FLOW_ID_BASE"]

#: surge flow ids start here; each surge event gets its own id block so
#: injected flows never collide with the base traffic matrix
SURGE_FLOW_ID_BASE = 1_000_000
#: id block reserved per surge event
_SURGE_ID_STRIDE = 100_000

#: event kinds whose *application* can take paths down; disruptions found
#: outside an apply (periodic sweeps) are attributed to the most recent one
DISRUPTIVE_KINDS = frozenset(
    {"link-down", "dc-maintenance", "srlg-failure", "regional-power"}
)


@dataclass
class EventOutcome:
    """Recovery metrics of one scenario event.

    Attributes:
        index: position in the compiled (recurring events expanded,
            time-sorted) timeline.
        kind: event kind string (``"link-down"``, ...).
        description: the event's one-line summary.
        scheduled_s: when the event was supposed to fire.
        applied_s: when it actually fired (``None`` when the run ended
            before the event's time).
        reverted_s: when a windowed event (DC maintenance) ended.
        flows_disrupted: in-flight flows whose path lost a link because of
            this event.
        flows_rerouted: disrupted flows moved onto a healthy path.
        flows_restored: disrupted flows whose original path came back
            before a re-route succeeded.
        flows_failed: disrupted flows explicitly failed after the
            scenario's stranded timeout.
        flows_injected: demands added by a traffic surge (scheduled at
            install time; they only arrive if the run reaches them).
        flows_cancelled: pending demands removed by a traffic drain.
        links_affected: directed runtime links this event failed or
            degraded when it fired (0 for traffic events and recoveries).
        reroute_latencies_s: per-flow delay between disruption and being
            re-hashed onto a healthy alternative path (the fast-failover
            latency).
        restore_latencies_s: per-flow delay between disruption and the
            original path healing in place — repair waits, kept separate
            so they do not inflate the failover latency.
    """

    index: int
    kind: str
    description: str
    scheduled_s: float
    applied_s: Optional[float] = None
    reverted_s: Optional[float] = None
    flows_disrupted: int = 0
    flows_rerouted: int = 0
    flows_restored: int = 0
    flows_failed: int = 0
    flows_injected: int = 0
    flows_cancelled: int = 0
    links_affected: int = 0
    reroute_latencies_s: List[float] = field(default_factory=list)
    restore_latencies_s: List[float] = field(default_factory=list)

    @property
    def mean_reroute_latency_s(self) -> float:
        """Mean disruption-to-reroute latency (0 when none)."""
        if not self.reroute_latencies_s:
            return 0.0
        return sum(self.reroute_latencies_s) / len(self.reroute_latencies_s)

    @property
    def max_reroute_latency_s(self) -> float:
        """Worst disruption-to-reroute latency (0 when none)."""
        return max(self.reroute_latencies_s, default=0.0)

    @property
    def mean_restore_latency_s(self) -> float:
        """Mean disruption-to-in-place-repair wait (0 when none)."""
        if not self.restore_latencies_s:
            return 0.0
        return sum(self.restore_latencies_s) / len(self.restore_latencies_s)


@dataclass
class ScenarioMetrics:
    """Aggregated per-event outcomes of one scenario run."""

    scenario_name: str
    outcomes: List[EventOutcome] = field(default_factory=list)

    @property
    def total_disrupted(self) -> int:
        """Disruptions across all events."""
        return sum(o.flows_disrupted for o in self.outcomes)

    @property
    def total_rerouted(self) -> int:
        """Successful re-routes across all events."""
        return sum(o.flows_rerouted for o in self.outcomes)

    @property
    def total_restored(self) -> int:
        """In-place path recoveries across all events."""
        return sum(o.flows_restored for o in self.outcomes)

    @property
    def total_failed(self) -> int:
        """Explicitly failed flows across all events."""
        return sum(o.flows_failed for o in self.outcomes)

    @property
    def total_injected(self) -> int:
        """Surge-injected demands across all events."""
        return sum(o.flows_injected for o in self.outcomes)

    @property
    def total_cancelled(self) -> int:
        """Drain-cancelled demands across all events."""
        return sum(o.flows_cancelled for o in self.outcomes)

    def reroute_latencies_s(self) -> List[float]:
        """Every recorded re-route (fast-failover) latency."""
        return [lat for o in self.outcomes for lat in o.reroute_latencies_s]

    def restore_latencies_s(self) -> List[float]:
        """Every recorded in-place-repair wait."""
        return [lat for o in self.outcomes for lat in o.restore_latencies_s]


class ScenarioInjector:
    """Schedules a :class:`Scenario` onto one simulation and accounts for it."""

    def __init__(self, scenario: Scenario, sim) -> None:
        """Bind a scenario to a simulation (validates against its topology).

        Args:
            scenario: the declarative timeline.
            sim: the owning :class:`~repro.simulator.fluid.FluidSimulation`.

        Raises:
            ValueError: when the scenario does not fit the topology.
        """
        scenario.validate(sim.network.topology)
        self.scenario = scenario
        self.sim = sim
        self._events = scenario.compiled_events()
        self.metrics = ScenarioMetrics(
            scenario_name=scenario.name,
            outcomes=[
                EventOutcome(
                    index=i,
                    kind=event.kind,
                    description=event.describe(),
                    scheduled_s=event.time_s,
                )
                for i, event in enumerate(self._events)
            ],
        )
        #: outcome currently applying (so disruptions are attributed to it)
        self._current: Optional[EventOutcome] = None
        #: most recent outcome whose application can take paths down
        #: (link-down / dc-maintenance start) — sweep-detected disruptions
        #: (e.g. an arrival routed onto an already-dead path) are charged
        #: to it rather than to an unrelated or recovery event
        self._last_disruptive_outcome: Optional[EventOutcome] = None
        #: flow id -> (owning outcome, disruption time)
        self._open_disruptions: Dict[int, Tuple[EventOutcome, float]] = {}

    def scheduled_event_times(self) -> frozenset:
        """Every instant at which this scenario schedules an engine event.

        The batched-arrival path uses these as tie guards: an arrival whose
        timestamp exactly equals a not-yet-fired scenario event must not be
        admitted early, because the scenario event (scheduled first, lower
        sequence number) fires before the arrival would have.
        """
        times = set()
        for event in self._events:
            times.add(event.time_s)
            if isinstance(event, (DCMaintenance, RegionalPowerEvent)):
                times.add(event.end_s)
            elif isinstance(event, SRLGFailure):
                times.update(event.recovery_times())
        return frozenset(times)

    # ------------------------------------------------------------------ #
    # installation
    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Schedule every event on the simulation's engine heap."""
        for event, outcome in zip(self._events, self.metrics.outcomes):
            if isinstance(event, TrafficSurge):
                demands = self._surge_demands(event, outcome.index)
                outcome.flows_injected = len(demands)
                self.sim.inject_demands(demands)
                # the demands are scheduled now, but the surge only counts
                # as fired if the run actually reaches its start time
                self.sim.engine.schedule(
                    event.time_s,
                    lambda o=outcome: setattr(o, "applied_s", self.sim.engine.now),
                )
                continue
            self.sim.engine.schedule(
                event.time_s,
                lambda e=event, o=outcome: self._fire(e, o),
            )
            if isinstance(event, (DCMaintenance, RegionalPowerEvent)):
                self.sim.engine.schedule(
                    event.end_s,
                    lambda e=event, o=outcome: self._fire_revert(e, o),
                )
            elif isinstance(event, SRLGFailure):
                for link_index, repair_s in enumerate(event.recovery_times()):
                    self.sim.engine.schedule(
                        repair_s,
                        lambda e=event, o=outcome, i=link_index: self._fire_revert_link(
                            e, o, i
                        ),
                    )

    def _surge_demands(self, event: TrafficSurge, index: int):
        """Pre-generate one surge's demands (deterministic, ids offset)."""
        from ..workloads import TrafficConfig, TrafficGenerator

        num_flows = event.num_flows
        generator_config = TrafficConfig(
            workload=event.workload,
            load=event.load,
            num_flows=num_flows if num_flows is not None else 1,
            pairs=list(event.pairs),
            seed=event.seed + index,
            start_s=event.time_s,
        )
        generator = TrafficGenerator(
            self.sim.network.topology, self.sim.network.pathset, generator_config
        )
        if num_flows is None:
            # derive the count from the surge load so the batch spans
            # roughly duration_s (expected_duration_s is count / rate)
            rate = generator_config.num_flows / max(
                generator.expected_duration_s(), 1e-12
            )
            num_flows = max(1, int(round(rate * event.duration_s)))
            generator_config = replace(generator_config, num_flows=num_flows)
            generator = TrafficGenerator(
                self.sim.network.topology, self.sim.network.pathset, generator_config
            )
        offset = SURGE_FLOW_ID_BASE + index * _SURGE_ID_STRIDE
        return [replace(d, flow_id=offset + d.flow_id) for d in generator.generate()]

    # ------------------------------------------------------------------ #
    # firing
    # ------------------------------------------------------------------ #
    def _fire(self, event: ScenarioEvent, outcome: EventOutcome) -> None:
        now = self.sim.engine.now
        outcome.applied_s = now
        if isinstance(event, TrafficDrain):
            outcome.flows_cancelled = self.sim.cancel_pending(event.matches)
            return
        affected = getattr(event, "affected_link_keys", None)
        if affected is not None:
            outcome.links_affected = len(affected(self.sim.network))
        event.apply(self.sim.network, now)
        self._after_state_change(outcome, now, disruptive=event.kind in DISRUPTIVE_KINDS)

    def _fire_revert(self, event: ScenarioEvent, outcome: EventOutcome) -> None:
        """End a windowed event (DC maintenance, regional power)."""
        now = self.sim.engine.now
        outcome.reverted_s = now
        event.revert(self.sim.network, now)
        self._after_state_change(outcome, now, disruptive=False)

    def _fire_revert_link(
        self, event: SRLGFailure, outcome: EventOutcome, link_index: int
    ) -> None:
        """Repair one link of an SRLG (staggered recovery).

        ``reverted_s`` is overwritten on each repair, so after the last one
        it records when the whole group finished recovering.
        """
        now = self.sim.engine.now
        outcome.reverted_s = now
        event.revert_link(self.sim.network, link_index, now)
        self._after_state_change(outcome, now, disruptive=False)

    def _after_state_change(
        self, outcome: EventOutcome, now: float, disruptive: bool
    ) -> None:
        """Propagate a topology mutation into the data plane immediately.

        The telemetry sweep models the real-time "port down/up" signal
        the paper's switch ASIC sees; it refreshes every router's liveness
        tracker so that the subsequent flow re-evaluation exercises the lazy
        flow-cache invalidation path rather than a control-plane rebuild.
        """
        telemetry = self.sim.telemetry
        telemetry.sweep(now)
        telemetry.feed_routers(now)
        if disruptive:
            self._last_disruptive_outcome = outcome
            self._current = outcome
        try:
            self.sim.revalidate_flows(now)
        finally:
            self._current = None

    # ------------------------------------------------------------------ #
    # accounting callbacks (invoked by FluidSimulation)
    # ------------------------------------------------------------------ #
    def on_flow_disrupted(self, flow, now: float) -> None:
        """A flow's path just lost a link."""
        outcome = self._current or self._last_disruptive_outcome
        if outcome is None:
            return
        outcome.flows_disrupted += 1
        self._open_disruptions[flow.flow_id] = (outcome, now)

    def on_flow_rerouted(self, flow, now: float) -> None:
        """A disrupted flow landed on a healthy alternative path."""
        entry = self._open_disruptions.pop(flow.flow_id, None)
        if entry is None:
            return
        outcome, disrupted_s = entry
        outcome.flows_rerouted += 1
        outcome.reroute_latencies_s.append(now - disrupted_s)

    def on_flow_restored(self, flow, now: float) -> None:
        """A disrupted flow's original path came back before a re-route."""
        entry = self._open_disruptions.pop(flow.flow_id, None)
        if entry is None:
            return
        outcome, disrupted_s = entry
        outcome.flows_restored += 1
        outcome.restore_latencies_s.append(now - disrupted_s)

    def on_flow_failed(self, flow, now: float) -> None:
        """A disrupted flow was explicitly failed (stranded timeout)."""
        entry = self._open_disruptions.pop(flow.flow_id, None)
        if entry is None:
            return
        outcome, _ = entry
        outcome.flows_failed += 1
