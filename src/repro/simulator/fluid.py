"""Fluid flow-level network simulation.

This is the substrate that replaces the paper's NS-3 setup (see DESIGN.md).
Flows are modelled as fluid: every ``update_interval`` the simulation

1. sums the sending rate of active flows on every link they traverse,
2. integrates (offered − capacity) into each egress queue,
3. computes each flow's achieved rate (its sending rate scaled down by the
   most-congested link it crosses),
4. generates congestion feedback (ECN fraction, max utilisation, RTT sample)
   and puts it "in flight" so the sender's congestion controller only sees it
   one base-RTT later — the outdated-feedback property of long-haul paths,
5. advances congestion-controller state and flow progress, and
6. finishes flows whose bytes are exhausted.

Routing decisions happen exactly once per flow, at arrival time, by walking
DCI switches hop by hop (see :class:`~repro.simulator.network.RuntimeNetwork`).

Two implementations of the update step exist and are bit-for-bit
equivalent: the array core (default) that keeps per-flow and
congestion-control state resident in a :class:`~repro.simulator.flow_table
.FlowTable`, runs every per-step operation as numpy array math over a
CSR-style flow×link incidence structure (:mod:`repro.simulator.incidence`),
and advances/feeds congestion control through per-class in-place column
kernels — one call per CC class present, so heterogeneous fleets
(per-flow CC mixes) stay on the fast path; and the original pure-Python
scalar loop, kept as the executable specification and selected with
``SimulationConfig(vectorized=False)``.  The equivalence is guarded by
``tests/simulator/test_vectorized_equivalence.py``.

A run may additionally carry a :class:`~repro.scenarios.events.Scenario`:
its injector schedules fault/traffic events on the same engine heap and
calls :meth:`FluidSimulation.revalidate_flows` after each topology mutation,
so in-flight flows are re-routed (or explicitly failed) through the lazy
fast-failover path mid-run.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..backend import get_backend
from ..obs import Instrumentation, NOOP
from .config import SimulationConfig
from .engine import SimulationEngine, SimulationError
from .fct import FCTCollector, FlowRecord, IdealFctModel, MetricsStore
from .flow import FeedbackSignal, Flow, FlowDemand
from .flow_table import FlowTable
from .incidence import FlowLinkIncidence
from .link import RuntimeLink
from .monitor import LinkTrace
from .network import RoutingLoopError, RuntimeNetwork
from .telemetry import TelemetryPlane

__all__ = ["LinkStats", "FlowFailure", "SimulationResult", "FluidSimulation"]


class _FeedbackGeneration:
    """One update step's worth of in-flight congestion feedback (arrays).

    The array core never materialises per-flow
    :class:`~repro.simulator.flow.FeedbackSignal` objects; each step
    appends one generation holding the step's signal arrays, and lanes are
    delivered through the CC class kernels (see
    :meth:`~repro.simulator.flow_table.FlowTable.deliver_feedback`) once
    their ``deliver_s`` passes.  Lane ``i`` is column ``i`` of two blocks:
    ``ids`` holds ``(row, epoch)`` and ``values`` holds ``(deliver_s, ecn,
    util, rtt, qd)``, so merging the due lanes of many generations is one
    concatenate per block; ``generated_s`` is the step's time, shared by
    every lane.

    The lanes are sorted by deliver time once, here, so the lanes due at
    ``now`` are always the columns ``[cursor, searchsorted(deliver_s, now,
    "right"))`` (see :meth:`take_due`) and ``next_due_s`` is the deliver
    time at the cursor — an idle generation costs one comparison per step.
    A generation's rows are distinct, so the order of its lanes never
    decides a delivery order.

    Lanes are addressed by FlowTable row guarded by the row epoch captured
    at enqueue time, so a lane whose row was released (and possibly
    re-acquired by a newer flow) is dropped.
    """

    __slots__ = ("ids", "values", "deliver_s", "generated_s", "cursor", "next_due_s")

    def __init__(self, rows, epoch, generated_s, deliver_s, ecn, util, rtt, qd):
        """Sort one step's lanes by ``deliver_s``; ``epoch`` is the table's epoch column."""
        order = np.argsort(deliver_s)
        rows = rows[order]
        self.ids = np.array((rows, epoch[rows]))
        self.values = np.array((deliver_s, ecn, util, rtt, qd)).take(order, axis=1)
        self.deliver_s = self.values[0]
        self.generated_s = generated_s
        self.cursor = 0
        self.next_due_s = float(self.deliver_s[0])

    def take_due(self, now: float) -> slice:
        """The lanes due at ``now`` not yet taken; the cursor moves past them."""
        lo = self.cursor
        deliver_s = self.deliver_s
        hi = self.cursor = int(deliver_s.searchsorted(now, "right"))
        self.next_due_s = float(deliver_s[hi]) if hi < len(deliver_s) else math.inf
        return slice(lo, hi)


@dataclass(frozen=True)
class LinkStats:
    """Summary statistics of one inter-DC link after a run."""

    key: Tuple[str, str]
    cap_bps: float
    carried_bytes: float
    dropped_bytes: float
    peak_queue_bytes: float
    utilization: float


@dataclass(frozen=True)
class FlowFailure:
    """A flow explicitly failed by the scenario engine.

    Recorded when a disrupted flow could not be moved onto a healthy path
    within the scenario's stranded timeout — the simulation's equivalent of
    the application giving up on a blackholed connection.
    """

    flow_id: int
    src_dc: str
    dst_dc: str
    size_bytes: int
    arrival_s: float
    disrupted_s: float
    failed_s: float
    remaining_bytes: float


class SimulationResult:
    """Everything a simulation run produces.

    Completed-flow metrics live in a columnar
    :class:`~repro.simulator.fct.MetricsStore` (:attr:`store`); the
    :attr:`records` list is a read-only *view* materialised freshly on every
    access, so callers cannot mutate the run's metrics through it.
    Analysis code should prefer the store's column accessors.

    Attributes:
        records: one :class:`FlowRecord` per completed flow (a view over
            :attr:`store`).
        store: the columnar metrics (an empty store by default).
        link_stats: per inter-DC link summary.
        duration_s: simulated time elapsed (from time 0 to the stop time).
        unfinished_flows: flows still active when the simulation stopped
            (should be 0 in a healthy run; benchmarks assert on it).
        routing_decisions: total number of per-switch routing decisions.
        monitor_samples: number of queue-monitor sweeps taken.
        trace: optional per-link time series.
        failed_flows: flows explicitly failed by the scenario engine
            (stranded on a dead path past the scenario's timeout).
        scenario_metrics: per-event recovery metrics
            (:class:`~repro.scenarios.injector.ScenarioMetrics`) when the
            run carried a scenario, else ``None``.
        stats: observability snapshot (harvested counters and gauges plus
            phase timers, see DESIGN.md "Observability plane") when the run
            had ``SimulationConfig.instrumentation`` on, else ``None``.
    """

    def __init__(
        self,
        link_stats: Optional[List[LinkStats]] = None,
        duration_s: float = 0.0,
        unfinished_flows: int = 0,
        routing_decisions: int = 0,
        monitor_samples: int = 0,
        trace: Optional[LinkTrace] = None,
        failed_flows: Optional[List[FlowFailure]] = None,
        scenario_metrics: Optional[object] = None,
        store: Optional[MetricsStore] = None,
        stats: Optional[dict] = None,
    ) -> None:
        self.store = store if store is not None else MetricsStore()
        self.link_stats = list(link_stats) if link_stats is not None else []
        self.duration_s = duration_s
        self.unfinished_flows = unfinished_flows
        self.routing_decisions = routing_decisions
        self.monitor_samples = monitor_samples
        self.trace = trace
        self.failed_flows = list(failed_flows) if failed_flows is not None else []
        self.scenario_metrics = scenario_metrics
        self.stats = stats

    @property
    def records(self) -> List[FlowRecord]:
        """Completed-flow records (a fresh list of views per access)."""
        return self.store.records()

    def arrival_slowdown_columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(arrival_s, slowdown)`` columns of the completed flows.

        Served straight from the metrics store, so analysis helpers can
        window/bucket without materialising record objects.
        """
        return self.store.arrivals(), self.store.slowdowns()

    def slowdowns(self) -> List[float]:
        """All flow slowdowns."""
        return self.store.slowdowns().tolist()

    def utilization_by_link(self) -> Dict[Tuple[str, str], float]:
        """Mapping of directed link key to average utilisation."""
        return {stats.key: stats.utilization for stats in self.link_stats}


class FluidSimulation:
    """Drives one simulation run end to end."""

    def __init__(
        self,
        network: RuntimeNetwork,
        demands: Sequence[FlowDemand],
        cc_factory: Callable[[float, float, int], object],
        config: Optional[SimulationConfig] = None,
        trace_links: bool = False,
        scenario=None,
    ) -> None:
        """Prepare a run.

        Args:
            network: runtime network (topology + routers).
            demands: flow demands, in any order (they are sorted by arrival).
            cc_factory: ``cc_factory(line_rate_bps, base_rtt_s, flow_id)``
                returning a fresh congestion-control instance per flow
                (see :func:`~repro.congestion_control.make_cc_factory`).
            config: simulation tunables.
            trace_links: record per-link time series of every inter-DC
                link at each monitor sweep (costs memory).
            scenario: optional :class:`~repro.scenarios.events.Scenario`;
                its events (fault injection, traffic surges, capacity
                changes) are scheduled on the engine heap and applied to the
                runtime network mid-run.
        """
        self.network = network
        self.config = config or network.config
        self.config.validate()
        self.cc_factory = cc_factory
        self.demands = sorted(demands, key=lambda d: (d.arrival_s, d.flow_id))

        #: phase timers — the NOOP singleton when instrumentation is off,
        #: so every span below is an inert attribute access.  Span handles
        #: are bound once here (reusable, non-re-entrant) so the hot loops
        #: pay only the enter/exit cost.  Instrumentation never touches
        #: simulation numerics or RNG streams: results stay bit-for-bit
        #: identical either way.
        self.obs = Instrumentation() if self.config.instrumentation else NOOP
        obs = self.obs
        self._sp_update = obs.span("step.update")
        self._sp_revalidate = obs.span("update.revalidate")
        self._sp_load_queue = obs.span("update.load_queue")
        self._sp_signals = obs.span("update.signals")
        self._sp_feedback = obs.span("update.feedback")
        self._sp_cc = obs.span("update.cc_advance")
        self._sp_completions = obs.span("update.completions")
        self._sp_monitor = obs.span("step.monitor")
        self._sp_gc = obs.span("step.gc")
        self._sp_arrivals = obs.span("step.arrivals")
        self._sp_arrival_route = obs.span("arrivals.route")
        #: always-on plain-int counters, harvested by _harvest_metrics
        self._deliver_repeated_calls = 0
        self._sequential_arrivals = 0
        self._reroutes = 0
        self._reroute_attempts = 0
        self._parked = 0
        self._wakeups = 0
        #: housekeeping ticks run so far (part of the routers' epoch, see
        #: :meth:`_router_epoch`)
        self._gc_ticks = 0
        self._cc_kernel_dispatches = 0
        self._arrival_batches = 0
        self._flows_admitted = 0

        self.engine = SimulationEngine()
        self._rng = np.random.default_rng(self.config.seed)
        ideal = IdealFctModel(network.topology, network.pathset)
        self.collector = FCTCollector(
            ideal, fidelity_noise=self.config.fidelity_noise, rng=self._rng
        )
        self._trace = LinkTrace() if trace_links else None

        self._active: List[Flow] = []
        #: the shared kernels of the array core's hot paths (scatter adds,
        #: segment reductions, the path-signal walk — see
        #: :mod:`repro.backend`); the scalar core ignores them
        self._backend = get_backend("numpy")
        #: the array core's per-flow state (flows and controllers are
        #: bound to their rows, the columns authoritative) and flow×link
        #: incidence arrays; both None on the scalar core, which keeps
        #: state on the objects
        self._table: Optional[FlowTable] = None
        self._incidence: Optional[FlowLinkIncidence] = None
        #: the switches' port telemetry; the scalar core sweeps it from the
        #: link objects, the array core from its incidence arrays
        self.telemetry = TelemetryPlane(network)
        if self.config.vectorized:
            self._table = FlowTable()
            self._incidence = FlowLinkIncidence()
            self.telemetry.attach_incidence(self._incidence)
        #: queue-monitor sweeps taken by the periodic monitor step
        self._monitor_samples = 0

        #: FlowTable rows of the active flows, aligned with ``_active``
        #: (grown by doubling; ``_n_active`` is the live prefix length)
        self._rows_arr = np.empty(256, dtype=np.intp)
        self._n_active = 0
        #: in-flight congestion feedback, one generation per update step
        self._feedback_line: "deque[_FeedbackGeneration]" = deque()
        self._pending_arrivals = len(self.demands)
        self._stopped = False
        #: flow id -> (arrival Event, demand) for not-yet-arrived flows
        #: (the scalar core's per-event arrival path)
        self._arrival_events: Dict[int, Tuple[object, FlowDemand]] = {}
        #: the array core's batched-arrival state: a
        #: (arrival_s, flow_id, strict, demand)
        #: heap of not-yet-admitted demands, drained by one batch event
        #: per event-free window instead of one heap event per flow
        #: (``strict`` marks mid-run injections, see :meth:`_arrival_batch`)
        self._arrival_heap: List[Tuple[float, int, bool, FlowDemand]] = []
        self._run_started = False
        self._cancelled_ids: set = set()
        self._batch_event = None
        #: scenario event times guarding exact-tie admission (see
        #: :meth:`_arrival_batch`)
        self._tie_guard: frozenset = frozenset()
        self._injected_last_arrival_s = 0.0
        self._failed: List[FlowFailure] = []
        #: read-only callbacks invoked after every completed update step
        #: (see :meth:`add_step_observer`); empty in normal runs
        self._step_observers: List[Callable[["FluidSimulation", float], None]] = []

        self.injector = None
        if scenario is not None:
            # local import: repro.scenarios depends on the simulator types
            from ..scenarios.injector import ScenarioInjector

            self.injector = ScenarioInjector(scenario, self)
            self._tie_guard = self.injector.scheduled_event_times()
            self.injector.install()

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def run(self) -> SimulationResult:
        """Execute the simulation and return its result."""
        for demand in self.demands:
            self._schedule_arrival(demand)
        self._run_started = True

        # the monitor is scheduled before the rate/queue update so that when
        # both fire at the same instant the switch samples its queues first
        # (and the run cannot end before at least one monitor sweep happened)
        self.engine.schedule_periodic(
            self.config.monitor_interval_s, self._monitor_step
        )
        self.engine.schedule_periodic(
            self.config.update_interval_s, self._update_step
        )
        self.engine.schedule_periodic(self.config.gc_interval_s, self._gc_step)

        last_arrival = self.demands[-1].arrival_s if self.demands else 0.0
        last_arrival = max(last_arrival, self._injected_last_arrival_s)
        deadline = min(
            self.config.max_sim_time_s, last_arrival + self.config.drain_timeout_s
        )
        self.engine.run(until=deadline)
        return self._build_result()

    # ------------------------------------------------------------------ #
    # scenario-facing API (used by repro.scenarios.injector)
    # ------------------------------------------------------------------ #
    def inject_demands(self, demands: Sequence[FlowDemand]) -> None:
        """Add demands mid-run (or pre-run): traffic-surge events.

        Raises:
            SimulationError: if a demand's arrival lies in the past.
        """
        for demand in demands:
            self._pending_arrivals += 1
            self._schedule_arrival(demand)
            self._injected_last_arrival_s = max(
                self._injected_last_arrival_s, demand.arrival_s
            )

    def cancel_pending(self, predicate: Callable[[FlowDemand], bool]) -> int:
        """Cancel not-yet-arrived demands matching ``predicate``.

        Returns:
            Number of demands cancelled (traffic-drain events).
        """
        if self._table is not None:
            cancelled = 0
            for _, flow_id, _, demand in self._arrival_heap:
                if flow_id not in self._cancelled_ids and predicate(demand):
                    self._cancelled_ids.add(flow_id)
                    self._pending_arrivals -= 1
                    cancelled += 1
            return cancelled
        cancelled = 0
        for flow_id, (event, demand) in list(self._arrival_events.items()):
            if predicate(demand):
                event.cancel()
                del self._arrival_events[flow_id]
                self._pending_arrivals -= 1
                cancelled += 1
        return cancelled

    def revalidate_flows(self, now: float) -> None:
        """Re-evaluate every in-flight flow against current link liveness.

        Runs on every update step and immediately after each scenario state
        event.  A flow whose path crosses a dead port is treated as if its
        next packet re-arrived at the switch — the stale flow-cache entry is
        lazily invalidated and the flow re-hashed onto a healthy candidate
        (paper §3.4).  A flow with no healthy alternative stays pinned until
        its path recovers, or — when the scenario sets a stranded timeout —
        is explicitly failed and recorded.

        A failed re-route parks the flow on a wait list: it is retried only
        once something its walk depends on has changed (see
        :meth:`_wakes`), never on every step.  Parking skips attempts only;
        a parked flow still heals in place and still fails at its stranded
        timeout at the same instant as before.
        """
        stranded_timeout = None
        if self.injector is not None:
            stranded_timeout = self.injector.scenario.stranded_timeout_s

        if self._incidence is not None:
            if not self._active:
                return
            # array core: one reduction over cached liveness instead of an
            # O(flows x path) Python sweep; only flows that are broken now
            # or were disrupted before need any Python-level attention
            rows = self._active_rows()
            self._incidence.refresh(rows)
            broken_arr = self._incidence.broken_flows()
            table = self._table
            disrupted = table.disrupted_s[rows]
            need = broken_arr | ~np.isnan(disrupted)
            if not need.any():
                return
            # parked rows no wake condition holds for (the mask form of
            # _wakes) need nothing until their stranded timeout comes
            asleep = table.wait_version[rows] == RuntimeLink.state_version
            if asleep.any():
                epoch = table.wait_epoch[rows]
                asleep &= (epoch < 0) | (epoch == self._router_epoch())
                if stranded_timeout is not None:
                    asleep &= now - disrupted < stranded_timeout
                need &= ~asleep
                if not need.any():
                    return
            targets = np.flatnonzero(need)
            flows = [self._active[i] for i in targets.tolist()]
            broken_l = broken_arr[targets].tolist()
            for flow, broken in zip(flows, broken_l):
                self._revalidate_one(flow, broken, now, stranded_timeout)
            return

        for flow in list(self._active):
            broken = any(not link.up for link in flow.path)
            self._revalidate_one(flow, broken, now, stranded_timeout)

    def _revalidate_one(
        self, flow: Flow, broken: bool, now: float, stranded_timeout: Optional[float]
    ) -> None:
        """Re-evaluate one flow: clear, reroute, park or fail it."""
        if not broken:
            if flow.disrupted_s is not None:
                # the original path healed in place (link recovery)
                if self.injector is not None:
                    self.injector.on_flow_restored(flow, now)
                flow.disrupted_s = None
                flow.parked_at = None
            return
        if flow.disrupted_s is None:
            flow.disrupted_s = now
            if self.injector is not None:
                self.injector.on_flow_disrupted(flow, now)
        parked = flow.parked_at
        if parked is None or self._wakes(parked):
            if parked is not None:
                self._wakeups += 1
            if self._reroute_flow(flow, now):
                if self.injector is not None:
                    self.injector.on_flow_rerouted(flow, now)
                flow.disrupted_s = None
                flow.parked_at = None
                return
            self._park(flow, parked is None)
        if (
            stranded_timeout is not None
            and now - flow.disrupted_s >= stranded_timeout
        ):
            self._fail_flow(flow, now)

    # ------------------------------------------------------------------ #
    # the re-route wait list
    # ------------------------------------------------------------------ #
    def _router_epoch(self) -> int:
        """Count of the events that move router state without a link change.

        Telemetry sweeps (each is delivered to the routers) and housekeeping
        ticks (flow-cache GC, RedTE's control loop).
        """
        return self.telemetry.sweeps + self._gc_ticks

    def _park(self, flow: Flow, first: bool) -> None:
        """Put a flow whose re-route just failed on the wait list.

        The flow records the link-state version its walk saw and, when the
        walk made an adaptive choice (see
        :attr:`~repro.simulator.network.RuntimeNetwork.last_walk_adaptive`),
        the routers' epoch; otherwise only a link change can alter the walk.
        ``first``: the flow was not parked before this attempt.
        """
        if first:
            self._parked += 1
        epoch = self._router_epoch() if self.network.last_walk_adaptive else -1
        flow.parked_at = (RuntimeLink.state_version, epoch)

    def _wakes(self, parked: Tuple[int, int]) -> bool:
        """Whether a parked flow's re-route could now come out differently.

        True when any link failed, recovered or changed capacity since the
        failed attempt, or — for a walk that made an adaptive choice — the
        routers saw a telemetry sweep or a housekeeping tick since.
        """
        version, epoch = parked
        if version != RuntimeLink.state_version:
            return True
        return epoch >= 0 and epoch != self._router_epoch()

    # ------------------------------------------------------------------ #
    # event handlers
    # ------------------------------------------------------------------ #
    def _schedule_arrival(self, demand: FlowDemand) -> None:
        if self._table is not None:
            if demand.arrival_s < self.engine.now:
                raise SimulationError(
                    f"cannot schedule event at {demand.arrival_s} "
                    f"(now is {self.engine.now})"
                )
            heapq.heappush(
                self._arrival_heap,
                (demand.arrival_s, demand.flow_id, self._run_started, demand),
            )
            self._ensure_batch_event()
            return
        event = self.engine.schedule(demand.arrival_s, self._make_arrival(demand))
        self._arrival_events[demand.flow_id] = (event, demand)

    def _make_arrival(self, demand: FlowDemand) -> Callable[[], None]:
        """The scalar core's per-flow arrival event."""

        def arrive() -> None:
            self._arrival_events.pop(demand.flow_id, None)
            self._pending_arrivals -= 1
            self._sequential_arrivals += 1
            now = self.engine.now
            path = self.network.resolve_path(demand, now)
            base_rtt = 2.0 * sum(link.delay_s for link in path)
            line_rate = path[0].cap_bps
            cc = self.cc_factory(line_rate, base_rtt, demand.flow_id)
            flow = Flow(demand, path, cc, base_rtt)
            flow.route_id = self.collector.route_index_for(demand.src_dc, flow.path)
            self._append_active(flow)

        return arrive

    # ------------------------------------------------------------------ #
    # batched arrivals (the array core's control plane)
    # ------------------------------------------------------------------ #
    def _ensure_batch_event(self) -> None:
        """Keep exactly one batch event scheduled at the earliest arrival."""
        heap = self._arrival_heap
        while heap and heap[0][1] in self._cancelled_ids:
            self._cancelled_ids.discard(heap[0][1])
            heapq.heappop(heap)
        if not heap:
            return
        head_time = heap[0][0]
        event = self._batch_event
        if event is not None and not event.cancelled and event.time <= head_time:
            return
        if event is not None:
            event.cancel()
        self._batch_event = self.engine.schedule(head_time, self._arrival_batch)

    def _arrival_batch(self) -> None:
        """Admit every arrival due before the next possible state change.

        Fires at the earliest pending arrival time.  Nothing observable can
        happen between engine events, so every demand whose arrival lies
        strictly before the next pending event is admitted now — each flow
        still routed with its own arrival timestamp — which is exactly
        equivalent to one heap event per flow.  Ties: a pre-run demand
        stamped at the next event's exact time is admitted too (the
        per-event path scheduled those arrivals before the periodic ticks,
        so the arrival fired first), *unless* that instant belongs to a
        not-yet-fired scenario event, which the per-event path ordered
        before arrivals.  Demands injected *mid-run* (``strict``) never
        tie-break early — their per-event ordering against an exactly-tied
        periodic tick depends on when that tick last rescheduled, so the
        batch conservatively defers them past every event pending at that
        instant.
        """
        self._batch_event = None
        with self._sp_arrivals:
            now = self.engine.now
            horizon = self.engine.next_event_time()
            heap = self._arrival_heap
            guard = self._tie_guard
            batch: List[FlowDemand] = []
            while heap:
                t, flow_id, strict, demand = heap[0]
                if flow_id in self._cancelled_ids:
                    heapq.heappop(heap)
                    self._cancelled_ids.discard(flow_id)
                    continue
                if t > now and horizon is not None:
                    if t > horizon:
                        break
                    if t == horizon and (strict or t in guard):
                        break
                heapq.heappop(heap)
                batch.append(demand)
            if batch:
                self._admit_arrivals(batch)
            self._ensure_batch_event()

    def _admit_arrivals(self, batch: List[FlowDemand]) -> None:
        """Route and activate one drained arrival batch (arrival order)."""
        self._arrival_batches += 1
        self._flows_admitted += len(batch)
        times = np.fromiter(
            (d.arrival_s for d in batch), dtype=np.float64, count=len(batch)
        )
        with self._sp_arrival_route:
            paths = self.network.resolve_paths_batch(batch, times)
        collector = self.collector
        flows = []
        for demand, path in zip(batch, paths):
            base_rtt = 2.0 * sum(link.delay_s for link in path)
            cc = self.cc_factory(path[0].cap_bps, base_rtt, demand.flow_id)
            flow = Flow(demand, path, cc, base_rtt)
            flow.route_id = collector.route_index_for(demand.src_dc, flow.path)
            flows.append(flow)
        self._pending_arrivals -= len(batch)
        rows = self._table.acquire_batch(flows)
        self._incidence.set_paths(rows, [flow.path for flow in flows])
        for flow in flows:
            self._append_active(flow)

    # ------------------------------------------------------------------ #
    # active-set bookkeeping (O(1) append / swap-remove)
    # ------------------------------------------------------------------ #
    def _append_active(self, flow: Flow) -> None:
        flow._active_pos = len(self._active)
        self._active.append(flow)
        if self._table is not None:
            n = self._n_active
            arr = self._rows_arr
            if n == len(arr):
                grown = np.empty(2 * len(arr), dtype=np.intp)
                grown[:n] = arr
                self._rows_arr = arr = grown
            arr[n] = flow._slot
            self._n_active = n + 1

    def _remove_active(self, flow: Flow) -> None:
        """O(1) swap-remove from the active list (and the row array)."""
        pos = flow._active_pos
        active = self._active
        last = active[-1]
        active[pos] = last
        last._active_pos = pos
        active.pop()
        flow._active_pos = -1
        if self._table is not None:
            n = self._n_active - 1
            self._rows_arr[pos] = self._rows_arr[n]
            self._n_active = n

    def _active_rows(self) -> np.ndarray:
        """FlowTable rows of the active flows, in active-list order."""
        return self._rows_arr[: self._n_active]

    def _monitor_step(self) -> None:
        """Sweep every DCI port once and feed the routers' estimators."""
        with self._sp_monitor:
            now = self.engine.now
            telemetry = self.telemetry
            telemetry.sweep(now)
            telemetry.feed_routers(now)
            self._monitor_samples += 1
            if self._trace is not None:
                telemetry.observe_trace(self._trace, now)

    def _gc_step(self) -> None:
        with self._sp_gc:
            self.network.tick_all(self.engine.now)
            self._gc_ticks += 1

    def add_step_observer(
        self, observer: Callable[["FluidSimulation", float], None]
    ) -> None:
        """Register a read-only callback run after every update step.

        Observers receive ``(sim, now)`` once the step's rate/queue update
        has fully completed, with link liveness and per-flow state settled
        for the instant — the hook invariant checkers (e.g. the dead-link
        monitor of :mod:`repro.scenarios.invariants`) attach to.  Observers
        must not mutate simulation state; with none registered the hook is
        a single empty-list check, so normal runs are unaffected.
        """
        self._step_observers.append(observer)

    def _update_step(self) -> None:
        with self._sp_update:
            if self._incidence is None:
                self._update_step_scalar()
            else:
                self._update_step_vectorized()
        if self._step_observers:
            now = self.engine.now
            for observer in self._step_observers:
                observer(self, now)

    def _maybe_stop(self) -> None:
        if not self._active and self._pending_arrivals == 0 and not self._stopped:
            self._stopped = True
            self.engine.stop()

    def _finish_flows(self, finished: List[Flow]) -> None:
        for flow in finished:
            self._remove_active(flow)
            if self._table is not None:
                self._incidence.remove_row(flow._slot)
                # release unbinds the flow/controller views (final column
                # values are copied back) and drops the row's in-flight
                # feedback, so the metrics appended below and any later
                # reader see the flow's true final state
                self._table.release(flow)
            self.collector.collect(flow)

    def _deliver_feedback_line(self, now: float) -> None:
        """Deliver every due lane of the feedback delay line (array core).

        The due slices of all generations are merged, in line (enqueue)
        order, into one lane batch addressed by FlowTable row.  Liveness
        and the slot-reuse epoch guard run once over the batch, and one
        :meth:`~repro.simulator.flow_table.FlowTable.deliver_feedback` call
        makes one kernel call per CC class present.  A flow normally
        receives at most one signal per step — one is enqueued per step
        with a fixed RTT offset — so its row appears once.  When an
        RTT-shortening re-route makes several due at once, its row repeats
        in the batch, and the table applies the row's signals in
        deliver-time order, ties in enqueue order: exactly the scalar
        path's order.
        """
        line = self._feedback_line
        due = [(gen, gen.take_due(now)) for gen in line if gen.next_due_s <= now]
        while line and line[0].next_due_s == math.inf:
            line.popleft()
        if not due:
            return

        ids = np.concatenate([gen.ids[:, lanes] for gen, lanes in due], axis=1)
        values = np.concatenate([gen.values[:, lanes] for gen, lanes in due], axis=1)
        generated_s = np.repeat(
            [gen.generated_s for gen, _ in due], [lanes.stop - lanes.start for _, lanes in due]
        )
        table = self._table
        bk = self._backend
        rows = ids[0]
        valid = bk.gather_rows(table.feedback_live, rows) & (
            bk.gather_rows(table.epoch, rows) == ids[1]
        )
        if not valid.all():
            rows = rows[valid]
            values = values[:, valid]
            generated_s = generated_s[valid]
            if not rows.size:
                return
        deliver_s = values[0]
        signals = (generated_s, *values[1:])
        if table.repeated_rows(rows):
            self._deliver_repeated_calls += 1
        else:
            deliver_s = None
        self._cc_kernel_dispatches += table.deliver_feedback(rows, signals, now, deliver_s)

    def _update_step_scalar(self) -> None:
        """The original pure-Python update step (the executable spec)."""
        now = self.engine.now
        dt = self.config.update_interval_s
        if not self._active:
            self._maybe_stop()
            return

        # 0. lazy fast-failover sweep (see revalidate_flows)
        self.revalidate_flows(now)

        # 1. offered load per link
        offered: Dict[RuntimeLink, float] = {}
        for flow in self._active:
            rate = flow.sending_rate_bps
            for link in flow.path:
                offered[link] = offered.get(link, 0.0) + rate

        # 2. queue integration + per-link scaling factor
        scale: Dict[RuntimeLink, float] = {}
        for link, load in offered.items():
            link.integrate(load, dt)
            if load > 0 and link.up:
                scale[link] = min(1.0, link.cap_bps / load)
            elif not link.up:
                scale[link] = 0.0
            else:
                scale[link] = 1.0

        # 3.-6. per-flow progress, feedback and completion
        finished: List[Flow] = []
        for flow in self._active:
            factor = min(scale[link] for link in flow.path)
            achieved = flow.sending_rate_bps * factor
            before = flow.remaining_bytes
            sent = flow.transfer(achieved, dt)

            signal = self._feedback_for(flow, offered, now)
            flow.enqueue_feedback(signal, now + flow.base_rtt_s)
            flow.deliver_due_feedback(now)
            flow.cc.on_interval(dt, now)

            if flow.completed:
                # locate the completion instant inside the step
                would_send = achieved * dt / 8.0
                fraction = before / would_send if would_send > 0 else 1.0
                fraction = min(1.0, max(0.0, fraction))
                flow.mark_finished(now + fraction * dt)
                finished.append(flow)

        self._finish_flows(finished)
        self._maybe_stop()

    def _update_step_vectorized(self) -> None:
        """The array core: every per-step operation is array math.

        Mirrors :meth:`_update_step_scalar` operation for operation — the
        accumulation / reduction orders match the scalar loops, so queue
        state, feedback signals and FCTs come out bit-identical (guarded
        by ``tests/simulator/test_vectorized_equivalence.py``).  Per-flow
        state is read and written directly in
        :class:`~repro.simulator.flow_table.FlowTable` columns — the step
        performs no per-flow Python work at all outside the rare
        completion path.
        """
        now = self.engine.now
        dt = self.config.update_interval_s
        if not self._active:
            self._maybe_stop()
            return

        # 0. lazy fast-failover sweep (may reroute / fail flows)
        with self._sp_revalidate:
            self.revalidate_flows(now)
        active = self._active
        if not active:
            self._maybe_stop()
            return

        with self._sp_load_queue:
            bk = self._backend
            inc = self._incidence
            table = self._table
            rows = self._active_rows()
            inc.refresh(rows)
            grid = inc.grid
            cap, up = inc.cap_bps, inc.up

            # 1. offered load per link: flow-major scatter-add, which keeps
            # the per-link accumulation order identical to the scalar dict
            # loop; the sentinel's bin collects the padded lanes and is
            # dropped, so the sentinel column stays unloaded
            rates = bk.gather_rows(table.cc_rate_bps, rows)
            offered = bk.scatter_add(
                inc.sentinel + 1,
                grid.ravel(),
                bk.expand_segments(rates, grid.shape[1]),
            )
            offered[inc.sentinel] = 0.0

            # 2. queue integration (active slots only — the scalar path
            # only integrates links that appear on some active flow's path)
            # and the per-link scaling factor
            act = inc.active_slots
            queue, peak, carried, dropped, _ = RuntimeLink.integrate_batch(
                offered[act],
                dt,
                cap[act],
                up[act],
                inc.buffer_bytes[act],
                inc.queue_bytes[act],
                inc.peak_queue_bytes[act],
                inc.carried_bytes[act],
                inc.dropped_bytes[act],
            )
            inc.queue_bytes[act] = queue
            inc.peak_queue_bytes[act] = peak
            inc.carried_bytes[act] = carried
            inc.dropped_bytes[act] = dropped
            inc.offered_bps[act] = offered[act]

            loaded = offered > 0
            ratio = bk.masked_divide(cap, offered, loaded)
            scale = bk.masked_where(
                ~up, 0.0, bk.masked_where(loaded, np.minimum(1.0, ratio), 1.0)
            )

        with self._sp_signals:
            # 3. per-flow achieved rate: min scale across the path
            factor = bk.segment_reduce(bk.gather_rows(scale, grid), "min")
            achieved = rates * factor
            want = achieved * dt / 8.0
            before = bk.gather_rows(table.remaining_bytes, rows)
            remaining = before - np.minimum(want, before)

            # 4. congestion feedback from the same arrays
            # (post-integration queues, step-1 offered loads), exactly as
            # _feedback_for computes per link
            q = inc.queue_bytes
            span = inc.ecn_kmax - inc.ecn_kmin
            mark = bk.masked_divide(
                inc.ecn_pmax * (q - inc.ecn_kmin), span, span > 0
            )
            mark = bk.masked_where(
                q <= inc.ecn_kmin, 0.0, bk.masked_where(q >= inc.ecn_kmax, 1.0, mark)
            )

            util = bk.masked_divide(offered, cap, cap > 0)
            max_util = bk.segment_reduce(bk.gather_rows(util, grid), "max")

            not_marked, queue_delay = bk.path_signals(
                grid, 1.0 - mark, q * 8.0 / cap
            )
            ecn_fraction = 1.0 - not_marked
            base_rtt = bk.gather_rows(table.base_rtt_s, rows)
            rtt = base_rtt + queue_delay

        with self._sp_feedback:
            # 5. this step's feedback goes into the array delay line (lanes
            # addressed by table row + epoch), per-flow progress is
            # scattered straight into the table columns, then everything
            # due anywhere in the line is delivered; controllers are
            # per-flow and mutually independent, so delivering all due
            # feedback and then advancing all controllers preserves the
            # scalar loop's per-flow (enqueue -> deliver -> interval) order
            self._feedback_line.append(
                _FeedbackGeneration(
                    rows,
                    table.epoch,
                    now,
                    now + base_rtt,
                    ecn_fraction,
                    max_util,
                    rtt,
                    queue_delay,
                )
            )
            bk.scatter_rows(table.achieved_bps, rows, achieved)
            bk.scatter_rows(table.remaining_bytes, rows, remaining)
            self._deliver_feedback_line(now)

        with self._sp_cc:
            # controllers are per-flow and independent, so advancing them
            # class by class matches the scalar per-flow order
            self._cc_kernel_dispatches += table.advance_cc(rows, dt, now)

        with self._sp_completions:
            # 6. completions (mark_finished touches no controller state, so
            # running it after the CC advance matches the scalar outcome)
            finished: List[Flow] = []
            completed_idx = np.flatnonzero(remaining <= 0.0)
            if completed_idx.size:
                want_l = want[completed_idx].tolist()
                before_l = before[completed_idx].tolist()
                for k, i in enumerate(completed_idx.tolist()):
                    flow = active[i]
                    would_send = want_l[k]
                    fraction = before_l[k] / would_send if would_send > 0 else 1.0
                    fraction = min(1.0, max(0.0, fraction))
                    flow.mark_finished(now + fraction * dt)
                    finished.append(flow)

            self._finish_flows(finished)
            self._maybe_stop()

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _reroute_flow(self, flow: Flow, now: float) -> bool:
        """Re-resolve the path of a flow that lost a link (fast-failover).

        The controller's base-RTT parameters follow the new path
        (:meth:`~repro.congestion_control.base.CongestionControl.rebase_rtt`;
        on the array core the row's parameter columns are re-copied).

        Returns:
            True when the flow was moved onto a fully healthy path.
        """
        self._reroute_attempts += 1
        try:
            new_path = self.network.resolve_path(flow.demand, now)
        except RoutingLoopError:
            # no alternative route at all: leave the flow pinned; it will
            # resume if the link recovers
            return False
        if any(not link.up for link in new_path):
            return False
        self._reroutes += 1
        flow.path = tuple(new_path)
        flow.base_rtt_s = base_rtt = 2.0 * sum(link.delay_s for link in new_path)
        flow.cc.rebase_rtt(base_rtt)
        flow.route_id = self.collector.route_index_for(flow.demand.src_dc, flow.path)
        if self._incidence is not None:
            self._incidence.update_flow_path(flow)
            self._table.path_id[flow._slot] = flow.route_id
            self._table.copy_params(flow)
        return True

    def _fail_flow(self, flow: Flow, now: float) -> None:
        """Explicitly fail a flow stranded on a dead path past the timeout."""
        self._remove_active(flow)
        if self._table is not None:
            self._incidence.remove_row(flow._slot)
            self._table.release(flow)
        self._failed.append(
            FlowFailure(
                flow_id=flow.flow_id,
                src_dc=flow.demand.src_dc,
                dst_dc=flow.demand.dst_dc,
                size_bytes=flow.size_bytes,
                arrival_s=flow.demand.arrival_s,
                disrupted_s=flow.disrupted_s if flow.disrupted_s is not None else now,
                failed_s=now,
                remaining_bytes=flow.remaining_bytes,
            )
        )
        if self.injector is not None:
            self.injector.on_flow_failed(flow, now)

    def _feedback_for(
        self, flow: Flow, offered: Dict[RuntimeLink, float], now: float
    ) -> FeedbackSignal:
        not_marked = 1.0
        max_util = 0.0
        queue_delay = 0.0
        for link in flow.path:
            not_marked *= 1.0 - link.ecn_mark_probability()
            load = offered.get(link, 0.0)
            if link.cap_bps > 0:
                max_util = max(max_util, load / link.cap_bps)
            queue_delay += link.queueing_delay_s()
        return FeedbackSignal(
            generated_s=now,
            ecn_fraction=1.0 - not_marked,
            max_utilization=max_util,
            rtt_s=flow.base_rtt_s + queue_delay,
            queue_delay_s=queue_delay,
        )

    def _build_result(self) -> SimulationResult:
        if self._incidence is not None:
            # flush every array-held link state (incl. host NIC links) back
            # to the RuntimeLink objects before reading stats off them
            self._incidence.sync_all()
        duration = self.engine.now
        link_stats = []
        for link in self.network.inter_dc_links:
            link_stats.append(
                LinkStats(
                    key=link.key,
                    cap_bps=link.cap_bps,
                    carried_bytes=link.carried_bytes,
                    dropped_bytes=link.dropped_bytes,
                    peak_queue_bytes=link.peak_queue_bytes,
                    utilization=link.utilization(duration),
                )
            )
        decisions = sum(
            switch.decision_count for switch in self.network.switches.values()
        )
        stats = None
        if self.obs.enabled:
            stats = self._harvest_metrics(decisions)
            stats["phases"] = self.obs.phases()
        return SimulationResult(
            store=self.collector.store,
            link_stats=link_stats,
            duration_s=duration,
            unfinished_flows=len(self._active),
            routing_decisions=decisions,
            monitor_samples=self._monitor_samples,
            trace=self._trace,
            failed_flows=list(self._failed),
            scenario_metrics=self.injector.metrics if self.injector else None,
            stats=stats,
        )

    def _harvest_metrics(self, decisions: int) -> dict:
        """The ``counters`` and ``gauges`` sections of ``SimulationResult.stats``.

        The simulation and its hot components (engine queue, incidence,
        telemetry, switches, routers, flow caches, path set) keep cheap
        always-on integer counters; the run copies their final values here,
        once, at result-build time.  A gauge is read once too, so its
        ``last`` and ``max`` are the same value.
        """
        engine = self.engine
        counters = {
            "engine.events_scheduled": engine.events_scheduled,
            "engine.events_fired": engine.events_fired,
            "engine.events_cancelled": engine.events_cancelled,
            "telemetry.sweeps": self.telemetry.sweeps,
            "monitor.samples": self._monitor_samples,
            "routing.decisions": decisions,
            "slow_path.deliver_repeated": self._deliver_repeated_calls,
            "slow_path.sequential_routing": self._sequential_arrivals,
            "slow_path.reroutes": self._reroutes,
            "failover.reroute_attempts": self._reroute_attempts,
            "failover.parked": self._parked,
            "failover.wakeups": self._wakeups,
            "cc.kernel_dispatches": self._cc_kernel_dispatches,
            "arrivals.batches": self._arrival_batches,
            "arrivals.flows_admitted": self._flows_admitted,
        }
        gauges = {"engine.peak_pending_events": engine.peak_pending_events}
        inc = self._incidence
        if inc is not None:
            counters["incidence.registry_rebuilds"] = inc.registry_rebuilds
            counters["incidence.membership_rebuilds"] = inc.membership_rebuilds
            counters["incidence.dynamic_regathers"] = inc.dynamic_regathers
        batch_calls = fallbacks = 0
        hits = misses = evictions = gc_evictions = 0
        for switch in self.network.switches.values():
            batch_calls += switch.batch_calls
            log = switch.decision_log
            fallbacks += int(log.fallback[: len(log)].sum())
            cache = getattr(switch.router, "flow_cache", None)
            if cache is not None:
                hits += cache.hits
                misses += cache.misses
                evictions += cache.evictions
                gc_evictions += cache.gc_evictions
        counters["routing.batch_calls"] = batch_calls
        counters["routing.fallback_decisions"] = fallbacks
        counters["flow_cache.hits"] = hits
        counters["flow_cache.misses"] = misses
        counters["flow_cache.evictions"] = evictions
        counters["flow_cache.gc_evictions"] = gc_evictions
        pathset = getattr(self.network, "pathset", None)
        if pathset is not None and hasattr(pathset, "memory_bytes"):
            gauges["topology.pathset_bytes"] = float(pathset.memory_bytes())
            gauges["topology.pathset_paths"] = float(pathset.num_paths)
            counters["topology.pathset_searches"] = pathset.searches_run
            counters["topology.pathset_evictions"] = pathset.cache_evictions
        if self.injector is not None:
            counters["scenario.events_applied"] = sum(
                1
                for outcome in self.injector.metrics.outcomes
                if outcome.applied_s is not None
            )
            counters["scenario.flows_failed"] = len(self._failed)
        return {
            "counters": dict(sorted(counters.items())),
            "gauges": {
                name: {"last": value, "max": value}
                for name, value in sorted(gauges.items())
            },
        }
