"""Reusable cross-core invariant checkers for scenario runs.

The scenario fuzzer (:mod:`repro.scenarios.fuzz` and
``tests/scenarios/fuzz/``) generates random valid event timelines and
asserts, on every simulation core, four global invariants that any
correct run must satisfy regardless of the timeline:

1. **Conservation of demand** (:func:`check_demand_conservation`) —
   every injected demand is accounted for exactly once: completed,
   explicitly failed, still unfinished at the stop time, or cancelled by
   a drain.
2. **No traffic over a dead link** (:class:`DeadLinkMonitor` live, and
   :func:`check_no_dead_link_traffic` post-hoc) — no flow ever achieves
   positive rate while any link of its path is down, the vectorized
   incidence liveness cache agrees with the link objects, and no
   completed flow's recorded route was dead for its whole lifetime
   (:func:`down_intervals` reconstructs per-link outage spans purely from
   the declarative timeline).
3. **Bounded recovery** (:func:`check_recovery_bound`) — every
   disruption is closed (re-routed, restored in place, or explicitly
   failed), and no recovery takes longer than the span between the first
   cut and the last repair of the timeline plus one update interval.
4. **Cross-core bit-identity** (:func:`assert_results_identical`,
   :func:`assert_scenario_metrics_identical`) — the scalar and array
   cores (see :data:`CORE_CONFIGS`), with or without instrumentation,
   produce byte-for-byte identical records, link stats, failures and
   per-event outcomes.

Alongside them, a strict step check (:class:`StepStateMonitor`, live)
holds the per-step state physical on both cores: finite, non-negative
rates, ``0 <= queue <= buffer`` and ``remaining >= 0``.  Five routing
invariants, fed by a live :class:`FailoverRecorder`, guard the distributed
walk, the fast-failover path (paper §3.4), its re-route wait list and the
port liveness it relies on:

* **Loop-free paths** (:func:`check_loop_free_paths`) — every path the
  run resolved visits each DC at most once and crosses at most
  ``_MAX_RESOLVE_HOPS`` inter-DC links.
* **Decision accounting** (:func:`check_decision_accounting`) — the
  DecisionLog rows at each inter-DC flow's source switch total the admitted
  inter-DC flows plus the run's re-route attempts (every walk decides once
  at its source).
* **Stranded flows are retried** (:func:`check_stranded_retry`) — at every
  link-up on one of a stranded flow's candidate paths (per
  :func:`down_intervals`), the flow gets a re-route attempt or heals in
  place at that instant.
* **No dead first hop while a live one exists** (:func:`check_live_first_hop`)
  — no DecisionLog row commits a first hop that :func:`down_intervals`
  has down while a loop-free candidate's first hop is up.
* **Lazy invalidation** (:func:`check_lazy_invalidation`) — a flow-cache
  lookup that finds a flow's entry on a dead port invalidates it and counts
  one lazy invalidation, and a lookup on a live port counts none.

Each checker raises :class:`InvariantViolation` (an ``AssertionError``
subclass, so pytest renders it natively) with enough context to replay
the failure.  To add an invariant, write a ``check_*`` function over a
:class:`~repro.simulator.fluid.SimulationResult` (post-hoc) or a step
observer attached via
:meth:`~repro.simulator.fluid.FluidSimulation.add_step_observer` (live),
and call it from the fuzz harness — see DESIGN.md, "Scenario invariants
& fuzzing".
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..simulator.link import RuntimeLink
from ..simulator.network import _MAX_RESOLVE_HOPS
from .events import (
    DCMaintenance,
    LinkDown,
    LinkUp,
    RegionalPowerEvent,
    Scenario,
    SRLGFailure,
)

__all__ = [
    "CORE_CONFIGS",
    "InvariantViolation",
    "check_demand_conservation",
    "down_intervals",
    "check_no_dead_link_traffic",
    "check_recovery_bound",
    "assert_results_identical",
    "assert_scenario_metrics_identical",
    "DeadLinkMonitor",
    "StepStateMonitor",
    "FailoverRecorder",
    "check_loop_free_paths",
    "check_decision_accounting",
    "check_stranded_retry",
    "check_live_first_hop",
    "check_lazy_invalidation",
]

#: the simulation cores, as ``SimulationConfig`` field overrides — the
#: canonical axis the equivalence suite and the fuzzer sweep: the scalar
#: executable spec and the array core
CORE_CONFIGS: Dict[str, Dict[str, object]] = {
    "scalar": {"vectorized": False},
    "array": {"vectorized": True},
}


class InvariantViolation(AssertionError):
    """A global scenario invariant does not hold for a run."""


def _violate(message: str) -> None:
    raise InvariantViolation(message)


# ---------------------------------------------------------------------- #
# invariant 1: conservation of demand
# ---------------------------------------------------------------------- #
def check_demand_conservation(result, num_demands: int) -> None:
    """Injected == completed + failed + residual (+ cancelled).

    Args:
        result: a :class:`~repro.simulator.fluid.SimulationResult`.
        num_demands: size of the base traffic matrix handed to the run
            (surge injections and drain cancellations are read off the
            run's scenario metrics).

    Raises:
        InvariantViolation: when any demand is lost or double-counted.
    """
    metrics = result.scenario_metrics
    injected = metrics.total_injected if metrics is not None else 0
    cancelled = metrics.total_cancelled if metrics is not None else 0
    completed = len(result.records)
    failed = len(result.failed_flows)
    residual = result.unfinished_flows
    lhs = num_demands + injected
    rhs = completed + failed + residual + cancelled
    if lhs != rhs:
        _violate(
            f"demand conservation: {num_demands} base + {injected} injected "
            f"= {lhs}, but {completed} completed + {failed} failed + "
            f"{residual} unfinished + {cancelled} cancelled = {rhs}"
        )
    completed_ids = [r.flow_id for r in result.records]
    if len(set(completed_ids)) != len(completed_ids):
        _violate("demand conservation: duplicate flow_id in completed records")
    overlap = set(completed_ids) & {f.flow_id for f in result.failed_flows}
    if overlap:
        _violate(
            f"demand conservation: flows both completed and failed: {sorted(overlap)}"
        )


# ---------------------------------------------------------------------- #
# invariant 2: no traffic over a dead link
# ---------------------------------------------------------------------- #
def down_intervals(
    scenario: Scenario, topology
) -> Dict[Tuple[str, str], List[Tuple[float, float]]]:
    """Per directed link: merged ``[start, end)`` outage intervals.

    Reconstructed *purely* from the declarative compiled timeline — an
    independent re-implementation of the runtime's reference-counted
    down-causes, used to cross-check it.  Overlapping causes (an SRLG cut
    inside a maintenance window) merge into one interval; an outage never
    repaired extends to ``+inf``.  Events that only degrade capacity
    (:class:`~repro.scenarios.events.CapacityChange`, the surviving-DC
    side of a :class:`~repro.scenarios.events.RegionalPowerEvent`) do not
    produce intervals — a degraded link is slow, not dead.
    """
    adjacency: Dict[str, List[Tuple[str, str]]] = {}
    for spec in topology.inter_dc_links():
        adjacency.setdefault(spec.src, []).append(spec.key)
        adjacency.setdefault(spec.dst, []).append(spec.key)

    # directed key -> list of (time, +1/-1) down-cause deltas
    deltas: Dict[Tuple[str, str], List[Tuple[float, int]]] = {}

    def add(key: Tuple[str, str], time_s: float, delta: int) -> None:
        deltas.setdefault(key, []).append((time_s, delta))

    for event in scenario.compiled_events():
        if isinstance(event, LinkDown):
            for key in event.affected_link_keys(None):
                add(key, event.time_s, +1)
        elif isinstance(event, LinkUp):
            add((event.src, event.dst), event.time_s, -1)
            if event.bidirectional:
                add((event.dst, event.src), event.time_s, -1)
        elif isinstance(event, SRLGFailure):
            repairs = event.recovery_times()
            for i, (src, dst) in enumerate(event.links):
                keys = [(src, dst)]
                if event.bidirectional:
                    keys.append((dst, src))
                for key in keys:
                    add(key, event.time_s, +1)
                    if repairs:
                        add(key, repairs[i], -1)
        elif isinstance(event, DCMaintenance):
            for key in adjacency.get(event.dc, ()):
                add(key, event.time_s, +1)
                add(key, event.end_s, -1)
        elif isinstance(event, RegionalPowerEvent):
            blackout, _ = event.classify_dcs(topology)
            dark = set()
            for dc in blackout:
                dark.update(adjacency.get(dc, ()))
            for key in dark:
                add(key, event.time_s, +1)
                add(key, event.end_s, -1)

    intervals: Dict[Tuple[str, str], List[Tuple[float, float]]] = {}
    for key, changes in deltas.items():
        # net the deltas per instant first so a down+up at the same float
        # time (which the runtime applies in timeline order within one
        # engine instant) yields no positive-measure interval
        by_time: Dict[float, int] = {}
        for time_s, delta in changes:
            by_time[time_s] = by_time.get(time_s, 0) + delta
        count = 0
        start: Optional[float] = None
        merged: List[Tuple[float, float]] = []
        for time_s in sorted(by_time):
            previous = count
            count += by_time[time_s]
            if previous == 0 and count > 0:
                start = time_s
            elif previous > 0 and count <= 0 and start is not None:
                if time_s > start:
                    merged.append((start, time_s))
                start = None
        if count > 0 and start is not None:
            merged.append((start, math.inf))
        if merged:
            intervals[key] = merged
    return intervals


def check_no_dead_link_traffic(
    result, scenario: Scenario, topology, monitor: "Optional[DeadLinkMonitor]" = None
) -> None:
    """No completed flow's route was dead for its entire lifetime.

    Combines the live per-step evidence of a :class:`DeadLinkMonitor`
    (when one was attached) with a post-hoc check over the MetricsStore
    path columns: a completed flow's *final* route must not cross a link
    whose (timeline-reconstructed) outage interval covers the whole
    ``[arrival, finish]`` span — a flow cannot make progress, let alone
    complete, on a path that was dead wall-to-wall (re-routes only land
    on fully-healthy paths, so the final route was live at selection
    time).

    Raises:
        InvariantViolation: on any recorded live violation, a stale
            incidence liveness cache, an unknown recorded route hop, or a
            completed flow inside a covering outage interval.
    """
    if monitor is not None and monitor.violations:
        worst = monitor.violations[:5]
        _violate(
            f"dead-link traffic: {len(monitor.violations)} live step "
            f"violations, first {worst}"
        )

    outages = down_intervals(scenario, topology)
    if not outages:
        return
    known = {spec.key for spec in topology.inter_dc_links()}
    store = result.store
    n = len(store)
    flow_ids = store.column("flow_id")
    arrivals = store.column("arrival_s")
    fcts = store.column("fct_s")
    paths = store.path_indices()
    for row in range(n):
        route = store.route(int(paths[row]))
        arrival = float(arrivals[row])
        finish = arrival + float(fcts[row])
        for src, dst in zip(route, route[1:]):
            if (src, dst) not in known:
                _violate(
                    f"dead-link traffic: flow {int(flow_ids[row])} recorded "
                    f"unknown hop {src}->{dst} in route {route}"
                )
            for start, end in outages.get((src, dst), ()):
                if start <= arrival and end >= finish:
                    _violate(
                        f"dead-link traffic: flow {int(flow_ids[row])} "
                        f"completed over {src}->{dst} although the link was "
                        f"down [{start:g}, {end:g}] covering its lifetime "
                        f"[{arrival:g}, {finish:g}]"
                    )


class DeadLinkMonitor:
    """Live step observer: no positive rate over a dead link, ever.

    Attach to a simulation with :meth:`attach` (before ``run()``); after
    every update step it verifies, for each active flow, that a positive
    achieved rate implies every link of its path is up, and — on the
    array core — that the flow×link incidence liveness cache agrees
    with the :class:`~repro.simulator.link.RuntimeLink` objects whenever
    the cache is current.  Violations are collected (not raised) so a run
    completes and :func:`check_no_dead_link_traffic` can report them with
    the post-hoc evidence.
    """

    def __init__(self) -> None:
        self.violations: List[Tuple] = []
        self.steps_observed = 0

    def attach(self, sim) -> "DeadLinkMonitor":
        """Register on a :class:`~repro.simulator.fluid.FluidSimulation`."""
        sim.add_step_observer(self)
        return self

    def __call__(self, sim, now: float) -> None:
        self.steps_observed += 1
        for flow in sim._active:
            if flow.achieved_bps > 0.0:
                for link in flow.path:
                    if not link.up:
                        self.violations.append(
                            ("rate-over-dead-link", now, flow.flow_id, link.key,
                             flow.achieved_bps)
                        )
        incidence = sim._incidence
        if (
            incidence is not None
            and incidence._seen_state_version == RuntimeLink.state_version
        ):
            for slot, link in enumerate(incidence.links):
                if bool(incidence.up[slot]) != bool(link.up):
                    self.violations.append(
                        ("incidence-liveness-stale", now, link.key, slot)
                    )


class StepStateMonitor:
    """Live step observer: the per-step state stays physical (strict check).

    Attach with :meth:`attach` (before ``run()``); after every update step
    it checks, on either core, that every active flow's sending and
    achieved rates are finite and non-negative and its remaining bytes
    non-negative, and that every link queue lies in ``[0, buffer]``.  It
    reads the FlowTable columns and incidence arrays on the array core and
    the flow, controller and link objects on the scalar core, and writes
    nothing.  Violations are collected; :meth:`check` raises on the first.
    """

    def __init__(self) -> None:
        self.violations: List[Tuple] = []
        self.steps_observed = 0

    def attach(self, sim) -> "StepStateMonitor":
        """Register on a :class:`~repro.simulator.fluid.FluidSimulation`."""
        sim.add_step_observer(self)
        return self

    def __call__(self, sim, now: float) -> None:
        self.steps_observed += 1
        flows = sim._active
        table = sim._table
        if table is None:
            sending = np.array([f.cc.rate_bps for f in flows], dtype=float)
            achieved = np.array([f.achieved_bps for f in flows], dtype=float)
            remaining = np.array([f.remaining_bytes for f in flows], dtype=float)
            links = sim.network.all_active_links()
            queue = np.array([link.queue_bytes for link in links], dtype=float)
            buffer = np.array([link.buffer_bytes for link in links], dtype=float)
        else:
            rows = sim._active_rows()
            sending = table.cc_rate_bps[rows]
            achieved = table.achieved_bps[rows]
            remaining = table.remaining_bytes[rows]
            inc = sim._incidence
            links = inc.links
            # every per-link array ends with the sentinel column
            queue, buffer = inc.queue_bytes[:-1], inc.buffer_bytes[:-1]
        for kind, values in (("sending-rate", sending), ("achieved-rate", achieved)):
            for i in np.flatnonzero(~(np.isfinite(values) & (values >= 0.0))).tolist():
                self.violations.append((kind, now, flows[i].flow_id, float(values[i])))
        for i in np.flatnonzero(~(remaining >= 0.0)).tolist():
            self.violations.append(
                ("remaining-bytes", now, flows[i].flow_id, float(remaining[i]))
            )
        for i in np.flatnonzero(~((queue >= 0.0) & (queue <= buffer))).tolist():
            self.violations.append(("queue", now, links[i].key, float(queue[i])))

    def check(self) -> None:
        """Raise on the first recorded violation (no-op when there is none).

        Raises:
            InvariantViolation: naming the quantity, time, flow or link and
                value of the first violation and the total count.
        """
        if self.violations:
            _violate(
                f"step state: {len(self.violations)} violation(s) over "
                f"{self.steps_observed} steps, first {self.violations[0]}"
            )


# ---------------------------------------------------------------------- #
# invariant 3: bounded recovery
# ---------------------------------------------------------------------- #
def _timeline_repair_span(scenario: Scenario) -> Tuple[float, float]:
    """(first cut time, last repair time) of the compiled timeline."""
    first_down = math.inf
    last_up = -math.inf
    for event in scenario.compiled_events():
        if isinstance(event, (LinkDown, SRLGFailure)):
            first_down = min(first_down, event.time_s)
            last_up = max(last_up, event.time_s, *event_recoveries(event))
        elif isinstance(event, (DCMaintenance, RegionalPowerEvent)):
            first_down = min(first_down, event.time_s)
            last_up = max(last_up, event.end_s)
        elif isinstance(event, LinkUp):
            last_up = max(last_up, event.time_s)
    return first_down, last_up


def event_recoveries(event) -> Tuple[float, ...]:
    """Per-link repair instants of an event (empty when none)."""
    recoveries = getattr(event, "recovery_times", None)
    return recoveries() if callable(recoveries) else ()


def check_recovery_bound(
    result,
    scenario: Scenario,
    update_interval_s: float,
    slack_s: float = 1e-9,
    require_drained: bool = True,
) -> None:
    """Every disruption closes, within the timeline's repair span.

    * Per event outcome: ``disrupted == rerouted + restored + failed`` —
      no disruption is left open at the end of a fully drained run.
    * Every recorded re-route and in-place-restore latency is bounded by
      the span between the timeline's first cut and last repair plus one
      update interval (detection granularity): after the last repair the
      network must return to steady state, nothing may stay disrupted
      longer.
    * With ``require_drained`` (the default for fuzz runs, which give
      generous drain headroom) the run must finish with zero unfinished
      flows.

    Raises:
        InvariantViolation: on open disruptions, an out-of-bound recovery
            latency, or residual flows when ``require_drained``.
    """
    metrics = result.scenario_metrics
    if metrics is None:
        return
    for outcome in metrics.outcomes:
        closed = outcome.flows_rerouted + outcome.flows_restored + outcome.flows_failed
        if outcome.flows_disrupted != closed:
            _violate(
                f"recovery: event #{outcome.index} ({outcome.kind}) left "
                f"disruptions open: {outcome.flows_disrupted} disrupted vs "
                f"{outcome.flows_rerouted} rerouted + {outcome.flows_restored} "
                f"restored + {outcome.flows_failed} failed"
            )
    first_down, last_up = _timeline_repair_span(scenario)
    span = max(0.0, last_up - first_down) if last_up > -math.inf else 0.0
    bound = span + update_interval_s + slack_s
    for label, latencies in (
        ("reroute", metrics.reroute_latencies_s()),
        ("restore", metrics.restore_latencies_s()),
    ):
        for latency in latencies:
            if latency > bound:
                _violate(
                    f"recovery: a {label} took {latency:g}s, exceeding the "
                    f"first-cut-to-last-repair bound {bound:g}s"
                )
    if require_drained and result.unfinished_flows:
        _violate(
            f"recovery: {result.unfinished_flows} flows still unfinished at "
            f"the stop time (the run did not return to steady state)"
        )


# ---------------------------------------------------------------------- #
# invariant 4: cross-core bit-identity
# ---------------------------------------------------------------------- #
def assert_results_identical(reference, other, label: str = "") -> None:
    """Two runs produced byte-identical observable results.

    Compares completed-flow records, link stats, run counters and failed
    flows via exact (bitwise, no tolerance) equality — the contract the
    scalar and array cores and the instrumented/uninstrumented modes all
    share.

    Raises:
        InvariantViolation: on the first differing field.
    """
    prefix = f"bit-identity[{label}]: " if label else "bit-identity: "
    ref_records, other_records = reference.records, other.records
    if len(ref_records) != len(other_records):
        _violate(
            f"{prefix}{len(ref_records)} vs {len(other_records)} completed records"
        )
    for a, b in zip(ref_records, other_records):
        if dataclasses.asdict(a) != dataclasses.asdict(b):
            _violate(f"{prefix}record mismatch:\n  {a}\n  {b}")
    for field in (
        "duration_s",
        "unfinished_flows",
        "routing_decisions",
        "monitor_samples",
    ):
        va, vb = getattr(reference, field), getattr(other, field)
        if va != vb:
            _violate(f"{prefix}{field}: {va} vs {vb}")
    if len(reference.link_stats) != len(other.link_stats):
        _violate(f"{prefix}link_stats length differs")
    for a, b in zip(reference.link_stats, other.link_stats):
        if dataclasses.asdict(a) != dataclasses.asdict(b):
            _violate(f"{prefix}link stats mismatch:\n  {a}\n  {b}")
    if len(reference.failed_flows) != len(other.failed_flows):
        _violate(
            f"{prefix}{len(reference.failed_flows)} vs "
            f"{len(other.failed_flows)} failed flows"
        )
    for a, b in zip(reference.failed_flows, other.failed_flows):
        if dataclasses.asdict(a) != dataclasses.asdict(b):
            _violate(f"{prefix}failed flow mismatch:\n  {a}\n  {b}")
    assert_scenario_metrics_identical(reference, other, label=label)


def assert_scenario_metrics_identical(reference, other, label: str = "") -> None:
    """Two runs produced identical per-event scenario outcomes."""
    prefix = f"bit-identity[{label}]: " if label else "bit-identity: "
    a, b = reference.scenario_metrics, other.scenario_metrics
    if (a is None) != (b is None):
        _violate(f"{prefix}scenario metrics present on only one side")
    if a is None:
        return
    if a.scenario_name != b.scenario_name:
        _violate(f"{prefix}scenario name {a.scenario_name!r} vs {b.scenario_name!r}")
    if len(a.outcomes) != len(b.outcomes):
        _violate(f"{prefix}{len(a.outcomes)} vs {len(b.outcomes)} event outcomes")
    for oa, ob in zip(a.outcomes, b.outcomes):
        if dataclasses.asdict(oa) != dataclasses.asdict(ob):
            _violate(f"{prefix}event outcome mismatch:\n  {oa}\n  {ob}")


# ---------------------------------------------------------------------- #
# routing invariants: decision accounting and stranded-flow retries
# ---------------------------------------------------------------------- #
@dataclasses.dataclass
class RevalidateCall:
    """One ``revalidate_flows`` call as a :class:`FailoverRecorder` saw it.

    Attributes:
        now: the call's simulated time.
        stranded: flow id -> ``(src_dc, dst_dc)`` of every flow disrupted
            (and active) when the call began.
        settled: the stranded flows the call attempted to re-route, healed
            in place or re-routed.
    """

    now: float
    stranded: Dict[int, Tuple[str, str]]
    settled: set


@dataclasses.dataclass
class CacheLookup:
    """One flow-cache lookup of a per-flow decision, as a :class:`FailoverRecorder` saw it.

    Attributes:
        now: the decision's simulated time.
        switch: the deciding switch.
        flow_id: the flow.
        cached_port: the egress the flow's cache entry held (None: no entry).
        port_up: whether that egress's link was up at the lookup.
        invalidations: lazy invalidations the decision counted.
    """

    now: float
    switch: str
    flow_id: int
    cached_port: Optional[str]
    port_up: bool
    invalidations: int


class FailoverRecorder:
    """Live recorder behind the routing invariants (ii) to (v).

    Attach with :meth:`attach` (before ``run()``).  It wraps three methods
    of the simulation instance — admission, the re-route attempt and the
    re-validation sweep — to record every admitted flow's endpoints, every
    attempt ``(now, flow_id)`` and, per sweep, which disrupted flows it
    attempted or healed, and the network's two path resolvers to record
    every resolved path.  It also wraps the per-flow ``select`` of every
    router with a flow cache and a liveness tracker (LCMP) to record each
    decision's cache entry and lazy invalidations (:class:`CacheLookup`).
    It changes no simulation state.
    """

    def __init__(self) -> None:
        self.sim = None
        #: flow id -> (src_dc, dst_dc) of every admitted flow
        self.admitted: Dict[int, Tuple[str, str]] = {}
        #: every re-route attempt, in order
        self.attempts: List[Tuple[float, int]] = []
        self.calls: List[RevalidateCall] = []
        self.lookups: List[CacheLookup] = []
        #: ``(flow_id, path)`` of every resolved path, in order
        self.resolved: List[Tuple[int, list]] = []

    def _watch_cache(self, switch) -> None:
        router = switch.router
        select = router.select
        cache, liveness = router.flow_cache, router.liveness

        def watched(dst_dc, candidates, demand, now):
            entry = cache.peek(demand.flow_id)
            port = None if entry is None else entry.out_port
            up = port is not None and switch.port_up(port)
            before = liveness.lazy_invalidations
            try:
                return select(dst_dc, candidates, demand, now)
            finally:
                self.lookups.append(
                    CacheLookup(
                        now, switch.dc, demand.flow_id, port, up,
                        liveness.lazy_invalidations - before,
                    )
                )

        router.select = watched

    def attach(self, sim) -> "FailoverRecorder":
        """Wrap ``sim``'s admission, re-route and re-validation methods."""
        self.sim = sim
        for switch in sim.network.switches.values():
            router = switch.router
            if hasattr(router, "flow_cache") and hasattr(router, "liveness"):
                self._watch_cache(switch)
        append_active = sim._append_active
        reroute = sim._reroute_flow
        revalidate = sim.revalidate_flows

        def admit(flow):
            self.admitted[flow.flow_id] = (flow.demand.src_dc, flow.demand.dst_dc)
            return append_active(flow)

        def attempt(flow, now):
            self.attempts.append((now, flow.flow_id))
            return reroute(flow, now)

        def sweep(now):
            before = {f.flow_id: f for f in sim._active if f.disrupted_s is not None}
            first = len(self.attempts)
            revalidate(now)
            settled = {fid for _, fid in self.attempts[first:]}
            settled.update(
                fid
                for fid, f in before.items()
                if f._active_pos >= 0 and f.disrupted_s is None
            )
            self.calls.append(
                RevalidateCall(
                    now,
                    {fid: (f.demand.src_dc, f.demand.dst_dc) for fid, f in before.items()},
                    settled & before.keys(),
                )
            )

        network = sim.network
        resolve_one = network.resolve_path
        resolve_batch = network.resolve_paths_batch

        def resolve_path(demand, now):
            path = resolve_one(demand, now)
            self.resolved.append((demand.flow_id, path))
            return path

        def resolve_paths_batch(demands, times):
            paths = resolve_batch(demands, times)
            self.resolved.extend(zip([d.flow_id for d in demands], paths))
            return paths

        sim._append_active = admit
        sim._reroute_flow = attempt
        sim.revalidate_flows = sweep
        network.resolve_path = resolve_path
        network.resolve_paths_batch = resolve_paths_batch
        return self


def check_loop_free_paths(recorder: FailoverRecorder) -> None:
    """Routing invariant (ii): every resolved path is loop-free and bounded.

    Every path the run resolved, at admission or on a re-route attempt,
    visits each DC at most once and crosses at most ``_MAX_RESOLVE_HOPS``
    inter-DC links: the walk never re-enters a visited DC and gives up past
    that many hops.  (The array core's path grid is as wide as the longest
    active path, so a looping path would also widen every step it is on.)

    Raises:
        InvariantViolation: naming the flow and its DC sequence.
    """
    for flow_id, path in recorder.resolved:
        # a path is [source NIC uplink, inter-DC links..., destination NIC
        # downlink]; each link after the first leaves the next DC on the walk
        dcs = [link.spec.src for link in path[1:]]
        hops = len(path) - 2
        if hops > _MAX_RESOLVE_HOPS:
            _violate(
                f"loop-free path: flow {flow_id} resolved {hops} inter-DC hops, "
                f"over the {_MAX_RESOLVE_HOPS}-hop bound"
            )
        if len(set(dcs)) != len(dcs):
            _violate(
                f"loop-free path: flow {flow_id} resolved {'->'.join(dcs)}, "
                f"which revisits a DC"
            )


def check_decision_accounting(recorder: FailoverRecorder) -> None:
    """Routing invariant (iii): decisions = admissions + re-route attempts.

    Every inter-DC walk — an admission or a re-route attempt — makes its
    first decision at the flow's source DC switch, so after the run the
    DecisionLog rows there carry each admitted inter-DC flow at least once
    and total the admitted inter-DC flows plus the simulation's
    ``failover.reroute_attempts`` counter.

    Raises:
        InvariantViolation: when the recorded attempts disagree with the
            counter, an admitted inter-DC flow has no source decision, or
            the totals differ.
    """
    sim = recorder.sim
    attempts = sim._reroute_attempts
    if attempts != len(recorder.attempts):
        _violate(
            f"decision accounting: failover.reroute_attempts is {attempts} but "
            f"{len(recorder.attempts)} attempts were recorded"
        )
    source_of = {
        fid: src for fid, (src, dst) in recorder.admitted.items() if src != dst
    }
    rows: Dict[int, int] = {}
    for dc, switch in sim.network.switches.items():
        log = switch.decision_log
        for fid in log.flow_id[: len(log)].tolist():
            if source_of.get(fid) == dc:
                rows[fid] = rows.get(fid, 0) + 1
    missing = sorted(set(source_of) - set(rows))
    if missing:
        _violate(
            f"decision accounting: admitted inter-DC flows {missing[:5]} have "
            f"no decision at their source switch"
        )
    total = sum(rows.values())
    if total != len(source_of) + attempts:
        _violate(
            f"decision accounting: {total} decisions at source switches, but "
            f"{len(source_of)} admitted inter-DC flows + {attempts} re-route "
            f"attempts = {len(source_of) + attempts}"
        )


def check_stranded_retry(recorder: FailoverRecorder, scenario: Scenario) -> None:
    """Routing invariant (v): every link-up retries the flows it could help.

    For each repair instant ``t`` of each directed link (the finite ends of
    :func:`down_intervals`) and each flow stranded in a re-validation sweep
    at ``t`` one of whose candidate paths (from the run's path set) crosses
    that link: some sweep at ``t`` in which the flow was stranded attempted
    to re-route it or found its path healed.

    Raises:
        InvariantViolation: naming the link, the instant and the flow that
            was left waiting.
    """
    sim = recorder.sim
    pathset = sim.network.pathset
    outages = down_intervals(scenario, sim.network.topology)
    repairs: Dict[float, List[Tuple[str, str]]] = {}
    for key, spans in outages.items():
        for _, end in spans:
            if end < math.inf:
                repairs.setdefault(end, []).append(key)
    if not repairs:
        return
    hops_of: Dict[Tuple[str, str], set] = {}

    def candidate_hops(pair: Tuple[str, str]) -> set:
        hops = hops_of.get(pair)
        if hops is None:
            hops = set()
            for candidate in pathset.candidates(*pair):
                hops.update(zip(candidate.dcs, candidate.dcs[1:]))
            hops_of[pair] = hops
        return hops

    by_time: Dict[float, List[RevalidateCall]] = {}
    for call in recorder.calls:
        if call.now in repairs:
            by_time.setdefault(call.now, []).append(call)
    for t, calls in by_time.items():
        waiting: Dict[int, Tuple[str, str]] = {}
        settled: set = set()
        for call in calls:
            waiting.update(call.stranded)
            settled |= call.settled
        for fid, pair in waiting.items():
            if fid in settled:
                continue
            for key in repairs[t]:
                if key in candidate_hops(pair):
                    _violate(
                        f"stranded retry: flow {fid} ({pair[0]}->{pair[1]}) was "
                        f"neither retried nor healed when {key[0]}->{key[1]}, "
                        f"one of its candidate hops, came back at {t:g}s"
                    )


def _event_instants(scenario: Scenario) -> Dict[float, int]:
    """How many timeline entries (events, repairs, window ends) fall on each instant."""
    counts: Dict[float, int] = {}
    for event in scenario.compiled_events():
        instants = [event.time_s]
        if isinstance(event, (DCMaintenance, RegionalPowerEvent)):
            instants.append(event.end_s)
        elif isinstance(event, SRLGFailure):
            instants.extend(event.recovery_times())
        for t in instants:
            counts[t] = counts.get(t, 0) + 1
    return counts


def _down_at(spans: List[Tuple[float, float]], t: float, instants: Dict[float, int]) -> Optional[bool]:
    """Whether a link with outage ``spans`` is down for decisions at ``t``.

    A scenario event fires before every decision at its instant, so a link
    cut at ``t`` is down and one repaired at ``t`` is up.  When several
    timeline entries share ``t``, decisions may run between them, and a
    link that changes at ``t`` is ``None`` (either).
    """
    for start, end in spans:
        if start < t < end:
            return True
        if t == start or t == end:
            return None if instants.get(t, 0) > 1 else t == start
    return False


def check_live_first_hop(recorder: FailoverRecorder, scenario: Scenario) -> None:
    """Routing invariant (i): no dead first hop while a live candidate exists.

    Replays every switch's DecisionLog: the rows of one flow at one instant
    form its walk (source first, each next switch the previous choice), so
    each decision's loop-free candidates are the path set's candidates whose
    first hop the walk has not visited.  A decision whose chosen first hop
    is down (per :func:`down_intervals`) while one of those candidates'
    first hops is up is a violation.  Links whose state is ambiguous at the
    decision's instant (see :func:`_down_at`) are skipped.

    Raises:
        InvariantViolation: naming the switch, flow, instant and both hops.
    """
    network = recorder.sim.network
    outages = down_intervals(scenario, network.topology)
    if not outages:
        return
    instants = _event_instants(scenario)
    walks: Dict[Tuple[int, float], Dict[str, list]] = {}
    for dc, switch in network.switches.items():
        for d in switch.decisions:
            walks.setdefault((d.flow_id, d.time_s), {}).setdefault(dc, []).append(d)
    for (flow_id, t), rows in walks.items():
        if any(len(r) > 1 for r in rows.values()):
            continue  # several walks of one flow at one instant: no single order
        chosen_hops = {r[0].chosen.first_hop for r in rows.values()}
        sources = [dc for dc in rows if dc not in chosen_hops]
        if len(sources) != 1:
            continue
        current, visited = sources[0], {sources[0]}
        while current in rows:
            decision = rows[current][0]
            hop = decision.chosen.first_hop
            if _down_at(outages.get((current, hop), []), t, instants):
                for candidate in network.pathset.candidates(current, decision.dst_dc):
                    other = candidate.first_hop
                    if other in visited:
                        continue
                    if _down_at(outages.get((current, other), []), t, instants) is False:
                        _violate(
                            f"live first hop: {current} sent flow {flow_id} to dead "
                            f"{current}->{hop} at {t:g}s while {current}->{other} was up"
                        )
            visited.add(hop)
            current = hop


def check_lazy_invalidation(recorder: FailoverRecorder) -> None:
    """Routing invariant (iv): a cached entry on a dead port is lazily invalidated.

    Every recorded flow-cache lookup (:class:`CacheLookup`) that found the
    flow's entry on a port whose link was down must count exactly one lazy
    invalidation, and one on a port whose link was up none.  The link state
    is the switch's own port state at the lookup, which the dead-link
    monitor checks against the timeline; the router's liveness tracker,
    which the telemetry plane feeds, is what this invariant checks.

    Raises:
        InvariantViolation: naming the switch, flow, port and instant.
    """
    for lookup in recorder.lookups:
        if lookup.cached_port is None:
            continue
        if lookup.invalidations != int(not lookup.port_up):
            state = "live" if lookup.port_up else "dead"
            _violate(
                f"lazy invalidation: {lookup.switch} looked up flow {lookup.flow_id} "
                f"cached on {state} port {lookup.cached_port} at {lookup.now:g}s and "
                f"counted {lookup.invalidations} lazy invalidations"
            )
