"""Hypothesis strategies for randomized scenario timelines.

The scenario fuzzer draws a :class:`FuzzCase` — a small topology, a random
demand matrix, a random (always-valid) event timeline and a congestion
control fleet — and the harness in ``tests/scenarios/fuzz`` runs it on
every simulation core, asserting the global invariants of
:mod:`repro.scenarios.invariants`.

Design decisions that keep generated cases *meaningful*:

* **Coarse time grid.**  Every event and arrival time is a multiple of
  :data:`TIME_STEP_S`, so coincident timestamps (an arrival exactly at a
  cut, a repair exactly at a maintenance start) are common rather than
  measure-zero — the interesting orderings get exercised constantly.
* **Every cut is repaired.**  Link cuts always pair with recoveries,
  SRLG failures always carry a repair schedule, maintenance and power
  windows auto-close.  Timelines still overlap arbitrarily (an SRLG cut
  inside a maintenance window, a drain racing a surge), but a drained
  run is always reachable, which lets the harness assert bounded
  recovery and zero residual flows.
* **Small topologies, slow links.**  Three- and four-DC topologies with
  ~1 Gbps conduits keep runs in the tens of milliseconds of simulated
  time while guaranteeing that mid-run events actually hit in-flight
  flows.

This module is import-guarded: it requires the optional ``hypothesis``
test dependency and is deliberately *not* re-exported from
:mod:`repro.scenarios`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

try:
    from hypothesis import strategies as st
except ImportError as exc:  # pragma: no cover - exercised only without test deps
    raise ImportError(
        "repro.scenarios.fuzz requires the optional 'hypothesis' dependency "
        "(install the project's [test] extra)"
    ) from exc

from ..simulator.flow import FlowDemand
from ..topology.graph import GBPS, MS, Topology
from ..topology.paths import PathSet
from .events import (
    CapacityChange,
    DCMaintenance,
    LinkDown,
    LinkUp,
    MaintenanceCalendar,
    RegionalPowerEvent,
    Scenario,
    ScenarioEvent,
    SRLGFailure,
    TrafficDrain,
    TrafficSurge,
)

__all__ = [
    "TIME_STEP_S",
    "TIME_GRID",
    "FuzzTopologySpec",
    "FUZZ_TOPOLOGIES",
    "FuzzCase",
    "build_fuzz_topology",
    "build_fuzz_pathset",
    "grid_times",
    "scenarios",
    "demand_sets",
    "cc_fleets",
    "fuzz_cases",
]

#: resolution of the fuzzer's time grid (multiples of 5 ms)
TIME_STEP_S = 5e-3

#: every instant the fuzzer schedules events or arrivals at
TIME_GRID: Tuple[float, ...] = tuple(round(i * TIME_STEP_S, 6) for i in range(1, 21))


@dataclass(frozen=True)
class FuzzTopologySpec:
    """A small fuzzing topology plus the metadata strategies draw from.

    Attributes:
        name: registry key.
        build: zero-argument topology builder.
        pairs: (src, dst) DC pairs demands and surges are drawn from —
            chosen so every pair has at least two candidate paths (a cut
            leaves somewhere to re-route to).
        links: undirected inter-DC conduits, as (dc_a, dc_b) pairs.
        conduits: named SRLG groups (bundles that fail together).
        regions / tiers: label values present in the topology, for
            regional power event filters.
        maintainable: DCs that can enter maintenance without isolating a
            demand endpoint permanently.
    """

    name: str
    build: Callable[[], Topology]
    pairs: Tuple[Tuple[str, str], ...]
    links: Tuple[Tuple[str, str], ...]
    conduits: Dict[str, Tuple[Tuple[str, str], ...]]
    regions: Tuple[str, ...]
    tiers: Tuple[str, ...]
    maintainable: Tuple[str, ...]


def _build_triangle() -> Topology:
    """Three DCs, fully meshed: every pair has a direct and a relay path."""
    topo = Topology("fuzz-triangle")
    topo.add_dc("DCA", region="west", tier="tier4", power_redundancy="2N")
    topo.add_dc("DCB", region="west", tier="tier3", power_redundancy="N")
    topo.add_dc("DCC", region="east", tier="tier3", power_redundancy="N+1")
    for a, b, delay in (("DCA", "DCB", 1.0), ("DCB", "DCC", 1.0), ("DCA", "DCC", 2.0)):
        topo.add_inter_dc_link(a, b, cap_bps=1 * GBPS, delay_s=delay * MS)
    for dc in topo.dcs:
        topo.add_hosts(dc, count=4, nic_bps=1 * GBPS)
    topo.validate()
    return topo


def _build_diamond() -> Topology:
    """Four DCs in a braced diamond: DC1->DC4 has three candidate routes."""
    topo = Topology("fuzz-diamond")
    topo.add_dc("DC1", region="west", tier="tier4", power_redundancy="2N")
    topo.add_dc("DC2", region="west", tier="tier3", power_redundancy="N")
    topo.add_dc("DC3", region="east", tier="tier3", power_redundancy="N+1")
    topo.add_dc("DC4", region="east", tier="tier4", power_redundancy="2N")
    for a, b, delay in (
        ("DC1", "DC2", 1.0),
        ("DC1", "DC3", 2.0),
        ("DC2", "DC4", 1.0),
        ("DC3", "DC4", 2.0),
        ("DC2", "DC3", 1.0),
    ):
        topo.add_inter_dc_link(a, b, cap_bps=1 * GBPS, delay_s=delay * MS)
    for dc in topo.dcs:
        topo.add_hosts(dc, count=4, nic_bps=1 * GBPS)
    topo.validate()
    return topo


FUZZ_TOPOLOGIES: Dict[str, FuzzTopologySpec] = {
    "triangle": FuzzTopologySpec(
        name="triangle",
        build=_build_triangle,
        pairs=(("DCA", "DCC"), ("DCC", "DCA"), ("DCA", "DCB")),
        links=(("DCA", "DCB"), ("DCB", "DCC"), ("DCA", "DCC")),
        conduits={
            "west-conduit": (("DCA", "DCB"),),
            "relay-conduit": (("DCA", "DCB"), ("DCB", "DCC")),
        },
        regions=("west", "east"),
        tiers=("tier3", "tier4"),
        maintainable=("DCB",),
    ),
    "diamond": FuzzTopologySpec(
        name="diamond",
        build=_build_diamond,
        pairs=(("DC1", "DC4"), ("DC4", "DC1")),
        links=(
            ("DC1", "DC2"),
            ("DC1", "DC3"),
            ("DC2", "DC4"),
            ("DC3", "DC4"),
            ("DC2", "DC3"),
        ),
        conduits={
            "north-conduit": (("DC1", "DC2"), ("DC2", "DC4")),
            "south-conduit": (("DC1", "DC3"), ("DC3", "DC4")),
            "brace": (("DC2", "DC3"),),
        },
        regions=("west", "east"),
        tiers=("tier3", "tier4"),
        maintainable=("DC2", "DC3"),
    ),
}


def build_fuzz_topology(name: str) -> Topology:
    """Instantiate a registered fuzzing topology by name."""
    return FUZZ_TOPOLOGIES[name].build()


def build_fuzz_pathset(topology: Topology) -> PathSet:
    """The candidate path set the fuzz harness routes over."""
    return PathSet(topology, max_candidates=4, max_extra_hops=1)


@dataclass(frozen=True)
class FuzzCase:
    """One generated fuzz input: everything needed to run a simulation.

    Attributes:
        topology_name: key into :data:`FUZZ_TOPOLOGIES`.
        scenario: the generated (valid, always-repaired) event timeline.
        demands: the base traffic matrix, arrivals on the time grid.
        cc: congestion control — an algorithm name or a mixed-fleet
            ``((name, share), ...)`` tuple.
        seed: simulation seed.
    """

    topology_name: str
    scenario: Scenario
    demands: Tuple[FlowDemand, ...]
    cc: object
    seed: int

    def __repr__(self) -> str:  # keep falsifying examples readable
        timeline = "; ".join(e.describe() for e in self.scenario.compiled_events())
        return (
            f"FuzzCase(topology={self.topology_name!r}, cc={self.cc!r}, "
            f"seed={self.seed}, demands={len(self.demands)}, "
            f"timeline=[{timeline}])"
        )


def grid_times(max_steps: int = 12) -> st.SearchStrategy:
    """Times on the fuzzer grid: ``TIME_STEP_S`` .. ``max_steps`` steps."""
    return st.sampled_from(TIME_GRID[:max_steps])


def _durations(max_steps: int = 6) -> st.SearchStrategy:
    return st.sampled_from(tuple(round(i * TIME_STEP_S, 6) for i in range(1, max_steps + 1)))


# ------------------------------------------------------------------ #
# event stories: each draws a short, internally-consistent event group
# ------------------------------------------------------------------ #
@st.composite
def _link_cut_stories(draw, spec: FuzzTopologySpec):
    """A link cut that is always repaired (possibly at the same instant)."""
    src, dst = draw(st.sampled_from(spec.links))
    at = draw(grid_times())
    gap = draw(st.sampled_from((0.0,) + tuple(round(i * TIME_STEP_S, 6) for i in range(1, 9))))
    bidirectional = draw(st.booleans())
    return (
        LinkDown(time_s=at, src=src, dst=dst, bidirectional=bidirectional),
        LinkUp(time_s=round(at + gap, 6), src=src, dst=dst, bidirectional=bidirectional),
    )


@st.composite
def _capacity_stories(draw, spec: FuzzTopologySpec):
    """A capacity dip, always restored to the full rate later."""
    src, dst = draw(st.sampled_from(spec.links))
    at = draw(grid_times(max_steps=16))
    gap = draw(_durations())
    factor = draw(st.sampled_from((0.25, 0.5, 0.75)))
    return (
        CapacityChange(time_s=at, src=src, dst=dst, factor=factor),
        CapacityChange(time_s=round(at + gap, 6), src=src, dst=dst, factor=1.0),
    )


@st.composite
def _srlg_stories(draw, spec: FuzzTopologySpec):
    """A named conduit cut with a (possibly staggered) repair schedule."""
    name = draw(st.sampled_from(sorted(spec.conduits)))
    at = draw(grid_times(max_steps=12))
    gap = draw(_durations())
    stagger = draw(st.sampled_from((0.0, TIME_STEP_S)))
    return (
        SRLGFailure(
            time_s=at,
            name=name,
            links=spec.conduits[name],
            recover_at_s=round(at + gap, 6),
            stagger_s=stagger,
        ),
    )


@st.composite
def _maintenance_stories(draw, spec: FuzzTopologySpec):
    """A single maintenance window on a relay DC."""
    dc = draw(st.sampled_from(spec.maintainable))
    at = draw(grid_times(max_steps=14))
    return (DCMaintenance(time_s=at, dc=dc, duration_s=draw(_durations())),)


@st.composite
def _calendar_stories(draw, spec: FuzzTopologySpec):
    """A recurring maintenance calendar (back-to-back windows allowed)."""
    dc = draw(st.sampled_from(spec.maintainable))
    at = draw(grid_times(max_steps=6))
    window = draw(_durations(max_steps=3))
    period = round(window + draw(st.sampled_from((0.0, TIME_STEP_S, 2 * TIME_STEP_S))), 6)
    occurrences = draw(st.integers(min_value=1, max_value=3))
    return (
        MaintenanceCalendar(
            time_s=at, dc=dc, window_s=window, period_s=period, occurrences=occurrences
        ),
    )


@st.composite
def _power_stories(draw, spec: FuzzTopologySpec):
    """A regional power event; 2N facilities always ride through."""
    if draw(st.booleans()):
        region, tier = draw(st.sampled_from(spec.regions)), None
    else:
        region, tier = None, draw(st.sampled_from(spec.tiers))
    return (
        RegionalPowerEvent(
            time_s=draw(grid_times(max_steps=12)),
            region=region,
            tier=tier,
            duration_s=draw(_durations()),
            survives_redundancy="2N",
            degraded_factor=draw(st.sampled_from((0.5, 1.0))),
        ),
    )


@st.composite
def _surge_stories(draw, spec: FuzzTopologySpec):
    """An extra flow batch injected mid-run."""
    return (
        TrafficSurge(
            time_s=draw(grid_times(max_steps=12)),
            pairs=(draw(st.sampled_from(spec.pairs)),),
            load=draw(st.sampled_from((0.5, 1.0))),
            num_flows=draw(st.integers(min_value=2, max_value=4)),
            seed=draw(st.integers(min_value=1, max_value=2**16)),
        ),
    )


@st.composite
def _drain_stories(draw, spec: FuzzTopologySpec):
    """Cancel a hash-selected fraction of the pending demands."""
    src, dst = draw(st.sampled_from(spec.pairs))
    scope = draw(st.sampled_from(("src", "dst", "both", "any")))
    return (
        TrafficDrain(
            time_s=draw(grid_times(max_steps=12)),
            src_dc=src if scope in ("src", "both") else None,
            dst_dc=dst if scope in ("dst", "both") else None,
            fraction=draw(st.sampled_from((0.25, 0.5, 1.0))),
        ),
    )


def _stories(spec: FuzzTopologySpec) -> st.SearchStrategy:
    return st.one_of(
        _link_cut_stories(spec),
        _capacity_stories(spec),
        _srlg_stories(spec),
        _maintenance_stories(spec),
        _calendar_stories(spec),
        _power_stories(spec),
        _surge_stories(spec),
        _drain_stories(spec),
    )


@st.composite
def scenarios(draw, topology_name: str, max_stories: int = 4) -> Scenario:
    """A valid scenario for a registered fuzz topology.

    Concatenates 1..``max_stories`` independent event stories; stories
    overlap freely in time (that is the point), but each story repairs
    what it breaks, so the timeline as a whole always heals.
    """
    spec = FUZZ_TOPOLOGIES[topology_name]
    stories = draw(st.lists(_stories(spec), min_size=1, max_size=max_stories))
    events: Tuple[ScenarioEvent, ...] = tuple(e for story in stories for e in story)
    return Scenario(
        name=f"fuzz-{topology_name}",
        events=events,
        stranded_timeout_s=draw(st.sampled_from((0.02, 0.05))),
    )


@st.composite
def demand_sets(
    draw,
    topology_name: str,
    min_flows: int = 8,
    max_flows: int = 25,
) -> Tuple[FlowDemand, ...]:
    """A base traffic matrix with on-grid arrivals (ties with events)."""
    spec = FUZZ_TOPOLOGIES[topology_name]
    count = draw(st.integers(min_value=min_flows, max_value=max_flows))
    demands = []
    for flow_id in range(count):
        src, dst = draw(st.sampled_from(spec.pairs))
        demands.append(
            FlowDemand(
                flow_id=flow_id,
                src_dc=src,
                dst_dc=dst,
                src_host=draw(st.integers(min_value=0, max_value=3)),
                dst_host=draw(st.integers(min_value=0, max_value=3)),
                size_bytes=draw(st.integers(min_value=200_000, max_value=1_500_000)),
                arrival_s=draw(st.sampled_from((0.0,) + TIME_GRID[:8])),
            )
        )
    demands.sort(key=lambda d: (d.arrival_s, d.flow_id))
    return tuple(demands)


def cc_fleets() -> st.SearchStrategy:
    """A congestion control choice: uniform fleet or a mixed one."""
    return st.sampled_from(
        (
            "dcqcn",
            "hpcc",
            "timely",
            (("dcqcn", 0.6), ("hpcc", 0.2), ("timely", 0.2)),
            (("dcqcn", 0.5), ("timely", 0.5)),
        )
    )


@st.composite
def fuzz_cases(draw, topology_name: Optional[str] = None) -> FuzzCase:
    """A complete fuzz input; see :class:`FuzzCase`."""
    name = topology_name or draw(st.sampled_from(sorted(FUZZ_TOPOLOGIES)))
    return FuzzCase(
        topology_name=name,
        scenario=draw(scenarios(name)),
        demands=draw(demand_sets(name)),
        cc=draw(cc_fleets()),
        seed=draw(st.integers(min_value=1, max_value=2**16)),
    )
