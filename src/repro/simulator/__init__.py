"""Fluid flow-level discrete-event network simulator.

The substrate that replaces the paper's NS-3 simulations (see DESIGN.md for
the substitution rationale).  Public entry points:

* :class:`~repro.simulator.engine.SimulationEngine` — the event loop.
* :class:`~repro.simulator.network.RuntimeNetwork` — runtime topology state.
* :class:`~repro.simulator.fluid.FluidSimulation` — one simulation run.
* :class:`~repro.simulator.config.SimulationConfig` — tunables.

A small run on the array core (the default; ``vectorized=False`` selects
the scalar reference core, which gives bit-identical results)::

    from repro.congestion_control import make_cc_factory
    from repro.routing import make_router_factory
    from repro.simulator import FluidSimulation, RuntimeNetwork, SimulationConfig
    from repro.topology import build_testbed8, testbed8_pathset
    from repro.workloads import TrafficConfig, TrafficGenerator

    topology = build_testbed8(capacity_scale=0.1)
    paths = testbed8_pathset(topology)
    config = SimulationConfig(seed=1)
    traffic = TrafficConfig(workload="websearch", load=0.3, num_flows=50,
                            pairs=[("DC1", "DC8"), ("DC8", "DC1")], seed=1)
    demands = TrafficGenerator(topology, paths, traffic).generate()
    network = RuntimeNetwork(topology, paths, make_router_factory("ecmp"), config)
    result = FluidSimulation(network, demands, make_cc_factory("dcqcn"), config).run()
    len(result.records)                  # 50: every flow completed
    result.store.slowdowns()             # per-flow FCT slowdowns (numpy)
"""

from .config import SimulationConfig
from .engine import Event, EventQueue, SimulationEngine, SimulationError
from .fct import FCTCollector, FlowRecord, IdealFctModel, MetricsStore
from .flow import FeedbackSignal, Flow, FlowDemand
from .flow_table import ColumnBlock, FlowTable
from .fluid import FlowFailure, FluidSimulation, LinkStats, SimulationResult
from .incidence import FlowLinkIncidence
from .link import RuntimeLink
from .monitor import LinkTrace, LinkTraceSample
from .network import RoutingLoopError, RuntimeNetwork
from .switch import DCISwitch, DecisionLog, RoutingDecision
from .telemetry import TelemetryPlane, TelemetryView

__all__ = [
    "SimulationConfig",
    "SimulationEngine",
    "SimulationError",
    "Event",
    "EventQueue",
    "FCTCollector",
    "FlowRecord",
    "IdealFctModel",
    "MetricsStore",
    "FeedbackSignal",
    "Flow",
    "FlowDemand",
    "FlowFailure",
    "FluidSimulation",
    "LinkStats",
    "SimulationResult",
    "RuntimeLink",
    "FlowLinkIncidence",
    "FlowTable",
    "ColumnBlock",
    "LinkTrace",
    "LinkTraceSample",
    "RoutingLoopError",
    "RuntimeNetwork",
    "DCISwitch",
    "DecisionLog",
    "RoutingDecision",
    "TelemetryPlane",
    "TelemetryView",
]
