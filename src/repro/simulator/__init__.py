"""Fluid flow-level discrete-event network simulator.

The substrate that replaces the paper's NS-3 simulations (see DESIGN.md for
the substitution rationale).  Public entry points:

* :class:`~repro.simulator.engine.SimulationEngine` — the event loop.
* :class:`~repro.simulator.network.RuntimeNetwork` — runtime topology state.
* :class:`~repro.simulator.fluid.FluidSimulation` — one simulation run.
* :class:`~repro.simulator.config.SimulationConfig` — tunables.
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
