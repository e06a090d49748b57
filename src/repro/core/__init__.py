"""LCMP core: the paper's primary contribution.

* :class:`~repro.core.config.LCMPConfig` — every weight/shift/threshold.
* :mod:`~repro.core.path_quality` — Alg. 1 / Alg. 2 / Eq. 2 (C_path).
* :mod:`~repro.core.congestion` — the on-switch Q/T/D estimator (C_cong):
  per-port registers as columns of a :class:`CongestionRegisters` block,
  updated for many ports per vector pass by :class:`CongestionEstimator`.
* :func:`~repro.core.selection.reduce_set` — Eq. 1 cost fusion, the herd
  check and the low-cost filter of one candidate set, on plain integers;
  a flow then hashes into the reduced set it returns.
* :mod:`~repro.core.flow_cache` — bounded flow2output mapping + GC.
* :mod:`~repro.core.control_plane` — slow-path provisioning.
* :class:`~repro.core.lcmp_router.LCMPRouter` — the full data-plane pipeline
  (registered in the router registry as ``"lcmp"``).  In a simulation the
  telemetry plane's :class:`~repro.core.lcmp_router.LCMPTelemetryFeed`
  keeps every LCMP switch's registers in one block and updates them in one
  pass per sweep; each switch reads only its own rows.
* :mod:`~repro.core.resource_model` — the §4 resource accounting.

:func:`lcmp_router_factory` provisions one router per DCI switch from the
control plane; plug it into a runtime network, or ask a router directly::

    from repro.core import lcmp_router_factory
    from repro.simulator import FlowDemand
    from repro.topology import build_testbed8, testbed8_pathset

    topology = build_testbed8()
    paths = testbed8_pathset(topology)
    router = lcmp_router_factory(topology, paths)("DC1")
    flow = FlowDemand(1, "DC1", "DC8", 0, 0, 10**6, 0.0)
    router.select("DC8", paths.candidates("DC1", "DC8"), flow, now=0.0).dcs
    router.stats()["decisions"]          # 1

A router outside a simulation takes monitor samples directly; its
registers and C_cong live in its own rows::

    from repro.simulator import TelemetryView
    import numpy as np

    view = TelemetryView("DC1", ("DC7",), np.array([8e6]), np.zeros(1),
                         np.array([40e9]), np.array([512e6]), np.ones(1, bool))
    router.on_telemetry(view, now=0.001)
    router.registers.c_cong_list[router.port_rows["DC7"]]   # C_cong of DC1->DC7
"""

from .config import LCMPConfig
from .congestion import CongestionEstimator, CongestionRegisters
from .control_plane import ControlPlane, lcmp_router_factory
from .failover import PortLivenessTracker
from .flow_cache import FlowCache, FlowCacheEntry
from .lcmp_router import LCMPRouter, LCMPTelemetryFeed
from .path_quality import (
    calc_delay_cost,
    calc_link_cap_cost,
    candidate_path_quality,
    path_quality_score,
)
from .resource_model import (
    PER_FLOW_BYTES,
    PER_PORT_BYTES,
    ResourceEstimate,
    estimate,
    flow_cache_bytes,
    per_new_flow_ops,
    port_cache_bytes,
)
from .selection import reduce_set
from .switch_tables import SwitchTables, lookup_level

__all__ = [
    "LCMPConfig",
    "CongestionEstimator",
    "CongestionRegisters",
    "ControlPlane",
    "lcmp_router_factory",
    "PortLivenessTracker",
    "FlowCache",
    "FlowCacheEntry",
    "LCMPRouter",
    "LCMPTelemetryFeed",
    "calc_delay_cost",
    "calc_link_cap_cost",
    "candidate_path_quality",
    "path_quality_score",
    "ResourceEstimate",
    "estimate",
    "flow_cache_bytes",
    "port_cache_bytes",
    "per_new_flow_ops",
    "PER_FLOW_BYTES",
    "PER_PORT_BYTES",
    "reduce_set",
    "SwitchTables",
    "lookup_level",
]
