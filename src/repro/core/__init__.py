"""LCMP core: the paper's primary contribution.

* :class:`~repro.core.config.LCMPConfig` — every weight/shift/threshold.
* :mod:`~repro.core.path_quality` — Alg. 1 / Alg. 2 / Eq. 2 (C_path).
* :mod:`~repro.core.congestion` — the on-switch Q/T/D estimator (C_cong).
* :mod:`~repro.core.cost_fusion` — Eq. 1 (fused cost).
* :mod:`~repro.core.selection` — filter + diversity-preserving hash.
* :mod:`~repro.core.flow_cache` — bounded flow2output mapping + GC.
* :mod:`~repro.core.control_plane` — slow-path provisioning.
* :class:`~repro.core.lcmp_router.LCMPRouter` — the full data-plane pipeline
  (registered in the router registry as ``"lcmp"``).
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
"""

from .config import LCMPConfig
from .congestion import CongestionEstimator, PortCongestionState
from .control_plane import ControlPlane, lcmp_router_factory
from .cost_fusion import PathCost, fuse_cost, score_candidates
from .failover import PortLivenessTracker
from .flow_cache import FlowCache, FlowCacheEntry
from .lcmp_router import LCMPRouter
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
from .selection import SelectionOutcome, filter_candidates, select_path
from .switch_tables import SwitchTables, lookup_level

__all__ = [
    "LCMPConfig",
    "CongestionEstimator",
    "PortCongestionState",
    "ControlPlane",
    "lcmp_router_factory",
    "PathCost",
    "fuse_cost",
    "score_candidates",
    "PortLivenessTracker",
    "FlowCache",
    "FlowCacheEntry",
    "LCMPRouter",
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
    "SelectionOutcome",
    "filter_candidates",
    "select_path",
    "SwitchTables",
    "lookup_level",
]
