"""Inter-datacenter topology models and candidate-path enumeration.

Public entry points:

* :class:`~repro.topology.graph.Topology` — the topology data model.
* :func:`~repro.topology.testbed8.build_testbed8` — the 8-DC evaluation
  topology (paper Fig. 1a / 4a).
* :func:`~repro.topology.bso13.build_bso13` — the 13-DC Europe-spanning
  topology (paper Fig. 4b).
* :class:`~repro.topology.paths.PathSet` — candidate paths per DC pair.
"""

from .graph import (
    GBPS,
    MBPS,
    MS,
    POWER_REDUNDANCY_LEVELS,
    US,
    DCAttrs,
    HostGroup,
    LinkSpec,
    Node,
    NodeKind,
    Topology,
    TopologyError,
    power_redundancy_rank,
)
from .generators import CONTINENT_400, FabricSpec, build_fabric, fabric_pathset
from .index import TopologyIndex
from .paths import (
    CandidatePath,
    PathSet,
    PathView,
    enumerate_paths,
    shortest_delay_path,
)
from .testbed8 import DC_ATTR_PLAN, RELAY_PLAN, build_testbed8, testbed8_pathset
from .bso13 import BSO_EDGES, build_bso13, bso13_pathset

__all__ = [
    "GBPS",
    "MBPS",
    "MS",
    "US",
    "Topology",
    "TopologyError",
    "Node",
    "NodeKind",
    "LinkSpec",
    "HostGroup",
    "DCAttrs",
    "POWER_REDUNDANCY_LEVELS",
    "power_redundancy_rank",
    "DC_ATTR_PLAN",
    "CandidatePath",
    "PathSet",
    "PathView",
    "TopologyIndex",
    "enumerate_paths",
    "shortest_delay_path",
    "FabricSpec",
    "CONTINENT_400",
    "build_fabric",
    "fabric_pathset",
    "RELAY_PLAN",
    "build_testbed8",
    "testbed8_pathset",
    "BSO_EDGES",
    "build_bso13",
    "bso13_pathset",
]
