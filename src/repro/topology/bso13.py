"""The 13-DC Europe-spanning topology (paper Fig. 4b, "BSONetwork").

The paper's large-scale simulations use the BSO Network Solutions topology
from the Internet Topology Zoo: 13 datacenters across Europe connected by a
sparse partial mesh of backbone, customer and transit links.  The Zoo graph
itself ships as GraphML with geographic coordinates but without capacities;
the paper assigns inter-DC propagation delays of 1 ms (~200 km), 5 ms
(~1000 km) and 10 ms (~2000 km) and heterogeneous capacities (tens to
hundreds of Gbps), and provisions deep (multi-GB) switch buffers for PFC
headroom over the long spans.

We embed an adjacency that preserves the properties the evaluation depends
on (documented substitution — see DESIGN.md):

* 13 DCs, sparse and irregular: most DC pairs have a single candidate route,
  so system-wide gains are diluted (paper reports 25.6 % multipath pairs).
* the studied pair (DC1, DC13) spans the whole continent and has several
  candidate routes with distinct delay/capacity trade-offs.
* link delays drawn from {1 ms, 5 ms, 10 ms} and capacities from
  {40, 100, 200} Gbps.
"""

from __future__ import annotations

from typing import List, Tuple

from .graph import GBPS, MS, Topology
from .paths import PathSet

__all__ = ["BSO_EDGES", "build_bso13", "bso13_pathset"]

#: undirected edge list: (dc_a, dc_b, capacity Gbps, one-way delay ms)
BSO_EDGES: List[Tuple[int, int, float, float]] = [
    (1, 2, 200, 1),
    (1, 3, 100, 1),
    (2, 4, 200, 5),
    (3, 4, 100, 1),
    (3, 5, 100, 5),
    (4, 6, 200, 5),
    (5, 6, 100, 1),
    (6, 7, 200, 1),
    (6, 8, 100, 5),
    (7, 9, 200, 5),
    (8, 9, 40, 1),
    (8, 10, 100, 5),
    (9, 11, 200, 5),
    (10, 11, 100, 1),
    (9, 12, 100, 10),
    (11, 13, 100, 5),
    (12, 13, 200, 10),
    (2, 7, 100, 10),
    (5, 10, 100, 10),
]

#: the paper provisions ~6 GB buffers on long-haul links for PFC headroom
INTER_DC_BUFFER_BYTES = 6 * 1024 * 1024 * 1024


def build_bso13(
    hosts_per_dc: int = 16,
    nic_bps: float = 100 * GBPS,
    inter_dc_buffer_bytes: int = INTER_DC_BUFFER_BYTES,
    capacity_scale: float = 1.0,
) -> Topology:
    """Build the 13-DC BSONetwork-style topology.

    Args:
        hosts_per_dc: servers attached to each datacenter.
        nic_bps: host NIC rate.
        inter_dc_buffer_bytes: egress buffer on inter-DC links.
        capacity_scale: multiply every capacity and buffer by this factor
            (time-scaled fluid experiments; see
            :func:`repro.topology.testbed8.build_testbed8`).

    Returns:
        A validated :class:`~repro.topology.graph.Topology` named
        ``"bso-13dc"`` with DCs ``DC1`` .. ``DC13``.
    """
    if capacity_scale <= 0:
        raise ValueError("capacity_scale must be positive")
    topo = Topology("bso-13dc")
    for i in range(1, 14):
        topo.add_dc(f"DC{i}")

    buffer_bytes = max(1, int(inter_dc_buffer_bytes * capacity_scale))
    for a, b, cap_gbps, delay_ms in BSO_EDGES:
        topo.add_inter_dc_link(
            f"DC{a}",
            f"DC{b}",
            cap_bps=cap_gbps * GBPS * capacity_scale,
            delay_s=delay_ms * MS,
            buffer_bytes=buffer_bytes,
        )

    for dc in topo.dcs:
        topo.add_hosts(dc, count=hosts_per_dc, nic_bps=nic_bps * capacity_scale)

    topo.validate()
    return topo


def bso13_pathset(topology: Topology | None = None) -> PathSet:
    """Candidate paths for the 13-DC topology.

    A detour bound of one extra hop keeps the graph in the sparse-multipath
    regime the paper describes (only a minority of pairs see more than one
    candidate) while still exposing several candidate routes between DC1 and
    DC13.
    """
    topo = topology or build_bso13()
    return PathSet(topo, max_candidates=8, max_extra_hops=1)
