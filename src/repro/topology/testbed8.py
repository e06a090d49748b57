"""The 8-DC evaluation topology (paper Fig. 1a / Fig. 4a).

Eight datacenters; DC1 and DC8 are the traffic endpoints and DC2..DC7 are
intermediate datacenters, each providing one two-hop candidate route between
DC1 and DC8.  The six candidate routes fall into three capacity classes
(2 x 200 Gbps, 2 x 100 Gbps, 2 x 40 Gbps) and each class contains one
low-delay and one high-delay route, reproducing the capacity-delay asymmetry
that motivates LCMP.

The exact per-route delay assignment is not spelled out in the paper beyond
the legend values (5, 10, 25, 50, 100, 250 ms) and the statement that the
testbed stresses a 50x delay gap (5 ms vs 250 ms); we use the assignment
below and document it here:

=====  =========  ================  ==========
Relay  Capacity   Per-link delay    Class
=====  =========  ================  ==========
DC2    200 Gbps   250 ms            high-cap / high-delay
DC3    200 Gbps   25 ms             high-cap / low-delay
DC4    100 Gbps   100 ms            mid-cap  / high-delay
DC5    100 Gbps   10 ms             mid-cap  / low-delay
DC6    40 Gbps    50 ms             low-cap  / high-delay
DC7    40 Gbps    5 ms              low-cap  / low-delay
=====  =========  ================  ==========

Each DC hosts a small leaf-spine pod in the paper (1 DCI, 2 spines, 4 leaves,
16 servers, 100 Gbps intra-DC links, 400 Gbps DCI-spine links).  For the
flow-level experiments the pod is condensed into a host group with a 100 Gbps
NIC rate and a few-microsecond access delay (the intra-DC fabric is never the
bottleneck by construction).
"""

from __future__ import annotations

from typing import Dict, Tuple

from .graph import GBPS, MS, Topology
from .paths import PathSet

__all__ = ["RELAY_PLAN", "DC_ATTR_PLAN", "build_testbed8", "testbed8_pathset"]

#: relay DC -> (capacity bps, per-link one-way delay seconds)
RELAY_PLAN: Dict[str, Tuple[float, float]] = {
    "DC2": (200 * GBPS, 250 * MS),
    "DC3": (200 * GBPS, 25 * MS),
    "DC4": (100 * GBPS, 100 * MS),
    "DC5": (100 * GBPS, 10 * MS),
    "DC6": (40 * GBPS, 50 * MS),
    "DC7": (40 * GBPS, 5 * MS),
}

#: DC -> (region, tier, power redundancy).  The paper does not assign
#: facility metadata, so we use a plausible west-to-east layout: the two
#: traffic endpoints are tier-4 facilities with duplicated power plants
#: (2N), relays are tier-3 with mixed redundancy.  Correlated-failure
#: scenarios (regional power events, tier-scoped maintenance waves)
#: filter on these attributes.
DC_ATTR_PLAN: Dict[str, Tuple[str, str, str]] = {
    "DC1": ("west", "tier4", "2N"),
    "DC2": ("west", "tier3", "N+1"),
    "DC3": ("west", "tier3", "N+1"),
    "DC4": ("central", "tier3", "N"),
    "DC5": ("central", "tier3", "N+1"),
    "DC6": ("east", "tier3", "N"),
    "DC7": ("east", "tier3", "N"),
    "DC8": ("east", "tier4", "2N"),
}

#: deep buffer on long-haul links (the paper provisions multi-GB buffers to
#: satisfy PFC headroom over 2000 km; we default to 512 MB which is deep
#: enough that the fluid model never tail-drops in the evaluated regimes)
INTER_DC_BUFFER_BYTES = 512 * 1024 * 1024


def build_testbed8(
    hosts_per_dc: int = 16,
    nic_bps: float = 100 * GBPS,
    inter_dc_buffer_bytes: int = INTER_DC_BUFFER_BYTES,
    capacity_scale: float = 1.0,
) -> Topology:
    """Build the 8-DC testbed topology.

    Args:
        hosts_per_dc: servers attached to each datacenter (16 in the paper).
        nic_bps: host NIC rate (100 Gbps in the paper).
        inter_dc_buffer_bytes: egress buffer on inter-DC links.
        capacity_scale: multiply every capacity and buffer by this factor.
            The experiment harness runs the fluid model in a time-scaled
            regime (e.g. 1/50 of the provisioned rates) so that a few
            thousand Python-simulated flows sustain the paper's 30/50/80 %
            load levels over several seconds of simulated time; relative
            capacities, delays and utilisations are unchanged (see
            DESIGN.md, "Simulator design notes").

    Returns:
        A validated :class:`~repro.topology.graph.Topology`.
    """
    if capacity_scale <= 0:
        raise ValueError("capacity_scale must be positive")
    topo = Topology("testbed-8dc")
    for i in range(1, 9):
        name = f"DC{i}"
        region, tier, redundancy = DC_ATTR_PLAN[name]
        topo.add_dc(name, region=region, tier=tier, power_redundancy=redundancy)

    buffer_bytes = max(1, int(inter_dc_buffer_bytes * capacity_scale))
    for relay, (cap_bps, delay_s) in RELAY_PLAN.items():
        topo.add_inter_dc_link(
            "DC1", relay, cap_bps=cap_bps * capacity_scale, delay_s=delay_s,
            buffer_bytes=buffer_bytes,
        )
        topo.add_inter_dc_link(
            relay, "DC8", cap_bps=cap_bps * capacity_scale, delay_s=delay_s,
            buffer_bytes=buffer_bytes,
        )

    for dc in topo.dcs:
        topo.add_hosts(dc, count=hosts_per_dc, nic_bps=nic_bps * capacity_scale)

    topo.validate()
    return topo


def testbed8_pathset(topology: Topology | None = None) -> PathSet:
    """Candidate paths for the testbed with the paper's multipath structure.

    With a detour bound of one extra hop the enumeration yields exactly the
    structure the paper reports: 6 candidates between DC1 and DC8, 2
    candidates between any two relay DCs, and a single path between DC1/DC8
    and each relay (16 of 28 unordered pairs are multipath, i.e. 57.1 %).
    """
    topo = topology or build_testbed8()
    return PathSet(topo, max_candidates=8, max_extra_hops=1)
