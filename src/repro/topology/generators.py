"""Seeded parametric generators for continent-scale WAN fabrics.

The paper's evaluation topologies stop at 13 DCs; ROADMAP item 2 calls
for *hundreds* of DCs and thousands of links so the scaling work (lazy
path sets, int-indexed adjacency, memory lanes) has something real to
chew on.  :class:`FabricSpec` describes a multi-tier fabric —
``regions`` metro regions, each a core/agg/edge fan-out tree with
per-tier capacities — stitched into a WAN backbone (a core-level ring
across regions plus seeded chord links).  :func:`build_fabric` turns a
spec into a validated :class:`~repro.topology.graph.Topology` with
region/tier/power :class:`~repro.topology.graph.DCAttrs` on every DC,
and :func:`fabric_pathset` wraps it in a lazy
:class:`~repro.topology.paths.PathSet`.

Generation is fully deterministic for a given spec: every random draw
comes from one ``numpy`` generator seeded with ``spec.seed``, in a fixed
order.  The spec is a frozen dataclass of primitives, so it is hashable
(the experiment runner's topology cache keys on it) and picklable
(parallel sweeps ship specs, not topologies).

Example::

    spec = FabricSpec(regions=4, edges_per_agg=5)
    topo = build_fabric(spec)
    paths = fabric_pathset(topo)

``CONTINENT_400`` is the canned ~400-DC spec the memory benchmark lane
and the scale tests use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .graph import GBPS, MS, Topology
from .paths import PathSet

__all__ = ["FabricSpec", "CONTINENT_400", "build_fabric", "fabric_pathset"]


@dataclass(frozen=True)
class FabricSpec:
    """Parameters of a generated multi-tier WAN fabric.

    Attributes:
        name: topology name prefix.
        seed: seed for every random draw (delays, dual-homing, chords).
        regions: number of metro regions.
        cores_per_region: core DCs per region (the WAN-facing tier).
        aggs_per_core: aggregation DCs hanging off each core.
        edges_per_agg: edge DCs hanging off each aggregation DC.
        core_cap_gbps / agg_cap_gbps / edge_cap_gbps: provisioned
            capacity of backbone, core→agg and agg→edge links.
        dual_home_fraction: fraction of agg and edge DCs that get a
            second uplink (to the next core / next agg), creating the
            multipath structure the routers exercise.
        backbone_chords: extra seeded core-to-core chord links added on
            top of the inter-region ring (per region).
        metro_delay_ms: (lo, hi) uniform range for intra-region delays.
        backbone_delay_ms: (lo, hi) uniform range for backbone delays.
        hosts_per_dc: hosts attached to every DC.
        nic_gbps: host NIC rate.
    """

    name: str = "fabric"
    seed: int = 0
    regions: int = 8
    cores_per_region: int = 2
    aggs_per_core: int = 3
    edges_per_agg: int = 7
    core_cap_gbps: float = 400.0
    agg_cap_gbps: float = 100.0
    edge_cap_gbps: float = 25.0
    dual_home_fraction: float = 0.5
    backbone_chords: int = 2
    metro_delay_ms: Tuple[float, float] = (0.5, 2.0)
    backbone_delay_ms: Tuple[float, float] = (10.0, 40.0)
    hosts_per_dc: int = 2
    nic_gbps: float = 10.0

    @property
    def dcs_per_region(self) -> int:
        """DC count of one region's core/agg/edge tree."""
        cores = self.cores_per_region
        aggs = cores * self.aggs_per_core
        return cores + aggs + aggs * self.edges_per_agg

    @property
    def num_dcs(self) -> int:
        """Total DC count of the generated fabric."""
        return self.regions * self.dcs_per_region

    def validate(self) -> None:
        """Sanity-check the spec before generation."""
        if self.regions < 1 or self.cores_per_region < 1:
            raise ValueError("need at least one region with one core DC")
        if self.aggs_per_core < 0 or self.edges_per_agg < 0:
            raise ValueError("tier fan-outs must be non-negative")
        if not (0.0 <= self.dual_home_fraction <= 1.0):
            raise ValueError("dual_home_fraction must be within [0, 1]")
        if min(self.core_cap_gbps, self.agg_cap_gbps, self.edge_cap_gbps) <= 0:
            raise ValueError("tier capacities must be positive")
        for lo, hi in (self.metro_delay_ms, self.backbone_delay_ms):
            if lo <= 0 or hi < lo:
                raise ValueError("delay ranges must be positive and ordered")


#: the canned ~400-DC continental fabric used by the memory benchmark
#: lane and the scale tests: 8 regions x (2 core + 6 agg + 42 edge)
CONTINENT_400 = FabricSpec(name="continent400")


def _uniform_ms(rng: np.random.Generator, bounds: Tuple[float, float]) -> float:
    lo, hi = bounds
    return float(rng.uniform(lo, hi)) * MS


def build_fabric(spec: FabricSpec, capacity_scale: float = 1.0) -> Topology:
    """Generate the multi-tier WAN fabric described by ``spec``.

    Args:
        spec: fabric parameters (seeded; same spec => same topology).
        capacity_scale: multiplier on every link capacity and NIC rate
            (the experiment runner's congestion knob).

    Returns:
        A validated :class:`~repro.topology.graph.Topology` whose DCs
        carry region/tier/power attributes.
    """
    spec.validate()
    if capacity_scale <= 0:
        raise ValueError("capacity_scale must be positive")
    rng = np.random.default_rng(spec.seed)
    topo = Topology(f"{spec.name}-{spec.num_dcs}dc")

    core_cap = spec.core_cap_gbps * GBPS * capacity_scale
    agg_cap = spec.agg_cap_gbps * GBPS * capacity_scale
    edge_cap = spec.edge_cap_gbps * GBPS * capacity_scale

    cores: list[list[str]] = []
    for r in range(spec.regions):
        region = f"region{r}"
        region_cores = []
        for c in range(spec.cores_per_region):
            name = f"R{r}C{c}"
            topo.add_dc(name, region=region, tier="core", power_redundancy="2N")
            region_cores.append(name)
        cores.append(region_cores)

        # intra-region core mesh (full mesh is tiny: cores_per_region^2)
        for i, a in enumerate(region_cores):
            for b in region_cores[i + 1 :]:
                topo.add_inter_dc_link(
                    a, b, cap_bps=core_cap, delay_s=_uniform_ms(rng, spec.metro_delay_ms)
                )

        for c, core in enumerate(region_cores):
            # all aggs of a core exist before any edge dual-homes to a
            # sibling agg
            for a in range(spec.aggs_per_core):
                agg = f"R{r}A{c}x{a}"
                topo.add_dc(agg, region=region, tier="agg", power_redundancy="N+1")
                topo.add_inter_dc_link(
                    core, agg, cap_bps=agg_cap,
                    delay_s=_uniform_ms(rng, spec.metro_delay_ms),
                )
                # dual-home a seeded fraction of aggs to the next core
                if (
                    spec.cores_per_region > 1
                    and rng.random() < spec.dual_home_fraction
                ):
                    other = region_cores[(c + 1) % spec.cores_per_region]
                    topo.add_inter_dc_link(
                        other, agg, cap_bps=agg_cap,
                        delay_s=_uniform_ms(rng, spec.metro_delay_ms),
                    )
            for a in range(spec.aggs_per_core):
                agg = f"R{r}A{c}x{a}"
                for e in range(spec.edges_per_agg):
                    edge = f"R{r}E{c}x{a}x{e}"
                    power = "N+1" if rng.random() < 0.3 else "N"
                    topo.add_dc(
                        edge, region=region, tier="edge", power_redundancy=power
                    )
                    topo.add_inter_dc_link(
                        agg, edge, cap_bps=edge_cap,
                        delay_s=_uniform_ms(rng, spec.metro_delay_ms),
                    )
                    # dual-home a seeded fraction of edges to a sibling agg
                    if (
                        spec.aggs_per_core > 1
                        and rng.random() < spec.dual_home_fraction
                    ):
                        sibling = f"R{r}A{c}x{(a + 1) % spec.aggs_per_core}"
                        topo.add_inter_dc_link(
                            sibling, edge, cap_bps=edge_cap,
                            delay_s=_uniform_ms(rng, spec.metro_delay_ms),
                        )

    # WAN backbone: ring over regions (core i of region r to core i of the
    # next region), then seeded long-haul chords for path diversity
    if spec.regions > 1:
        for r in range(spec.regions):
            nxt = (r + 1) % spec.regions
            for c in range(spec.cores_per_region):
                # two regions close the ring after one hop: skip the
                # would-be duplicate reverse link
                if topo.has_link(cores[r][c], cores[nxt][c]):
                    continue
                topo.add_inter_dc_link(
                    cores[r][c], cores[nxt][c], cap_bps=core_cap,
                    delay_s=_uniform_ms(rng, spec.backbone_delay_ms),
                )
        if spec.regions > 2:
            for r in range(spec.regions):
                for _ in range(spec.backbone_chords):
                    other = int(rng.integers(0, spec.regions))
                    if other in (r, (r + 1) % spec.regions, (r - 1) % spec.regions):
                        continue
                    a = cores[r][int(rng.integers(0, spec.cores_per_region))]
                    b = cores[other][int(rng.integers(0, spec.cores_per_region))]
                    if topo.has_link(a, b):
                        continue
                    topo.add_inter_dc_link(
                        a, b, cap_bps=core_cap,
                        delay_s=_uniform_ms(rng, spec.backbone_delay_ms),
                    )

    nic = spec.nic_gbps * GBPS * capacity_scale
    for dc in topo.dcs:
        topo.add_hosts(dc, count=spec.hosts_per_dc, nic_bps=nic)

    topo.validate()
    return topo


def fabric_pathset(
    topology: Topology,
    max_candidates: int = 4,
    max_extra_hops: int = 1,
    cache_pairs: Optional[int] = None,
) -> PathSet:
    """Candidate paths for a generated fabric.

    Defaults are scale-lean: at most four candidates per pair within one
    extra hop of the minimum keeps the per-pair search bounded on graphs
    with thousands of links; ``cache_pairs`` bounds the resident
    materialized-pair cache on huge fabrics.
    """
    return PathSet(
        topology,
        max_candidates=max_candidates,
        max_extra_hops=max_extra_hops,
        cache_pairs=cache_pairs,
    )
