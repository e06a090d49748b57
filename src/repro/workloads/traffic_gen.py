"""Synthetic inter-DC traffic generation.

Mirrors the paper artifact's ``traffic_gen.py``: given a flow-size CDF and a
target load, it generates an open-loop Poisson arrival process of flows
between randomly paired senders and receivers.  Two pairing modes are
supported:

* ``pair`` — all traffic between one ordered DC pair (the testbed experiments
  send between DC1 and DC8, the case study between DC1 and DC13);
* ``all_to_all`` — senders and receivers drawn uniformly from all DCs (the
  system-wide 13-DC experiments).

Load definition: the offered load is expressed as a fraction of the aggregate
inter-DC egress capacity of the participating *source* datacenters, i.e. a
load of 0.3 drives each source DC's inter-DC uplinks at roughly 30 % on
average.  This matches the artifact's convention of scaling the Poisson
arrival rate so that ``load = lambda * mean_flow_size / capacity``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..simulator.flow import FlowDemand
from ..topology.graph import Topology
from ..topology.paths import PathSet
from .cdf import FlowSizeCDF
from .distributions import get_workload

__all__ = ["MAX_LOAD", "TrafficConfig", "TrafficGenerator", "aggregate_egress_capacity"]

#: highest offered load a traffic matrix accepts; valid loads are (0, MAX_LOAD]
MAX_LOAD = 1.5


def aggregate_egress_capacity(topology: Topology, source_dcs: Sequence[str]) -> float:
    """Total inter-DC egress capacity (bps) of the given source DCs."""
    total = 0.0
    sources = set(source_dcs)
    for spec in topology.inter_dc_links():
        if spec.src in sources:
            total += spec.cap_bps
    return total


@dataclass
class TrafficConfig:
    """Parameters of one synthetic traffic matrix.

    Attributes:
        workload: workload name (``"websearch"``, ``"alistorage"``,
            ``"fbhadoop"``) or a :class:`FlowSizeCDF` instance.
        load: offered load as a fraction of the source DCs' aggregate
            inter-DC egress capacity (0.3 / 0.5 / 0.8 in the paper).
        num_flows: how many flows to generate.
        pairs: ``"all_to_all"`` or an explicit list of ordered (src, dst) DC
            pairs (e.g. ``[("DC1", "DC8"), ("DC8", "DC1")]``).
        seed: RNG seed for sizes, arrivals and host assignment.
        start_s: arrival time of the first flow.
    """

    workload: object = "websearch"
    load: float = 0.3
    num_flows: int = 400
    pairs: object = "all_to_all"
    seed: int = 42
    start_s: float = 0.0

    def resolve_cdf(self) -> FlowSizeCDF:
        """The flow-size CDF named (or carried) by :attr:`workload`."""
        if isinstance(self.workload, FlowSizeCDF):
            return self.workload
        return get_workload(str(self.workload))

    def validate(self) -> None:
        """Sanity-check the config.

        Raises:
            ValueError: on a load outside (0, MAX_LOAD] or a non-positive
                flow count.
        """
        if not 0 < self.load <= MAX_LOAD:
            raise ValueError(f"load must be in (0, {MAX_LOAD:g}]")
        if self.num_flows <= 0:
            raise ValueError("num_flows must be positive")


class TrafficGenerator:
    """Generates :class:`~repro.simulator.flow.FlowDemand` lists."""

    def __init__(self, topology: Topology, pathset: PathSet, config: TrafficConfig):
        config.validate()
        self.topology = topology
        self.pathset = pathset
        self.config = config
        self._rng = np.random.default_rng(config.seed)
        self._pairs = self._resolve_pairs()

    # ------------------------------------------------------------------ #
    def _resolve_pairs(self) -> List[Tuple[str, str]]:
        pairs = self.config.pairs
        if pairs == "all_to_all":
            # reachability, not candidates(): with a lazy path set the
            # latter would materialize every pair up front
            resolved = [
                (src, dst)
                for (src, dst) in self.pathset.all_pairs()
                if self.pathset.has_path(src, dst)
            ]
        else:
            resolved = [(str(a), str(b)) for a, b in pairs]
            for src, dst in resolved:
                if src == dst:
                    raise ValueError("traffic pairs must connect distinct DCs")
                if not self.pathset.has_path(src, dst):
                    raise ValueError(f"no candidate path for pair ({src}, {dst})")
        if not resolved:
            raise ValueError("no usable DC pairs for traffic generation")
        return resolved

    # ------------------------------------------------------------------ #
    def generate(self) -> List[FlowDemand]:
        """Generate the configured number of flow demands."""
        cdf = self.config.resolve_cdf()
        mean_size_bits = cdf.mean_bytes() * 8.0

        source_dcs = sorted({src for src, _ in self._pairs})
        capacity = aggregate_egress_capacity(self.topology, source_dcs)
        if capacity <= 0:
            raise ValueError("source DCs have no inter-DC egress capacity")

        arrival_rate = self.config.load * capacity / mean_size_bits
        inter_arrivals = self._rng.exponential(
            1.0 / arrival_rate, size=self.config.num_flows
        )
        arrivals = self.config.start_s + np.cumsum(inter_arrivals)
        sizes = cdf.sample(self._rng, self.config.num_flows)

        pair_idx = self._rng.integers(0, len(self._pairs), size=self.config.num_flows)
        demands: List[FlowDemand] = []
        for i in range(self.config.num_flows):
            src_dc, dst_dc = self._pairs[int(pair_idx[i])]
            src_host = self._pick_host(src_dc)
            dst_host = self._pick_host(dst_dc)
            demands.append(
                FlowDemand(
                    flow_id=i,
                    src_dc=src_dc,
                    dst_dc=dst_dc,
                    src_host=src_host,
                    dst_host=dst_host,
                    size_bytes=int(sizes[i]),
                    arrival_s=float(arrivals[i]),
                )
            )
        return demands

    def _pick_host(self, dc: str) -> int:
        group = self.topology.host_groups.get(dc)
        count = group.count if group else 1
        return int(self._rng.integers(0, max(1, count)))

    # ------------------------------------------------------------------ #
    def expected_duration_s(self) -> float:
        """Rough expected span of the arrival process (for sizing runs)."""
        cdf = self.config.resolve_cdf()
        mean_size_bits = cdf.mean_bytes() * 8.0
        source_dcs = sorted({src for src, _ in self._pairs})
        capacity = aggregate_egress_capacity(self.topology, source_dcs)
        arrival_rate = self.config.load * capacity / mean_size_bits
        return self.config.num_flows / arrival_rate
