"""The benchmark's workloads, each built from a seed.

A workload is a list of :class:`Job` s, one per simulation it runs.  The
seed argument is the only source of randomness: it seeds the repository's
traffic generator (or, for ``burst-hpcc``, the benchmark's own burst
generator), and the simulator receives only the generated demands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.experiments import ExperimentSpec, TESTBED_ENDPOINT_PAIRS
from repro.scenarios.library import single_link_cut
from repro.simulator.flow import FlowDemand

#: a seed no tuning run used; claims made with the benchmark must also
#: hold on it (see README.md, "Seeds")
HELD_OUT_SEED = 9173

#: burst-hpcc shape: every flow arrives within this window ...
BURST_WINDOW_S = 0.010
#: ... and carries BURST_MEAN_BYTES +- 50 %
BURST_MEAN_BYTES = 4_000_000
#: independent traffic matrices per repetition on fig7-bso13 and failover-testbed8
MATRICES = 3


@dataclass(frozen=True)
class Job:
    """One simulation of a workload.

    Attributes:
        spec: topology, router, congestion control and load of the run.
        make_demands: ``(runner, topology, pathset) -> demands``.
        make_scenario: ``demands -> Scenario`` for runs with faults.
    """

    spec: ExperimentSpec
    make_demands: Callable
    make_scenario: Optional[Callable] = None


@dataclass(frozen=True)
class Workload:
    """A named benchmark workload and the reason it exists.

    ``flows`` is the size of each of its simulations.
    """

    name: str
    why: str
    flows: int
    build: Callable[[int, int], List[Job]]

    def jobs(self, seed: int, flows: Optional[int] = None) -> List[Job]:
        """The workload's simulations for ``seed`` (``flows`` overrides the size)."""
        return self.build(seed, flows if flows is not None else self.flows)


def _spec_job(spec: ExperimentSpec, make_scenario=None) -> Job:
    """A job whose demands come from the repository's traffic generator."""
    return Job(
        spec=spec,
        make_demands=lambda runner, topo, ps: runner.demands_for(spec, topo, ps),
        make_scenario=make_scenario,
    )


def burst_demands(topology, num_flows: int, seed: int) -> List[FlowDemand]:
    """``num_flows`` flows of 4 MB +- 50 % between DC1 and DC8 within 10 ms."""
    rng = np.random.default_rng(seed)
    forward = rng.random(num_flows) < 0.5
    sizes = rng.uniform(0.5, 1.5, num_flows) * BURST_MEAN_BYTES
    arrivals = np.sort(rng.uniform(0.0, BURST_WINDOW_S, num_flows))
    hosts = {dc: topology.host_groups[dc].count for dc in ("DC1", "DC8")}
    demands = []
    for i in range(num_flows):
        src, dst = ("DC1", "DC8") if forward[i] else ("DC8", "DC1")
        demands.append(
            FlowDemand(
                flow_id=i,
                src_dc=src,
                dst_dc=dst,
                src_host=int(rng.integers(hosts[src])),
                dst_host=int(rng.integers(hosts[dst])),
                size_bytes=int(sizes[i]),
                arrival_s=float(arrivals[i]),
            )
        )
    return demands


def link_cut_for(demands: Sequence[FlowDemand]):
    """Cut DC1<->DC7 at 25 % of the arrival span and repair it at 75 %.

    Placing both events inside the arrival span guarantees flows are in
    flight at the cut and the repair, at any workload size.
    """
    last = max(d.arrival_s for d in demands)
    return single_link_cut(fail_at_s=0.25 * last, recover_at_s=0.75 * last)


def _matrix_seeds(seed: int) -> List[int]:
    """Seeds of the MATRICES independent traffic matrices a workload seed stands for.

    Run time on BSO13 and under failover varies by ~10-20 % from one traffic
    matrix to the next (the heavy websearch tail sets how long the network
    drains); summing independent matrices shrinks that by sqrt(MATRICES),
    so the figures measure the program rather than the draw.
    """
    return [seed * MATRICES + k for k in range(MATRICES)]


def _fig5(seed: int, flows: int) -> List[Job]:
    base = ExperimentSpec(
        name="fig5-testbed8",
        topology="testbed8",
        workload="websearch",
        load=0.5,
        cc="dcqcn",
        num_flows=flows,
        pairs=TESTBED_ENDPOINT_PAIRS,
        seed=seed,
    )
    return [
        _spec_job(base.with_overrides(router=router))
        for router in ("lcmp", "ecmp", "ucmp", "redte")
    ]


def _fig7(seed: int, flows: int) -> List[Job]:
    base = ExperimentSpec(
        name="fig7-bso13",
        topology="bso13",
        workload="websearch",
        load=0.5,
        cc="dcqcn",
        router="lcmp",
        num_flows=flows,
        pairs="all_to_all",
    )
    return [_spec_job(base.with_overrides(seed=s)) for s in _matrix_seeds(seed)]


def _failover(seed: int, flows: int) -> List[Job]:
    base = ExperimentSpec(
        name="failover-testbed8",
        topology="testbed8",
        workload="websearch",
        load=0.5,
        cc="dcqcn",
        router="lcmp",
        num_flows=flows,
        pairs=TESTBED_ENDPOINT_PAIRS,
    )
    return [
        _spec_job(base.with_overrides(seed=s), make_scenario=link_cut_for)
        for s in _matrix_seeds(seed)
    ]


def _burst(seed: int, flows: int) -> List[Job]:
    spec = ExperimentSpec(
        name="burst-hpcc",
        topology="testbed8",
        cc="hpcc",
        router="lcmp",
        num_flows=flows,
        pairs=TESTBED_ENDPOINT_PAIRS,
        seed=seed,
    )
    return [
        Job(
            spec=spec,
            make_demands=lambda runner, topo, ps: burst_demands(topo, flows, seed),
        )
    ]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fig5-testbed8",
            "Fig. 5 testbed shape: fixed per-step cost and DCQCN timers dominate; one traffic "
            "matrix routed by lcmp, ecmp, ucmp and redte keeps every router's code measured",
            3000,
            _fig5,
        ),
        Workload(
            "fig7-bso13",
            "Fig. 7 13-DC all-to-all: arrival routing, lazy path searches and the feedback "
            "walk over unequal hop counts do most of the work; three independent matrices",
            4000,
            _fig7,
        ),
        Workload(
            "failover-testbed8",
            "Section 3.4 fast failover: a DC1<->DC7 cut and repair inside the run, so "
            "revalidation and rerouting do most of the work",
            1000,
            _failover,
        ),
        Workload(
            "burst-hpcc",
            "3000 4 MB flows arriving within 10 ms under HPCC: thousands of active flows, "
            "so per-flow array work dominates and routing is under 1 %",
            3000,
            _burst,
        ),
    )
}
