#!/usr/bin/env python3
"""Geo-replicated storage scenario on the 13-DC European topology.

The paper motivates LCMP with RDMA-empowered cloud services such as
geo-replicated storage: a primary region continuously replicates writes to a
remote region over long-haul paths, and replication latency directly bounds
the user-visible commit latency.

This example models a storage service replicating from DC1 (western Europe)
to DC13 (eastern edge of the topology) with the Alibaba-storage flow-size
mix, and shows how routing affects both the median replication latency and
the tail that dominates quorum waits.

The storage fleet is mid-migration between congestion controls: 80 % of the
replication streams still run DCQCN while 20 % already run HPCC
(``DEFAULT_CC_MIX``, assigned per flow deterministically from the seed).
The whole run executes on the vectorized structure-of-arrays core — the
default ``ExperimentSpec`` configuration — where a heterogeneous fleet is
advanced through per-class in-place column kernels (DESIGN.md, "Congestion
control (arrays)").

Run with::

    python examples/geo_replication.py [num_flows]
"""

from __future__ import annotations

import sys

from repro.analysis import slowdown_table
from repro.experiments import (
    CASE_STUDY_PAIRS,
    DEFAULT_CC_MIX,
    ExperimentRunner,
    ExperimentSpec,
)


def main(num_flows: int = 1200) -> None:
    runner = ExperimentRunner()
    base = ExperimentSpec(
        name="geo-replication",
        topology="bso13",
        workload="alistorage",
        load=0.5,
        cc_mix=DEFAULT_CC_MIX,    # 80% DCQCN + 20% HPCC, mid-migration
        num_flows=num_flows,
        pairs=CASE_STUDY_PAIRS,   # DC1 <-> DC13, the continent-spanning pair
        seed=7,
        vectorized=True,          # array core: grouped in-place CC kernels
    )

    print(
        f"Replicating {num_flows} storage writes between DC1 and DC13 "
        "(AliStorage mix, 50% load, 80% DCQCN + 20% HPCC fleet) ..."
    )
    runs = runner.run_router_comparison(base, ["lcmp", "ecmp", "ucmp", "redte"])

    profiles = [runs[name].profile for name in ("lcmp", "ecmp", "ucmp", "redte")]
    print("\nReplication slowdown, median (P50)")
    print(slowdown_table(profiles, "p50"))
    print("\nReplication slowdown, tail (P99) — what quorum waits see")
    print(slowdown_table(profiles, "p99"))

    print("\nCandidate routes between DC1 and DC13:")
    topology, paths = runner.topology_for(base)
    for cand in paths.candidates("DC1", "DC13"):
        print(f"  {cand}")

    lcmp = runs["lcmp"].profile
    ecmp = runs["ecmp"].profile
    saved = (1 - lcmp.overall_p99 / ecmp.overall_p99) * 100
    print(
        f"\nLCMP cuts the P99 replication slowdown by {saved:.0f}% vs ECMP "
        "on this continent-spanning pair."
    )


if __name__ == "__main__":
    flows = int(sys.argv[1]) if len(sys.argv) > 1 else 1200
    main(flows)
