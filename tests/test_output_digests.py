"""Output-digest lock: the benchmark workloads' outputs, bit for bit.

Each of perfbench's four workloads runs at seeds 1 and 9173 with a small
flow count.  One SHA-256 per (workload, seed) covers

* the completed flows' flow-id, FCT and slowdown columns,
* every switch's DecisionLog rows (flow id, time, chosen path, destination,
  candidate count, fallback flag), and
* every router's decision counters (LCMP's ``stats()`` plus its lazy
  invalidations).

A refactor or speed-up that claims identical outputs must leave every
digest unchanged.  A change that is meant to move results updates the
table below and says why.  Regenerate it with::

    PYTHONPATH=src python tests/test_output_digests.py
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

_ROOT = Path(__file__).resolve().parents[1]
if str(_ROOT) not in sys.path:
    sys.path.insert(0, str(_ROOT))

from perfbench.workloads import HELD_OUT_SEED, WORKLOADS  # noqa: E402
from repro.experiments import ExperimentRunner  # noqa: E402
from repro.simulator import FluidSimulation, RuntimeNetwork  # noqa: E402

#: flows per simulation (every simulation of a workload)
FLOWS = 300
SEEDS = (1, HELD_OUT_SEED)

#: hex digests per (workload, seed)
DIGESTS = {
    ("fig5-testbed8", 1): "cfa5b6e987ee35f495b688277b2768541d52e492e6aabf748de7f2b94426bd81",
    ("fig5-testbed8", 9173): "a3656f1e24bd8d35c3f3a8565774583cb92567beed25a296cdba64ded930ee44",
    ("fig7-bso13", 1): "b0b6c6c035f4ae72b3ca7d60a0da3336b77f40567d0dbf3a34abe25676cff767",
    ("fig7-bso13", 9173): "7a7c0a48a184d729ea973060f14b3478153d62eacfcd25de7cdc5ce971a02650",
    ("failover-testbed8", 1): "6508d238011d8bbf352edb8fba4b59d9a1cd6110e6ad8357c81b6d37e22490b9",
    ("failover-testbed8", 9173): "6417885f230f9ee019884b0aeff56603d9045318bcb53dbc36c239af2238b4b3",
    ("burst-hpcc", 1): "7232088cb0016c69c8c4306f44438a8d7b21d0d4048336bfc77e3e50b237be16",
    ("burst-hpcc", 9173): "34452bf6f715608692a1db5b7512a82354de1be4162af5f76113fcefb514b51e",
}


def _run_job(job, digest) -> None:
    runner = ExperimentRunner()
    spec = job.spec
    topology, pathset = runner.topology_for(spec)
    demands = job.make_demands(runner, topology, pathset)
    scenario = job.make_scenario(demands) if job.make_scenario else None
    config = runner.simulation_config_for(spec)
    network = RuntimeNetwork(
        topology, pathset, runner.router_factory_for(spec, topology, pathset), config
    )
    result = FluidSimulation(
        network, demands, runner.cc_factory_for(spec), config, scenario=scenario
    ).run()

    store = result.store
    for column in (store.column("flow_id"), store.fcts(), store.slowdowns()):
        digest.update(np.ascontiguousarray(column).tobytes())
    for dc, switch in network.switches.items():
        for d in switch.decisions:
            digest.update(
                repr(
                    (dc, d.flow_id, d.time_s.hex(), d.chosen.dcs, d.dst_dc,
                     d.num_candidates, d.fallback)
                ).encode()
            )
        router = switch.router
        counters = router.stats() if hasattr(router, "stats") else {"decisions": router.decisions}
        liveness = getattr(router, "liveness", None)
        if liveness is not None:
            counters = dict(counters, lazy_invalidations=liveness.lazy_invalidations)
        digest.update(repr((dc, sorted(counters.items()))).encode())


def workload_digest(name: str, seed: int) -> str:
    """Hex digest of one workload's outputs at ``seed`` and :data:`FLOWS` flows."""
    digest = hashlib.sha256()
    for job in WORKLOADS[name].jobs(seed, FLOWS):
        _run_job(job, digest)
    return digest.hexdigest()


@pytest.mark.parametrize("name,seed", sorted(DIGESTS))
def test_output_digest_unchanged(name, seed):
    assert workload_digest(name, seed) == DIGESTS[(name, seed)]


if __name__ == "__main__":
    for name in WORKLOADS:
        for seed in SEEDS:
            print(f'    ("{name}", {seed}): "{workload_digest(name, seed)}",')
