"""End-to-end kernel equivalence: full simulations, scalar core vs array core.

Every array-core run goes through the shared numpy kernels (offered-load
scatter-add, queue/ECN reductions, the path-signal walk, feedback
delivery, batched routing and the CC slot kernels); the scalar core is
the executable spec that uses none of them.  The two must agree
**bitwise** on every observable output (FCT records, link stats,
failures, scenario outcomes) for each congestion control, each router,
LCMP and a mixed-CC fleet.

Every case runs twice: on testbed8, where all candidate paths have equal
hop counts (no grid row is padded), and on bso13 with 5-hop and 2-hop
pairs active together (short rows padded with the sentinel link column).
"""

from __future__ import annotations

import pytest

from repro.backend import get_backend
from repro.congestion_control import make_cc_factory, make_mixed_cc_factory
from repro.core import lcmp_router_factory
from repro.routing import make_router_factory
from repro.scenarios.invariants import assert_results_identical
from repro.simulator import FluidSimulation, RuntimeNetwork, SimulationConfig
from repro.topology import build_bso13, bso13_pathset, build_testbed8
from repro.topology import testbed8_pathset as _testbed8_pathset
from repro.workloads import TrafficConfig, TrafficGenerator

CCS = ["dcqcn", "hpcc", "timely", "dctcp", "ideal"]
ROUTERS = ["ecmp", "wcmp", "ucmp", "redte"]

#: bso13 pairs mixing 5-hop (three candidates) and 2-hop paths
RAGGED_PAIRS = (("DC1", "DC13"), ("DC13", "DC1"), ("DC2", "DC9"), ("DC9", "DC2"))


def run_with(
    vectorized: bool,
    cc="dcqcn",
    router="ecmp",
    cc_mix=None,
    seed=7,
    num_flows=300,
    pairs=(("DC1", "DC8"), ("DC2", "DC7")),
    topology="testbed8",
):
    """One small-but-complete run on the given core and topology."""
    if topology == "bso13":
        topology = build_bso13(capacity_scale=0.1)
        paths = bso13_pathset(topology)
    else:
        topology = build_testbed8(capacity_scale=0.1)
        paths = _testbed8_pathset(topology)
    config = SimulationConfig(seed=seed, vectorized=vectorized)
    traffic = TrafficConfig(
        workload="websearch", load=0.4, num_flows=num_flows,
        pairs=list(pairs), seed=seed,
    )
    demands = TrafficGenerator(topology, paths, traffic).generate()
    if router == "lcmp":
        router_factory = lcmp_router_factory(topology, paths)
    else:
        router_factory = make_router_factory(router)
    network = RuntimeNetwork(topology, paths, router_factory, config)
    if cc_mix is not None:
        factory = make_mixed_cc_factory(cc_mix, seed=seed)
    else:
        factory = make_cc_factory(cc)
    sim = FluidSimulation(network, demands, factory, config)
    result = sim.run()
    assert result.records, "equivalence run completed no flows"
    return result


#: topologies every case runs on: uniform hop counts (unpadded path
#: grids) and :data:`RAGGED_PAIRS` on bso13 (rows padded with the sentinel)
TOPOLOGIES = ["testbed8", "bso13-ragged"]


def run_pair(topology, **kwargs):
    """Scalar and array runs of one case on ``topology``.

    On ``"bso13-ragged"`` this also checks that the array run's
    path-signal walk really saw paths of unequal length, i.e. that some
    grid row was padded with the sentinel column (the last link entry).
    """
    if topology == "testbed8":
        return run_with(False, **kwargs), run_with(True, **kwargs)
    scalar = run_with(False, topology="bso13", pairs=RAGGED_PAIRS, **kwargs)
    shared = get_backend("numpy")
    original = shared.path_signals
    ragged_steps = []

    def recording(grid, not_marked_links, *args):
        ragged_steps.append(bool((grid == len(not_marked_links) - 1).any()))
        return original(grid, not_marked_links, *args)

    shared.path_signals = recording
    try:
        array = run_with(True, topology="bso13", pairs=RAGGED_PAIRS, **kwargs)
    finally:
        del shared.path_signals
    assert any(ragged_steps), "no step mixed path lengths"
    return scalar, array


@pytest.mark.parametrize("topology", TOPOLOGIES)
class TestArrayBitIdentity:
    @pytest.mark.parametrize("cc", CCS)
    def test_array_identical_per_cc(self, topology, cc):
        scalar, array = run_pair(topology, cc=cc)
        assert_results_identical(scalar, array, label=f"{topology} [{cc}]")

    @pytest.mark.parametrize("router", ROUTERS)
    def test_array_identical_per_router(self, topology, router):
        scalar, array = run_pair(topology, router=router)
        assert_results_identical(scalar, array, label=f"{topology} [{router}]")

    def test_array_identical_lcmp(self, topology):
        scalar, array = run_pair(topology, router="lcmp", seed=3, num_flows=200)
        assert_results_identical(scalar, array, label=f"{topology} [lcmp]")

    def test_array_identical_mixed_cc_fleet(self, topology):
        """A heterogeneous fleet (grouped in-place kernels on the array
        core) matches the scalar spec bit for bit."""
        mix = (("dcqcn", 0.5), ("hpcc", 0.3), ("dctcp", 0.2))
        factory = make_mixed_cc_factory(mix, seed=7)
        assigned = {factory.labels[factory.assign(i)] for i in range(300)}
        assert len(assigned) > 1  # the run genuinely mixes classes
        scalar, array = run_pair(topology, cc_mix=mix)
        assert_results_identical(scalar, array, label=f"{topology} [mix]")


def run_lcmp_all_to_all(vectorized: bool, seed: int = 5, num_flows: int = 300):
    """LCMP on the paper's 13-DC all-to-all matrix; returns ``(result, network)``."""
    topology = build_bso13(capacity_scale=0.1)
    paths = bso13_pathset(topology)
    config = SimulationConfig(seed=seed, vectorized=vectorized)
    traffic = TrafficConfig(
        workload="websearch", load=0.5, num_flows=num_flows, pairs="all_to_all", seed=seed
    )
    demands = TrafficGenerator(topology, paths, traffic).generate()
    network = RuntimeNetwork(topology, paths, lcmp_router_factory(topology, paths), config)
    result = FluidSimulation(network, demands, make_cc_factory("dcqcn"), config).run()
    return result, network


def decision_rows(switch):
    """A switch's decisions as plain tuples, sorted by (time, flow id)."""
    rows = [
        (d.time_s, d.flow_id, d.dst_dc, d.chosen.dcs, d.num_candidates, d.fallback)
        for d in switch.decisions
    ]
    return sorted(rows, key=lambda row: (row[0], row[1]))


class TestLCMPAllToAllBSO13:
    """Scalar ≡ array for LCMP on all 156 ordered pairs of the 13-DC topology.

    The scalar core routes flow by flow through ``select`` and the array
    core routes arrival groups through ``select_batch``: the two reach the
    selection plans by different keys (DC tuples vs path ids) and in a
    different order (per flow vs depth-first groups), so equal decision
    logs and equal router counters show the plans agree.
    """

    def test_results_decisions_and_router_stats_identical(self):
        scalar, scalar_net = run_lcmp_all_to_all(False)
        array, array_net = run_lcmp_all_to_all(True)
        assert_results_identical(scalar, array, label="bso13 all-to-all [lcmp]")
        assert len({(r.src_dc, r.dst_dc) for r in array.records}) > 100
        multi_hop = 0
        for dc, switch in scalar_net.switches.items():
            other = array_net.switch(dc)
            assert decision_rows(switch) == decision_rows(other), dc
            assert switch.router.stats() == other.router.stats(), dc
            multi_hop += sum(len(row[3]) > 2 for row in decision_rows(switch))
        assert multi_hop > 0
