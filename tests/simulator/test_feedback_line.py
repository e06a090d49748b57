"""The array core's feedback delay line: merged delivery of due lanes.

Each update step enqueues one generation of feedback lanes (sorted by
deliver time); every step the due lanes of all generations are merged into
one batch and delivered with one kernel call per CC class present.  Rows
with several signals due fall back to per-row rank waves.  These cases
check, against the scalar core, that merging changes no result:

* many generations due in one step (ragged RTTs of the 13-DC all-to-all
  matrix);
* a row released and re-acquired while lanes addressed to its previous
  tenant are still in flight (the epoch guard);
* an RTT-shortening reroute that makes one row's signals come due together
  (the rank-wave path);

and that a single-class fleet makes at most one feedback and one advance
kernel call per step, plus one per extra wave.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.congestion_control import make_cc_factory
from repro.core import lcmp_router_factory
from repro.routing import make_router_factory
from repro.scenarios.invariants import assert_results_identical
from repro.simulator import FluidSimulation, RuntimeNetwork, SimulationConfig
from repro.simulator import flow_table as flow_table_module
from repro.simulator import fluid as fluid_module
from repro.simulator.flow import FlowDemand
from repro.topology import build_bso13, build_testbed8, bso13_pathset
from repro.topology import testbed8_pathset as _testbed8_pathset
from repro.workloads import TrafficConfig, TrafficGenerator

from tests.simulator.test_vectorized_equivalence import build_rtt_shortening_sim


class StepCounter:
    """Step observer counting update steps."""

    def __init__(self) -> None:
        self.steps = 0

    def __call__(self, sim, now: float) -> None:
        self.steps += 1


@pytest.fixture
def due_generations(monkeypatch):
    """Counts, per delivery instant, how many generations had lanes due."""
    per_instant: Counter = Counter()
    take_due = fluid_module._FeedbackGeneration.take_due

    def counting(gen, now):
        per_instant[now] += 1
        return take_due(gen, now)

    monkeypatch.setattr(fluid_module._FeedbackGeneration, "take_due", counting)
    return per_instant


@pytest.fixture
def extra_waves(monkeypatch):
    """Counts the rank waves beyond the first of every repeated delivery."""
    waves = []
    ranks_of = flow_table_module._delivery_ranks

    def recording(rows, deliver_s):
        ranks = ranks_of(rows, deliver_s)
        waves.append(int(ranks.max()))
        return ranks

    monkeypatch.setattr(flow_table_module, "_delivery_ranks", recording)
    return waves


def bso13_all_to_all(vectorized: bool, steps: StepCounter = None):
    """DCQCN under LCMP on the 13-DC all-to-all matrix (ragged RTTs)."""
    topology = build_bso13(capacity_scale=0.1)
    paths = bso13_pathset(topology)
    config = SimulationConfig(seed=3, vectorized=vectorized, instrumentation=vectorized)
    traffic = TrafficConfig(
        workload="websearch", load=0.5, num_flows=250, pairs="all_to_all", seed=3
    )
    demands = TrafficGenerator(topology, paths, traffic).generate()
    network = RuntimeNetwork(topology, paths, lcmp_router_factory(topology, paths), config)
    sim = FluidSimulation(network, demands, make_cc_factory("dcqcn"), config)
    if steps is not None:
        sim.add_step_observer(steps)
    return sim.run()


class TestManyGenerationsDue:
    def test_bso13_all_to_all_matches_scalar(self, due_generations, extra_waves):
        steps = StepCounter()
        array = bso13_all_to_all(True, steps)
        # the case is not vacuous: many generations were due in one step
        assert max(due_generations.values()) >= 5
        scalar = bso13_all_to_all(False)
        assert_results_identical(scalar, array, label="bso13 all-to-all [dcqcn]")
        counters = array.stats["counters"]
        # one feedback and one advance call per step, plus the extra waves
        assert counters["cc.kernel_dispatches"] <= 2 * steps.steps + sum(extra_waves)


def slot_reuse_demands(topology, num_flows: int = 120):
    """1.5-3 MB DC1 -> DC8 flows arriving every 0.5 ms.

    Each lasts a few update steps, long enough to queue on the low-capacity
    relays (so its signals carry ECN marks) yet far shorter than its
    feedback's 20 ms to 1 s RTT over the testbed relays, so freed rows are
    re-acquired while marked lanes addressed to their previous tenants are
    in flight.
    """
    hosts = topology.host_groups["DC1"].count
    return [
        FlowDemand(
            flow_id=i,
            src_dc="DC1",
            dst_dc="DC8",
            src_host=i % hosts,
            dst_host=(i * 3 + 1) % hosts,
            size_bytes=1_500_000 + 250_000 * (i % 7),
            arrival_s=5e-4 * i + 1e-4,
        )
        for i in range(num_flows)
    ]


class TestEpochGuard:
    def run(self, vectorized: bool, reuses: list = None):
        topology = build_testbed8(capacity_scale=0.1)
        paths = _testbed8_pathset(topology)
        config = SimulationConfig(seed=4, vectorized=vectorized)
        network = RuntimeNetwork(topology, paths, make_router_factory("ecmp"), config)
        sim = FluidSimulation(
            network, slot_reuse_demands(topology), make_cc_factory("dcqcn"), config
        )
        if reuses is not None:
            table = sim._table
            acquire_batch = table.acquire_batch

            def watched(flows):
                slots = acquire_batch(flows)
                # lanes still queued for these rows belong to their previous tenants
                reuses.extend(
                    sum(
                        int(np.count_nonzero(gen.ids[0, gen.cursor :] == slot))
                        for gen in sim._feedback_line
                    )
                    for slot in slots
                )
                return slots

            table.acquire_batch = watched
        return sim.run()

    def test_reacquired_rows_drop_stale_lanes(self):
        reuses = []
        array = self.run(True, reuses)
        assert sum(reuses) > 0, "no row was re-acquired with lanes in flight"
        scalar = self.run(False)
        assert len(array.records) == 120
        assert_results_identical(scalar, array, label="slot reuse [dcqcn]")


class TestRepeatedSignalsInOneStep:
    def test_rtt_shortening_reroute_takes_the_wave_path(self, extra_waves):
        sim = build_rtt_shortening_sim(True, "dcqcn", instrumentation=True)
        steps = StepCounter()
        sim.add_step_observer(steps)
        array = sim.run()
        counters = array.stats["counters"]
        assert counters["slow_path.deliver_repeated"] > 0
        assert sum(extra_waves) > 0
        assert counters["cc.kernel_dispatches"] <= 2 * steps.steps + sum(extra_waves)
        scalar = build_rtt_shortening_sim(False, "dcqcn").run()
        assert_results_identical(scalar, array, label="rtt-shortening [dcqcn]")
