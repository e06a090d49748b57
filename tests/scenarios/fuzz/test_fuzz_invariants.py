"""Property-based scenario fuzzing: the four invariants on every core.

Each property draws random valid timelines (see
:mod:`repro.scenarios.fuzz`) and asserts the reusable checkers of
:mod:`repro.scenarios.invariants`.  Failing examples print a replayable
blob (``print_blob=True`` in the profiles); promote recurring ones into
``tests/scenarios/fuzz/corpus`` so they run as plain regression tests.
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.congestion_control import make_cc_factory
from repro.routing import make_router_factory
from repro.scenarios.events import Scenario, TrafficDrain, TrafficSurge
from repro.scenarios.fuzz import (
    FUZZ_TOPOLOGIES,
    FuzzCase,
    _maintenance_stories,
    _srlg_stories,
    build_fuzz_pathset,
    build_fuzz_topology,
    demand_sets,
    fuzz_cases,
    grid_times,
)
from repro.scenarios.invariants import check_demand_conservation
from repro.simulator import RuntimeNetwork, SimulationConfig

from .harness import check_all_invariants, run_case


class TestFuzzInvariants:
    @given(fuzz_cases())
    def test_all_invariants_on_all_cores(self, case):
        """The headline property: conservation, dead-link safety, bounded
        recovery and cross-core bit-identity for arbitrary timelines."""
        check_all_invariants(case)

    @given(fuzz_cases())
    def test_all_invariants_on_all_cores_lcmp(self, case):
        """The headline property under the paper's own router: LCMP's
        selection plans, the switches' liveness-filter memo, the flow
        cache and lazy invalidation must keep every core bit-identical
        through random cut/repair stories."""
        check_all_invariants(case, router="lcmp")

    @given(fuzz_cases(), st.sampled_from(("ucmp", "wcmp", "redte")))
    def test_all_invariants_on_all_cores_baselines(self, case, router):
        """The headline property under the remaining baselines: UCMP/WCMP
        capacity weighting and RedTE's telemetry hook must keep every core
        bit-identical through random cut/repair stories."""
        check_all_invariants(case, router=router)

    @given(
        st.data(),
        st.sampled_from(sorted(FUZZ_TOPOLOGIES)),
    )
    def test_surge_drain_race_conserves_demand(self, data, topology_name):
        """A drain racing a surge at the same instant never loses or
        double-counts a demand, on any core."""
        spec = FUZZ_TOPOLOGIES[topology_name]
        at = data.draw(grid_times(max_steps=8), label="race_time")
        pair = data.draw(st.sampled_from(spec.pairs), label="pair")
        surge = TrafficSurge(
            time_s=at,
            pairs=(pair,),
            load=1.0,
            num_flows=data.draw(st.integers(min_value=2, max_value=4), label="surge"),
            seed=data.draw(st.integers(min_value=1, max_value=2**16), label="sseed"),
        )
        drain = TrafficDrain(
            time_s=at,
            src_dc=pair[0],
            fraction=data.draw(st.sampled_from((0.25, 0.5, 1.0)), label="fraction"),
        )
        case = FuzzCase(
            topology_name=topology_name,
            scenario=Scenario(name="surge-drain-race", events=(surge, drain)),
            demands=data.draw(demand_sets(topology_name), label="demands"),
            cc="dcqcn",
            seed=data.draw(st.integers(min_value=1, max_value=2**16), label="seed"),
        )
        for core in ("scalar", "array"):
            result, _ = run_case(case, core=core)
            check_demand_conservation(result, len(case.demands))

    @given(
        st.data(),
        st.sampled_from(sorted(FUZZ_TOPOLOGIES)),
    )
    def test_overlapping_outages_fully_heal(self, data, topology_name):
        """Overlapping down-causes (an SRLG cut inside a maintenance
        window) compose by refcount: after every cause is reverted, every
        link is up and at full capacity — regardless of revert order."""
        spec = FUZZ_TOPOLOGIES[topology_name]
        (srlg,) = data.draw(_srlg_stories(spec), label="srlg")
        (maintenance,) = data.draw(_maintenance_stories(spec), label="maintenance")

        topology = build_fuzz_topology(topology_name)
        paths = build_fuzz_pathset(topology)
        config = SimulationConfig(seed=1)
        network = RuntimeNetwork(topology, paths, make_router_factory("ecmp"), config)

        srlg.apply(network, srlg.time_s)
        maintenance.apply(network, maintenance.time_s)
        assert any(not link.up for link in network.inter_dc_links)

        if data.draw(st.booleans(), label="maintenance_first"):
            maintenance.revert(network, maintenance.end_s)
            for i in range(len(srlg.links)):
                srlg.revert_link(network, i, srlg.recovery_times()[i])
        else:
            for i in range(len(srlg.links)):
                srlg.revert_link(network, i, srlg.recovery_times()[i])
            maintenance.revert(network, maintenance.end_s)

        for link in network.inter_dc_links:
            assert link.up, f"{link.key} still down after all causes reverted"
            assert link.cap_bps == link.spec.cap_bps, f"{link.key} capacity not restored"


def test_cc_factory_names_cover_fuzz_fleets():
    """Every uniform fleet name the fuzzer draws resolves to a factory."""
    for name in ("dcqcn", "hpcc", "timely"):
        assert make_cc_factory(name) is not None
