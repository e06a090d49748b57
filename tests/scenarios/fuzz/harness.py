"""Run one :class:`~repro.scenarios.fuzz.FuzzCase` on every core.

The harness is the glue between generated cases and the reusable
invariant checkers: ``run_case`` builds and runs one simulation for one
core, ``check_all_invariants`` runs the full cross-core sweep — scalar
(reference), array, array with instrumentation, and array on an eagerly
built path set (the lazy-vs-eager lane), the live dead-link monitor
attached wherever the run is not instrumented and the strict step-state
monitor on every run — and asserts all four invariant families on the
results, plus the routing invariants (loop-free paths, decision
accounting, stranded-flow retries, live first hops and lazy invalidation,
from a :class:`FailoverRecorder` on every run): four runs per case.  Every entry
point takes the router to run (ECMP by default); LCMP is provisioned by
its control plane, as the experiment runner does it.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.congestion_control import make_cc_factory, make_mixed_cc_factory
from repro.core import lcmp_router_factory
from repro.routing import make_router_factory
from repro.scenarios.fuzz import FuzzCase, build_fuzz_pathset, build_fuzz_topology
from repro.scenarios.invariants import (
    CORE_CONFIGS,
    DeadLinkMonitor,
    FailoverRecorder,
    StepStateMonitor,
    assert_results_identical,
    check_decision_accounting,
    check_demand_conservation,
    check_lazy_invalidation,
    check_live_first_hop,
    check_loop_free_paths,
    check_no_dead_link_traffic,
    check_recovery_bound,
    check_stranded_retry,
)
from repro.simulator import FluidSimulation, RuntimeNetwork, SimulationConfig

from tests.core.congestion_oracle import RegisterOracle

#: generous drain headroom: fuzz timelines always repair, so a run must
#: always reach the drained steady state well before this deadline
FUZZ_DEADLINE_S = 30.0


def make_config(case: FuzzCase, core: str, instrumentation: bool = False) -> SimulationConfig:
    """The simulation config for one core flavour of a fuzz case."""
    return SimulationConfig(
        seed=case.seed,
        max_sim_time_s=FUZZ_DEADLINE_S,
        drain_timeout_s=FUZZ_DEADLINE_S,
        instrumentation=instrumentation,
        **CORE_CONFIGS[core],
    )


def router_factory_for(router: str, topology, paths):
    """The per-switch router factory of ``router`` over one fuzz topology."""
    if router == "lcmp":
        return lcmp_router_factory(topology, paths)
    return make_router_factory(router)


def run_case(
    case: FuzzCase,
    core: str = "array",
    instrumentation: bool = False,
    with_monitor: bool = False,
    prewarm: bool = False,
    router: str = "ecmp",
    recorder: Optional[FailoverRecorder] = None,
):
    """Run one fuzz case on one core (``prewarm``: enumerate every path pair first).

    A :class:`StepStateMonitor` watches every step and raises after the
    run on any non-physical state; under LCMP a :class:`RegisterOracle`
    checks every switch's congestion registers after every sweep;
    ``recorder``, when given, is attached before the run.

    Returns:
        ``(result, monitor)`` — the :class:`SimulationResult` and the
        attached :class:`DeadLinkMonitor` (``None`` unless requested).
    """
    topology = build_fuzz_topology(case.topology_name)
    paths = build_fuzz_pathset(topology)
    if prewarm:
        paths.prewarm()
    config = make_config(case, core, instrumentation)
    network = RuntimeNetwork(topology, paths, router_factory_for(router, topology, paths), config)
    if isinstance(case.cc, tuple):
        factory = make_mixed_cc_factory(case.cc, seed=case.seed)
    else:
        factory = make_cc_factory(case.cc)
    sim = FluidSimulation(
        network, list(case.demands), factory, config, scenario=case.scenario
    )
    monitor = DeadLinkMonitor().attach(sim) if with_monitor else None
    strict = StepStateMonitor().attach(sim)
    if router == "lcmp":
        # every LCMP row's registers and C_cong against the per-port reference
        RegisterOracle().attach(sim)
    if recorder is not None:
        recorder.attach(sim)
    result = sim.run()
    strict.check()
    return result, monitor


def run_baseline(case: FuzzCase, core: str = "array", router: str = "ecmp"):
    """Run a case's demands with NO scenario attached (pre-event baseline)."""
    topology = build_fuzz_topology(case.topology_name)
    paths = build_fuzz_pathset(topology)
    config = make_config(case, core)
    network = RuntimeNetwork(topology, paths, router_factory_for(router, topology, paths), config)
    if isinstance(case.cc, tuple):
        factory = make_mixed_cc_factory(case.cc, seed=case.seed)
    else:
        factory = make_cc_factory(case.cc)
    sim = FluidSimulation(network, list(case.demands), factory, config, scenario=None)
    return sim.run()


def check_all_invariants(
    case: FuzzCase, require_drained: bool = True, router: str = "ecmp"
) -> Dict[str, object]:
    """Run a case on every core under ``router`` and assert the four invariant families.

    Returns:
        per-core results keyed by core name (plus ``"instrumented"``),
        so callers can make additional assertions.
    """
    topology = build_fuzz_topology(case.topology_name)
    config = make_config(case, "scalar")
    recorders = {name: FailoverRecorder() for name in ("scalar", "array", "instrumented", "eager")}

    reference, monitor = run_case(
        case, core="scalar", with_monitor=True, router=router, recorder=recorders["scalar"]
    )
    check_demand_conservation(reference, len(case.demands))
    check_no_dead_link_traffic(reference, case.scenario, topology, monitor)
    check_recovery_bound(
        reference,
        case.scenario,
        update_interval_s=config.update_interval_s,
        require_drained=require_drained,
    )

    results: Dict[str, object] = {"scalar": reference}
    array, array_monitor = run_case(
        case, core="array", with_monitor=True, router=router, recorder=recorders["array"]
    )
    check_demand_conservation(array, len(case.demands))
    check_no_dead_link_traffic(array, case.scenario, topology, array_monitor)
    assert_results_identical(reference, array, label="scalar vs array")
    results["array"] = array
    instrumented, _ = run_case(
        case,
        core="array",
        instrumentation=True,
        router=router,
        recorder=recorders["instrumented"],
    )
    assert_results_identical(reference, instrumented, label="scalar vs instrumented")
    results["instrumented"] = instrumented
    # lazy vs prewarmed path sets must be indistinguishable at run level
    eager, eager_monitor = run_case(
        case,
        core="array",
        with_monitor=True,
        prewarm=True,
        router=router,
        recorder=recorders["eager"],
    )
    check_demand_conservation(eager, len(case.demands))
    check_no_dead_link_traffic(eager, case.scenario, topology, eager_monitor)
    assert_results_identical(reference, eager, label="lazy vs eager pathset")
    results["eager_paths"] = eager
    for recorder in recorders.values():
        check_loop_free_paths(recorder)
        check_decision_accounting(recorder)
        check_stranded_retry(recorder, case.scenario)
        check_live_first_hop(recorder, case.scenario)
        check_lazy_invalidation(recorder)
    return results
