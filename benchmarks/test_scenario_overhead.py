"""Benchmark gates — scenario overhead, array-core speedup, instrumentation.

Three checks guard the simulator's performance contracts; the numbers
themselves (step time, per-layer costs, traces) come from ``perfbench``:

* **empty scenario** — attaching a scenario must cost nothing when no
  event fires: the injector schedules events up front, the per-step
  fast-failover sweep existed before the scenario engine, and an empty
  timeline schedules nothing at all.  Identical engine event counts and
  bit-identical FCTs with and without an empty scenario are asserted
  exactly.
* **array-core speedup** — over the two bit-for-bit equivalent update
  cores, the scalar pure-Python reference loop
  (``SimulationConfig(vectorized=False)``, the executable spec) and the
  structure-of-arrays FlowTable core (the default), the default core is
  **at least 3x** the scalar reference at >= 500 concurrent flows.
* **observability plane** (see DESIGN.md, "Observability plane") —
  running a 2000-flow HPCC fleet with
  ``SimulationConfig(instrumentation=True)`` costs **at most 3 %** host
  time over the whole run against the uninstrumented run (both run in
  lockstep on one CPU), with bit-identical FCTs.

The measured ratios land in ``benchmarks/results/*.txt`` (see
benchmarks/README.md).
"""

import contextlib
import gc
import os
import pathlib
import threading
import time

import numpy as np

from repro.congestion_control import make_cc_factory
from repro.routing import make_router_factory
from repro.scenarios import Scenario
from repro.simulator import FluidSimulation, RuntimeNetwork, SimulationConfig
from repro.simulator.flow import FlowDemand
from repro.topology import build_testbed8
from repro.topology import testbed8_pathset as _testbed8_pathset
from repro.workloads import TrafficConfig, TrafficGenerator

NUM_FLOWS = 300
#: concurrency level of the vectorized-vs-scalar benchmark (the PR-2
#: acceptance criterion calls for at least 500 concurrent flows)
CONCURRENT_FLOWS = 550
#: simulated window of the vectorized-vs-scalar benchmark
STEP_WINDOW_S = 0.5
#: required vectorized-vs-scalar step-throughput ratio
MIN_SPEEDUP = 3.0

#: per-core SimulationConfig overrides
_MODES = {
    "scalar": dict(vectorized=False),
    "array": dict(vectorized=True),
}


def build_inputs():
    topology = build_testbed8(capacity_scale=0.1)
    paths = _testbed8_pathset(topology)
    config = SimulationConfig(seed=5)
    traffic = TrafficConfig(
        workload="websearch", load=0.3, num_flows=NUM_FLOWS,
        pairs=[("DC1", "DC8")], seed=5,
    )
    demands = TrafficGenerator(topology, paths, traffic).generate()
    return topology, paths, config, demands


def run_once(topology, paths, config, demands, scenario=None):
    network = RuntimeNetwork(topology, paths, make_router_factory("ecmp"), config)
    sim = FluidSimulation(
        network, demands, make_cc_factory("dcqcn"), config, scenario=scenario
    )
    return sim, sim.run()


def test_empty_scenario_adds_zero_events():
    """The no-event path must not add a single engine event nor perturb FCTs."""
    topology, paths, config, demands = build_inputs()
    plain_sim, plain = run_once(topology, paths, config, demands)
    scen_sim, scen = run_once(
        topology, paths, config, demands, scenario=Scenario(name="noop")
    )
    assert plain_sim.engine.processed_events == scen_sim.engine.processed_events
    assert len(plain.records) == len(scen.records) == NUM_FLOWS
    assert [r.fct_s for r in plain.records] == [r.fct_s for r in scen.records]
    assert scen.scenario_metrics is not None and scen.scenario_metrics.outcomes == []


# --------------------------------------------------------------------- #
# sustained-concurrency fleets (shared by both timing gates)
# --------------------------------------------------------------------- #
def build_fleet_demands(num_flows: int, size_bytes):
    """Sustained concurrency between DC1 and DC8 on testbed8: every flow
    arrives within the first ten update steps, so each step advances
    ~``num_flows`` flows.  ``size_bytes(i)`` gives flow ``i``'s size."""
    topology = build_testbed8(capacity_scale=0.1)
    hosts = topology.host_groups["DC1"].count
    demands = [
        FlowDemand(
            flow_id=i,
            src_dc="DC1" if i % 2 == 0 else "DC8",
            dst_dc="DC8" if i % 2 == 0 else "DC1",
            src_host=i % hosts,
            dst_host=(i * 7 + 1) % hosts,
            size_bytes=size_bytes(i),
            arrival_s=0.001 * (i % 10) + 1e-4,
        )
        for i in range(num_flows)
    ]
    return topology, demands


# --------------------------------------------------------------------- #
# array-core step throughput
# --------------------------------------------------------------------- #
def measure_step_throughput(mode: str) -> float:
    """Wall-clock update steps per second over a fixed simulated window.

    Every flow is large enough to stay active for the whole window.

    Args:
        mode: ``"scalar"`` or ``"array"`` (the default core).
    """
    topology, demands = build_fleet_demands(CONCURRENT_FLOWS, lambda i: 40_000_000)
    paths = _testbed8_pathset(topology)
    config = SimulationConfig(
        seed=5,
        max_sim_time_s=STEP_WINDOW_S,
        drain_timeout_s=STEP_WINDOW_S,
        **_MODES[mode],
    )
    network = RuntimeNetwork(topology, paths, make_router_factory("ecmp"), config)
    sim = FluidSimulation(network, demands, make_cc_factory("dcqcn"), config)
    start = time.perf_counter()
    result = sim.run()
    elapsed = time.perf_counter() - start
    steps = result.duration_s / config.update_interval_s
    return steps / elapsed


def _write_results(name: str, text: str) -> None:
    out = pathlib.Path(__file__).parent / "results"
    out.mkdir(parents=True, exist_ok=True)
    (out / name).write_text(text)


def test_vectorized_step_throughput_speedup():
    """Acceptance (PR 2): >= 3x step throughput at >= 500 concurrent flows.

    The measured headroom is large (~9x with the array core on a single
    developer core), but wall-clock ratios on shared CI runners can catch
    an unlucky scheduling window, so a failing first measurement gets one
    re-measurement before the assertion fires.
    """
    scalar = measure_step_throughput("scalar")
    vectorized = measure_step_throughput("array")
    if vectorized / scalar < MIN_SPEEDUP:
        scalar = measure_step_throughput("scalar")
        vectorized = measure_step_throughput("array")
    speedup = vectorized / scalar
    _write_results(
        "vectorized_step_throughput.txt",
        "vectorized-core step throughput "
        f"({CONCURRENT_FLOWS} concurrent flows, DCQCN, testbed8)\n"
        f"scalar reference : {scalar:8.1f} steps/s\n"
        f"vectorized core  : {vectorized:8.1f} steps/s\n"
        f"speedup          : {speedup:8.2f}x (required >= {MIN_SPEEDUP:g}x)\n",
    )
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized core is only {speedup:.2f}x faster "
        f"({vectorized:.0f} vs {scalar:.0f} steps/s)"
    )


# --------------------------------------------------------------------- #
# observability plane (phase timers + counters)
# --------------------------------------------------------------------- #
#: fleet size of the instrumentation gate: a uniform 2000-flow HPCC fleet
CC_FLEET_FLOWS = 2000
#: simulated window of the instrumentation gate
CC_FLEET_WINDOW_S = 0.25
#: maximum tolerated instrumentation cost on the 2000-flow HPCC lane:
#: instrumented / uninstrumented host time of the whole run
MAX_INSTRUMENTATION_OVERHEAD = 1.03
#: lockstep rounds pooled by one measurement of the overhead, in pairs:
#: one round with each side stepping first
OVERHEAD_ROUNDS = 32
#: per-round time limit; a lockstep round takes under a second
LOCKSTEP_TIMEOUT_S = 120.0


def build_cc_fleet_sim(instrumentation: bool = False) -> FluidSimulation:
    """The uniform HPCC fleet on the default core, constructed but not run.

    One flow in four is small enough that a few hundred complete inside
    the window — the FCT comparisons need completed records — while the
    big flows keep ~``CC_FLEET_FLOWS`` controllers active every step.
    """
    topology, demands = build_fleet_demands(
        CC_FLEET_FLOWS, lambda i: 80_000 if i % 4 == 0 else 30_000_000
    )
    paths = _testbed8_pathset(topology)
    config = SimulationConfig(
        seed=5,
        max_sim_time_s=CC_FLEET_WINDOW_S,
        drain_timeout_s=CC_FLEET_WINDOW_S,
        instrumentation=instrumentation,
    )
    network = RuntimeNetwork(topology, paths, make_router_factory("ecmp"), config)
    return FluidSimulation(network, demands, make_cc_factory("hpcc"), config)


def run_cc_fleet(instrumentation: bool = False):
    """One uniform-HPCC run of the default core; returns (wall seconds, result)."""
    sim = build_cc_fleet_sim(instrumentation)
    start = time.perf_counter()
    result = sim.run()
    return time.perf_counter() - start, result


@contextlib.contextmanager
def _one_cpu():
    """Pin this process (and the threads it starts) to one CPU.

    Two CPUs of a shared host can run at different speeds; a measurement
    that lets the two sides land on different CPUs measures the CPUs.
    """
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(saved)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


def run_lockstep(first: FluidSimulation, second: FluidSimulation):
    """Run two simulations in lockstep, one update step each in turn.

    Each simulation runs ``run()`` on its own thread.  A step observer
    stops the running side's clock and hands a baton (one semaphore per
    side) to the other, so exactly one side computes at a time and the
    k-th steps of both runs execute within a few milliseconds of each
    other: host-speed drift, which moves single runs of this lane by
    +-15 %, hits both sides alike.

    Returns:
        ``(first_s, second_s)`` — each side's host seconds over its whole
        ``run()``, set-up and end-of-run work included.
    """
    sims = (first, second)
    batons = (threading.Semaphore(0), threading.Semaphore(0))
    busy = [0.0, 0.0]
    done = [False, False]
    clock = [0.0]
    errors = []

    def pass_baton(i):
        busy[i] += time.perf_counter() - clock[0]
        batons[i if done[1 - i] else 1 - i].release()

    def take_baton(i):
        batons[i].acquire()
        clock[0] = time.perf_counter()

    def worker(i):
        sims[i].add_step_observer(lambda sim, now: (pass_baton(i), take_baton(i)))
        take_baton(i)
        try:
            sims[i].run()
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)
        done[i] = True
        pass_baton(i)

    threads = [threading.Thread(target=worker, args=(i,), daemon=True) for i in (0, 1)]
    for thread in threads:
        thread.start()
    gc.collect()
    batons[0].release()
    for thread in threads:
        thread.join(LOCKSTEP_TIMEOUT_S)
        assert not thread.is_alive(), "lockstep round did not finish"
    if errors:
        raise errors[0]
    return busy[0], busy[1]


def _instrumentation_overhead(rounds: int = OVERHEAD_ROUNDS):
    """Instrumented / uninstrumented host time of whole HPCC-lane runs.

    Each round runs the lane off and on in lockstep (see
    :func:`run_lockstep`) on one CPU and takes the ratio of the two sides'
    whole-run times.  Rounds alternate which side steps first, and each
    pair of consecutive rounds gives one paired ratio, the geometric mean
    of its two, so what stepping first costs cancels inside the pair.  Two
    fresh simulations differ by ~5 % in one round even when neither is
    instrumented, so the estimate is the median over many pairs, which
    also discards a pair in which a scheduling stall hit one side.

    Returns:
        ``(ratio, base_s, inst_s)`` — the median paired ratio and the two
        sides' summed host seconds over all rounds.
    """
    ratios = []
    base_s = inst_s = 0.0
    with _one_cpu():
        for r in range(rounds):
            base_first = r % 2 == 0
            times = run_lockstep(
                build_cc_fleet_sim(instrumentation=not base_first),
                build_cc_fleet_sim(instrumentation=base_first),
            )
            base, inst = times if base_first else times[::-1]
            ratios.append(inst / base)
            base_s += base
            inst_s += inst
    paired = np.sqrt(np.multiply(ratios[0::2], ratios[1::2]))
    return float(np.median(paired)), base_s, inst_s


def test_instrumentation_overhead():
    """Instrumentation costs <= 3 % on the 2000-flow HPCC lane, with
    bit-identical FCTs and a populated stats snapshot.

    The cost is the median paired whole-run ratio of lockstep rounds (see
    :func:`_instrumentation_overhead`); back-to-back runs of this ~0.25 s
    lane differ by up to 20 % on a shared host, far more than the bound.
    One re-measurement covers an unlucky window, as in the other gates.
    """
    _, base_result = run_cc_fleet()
    _, inst_result = run_cc_fleet(instrumentation=True)
    # instrumentation must not change the answer, only describe the run
    assert inst_result.slowdowns() == base_result.slowdowns()
    assert base_result.stats is None
    assert inst_result.stats is not None
    assert inst_result.stats["phases"]["step.update"]["count"] > 0

    ratio, base_s, inst_s = _instrumentation_overhead()
    if ratio > MAX_INSTRUMENTATION_OVERHEAD:
        ratio, base_s, inst_s = _instrumentation_overhead()
    _write_results(
        "instrumentation_overhead.txt",
        "observability-plane overhead "
        f"({CC_FLEET_FLOWS} concurrent flows, uniform HPCC, testbed8, "
        f"{OVERHEAD_ROUNDS} lockstep rounds in pairs on one CPU)\n"
        f"uninstrumented : {base_s:8.3f} s\n"
        f"instrumented   : {inst_s:8.3f} s\n"
        f"overhead       : {(ratio - 1.0):8.2%} median over pairs (allowed <= "
        f"{MAX_INSTRUMENTATION_OVERHEAD - 1.0:.0%})\n",
    )
    assert ratio <= MAX_INSTRUMENTATION_OVERHEAD, (
        f"instrumentation costs {(ratio - 1.0):.2%} host time "
        f"({inst_s:.3f}s vs {base_s:.3f}s summed)"
    )
