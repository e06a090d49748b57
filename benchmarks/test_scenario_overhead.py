"""Benchmarks — scenario overhead, core throughput, control plane.

Attaching a scenario must cost essentially nothing when no event fires: the
injector schedules events up front, the per-step fast-failover sweep existed
before the scenario engine, and an empty timeline schedules nothing at all.
Two properties are asserted exactly (identical engine event counts and
bit-identical FCTs with and without an empty scenario) and the wall-clock
cost of both paths is measured for the record.

The second part holds the step-throughput benchmarks over the two
bit-for-bit equivalent update cores:

* **scalar** — the pure-Python reference loop
  (``SimulationConfig(vectorized=False)``), the executable spec;
* **array** — the structure-of-arrays FlowTable core (the default):
  per-flow and congestion-control state resident in table columns, O(1)
  Python↔numpy boundary crossings per step.

One gate is asserted there: the default core is **at least 3x** the
scalar reference at >= 500 concurrent flows.  Recorded lanes time the
default core at 2000 and 20k concurrent flows.

The third part records the default core on a uniform non-DCQCN fleet
(HPCC, 2000 flows, the regime the CC-comparison figure runs), where the
per-class column-block CC kernels do most of the work.

The fourth part records the control plane on a monitored, arrival-heavy
LCMP run — burst arrivals, queue monitor plus estimator feed at the
default 1 ms cadence, link tracing on — where telemetry columns, batched
arrivals and ``select_batch`` do most of the work.

The fifth part gates the **observability plane** (see DESIGN.md,
"Observability plane"): running the 2000-flow HPCC lane with
``SimulationConfig(instrumentation=True)`` — phase timers around every step
sub-phase plus the slow-path counters — must cost **at most 3 %** host
time over the whole run against the uninstrumented run (both run in
lockstep on one CPU), with bit-identical FCTs.  The
recorded ``test_bench_phase_profile`` lane additionally writes the per-phase
breakdown (``BENCH_phase_breakdown.json``) and a perfetto-loadable Chrome
trace (``BENCH_step_trace.trace.json``) next to the wall-clock trajectory.

Absolute numbers land in ``benchmarks/results/*.txt`` (see
benchmarks/README.md); the ``@pytest.mark.benchmark`` lanes feed
``--benchmark-json`` so the CI benchmark jobs can record the perf
trajectory (``BENCH_step_throughput.json``).
"""

import contextlib
import gc
import json
import os
import pathlib
import threading
import time

import numpy as np
import pytest

from repro.analysis import perf_report, phase_breakdown_json
from repro.congestion_control import make_cc_factory
from repro.obs import write_chrome_trace
from repro.core import lcmp_router_factory
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
#: required vectorized-vs-scalar step-throughput ratio
MIN_SPEEDUP = 3.0
#: concurrency level of the recorded high-concurrency lane
HIGH_CONCURRENCY_FLOWS = 2000
#: simulated window of the high-concurrency lane
HIGH_CONCURRENCY_WINDOW_S = 0.25
#: concurrency level of the recorded fleet-scale lane
FLEET_FLOWS = 20_000
#: simulated window of the fleet-scale lane
FLEET_WINDOW_S = 0.1

#: per-core SimulationConfig overrides
_MODES = {
    "scalar": dict(vectorized=False),
    "array": dict(vectorized=True),
}

#: flow-count scale for the recorded ``test_bench_*`` lanes only — the CI
#: quick-bench smoke job sets REPRO_BENCH_SCALE=0.25 so a PR run finishes
#: in seconds; the speedup *gates* always run at full size
_BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def _scaled(num_flows: int) -> int:
    return max(50, int(num_flows * _BENCH_SCALE))


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


@pytest.mark.benchmark(group="scenario-overhead")
def test_bench_run_without_scenario(benchmark):
    topology, paths, config, demands = build_inputs()
    result = benchmark.pedantic(
        lambda: run_once(topology, paths, config, demands)[1],
        rounds=3,
        iterations=1,
    )
    assert result.unfinished_flows == 0


@pytest.mark.benchmark(group="scenario-overhead")
def test_bench_run_with_empty_scenario(benchmark):
    topology, paths, config, demands = build_inputs()
    result = benchmark.pedantic(
        lambda: run_once(
            topology, paths, config, demands, scenario=Scenario(name="noop")
        )[1],
        rounds=3,
        iterations=1,
    )
    assert result.unfinished_flows == 0
    assert result.scenario_metrics is not None


# --------------------------------------------------------------------- #
# vectorized-core step throughput
# --------------------------------------------------------------------- #
def build_concurrent_demands(num_flows: int = CONCURRENT_FLOWS):
    """A sustained-concurrency workload: every flow arrives within the
    first ten update steps and is large enough to stay active for the
    whole measured window, so each step advances ~``num_flows`` flows."""
    topology = build_testbed8(capacity_scale=0.1)
    hosts = topology.host_groups["DC1"].count
    demands = [
        FlowDemand(
            flow_id=i,
            src_dc="DC1" if i % 2 == 0 else "DC8",
            dst_dc="DC8" if i % 2 == 0 else "DC1",
            src_host=i % hosts,
            dst_host=(i * 7 + 1) % hosts,
            size_bytes=40_000_000,
            arrival_s=0.001 * (i % 10) + 1e-4,
        )
        for i in range(num_flows)
    ]
    return topology, demands


def measure_step_throughput(
    mode: str, num_flows: int = CONCURRENT_FLOWS, sim_window_s: float = 0.5
) -> float:
    """Wall-clock update steps per second over a fixed simulated window.

    Args:
        mode: ``"scalar"`` or ``"array"`` (the default core).
        num_flows: sustained concurrency level.
        sim_window_s: simulated window to run.
    """
    topology, demands = build_concurrent_demands(num_flows)
    paths = _testbed8_pathset(topology)
    config = SimulationConfig(
        seed=5,
        max_sim_time_s=sim_window_s,
        drain_timeout_s=sim_window_s,
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


@pytest.mark.benchmark(group="step-throughput")
def test_bench_step_throughput_high_concurrency(benchmark):
    """Recorded lane for the perf trajectory (``--benchmark-json``).

    One round runs the full high-concurrency window through the default
    core; the CI benchmark job stores the timings as
    ``BENCH_step_throughput.json`` at the repo root.
    """
    benchmark.pedantic(
        lambda: measure_step_throughput(
            "array", _scaled(HIGH_CONCURRENCY_FLOWS), HIGH_CONCURRENCY_WINDOW_S
        ),
        rounds=2,
        iterations=1,
    )


@pytest.mark.benchmark(group="step-throughput")
def test_bench_step_throughput_fleet(benchmark):
    """Recorded lane: a 20k-flow fleet through the default core, where the
    per-step kernel cost dominates the run."""
    steps_per_s = benchmark.pedantic(
        lambda: measure_step_throughput("array", _scaled(FLEET_FLOWS), FLEET_WINDOW_S),
        rounds=2,
        iterations=1,
    )
    assert steps_per_s > 0


# --------------------------------------------------------------------- #
# array-resident congestion control (per-class column-block kernels)
# --------------------------------------------------------------------- #
#: fleet size of the CC dispatch lane: a uniform 2000-flow non-DCQCN fleet
CC_FLEET_FLOWS = 2000
#: simulated window of the CC dispatch lane
CC_FLEET_WINDOW_S = 0.25


def build_cc_fleet_demands(num_flows: int = CC_FLEET_FLOWS):
    """A sustained-concurrency fleet with enough small flows mixed in that
    a few hundred complete inside the window — the FCT comparisons need
    completed records, while the big flows keep ~``num_flows``
    controllers active every step."""
    topology = build_testbed8(capacity_scale=0.1)
    hosts = topology.host_groups["DC1"].count
    demands = [
        FlowDemand(
            flow_id=i,
            src_dc="DC1" if i % 2 == 0 else "DC8",
            dst_dc="DC8" if i % 2 == 0 else "DC1",
            src_host=i % hosts,
            dst_host=(i * 7 + 1) % hosts,
            size_bytes=80_000 if i % 4 == 0 else 30_000_000,
            arrival_s=0.001 * (i % 10) + 1e-4,
        )
        for i in range(num_flows)
    ]
    return topology, demands


def build_cc_fleet_sim(
    cc: str = "hpcc",
    num_flows: int = CC_FLEET_FLOWS,
    instrumentation: bool = False,
) -> FluidSimulation:
    """The uniform-CC fleet on the default core, constructed but not run."""
    topology, demands = build_cc_fleet_demands(num_flows)
    paths = _testbed8_pathset(topology)
    config = SimulationConfig(
        seed=5,
        max_sim_time_s=CC_FLEET_WINDOW_S,
        drain_timeout_s=CC_FLEET_WINDOW_S,
        instrumentation=instrumentation,
    )
    network = RuntimeNetwork(topology, paths, make_router_factory("ecmp"), config)
    return FluidSimulation(network, demands, make_cc_factory(cc), config)


def run_cc_fleet(
    cc: str = "hpcc",
    num_flows: int = CC_FLEET_FLOWS,
    instrumentation: bool = False,
):
    """One uniform-CC run of the default core; returns (wall seconds, result)."""
    sim = build_cc_fleet_sim(cc, num_flows, instrumentation)
    start = time.perf_counter()
    result = sim.run()
    return time.perf_counter() - start, result


@pytest.mark.benchmark(group="cc-dispatch")
def test_bench_cc_dispatch(benchmark):
    """Recorded CC dispatch lane for the perf trajectory."""
    benchmark.pedantic(
        lambda: run_cc_fleet(num_flows=_scaled(CC_FLEET_FLOWS))[0],
        rounds=2,
        iterations=1,
    )


# --------------------------------------------------------------------- #
# array-resident control plane (batched arrivals + telemetry columns)
# --------------------------------------------------------------------- #
#: flow count of the monitored control-plane lane
CONTROL_PLANE_FLOWS = 3000
#: flow size: small enough that the run is arrival/decision-dominated
CONTROL_PLANE_FLOW_BYTES = 150_000


def build_burst_demands(num_flows: int = CONTROL_PLANE_FLOWS):
    """An arrival-heavy workload: five back-to-back waves of simultaneous
    flows between DC1 and DC8, sized so most decisions happen while the
    network is busy and the whole run stays short — the regime where
    arrival routing and telemetry dominate the wall clock."""
    topology = build_testbed8(capacity_scale=0.1)
    hosts = topology.host_groups["DC1"].count
    demands = [
        FlowDemand(
            flow_id=i,
            src_dc="DC1" if i % 2 == 0 else "DC8",
            dst_dc="DC8" if i % 2 == 0 else "DC1",
            src_host=i % hosts,
            dst_host=(i * 7 + 1) % hosts,
            size_bytes=CONTROL_PLANE_FLOW_BYTES,
            arrival_s=0.001 * (i % 5) + 1e-4,
        )
        for i in range(num_flows)
    ]
    return topology, demands


def run_control_plane(num_flows: int = CONTROL_PLANE_FLOWS):
    """One monitored LCMP run; returns (wall seconds, result)."""
    topology, demands = build_burst_demands(num_flows)
    paths = _testbed8_pathset(topology)
    config = SimulationConfig(seed=5, max_sim_time_s=5.0, drain_timeout_s=5.0)
    network = RuntimeNetwork(
        topology, paths, lcmp_router_factory(topology, paths), config
    )
    sim = FluidSimulation(
        network, demands, make_cc_factory("dcqcn"), config, trace_links=True
    )
    start = time.perf_counter()
    result = sim.run()
    return time.perf_counter() - start, result


@pytest.mark.benchmark(group="control-plane")
def test_bench_control_plane(benchmark):
    """Recorded control-plane lane for the perf trajectory."""
    benchmark.pedantic(
        lambda: run_control_plane(num_flows=_scaled(CONTROL_PLANE_FLOWS))[0],
        rounds=2,
        iterations=1,
    )


# --------------------------------------------------------------------- #
# observability plane (phase timers + counters)
# --------------------------------------------------------------------- #
#: maximum tolerated instrumentation cost on the 2000-flow HPCC lane:
#: instrumented / uninstrumented host time of the whole run
MAX_INSTRUMENTATION_OVERHEAD = 1.03
#: lockstep rounds pooled by one measurement of the overhead
OVERHEAD_ROUNDS = 5
#: per-round time limit; a lockstep round takes under a second
LOCKSTEP_TIMEOUT_S = 120.0


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
    :func:`run_lockstep`) on one CPU, alternating which side steps first,
    and takes the ratio of the two sides' whole-run times; the median over
    rounds discards a round in which a scheduling stall hit one side.

    Returns:
        ``(ratio, base_s, inst_s)`` — the median ratio and the two sides'
        summed host seconds over all rounds.
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
    return float(np.median(ratios)), base_s, inst_s


def test_instrumentation_overhead():
    """Instrumentation costs <= 3 % on the 2000-flow HPCC lane, with
    bit-identical FCTs and a populated stats snapshot.

    The cost is the median whole-run ratio of lockstep rounds (see
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
        f"{OVERHEAD_ROUNDS} lockstep rounds on one CPU)\n"
        f"uninstrumented : {base_s:8.3f} s\n"
        f"instrumented   : {inst_s:8.3f} s\n"
        f"overhead       : {(ratio - 1.0):8.2%} median over rounds (allowed <= "
        f"{MAX_INSTRUMENTATION_OVERHEAD - 1.0:.0%})\n",
    )
    assert ratio <= MAX_INSTRUMENTATION_OVERHEAD, (
        f"instrumentation costs {(ratio - 1.0):.2%} host time "
        f"({inst_s:.3f}s vs {base_s:.3f}s summed)"
    )


@pytest.mark.benchmark(group="phase-profile")
def test_bench_phase_profile(benchmark):
    """Recorded per-phase profile lane.

    Runs the HPCC lane instrumented and writes, next to the wall-clock
    trajectory at the repo root:

    * ``BENCH_phase_breakdown.json`` — the structured per-phase/counter
      breakdown (:func:`repro.analysis.phase_breakdown_json`, schema in
      benchmarks/README.md);
    * ``BENCH_step_trace.trace.json`` — a perfetto-loadable Chrome trace
      of the run's spans;
    * ``results/phase_profile.txt`` — the human-readable top-N report.
    """
    holder = {}

    def go():
        topology, demands = build_cc_fleet_demands(_scaled(CC_FLEET_FLOWS))
        paths = _testbed8_pathset(topology)
        config = SimulationConfig(
            seed=5,
            instrumentation=True,
            max_sim_time_s=CC_FLEET_WINDOW_S,
            drain_timeout_s=CC_FLEET_WINDOW_S,
        )
        network = RuntimeNetwork(
            topology, paths, make_router_factory("ecmp"), config
        )
        sim = FluidSimulation(network, demands, make_cc_factory("hpcc"), config)
        holder["sim"] = sim
        holder["result"] = sim.run()

    benchmark.pedantic(go, rounds=1, iterations=1)
    sim, result = holder["sim"], holder["result"]
    root = pathlib.Path(__file__).resolve().parent.parent
    breakdown = phase_breakdown_json(result.stats)
    assert breakdown["phases"], "instrumented run recorded no phases"
    (root / "BENCH_phase_breakdown.json").write_text(
        json.dumps(breakdown, indent=2)
    )
    write_chrome_trace(sim.obs, root / "BENCH_step_trace.trace.json")
    _write_results("phase_profile.txt", perf_report(result.stats))
