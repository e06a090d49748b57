"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig7-bso13 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing in place.
``--trace 1`` alternates untraced and traced repetitions, reports the
per-layer metrics, prints the per-layer self-time table to stderr and
writes a Chrome trace under ``perfbench/results/``.

A repetition builds every simulation of the workload from its spec (fresh
runner, no topology cache), runs it and checks its outputs.  Repetitions
continue until ``--seconds`` is spent (at least two).  ``flows_per_s``,
``step_ms_p50``, ``step_ms_p99`` and ``setup_s`` are host times scaled to a
reference host speed, which a calibration kernel measures around every
simulation (see :class:`Calibration`); stderr also gets their unscaled
values.  ``step_ms_p99`` is taken over a per-step profile, each step's
lower quartile over the repetitions (see :func:`step_profile_ms`).  The process
exits with 1 when any correctness check fails, and prints the JSON object as
the last line of stdout either way.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

if not __package__:
    # run as a script: make the program under src/ and this package importable
    _ROOT = Path(__file__).resolve().parents[1]
    if not (_ROOT / "src" / "repro").is_dir():
        sys.exit(f"perfbench: no program sources at {_ROOT / 'src' / 'repro'}")
    sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]

import numpy as np

from repro.analysis.fct_analysis import SlowdownProfile
from repro.experiments import ExperimentRunner
from repro.scenarios.invariants import InvariantViolation, check_demand_conservation
from repro.simulator import FluidSimulation, RuntimeNetwork

from perfbench.tracing import (
    LAYER_UNITS,
    ROOT,
    SpanRecorder,
    Tracer,
    layer_metrics,
    self_time_table,
    write_chrome_trace,
)
from perfbench.workloads import WORKLOADS, Job

#: the end-to-end metrics and their units
END_TO_END_UNITS = {
    "flows_per_s": "flows/s",
    "step_ms_p50": "ms",
    "step_ms_p99": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
MIN_REPS = 2
#: set-up time samples per simulation and repetition
SETUP_SAMPLES = 4
#: calibration kernels timed before and after each simulation
CAL_SAMPLES = 5
#: calibration kernel time on the reference host (README.md, "Host speed")
REFERENCE_CAL_S = 0.0025
#: size of the untimed warm-up repetition that loads every code path
WARMUP_FLOWS = 64
RESULTS_DIR = Path(__file__).resolve().parent / "results"


class _NoSpans:
    """Stands in for a :class:`SpanRecorder` in untraced runs."""

    @staticmethod
    def span(name):
        return nullcontext()


class Calibration:
    """A fixed kernel that measures how fast the host runs right now.

    The kernel mixes what the simulator spends its time on (Python-level
    object and dict work, and numpy scatter-adds, segment reductions and
    selects over a few thousand elements) but calls no code of the
    program, so only the host's speed can move it.  ``slowness()`` is the
    kernel's median time over ``REFERENCE_CAL_S``: 1.0 on the reference
    host, 1.5 when the host runs 1.5x slower.
    """

    def __init__(self) -> None:
        # 3000 four-hop flows over 400 links
        rng = np.random.default_rng(0)
        self.rates = rng.random(3000)
        self.lengths = np.full(3000, 4)
        self.starts = np.arange(0, 12_000, 4)
        self.idx = rng.integers(0, 400, size=12_000)
        self.rows = [(i, i * 0.5) for i in range(2000)]

    def kernel(self) -> float:
        """Host seconds for one pass of the kernel."""
        t0 = perf_counter()
        table, acc = {}, 0.0
        for key, value in self.rows:
            table[key] = value * 2.0
            acc += table[key]
        for _ in range(20):
            offered = np.zeros(400)
            np.add.at(offered, self.idx, np.repeat(self.rates, self.lengths))
            worst = np.minimum.reduceat(offered[self.idx], self.starts)
            acc += float(np.where(worst > acc % 1.0, worst, 0.0).sum())
        return perf_counter() - t0

    def slowness(self) -> List[float]:
        """``CAL_SAMPLES`` kernel times, each relative to the reference host."""
        return [self.kernel() / REFERENCE_CAL_S for _ in range(CAL_SAMPLES)]


class StepClock:
    """Step observer stamping host time after every update step."""

    def __init__(self) -> None:
        self.stamps: List[float] = []

    def __call__(self, sim, now: float) -> None:
        self.stamps.append(perf_counter())


@dataclass
class JobRun:
    """One simulation of a repetition and what it was measured to do.

    Only scalars, step gaps and a digest of the outputs outlive the run, so
    the process's peak memory is that of one simulation whatever the number
    of repetitions.  Traced runs keep ``result`` and ``profile`` until their
    layer metrics are taken (:func:`run_traced_rep`).
    """

    router: str
    offered: int
    setup_s: List[float] = field(default_factory=list)
    run_s: float = 0.0
    gaps_s: np.ndarray = field(default_factory=lambda: np.empty(0))
    steps: int = 0
    completed: int = 0
    #: scenario-failed plus unfinished flows
    lost: int = 0
    #: digest of the flow-id, FCT and slowdown columns, bit for bit
    fingerprint: Optional[bytes] = None
    result: object = None
    profile: object = None
    problems: List[str] = field(default_factory=list)
    #: host slowness around this simulation (1.0 = reference host)
    slowness: float = 1.0

    @property
    def failed(self) -> int:
        return self.offered if self.problems else self.lost


def fingerprint(result) -> bytes:
    """SHA-256 of the flow-id, FCT and slowdown columns of ``result``."""
    store = result.store
    digest = hashlib.sha256()
    for column in (store.column("flow_id"), store.fcts(), store.slowdowns()):
        digest.update(column.tobytes())
    return digest.digest()


def check_run(result, offered: int, scenario) -> List[str]:
    """Correctness violations of one simulation (empty when it is correct)."""
    problems = []
    try:
        check_demand_conservation(result, offered)
    except InvariantViolation as exc:
        problems.append(str(exc))
    if result.unfinished_flows:
        problems.append(f"{result.unfinished_flows} flows unfinished at the deadline")
    if result.failed_flows:
        problems.append(f"{len(result.failed_flows)} flows failed by the scenario")
    slowdowns = result.store.slowdowns()
    if not (np.isfinite(slowdowns).all() and (slowdowns > 0).all()):
        problems.append("a slowdown is not finite and positive")
    if scenario is not None:
        missed = [o.kind for o in result.scenario_metrics.outcomes if o.applied_s is None]
        if missed:
            problems.append(f"scenario events never applied: {missed}")
    return problems


def build(job: Job, spans=_NoSpans, tracer: Optional[Tracer] = None):
    """Spec to constructed simulation, as ``ExperimentRunner.run`` does it.

    A fresh runner each time, so the topology and path set are rebuilt as
    in every new process.  Returns ``(sim, demands, scenario)``.
    """
    spec = job.spec.with_overrides(instrumentation=tracer is not None)
    spec.validate()
    runner = ExperimentRunner()
    with spans.span("setup.topology"):
        topology, pathset = runner.topology_for(spec)
    with spans.span("setup.control_plane"):
        router_factory = runner.router_factory_for(spec, topology, pathset)
    with spans.span("setup.demands"):
        demands = job.make_demands(runner, topology, pathset)
        scenario = job.make_scenario(demands) if job.make_scenario else None
    with spans.span("setup.sim_init"):
        if tracer is not None:
            router_factory = tracer.router_factory(router_factory, spec.router)
        config = runner.simulation_config_for(spec)
        network = RuntimeNetwork(topology, pathset, router_factory, config)
        sim = FluidSimulation(
            network, demands, runner.cc_factory_for(spec), config, scenario=scenario
        )
    return sim, demands, scenario


def run_job(
    job: Job, rec=None, tracer: Optional[Tracer] = None, cal: Optional[Calibration] = None
) -> JobRun:
    """Set up (SETUP_SAMPLES times untraced), run, analyse and check one simulation.

    With ``cal``, the host's slowness is measured right before and after.
    """
    spans = rec or _NoSpans
    out = JobRun(router=job.spec.router, offered=job.spec.num_flows)
    slowness = cal.slowness() if cal is not None else []
    for _ in range(1 if tracer is not None else SETUP_SAMPLES):
        t0 = perf_counter()
        sim, demands, scenario = build(job, spans, tracer)
        out.setup_s.append(perf_counter() - t0)
    out.offered = len(demands)
    clock = StepClock()
    sim.add_step_observer(clock)
    if tracer is not None:
        tracer.attach(sim)
    t1 = perf_counter()
    result = tracer.run(sim) if tracer is not None else sim.run()
    out.run_s = perf_counter() - t1
    if cal is not None:
        out.slowness = statistics.median(slowness + cal.slowness())
    out.steps = len(clock.stamps)
    out.gaps_s = np.diff(np.asarray(clock.stamps))
    with spans.span("analysis.profile"):
        profile = SlowdownProfile.from_result(job.spec.name, result)
    with spans.span("bench.check"):
        out.problems = check_run(result, len(demands), scenario)
    out.completed = len(result.store)
    out.lost = len(result.failed_flows) + result.unfinished_flows
    out.fingerprint = fingerprint(result)
    if tracer is not None:
        out.result, out.profile = result, profile
    return out


@dataclass
class Rep:
    """One repetition: every simulation of the workload once."""

    jobs: List[JobRun]
    layers: Optional[Dict[str, float]] = None

    @property
    def offered(self) -> int:
        return sum(j.offered for j in self.jobs)

    @property
    def failed(self) -> int:
        return sum(j.failed for j in self.jobs)

    @property
    def run_s(self) -> float:
        return sum(j.run_s for j in self.jobs)

    @property
    def flows_per_s(self) -> float:
        return sum(j.completed for j in self.jobs) / self.run_s

    @property
    def reference_flows_per_s(self) -> float:
        """:attr:`flows_per_s` with each simulation's time scaled to the reference host."""
        return sum(j.completed for j in self.jobs) / sum(j.run_s / j.slowness for j in self.jobs)

    @property
    def problems(self) -> List[str]:
        return [p for j in self.jobs for p in j.problems]


def run_rep(jobs: List[Job], rec=None, tracer=None, cal=None) -> Rep:
    """Run every job once; a job that raises counts all its flows as failed."""
    runs = []
    for job in jobs:
        try:
            runs.append(run_job(job, rec, tracer, cal))
        except Exception as exc:  # report it and keep measuring the other jobs
            traceback.print_exc(file=sys.stderr)
            runs.append(
                JobRun(router=job.spec.router, offered=job.spec.num_flows, problems=[repr(exc)])
            )
        # free the finished simulation's reference cycles before the next one
        with (rec or _NoSpans).span("bench.gc"):
            gc.collect()
    return Rep(jobs=runs)


def run_traced_rep(jobs: List[Job], run_id: str) -> tuple:
    """One repetition under the tracer; returns ``(rep, recorder)``."""
    rec = SpanRecorder(run_id)
    with Tracer(rec, cc=jobs[0].spec.cc) as tracer:
        rec.enter(ROOT)
        try:
            rep = run_rep(jobs, rec, tracer)
        finally:
            rec.exit()
    if not rep.problems:
        rep.layers = layer_metrics(rec, tracer, rep.jobs)
    for job in rep.jobs:
        job.result = job.profile = None
    gc.collect()
    return rep, rec


def check_identical(reference: Rep, other: Rep, label: str) -> None:
    """Flag ``other``'s jobs whose outputs differ bit-wise from ``reference``'s."""
    for ref, job in zip(reference.jobs, other.jobs):
        if job.problems:
            continue
        if ref.fingerprint != job.fingerprint:
            job.problems.append(f"{label}: {job.router} FCT/slowdown columns differ")
        elif ref.steps != job.steps:
            job.problems.append(f"{label}: {job.router} ran {job.steps} steps, not {ref.steps}")


def step_profile_ms(reps: List[Rep]) -> np.ndarray:
    """Each step's scaled host ms, as its lower quartile over the repetitions.

    Every repetition runs the same simulations step for step
    (:func:`check_identical`), so step ``i`` of one repetition is step ``i``
    of the next.  The lower quartile over repetitions keeps a step that is
    slow every time and drops a stall the host caused in some repetitions
    only; the 99th percentile of a single repetition would mostly count
    those stalls (README.md, "Host speed").
    """
    return np.concatenate(
        [
            np.percentile(
                np.stack([rep.jobs[k].gaps_s / rep.jobs[k].slowness for rep in reps]), 25, axis=0
            )
            for k in range(len(reps[0].jobs))
        ]
    ) * 1e3


def _measure_loop(seconds: float, one_round) -> list:
    """Call ``one_round`` until ``seconds`` are spent (at least MIN_REPS times)."""
    deadline = perf_counter() + seconds
    rounds, walls = [], []
    while True:
        t0 = perf_counter()
        rounds.append(one_round(len(rounds)))
        walls.append(perf_counter() - t0)
        if len(rounds) >= MIN_REPS and perf_counter() + statistics.median(walls) > deadline:
            return rounds


def measure(
    workload: str, seed: int, seconds: float, trace: bool, flows: Optional[int] = None
) -> dict:
    """Run one workload and return the report object the command prints."""
    wl = WORKLOADS[workload]
    jobs = wl.jobs(seed, flows)
    cal = Calibration()
    warmup = run_rep(wl.jobs(seed, min(WARMUP_FLOWS, flows or WARMUP_FLOWS)), cal=cal)

    if not trace:
        reps = _measure_loop(seconds, lambda i: run_rep(jobs, cal=cal))
        traced: List[tuple] = []
    else:
        pairs = _measure_loop(
            seconds,
            lambda i: (run_rep(jobs), run_traced_rep(jobs, f"{workload}/seed{seed}/rep{i}")),
        )
        reps = [untraced for untraced, _ in pairs]
        traced = [t for _, t in pairs]
    for i, rep in enumerate(reps[1:], start=1):
        check_identical(reps[0], rep, f"repetition {i} vs 0")
    for i, (rep, _) in enumerate(traced):
        check_identical(reps[0], rep, f"traced repetition {i} vs untraced")

    measured = reps + [rep for rep, _ in traced]
    if warmup.problems:
        # a failed warm-up is reported like a measured repetition
        measured.append(warmup)
    problems = [p for rep in measured for p in rep.problems]
    report = {
        "correct": not problems,
        "attempted": sum(rep.offered for rep in measured),
        "failed": sum(rep.failed for rep in measured),
        "metrics": {},
    }
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    if problems:
        return report

    if not trace:
        runs = [j for rep in reps for j in rep.jobs]
        profile_ms = step_profile_ms(reps)
        scaled_ms = [
            np.concatenate([j.gaps_s / j.slowness for j in rep.jobs]) * 1e3 for rep in reps
        ]
        raw_ms = [np.concatenate([j.gaps_s for j in rep.jobs]) * 1e3 for rep in reps]
        values = {
            "flows_per_s": statistics.median(rep.reference_flows_per_s for rep in reps),
            # a repetition's median already ignores its stalls
            "step_ms_p50": statistics.median(np.percentile(g, 50) for g in scaled_ms),
            "step_ms_p99": np.percentile(profile_ms, 99),
            "setup_s": statistics.median(s / j.slowness for j in runs for s in j.setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        print(
            f"{workload} seed {seed}: {len(reps)} repetitions, a profile of "
            f"{profile_ms.size} steps ({int(profile_ms.size * 0.01)} beyond p99), "
            f"{sum(len(j.setup_s) for j in runs)} set-up samples; host slowness "
            f"{statistics.median(j.slowness for j in runs):.3f}; unscaled: flows_per_s="
            f"{statistics.median(rep.flows_per_s for rep in reps):.6g} step_ms_p50/p99 "
            f"per repetition={statistics.median(np.percentile(g, 50) for g in raw_ms):.6g}/"
            f"{statistics.median(np.percentile(g, 99) for g in raw_ms):.6g} setup_s="
            f"{statistics.median(s for j in runs for s in j.setup_s):.6g}",
            file=sys.stderr,
        )
        units = END_TO_END_UNITS
    else:
        values = {
            name: statistics.median(rep.layers[name] for rep, _ in traced)
            for name in traced[0][0].layers
        }
        # adjacent untraced/traced pairs see nearly the same host speed
        values["trace.overhead"] = statistics.median(
            t.run_s / u.run_s - 1.0 for u, (t, _) in zip(reps, traced)
        )
        rec = traced[-1][1]
        table = self_time_table(rec)
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"trace-{workload}-seed{seed}.json"
        write_chrome_trace(rec, path, table)
        print(f"{'layer':<22}{'self s':>10}{'share':>8}", file=sys.stderr)
        for layer, secs, share in table:
            print(f"{layer:<22}{secs:>10.4f}{share:>8.1%}", file=sys.stderr)
        print(f"chrome trace: {path}", file=sys.stderr)
        units = LAYER_UNITS
    report["metrics"] = {
        name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()
    }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
