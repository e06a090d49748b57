"""The benchmark's own tests, at tiny flow counts.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.backend import get_backend
from repro.experiments import ExperimentRunner

import numpy as np

import perfbench.run
from perfbench.run import (
    END_TO_END_UNITS,
    MIN_REPS,
    JobRun,
    Rep,
    check_identical,
    measure,
    run_rep,
    step_profile_ms,
)
from perfbench.tracing import CC_CLASSES, CC_KERNELS, LAYER_UNITS
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
TINY = 40


@pytest.fixture(scope="module")
def contract():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_runs_and_passes_its_checks(workload):
    report = measure(workload, seed=3, seconds=0, trace=False, flows=TINY)
    jobs = len(WORKLOADS[workload].jobs(3, TINY))
    assert report["correct"]
    assert report["failed"] == 0
    assert report["attempted"] == MIN_REPS * jobs * TINY
    assert all(m["value"] > 0 for m in report["metrics"].values())


def test_workloads_match_benchmark_json(contract):
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in contract["workloads"]] == [w.why for w in WORKLOADS.values()]


@pytest.mark.parametrize("trace", [False, True])
def test_printed_metrics_match_benchmark_json(contract, trace):
    report = measure("failover-testbed8", seed=3, seconds=0, trace=trace, flows=TINY)
    declared = contract["per_layer"] if trace else contract["end_to_end"]
    assert report["correct"]
    assert {name: m["unit"] for name, m in report["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert (LAYER_UNITS if trace else END_TO_END_UNITS).keys() == report["metrics"].keys()


def _inputs(workload, seed):
    runner = ExperimentRunner()
    inputs = []
    for job in WORKLOADS[workload].jobs(seed, TINY):
        topology, pathset = runner.topology_for(job.spec)
        demands = job.make_demands(runner, topology, pathset)
        scenario = job.make_scenario(demands) if job.make_scenario else None
        inputs.append((demands, scenario))
    return inputs


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_reproduces_inputs_and_another_seed_changes_them(workload):
    assert _inputs(workload, 5) == _inputs(workload, 5)
    assert _inputs(workload, 5) != _inputs(workload, 6)


def test_repetitions_that_differ_are_flagged():
    jobs = WORKLOADS["fig7-bso13"].jobs(3, TINY)
    reference, same = run_rep(jobs), run_rep(jobs)
    other = run_rep(WORKLOADS["fig7-bso13"].jobs(4, TINY))
    check_identical(reference, same, "same seed")
    check_identical(reference, other, "other seed")
    assert not same.problems
    assert other.problems and other.failed == other.offered


def _rep(gaps_ms, slowness=1.0, steps=None):
    gaps = np.asarray(gaps_ms) / 1e3
    job = JobRun(router="lcmp", offered=1, gaps_s=gaps, slowness=slowness, fingerprint=b"x")
    job.steps = steps if steps is not None else gaps.size + 1
    return Rep(jobs=[job])


def test_step_profile_keeps_slow_steps_and_drops_stalls_of_some_repetitions():
    reps = [_rep([1, 2, 1]), _rep([1, 2, 9]), _rep([1, 2, 9]), _rep([2, 4, 2], slowness=2.0)]
    assert step_profile_ms(reps).tolist() == [1.0, 2.0, 1.0]


def test_repetitions_with_another_step_count_are_flagged():
    reference, other = _rep([1, 2]), _rep([1, 2], steps=4)
    check_identical(reference, other, "rep 1")
    assert other.problems


def test_repetitions_keep_no_simulation_results():
    rep = run_rep(WORKLOADS["fig7-bso13"].jobs(3, TINY))
    assert all(job.result is None and job.profile is None for job in rep.jobs)
    assert all(job.fingerprint is not None for job in rep.jobs)


def test_a_failed_check_counts_every_flow_as_failed(monkeypatch):
    monkeypatch.setattr(perfbench.run, "check_run", lambda *args: ["forced violation"])
    report = measure("burst-hpcc", seed=3, seconds=0, trace=False, flows=TINY)
    assert not report["correct"]
    # the measured repetitions plus the warm-up that also failed
    assert report["attempted"] == (MIN_REPS + 1) * TINY
    assert report["failed"] == report["attempted"]
    assert report["metrics"] == {}


def test_traced_run_restores_the_wrapped_classes():
    methods = [method for method, _ in CC_KERNELS]
    before = {(cls, m): cls.__dict__.get(m) for cls in CC_CLASSES.values() for m in methods}
    backend = get_backend("numpy")
    backend_attrs = dict(vars(backend))
    for workload in ("burst-hpcc", "fig7-bso13"):
        assert measure(workload, seed=3, seconds=0, trace=True, flows=TINY)["correct"]
    after = {(cls, m): cls.__dict__.get(m) for cls in CC_CLASSES.values() for m in methods}
    assert after == before
    assert vars(backend) == backend_attrs


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("results", "__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig5-testbed8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
