"""Parallel sweep execution: determinism, ordering and fallbacks.

``ExperimentRunner.run_many`` fans specs out over a process pool; because
every stochastic component derives its RNG stream from the spec's own seed,
worker placement must not perturb anything — a parallel sweep returns
bit-identical results to a serial one, in spec order.
"""

from __future__ import annotations

import pickle

import pytest

from repro.experiments import ExperimentRunner, ExperimentSpec


def small_specs():
    return [
        ExperimentSpec(
            name=f"sweep-{router}-{load:g}",
            router=router,
            load=load,
            num_flows=60,
            seed=11,
        )
        for router in ("ecmp", "lcmp")
        for load in (0.3, 0.5)
    ]


def fct_lists(runs):
    return [[r.fct_s for r in run.result.records] for run in runs]


class TestRunManyParallel:
    def test_parallel_matches_serial_bitwise(self):
        serial = ExperimentRunner().run_many(small_specs(), parallel=False)
        parallel = ExperimentRunner().run_many(
            small_specs(), parallel=True, max_workers=2
        )
        assert [run.spec.name for run in parallel] == [
            spec.name for spec in small_specs()
        ]
        assert fct_lists(serial) == fct_lists(parallel)
        for s_run, p_run in zip(serial, parallel):
            assert s_run.profile.overall_p50 == p_run.profile.overall_p50
            assert s_run.profile.overall_p99 == p_run.profile.overall_p99

    def test_scenario_specs_round_trip(self):
        specs = [
            ExperimentSpec(
                name="cut", scenario="single-link-cut", num_flows=60, seed=5
            ),
            ExperimentSpec(
                name="surge", scenario="diurnal-surge", num_flows=60, seed=5
            ),
        ]
        assert pickle.loads(pickle.dumps(specs)) == specs
        serial = ExperimentRunner().run_many(specs, parallel=False)
        parallel = ExperimentRunner().run_many(specs, parallel=True, max_workers=2)
        assert fct_lists(serial) == fct_lists(parallel)
        for s_run, p_run in zip(serial, parallel):
            assert s_run.result.scenario_metrics is not None
            assert (
                s_run.result.scenario_metrics.total_disrupted
                == p_run.result.scenario_metrics.total_disrupted
            )

    @pytest.mark.parametrize(
        "error", [pickle.PicklingError, AttributeError, TypeError]
    )
    def test_unpicklable_spec_falls_back_to_serial(self, error):
        """``pickle`` reports an unpicklable object as PicklingError,
        AttributeError (e.g. a local class) or TypeError (e.g. a lock):
        each degrades the sweep to serial."""
        from repro.scenarios.events import Scenario

        class Unpicklable(Scenario):
            def __reduce__(self):
                raise error("not today")

        specs = [
            ExperimentSpec(name="plain", num_flows=40, seed=3),
            ExperimentSpec(
                name="odd",
                num_flows=40,
                seed=3,
                scenario=Unpicklable(name="noop"),
            ),
        ]
        runs = ExperimentRunner().run_many(specs, parallel=True, max_workers=2)
        assert [run.spec.name for run in runs] == ["plain", "odd"]
        assert all(run.result.records for run in runs)

    def test_probe_propagates_unrelated_errors(self):
        """Only pickling failures select the serial fallback; a bug raised
        while pickling a spec surfaces instead of being swallowed."""
        from repro.scenarios.events import Scenario

        class Broken(Scenario):
            def __reduce__(self):
                raise ZeroDivisionError("bug in __reduce__")

        specs = [
            ExperimentSpec(name="plain", num_flows=40, seed=3),
            ExperimentSpec(
                name="odd", num_flows=40, seed=3, scenario=Broken(name="noop")
            ),
        ]
        with pytest.raises(ZeroDivisionError, match="bug in __reduce__"):
            ExperimentRunner().run_many(specs, parallel=True, max_workers=2)

    def test_single_spec_runs_inline(self):
        runner = ExperimentRunner()
        runs = runner.run_many([ExperimentSpec(name="solo", num_flows=40)])
        assert len(runs) == 1
        # the inline run populates this runner's own topology cache
        assert runner._topology_cache

    def test_bad_spec_rejected_before_any_run(self):
        runner = ExperimentRunner()
        specs = small_specs() + [ExperimentSpec(name="bad", router="ospf")]
        with pytest.raises(ValueError, match="unknown router 'ospf'"):
            runner.run_many(specs, parallel=True, max_workers=2)
        assert not runner._topology_cache

    def test_out_of_range_load_rejected_before_any_run(self):
        """A load the traffic generator would reject fails the sweep up
        front, not inside a worker after the topology is built."""
        runner = ExperimentRunner()
        specs = small_specs() + [ExperimentSpec(name="overload", load=2.0)]
        with pytest.raises(ValueError, match=r"load must be in \(0, 1.5\], got 2.0"):
            runner.run_many(specs, parallel=False)
        # a serial sweep would have built (and cached) the topology for
        # the specs ahead of the bad one
        assert not runner._topology_cache

    def test_router_comparison_parallel_matches_serial(self):
        base = ExperimentSpec(name="base", num_flows=60, seed=9)
        serial = ExperimentRunner().run_router_comparison(
            base, ["ecmp", "ucmp"], parallel=False
        )
        parallel = ExperimentRunner().run_router_comparison(
            base, ["ecmp", "ucmp"], parallel=True
        )
        assert set(serial) == set(parallel) == {"ecmp", "ucmp"}
        for router in serial:
            assert [r.fct_s for r in serial[router].result.records] == [
                r.fct_s for r in parallel[router].result.records
            ]


@pytest.mark.parametrize("vectorized", [True, False])
def test_spec_vectorized_plumbs_through(vectorized):
    spec = ExperimentSpec(name="plumb", num_flows=40, vectorized=vectorized)
    config = ExperimentRunner().simulation_config_for(spec)
    assert config.vectorized is vectorized


@pytest.mark.parametrize("instrumentation", [True, False])
def test_spec_instrumentation_plumbs_through(instrumentation):
    spec = ExperimentSpec(name="plumb", num_flows=40, instrumentation=instrumentation)
    config = ExperimentRunner().simulation_config_for(spec)
    assert config.instrumentation is instrumentation


class TestSweepStatsAggregation:
    """Cross-worker observability aggregation (``aggregate_stats`` /
    ``last_sweep_stats``): a parallel sweep must merge to the same
    deterministic profile as a serial one — counters and event counts are
    exact; only wall-clock phase durations may differ."""

    @staticmethod
    def instrumented_specs():
        return [
            spec.with_overrides(instrumentation=True) for spec in small_specs()
        ]

    @staticmethod
    def deterministic_view(stats):
        return {
            "counters": stats["counters"],
            "gauges": stats["gauges"],
            "phase_counts": {
                name: p["count"] for name, p in stats["phases"].items()
            },
        }

    def test_uninstrumented_sweep_aggregates_to_none(self):
        runner = ExperimentRunner()
        runner.run_many(small_specs()[:2], parallel=False)
        assert runner.last_sweep_stats is None

    def test_parallel_aggregation_matches_serial(self):
        serial_runner = ExperimentRunner()
        serial_runner.run_many(self.instrumented_specs(), parallel=False)
        parallel_runner = ExperimentRunner()
        parallel_runner.run_many(
            self.instrumented_specs(), parallel=True, max_workers=2
        )
        serial = serial_runner.last_sweep_stats
        parallel = parallel_runner.last_sweep_stats
        assert serial is not None and parallel is not None
        assert self.deterministic_view(serial) == self.deterministic_view(parallel)
        assert serial["counters"]["engine.events_fired"] > 0

    def test_aggregate_skips_uninstrumented_runs(self):
        specs = small_specs()[:2]
        specs[0] = specs[0].with_overrides(instrumentation=True)
        runner = ExperimentRunner()
        runs = runner.run_many(specs, parallel=False)
        assert runs[0].result.stats is not None
        assert runs[1].result.stats is None
        merged = runner.last_sweep_stats
        assert merged == ExperimentRunner.aggregate_stats(runs)
        # the merge is exactly the one instrumented run's counters
        assert merged["counters"] == runs[0].result.stats["counters"]
