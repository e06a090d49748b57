"""Tests for the experiment runner (small, fast runs)."""

import pytest

from repro.core import LCMPConfig
from repro.experiments import ExperimentRunner, ExperimentSpec
from repro.topology import FabricSpec

QUICK = dict(num_flows=120, capacity_scale=0.05, seed=21)


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner()


class TestBuildingBlocks:
    def test_topology_cache_reuse(self, runner):
        spec = ExperimentSpec(name="x", **QUICK)
        topo_a, paths_a = runner.topology_for(spec)
        topo_b, paths_b = runner.topology_for(spec)
        assert topo_a is topo_b and paths_a is paths_b

    def test_unknown_topology_rejected(self, runner):
        spec = ExperimentSpec(name="x", **QUICK)
        object.__setattr__(spec, "topology", "unknown")
        with pytest.raises(ValueError):
            runner.topology_for(spec)

    def test_demands_generated_for_spec(self, runner):
        spec = ExperimentSpec(name="x", **QUICK)
        topo, paths = runner.topology_for(spec)
        demands = runner.demands_for(spec, topo, paths)
        assert len(demands) == QUICK["num_flows"]


TINY_FABRIC = FabricSpec(name="tiny", seed=3, regions=3, cores_per_region=2,
                         aggs_per_core=2, edges_per_agg=1)


class TestUnknownPairDC:
    """A ``pairs`` DC the built topology lacks is named before any traffic."""

    @pytest.mark.parametrize(
        "topology, extra, known",
        [
            ("testbed8", {}, "DC1"),
            ("bso13", {}, "DC13"),
            ("fabric", {"fabric": TINY_FABRIC}, "R0E0x0x0"),
        ],
    )
    def test_run_names_the_unknown_dc_and_the_topology(self, runner, topology, extra, known):
        spec = ExperimentSpec(
            name="x", topology=topology, pairs=((known, "DC99"),), **extra, **QUICK
        )
        spec.validate()  # membership needs the built topology
        topo, _ = runner.topology_for(spec)
        with pytest.raises(ValueError) as info:
            runner.run(spec)
        message = str(info.value)
        assert "'DC99'" in message
        assert repr(topo.name) in message
        assert str(list(topo.dcs)) in message
        assert "no candidate path" not in message

    def test_demands_for_checks_the_source_too(self, runner):
        spec = ExperimentSpec(name="x", pairs=(("DC0", "DC1"),), **QUICK)
        topo, paths = runner.topology_for(spec)
        with pytest.raises(ValueError, match="names DC 'DC0'"):
            runner.demands_for(spec, topo, paths)


class TestRuns:
    @pytest.mark.parametrize("router", ["ecmp", "ucmp", "wcmp", "redte", "lcmp"])
    def test_each_router_runs_end_to_end(self, runner, router):
        spec = ExperimentSpec(name=router, router=router, **QUICK)
        run = runner.run(spec)
        assert len(run.result.records) == QUICK["num_flows"]
        assert run.result.unfinished_flows == 0
        assert run.profile.overall_p50 >= 1.0

    def test_each_cc_runs_end_to_end(self, runner):
        for cc in ("dcqcn", "hpcc", "timely", "dctcp"):
            spec = ExperimentSpec(name=cc, router="ecmp", cc=cc, num_flows=60,
                                  capacity_scale=0.05, seed=22)
            run = runner.run(spec)
            assert run.result.unfinished_flows == 0

    def test_bso13_runs_end_to_end(self, runner):
        spec = ExperimentSpec(
            name="bso", topology="bso13", router="lcmp", pairs="all_to_all",
            num_flows=150, capacity_scale=0.05, seed=23,
        )
        run = runner.run(spec)
        assert run.result.unfinished_flows == 0
        assert len(run.result.records) == 150

    def test_pair_profile_filtering(self, runner):
        spec = ExperimentSpec(
            name="bso", topology="bso13", router="ecmp", pairs="all_to_all",
            num_flows=200, capacity_scale=0.05, seed=24,
        )
        run = runner.run(spec)
        pairs = {(r.src_dc, r.dst_dc) for r in run.result.records}
        some_pair = next(iter(pairs))
        pair_profile = run.pair_profile(*some_pair)
        assert pair_profile.total_flows <= len(run.result.records)

    def test_router_comparison_shares_traffic(self, runner):
        base = ExperimentSpec(name="cmp", **QUICK)
        runs = runner.run_router_comparison(base, ["ecmp", "lcmp"], lcmp_config=LCMPConfig())
        assert set(runs) == {"ecmp", "lcmp"}
        ecmp_sizes = [r.size_bytes for r in runs["ecmp"].result.records]
        lcmp_sizes = [r.size_bytes for r in runs["lcmp"].result.records]
        assert sorted(ecmp_sizes) == sorted(lcmp_sizes)

    def test_determinism_across_runner_instances(self):
        spec = ExperimentSpec(name="det", router="lcmp", **QUICK)
        run_a = ExperimentRunner().run(spec)
        run_b = ExperimentRunner().run(spec)
        assert run_a.profile.overall_p50 == pytest.approx(run_b.profile.overall_p50)
        assert run_a.profile.overall_p99 == pytest.approx(run_b.profile.overall_p99)
