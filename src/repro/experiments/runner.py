"""Experiment runner: :class:`ExperimentSpec` in, analysed results out.

The runner builds (and caches) the topology and candidate-path set, resolves
the routing algorithm and congestion control by name, generates the traffic
matrix, runs the fluid simulation and wraps the outcome in an
:class:`ExperimentRun` carrying both the raw simulation result and the binned
slowdown profile the figures plot.

Run one experiment::

    from repro.experiments import ExperimentRunner, ExperimentSpec

    runner = ExperimentRunner()
    run = runner.run(ExperimentSpec(name="demo", router="lcmp", num_flows=500))
    print(run.profile.overall_p50, run.profile.overall_p99)

Sweep many specs — they fan out over a process pool, one worker per core,
and return in spec order with results identical to a serial sweep (every
stochastic component is seeded from the spec)::

    specs = [
        ExperimentSpec(name=f"load-{load:g}", load=load, num_flows=500)
        for load in (0.3, 0.5, 0.8)
    ]
    runs = runner.run_many(specs)                  # parallel by default
    runs = runner.run_many(specs, parallel=False)  # force serial

Compare routing algorithms on one scenario (same traffic matrix, also
parallelised)::

    by_router = runner.run_router_comparison(
        ExperimentSpec(name="base", num_flows=500), ["lcmp", "ecmp", "ucmp"]
    )
    print(by_router["lcmp"].profile.overall_p99)
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.fct_analysis import SlowdownProfile
from ..congestion_control import make_cc_factory, make_mixed_cc_factory
from ..core import LCMPConfig, lcmp_router_factory
from ..obs import merge_snapshots
from ..routing import make_router_factory
from ..simulator import FluidSimulation, RuntimeNetwork, SimulationConfig, SimulationResult
from ..topology import (
    PathSet,
    Topology,
    bso13_pathset,
    build_bso13,
    build_fabric,
    build_testbed8,
    fabric_pathset,
    testbed8_pathset,
)
from ..workloads import TrafficConfig, TrafficGenerator
from .configs import ExperimentSpec

__all__ = ["ExperimentRun", "ExperimentRunner"]

#: per-worker-process runner, so a worker that runs several specs of one
#: sweep reuses its topology/path-set cache (see _run_spec_in_worker)
_WORKER_RUNNER: Optional["ExperimentRunner"] = None


def _run_spec_in_worker(spec: "ExperimentSpec") -> "ExperimentRun":
    """Process-pool entry point: run one spec on this worker's runner."""
    global _WORKER_RUNNER
    if _WORKER_RUNNER is None:
        _WORKER_RUNNER = ExperimentRunner()
    return _WORKER_RUNNER.run(spec)


@dataclass
class ExperimentRun:
    """The outcome of one experiment run."""

    spec: ExperimentSpec
    result: SimulationResult
    profile: SlowdownProfile

    def pair_profile(self, src_dc: str, dst_dc: str, bidirectional: bool = True) -> SlowdownProfile:
        """Slowdown profile restricted to one DC pair (the Fig. 8 view).

        Served straight from the metrics-store columns (one boolean mask,
        no record materialisation).
        """
        mask = self.result.store.pair_mask(src_dc, dst_dc, bidirectional=bidirectional)
        return SlowdownProfile.from_result(self.profile.name, self.result, mask=mask)


class ExperimentRunner:
    """Runs experiment specs, caching topology construction."""

    def __init__(self) -> None:
        self._topology_cache: Dict[Tuple[str, float], Tuple[Topology, PathSet]] = {}
        #: merged observability snapshot of the most recent :meth:`run_many`
        #: sweep (``None`` when no run in the sweep was instrumented)
        self.last_sweep_stats: Optional[dict] = None

    @staticmethod
    def aggregate_stats(runs: Sequence[ExperimentRun]) -> Optional[dict]:
        """Merge the runs' observability snapshots into one profile.

        Counters and phase aggregates sum across runs, gauges keep their
        maxima (:func:`repro.obs.merge_snapshots`); uninstrumented runs are
        skipped, and the merge is ``None`` when no run carried stats.  The
        merged snapshot is deterministic in everything except wall-clock
        phase timings, so a parallel sweep aggregates to the same counters
        as a serial one.
        """
        return merge_snapshots([run.result.stats for run in runs])

    # ------------------------------------------------------------------ #
    # building blocks
    # ------------------------------------------------------------------ #
    def topology_for(self, spec: ExperimentSpec) -> Tuple[Topology, PathSet]:
        """Build (or fetch from cache) the topology + path set of a spec."""
        key = (spec.topology, spec.capacity_scale, spec.fabric)
        if key not in self._topology_cache:
            if spec.topology == "testbed8":
                topo = build_testbed8(capacity_scale=spec.capacity_scale)
                pathset = testbed8_pathset(topo)
            elif spec.topology == "bso13":
                topo = build_bso13(capacity_scale=spec.capacity_scale)
                pathset = bso13_pathset(topo)
            elif spec.topology == "fabric":
                if spec.fabric is None:
                    raise ValueError('topology "fabric" requires a FabricSpec in spec.fabric')
                topo = build_fabric(spec.fabric, capacity_scale=spec.capacity_scale)
                pathset = fabric_pathset(topo)
            else:
                raise ValueError(f"unknown topology {spec.topology!r}")
            self._topology_cache[key] = (topo, pathset)
        return self._topology_cache[key]

    def router_factory_for(self, spec: ExperimentSpec, topology: Topology, pathset: PathSet):
        """Resolve the routing algorithm named by the spec.

        LCMP's congestion-trend interval is the monitor cadence of the
        spec's :meth:`simulation_config_for`.
        """
        if spec.router == "lcmp":
            return lcmp_router_factory(
                topology,
                pathset,
                config=spec.lcmp_config or LCMPConfig(),
                monitor_interval_s=self.simulation_config_for(spec).monitor_interval_s,
            )
        return make_router_factory(spec.router)

    def simulation_config_for(self, spec: ExperimentSpec) -> SimulationConfig:
        """Simulator tunables derived from the spec."""
        return SimulationConfig(
            fidelity_noise=spec.fidelity_noise,
            seed=spec.seed,
            vectorized=spec.vectorized,
            instrumentation=spec.instrumentation,
        )

    def cc_factory_for(self, spec: ExperimentSpec):
        """Resolve the congestion control named by the spec.

        A spec carrying :attr:`~ExperimentSpec.cc_mix` gets a per-flow
        :class:`~repro.congestion_control.mix.MixedCCFactory` seeded from
        the spec (deterministic heterogeneous fleets); otherwise the
        uniform single-class factory of :attr:`~ExperimentSpec.cc`.
        """
        if spec.cc_mix is not None:
            return make_mixed_cc_factory(spec.cc_mix, seed=spec.seed)
        return make_cc_factory(spec.cc)

    def demands_for(self, spec: ExperimentSpec, topology: Topology, pathset: PathSet):
        """Generate the traffic matrix of a spec.

        Raises:
            ValueError: when an explicit ``spec.pairs`` names a DC the built
                topology does not have (``spec.validate`` cannot know the
                topology's DCs, so this is checked here).
        """
        if spec.pairs != "all_to_all":
            known = set(topology.dcs)
            for pair in spec.pairs:
                unknown = [dc for dc in pair if dc not in known]
                if unknown:
                    raise ValueError(
                        f"traffic pair {tuple(pair)!r} names DC {unknown[0]!r}, which "
                        f"topology {topology.name!r} does not have; its DCs are "
                        f"{list(topology.dcs)}"
                    )
        traffic = TrafficConfig(
            workload=spec.workload,
            load=spec.load,
            num_flows=spec.num_flows,
            pairs=spec.pairs,
            seed=spec.seed,
        )
        return TrafficGenerator(topology, pathset, traffic).generate()

    # ------------------------------------------------------------------ #
    # running
    # ------------------------------------------------------------------ #
    def run(self, spec: ExperimentSpec) -> ExperimentRun:
        """Run one experiment end to end."""
        spec.validate()
        topology, pathset = self.topology_for(spec)
        demands = self.demands_for(spec, topology, pathset)
        config = self.simulation_config_for(spec)
        network = RuntimeNetwork(
            topology, pathset, self.router_factory_for(spec, topology, pathset), config
        )
        simulation = FluidSimulation(
            network,
            demands,
            self.cc_factory_for(spec),
            config,
            scenario=spec.resolve_scenario(),
        )
        result = simulation.run()
        profile = SlowdownProfile.from_result(spec.name, result)
        return ExperimentRun(spec=spec, result=result, profile=profile)

    def run_many(
        self,
        specs: Sequence[ExperimentSpec],
        parallel: Optional[bool] = None,
        max_workers: Optional[int] = None,
    ) -> List[ExperimentRun]:
        """Run several specs, fanning out over a process pool.

        Results come back in spec order and are identical to a serial
        sweep: every stochastic component (traffic matrix, fidelity noise,
        surge generation) derives its RNG stream from the spec's own seed,
        so placement on workers cannot perturb anything
        (``tests/experiments/test_parallel_runner.py`` asserts this).

        Args:
            specs: the experiments to run.
            parallel: force parallel (True) or serial (False) execution;
                ``None`` picks parallel when there are at least two specs
                and more than one worker is available.  Specs that cannot
                be pickled (e.g. a scenario carrying a lambda) fall back
                to a serial sweep.
            max_workers: process-pool size; defaults to
                ``min(len(specs), cpu_count)``.

        Returns:
            One :class:`ExperimentRun` per spec, in order.  When any spec
            ran instrumented, the sweep's merged observability snapshot is
            left in :attr:`last_sweep_stats` (see :meth:`aggregate_stats`).
        """
        specs = list(specs)
        # reject a bad spec here, before any run or worker starts
        for spec in specs:
            spec.validate()
        workers = max_workers if max_workers is not None else (os.cpu_count() or 1)
        workers = max(1, min(workers, len(specs)))
        if parallel is None:
            parallel = len(specs) > 1 and workers > 1
        if parallel and workers > 1:
            try:
                pickle.dumps(specs)
            except (pickle.PicklingError, AttributeError, TypeError):
                parallel = False
        if not parallel or workers <= 1:
            runs = [self.run(spec) for spec in specs]
        else:
            try:
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    runs = list(pool.map(_run_spec_in_worker, specs))
            except (OSError, BrokenProcessPool):
                # no usable process pool in this environment (restricted
                # sandbox, missing semaphores, killed workers): degrade to
                # the serial sweep; errors raised *by a spec* propagate
                # unchanged
                runs = [self.run(spec) for spec in specs]
        self.last_sweep_stats = self.aggregate_stats(runs)
        return runs

    def run_router_comparison(
        self,
        base_spec: ExperimentSpec,
        routers: Sequence[str],
        lcmp_config: Optional[LCMPConfig] = None,
        parallel: Optional[bool] = None,
    ) -> Dict[str, ExperimentRun]:
        """Run the same scenario under several routing algorithms.

        Every run shares the traffic matrix (same workload seed) so the only
        varying factor is the routing decision, exactly as in the paper.
        The per-router runs are independent, so they fan out through
        :meth:`run_many`.
        """
        specs = [
            base_spec.with_overrides(
                name=router,
                router=router,
                lcmp_config=lcmp_config if router == "lcmp" else None,
            )
            for router in routers
        ]
        runs = self.run_many(specs, parallel=parallel)
        return {router: run for router, run in zip(routers, runs)}
