"""Tests for the LCMP control plane (slow-path provisioning)."""

import pytest

from repro.core import ControlPlane, LCMPConfig, LCMPRouter, lcmp_router_factory
from repro.core.path_quality import candidate_path_quality
from repro.routing import make_router_factory
from repro.simulator import RuntimeNetwork, SimulationConfig
from repro.topology import GBPS


class TestTables:
    def test_tables_derived_from_topology(self, testbed_topology, testbed_paths):
        cp = ControlPlane(testbed_topology, testbed_paths)
        tables = cp.build_tables()
        # the largest provisioned inter-DC capacity on the testbed is 200 Gbps
        assert tables.max_capacity_bps == 200 * GBPS
        assert tables.buffer_bytes > 0
        # one trend bucket per distinct provisioned rate
        assert len(tables.trend_thresholds) >= 3

    def test_tables_cached(self, testbed_topology, testbed_paths):
        cp = ControlPlane(testbed_topology, testbed_paths)
        assert cp.build_tables() is cp.build_tables()

    def test_empty_topology_rejected(self, tiny_topology, tiny_pathset):
        from repro.topology import Topology

        topo = Topology("lonely")
        topo.add_dc("DC1")
        cp = ControlPlane(topo, tiny_pathset)
        with pytest.raises(ValueError):
            cp.build_tables()


def path_scores(cp, src_dc):
    """C_path of every candidate route out of ``src_dc``, keyed by
    ``(destination DC, route DC tuple)`` — the eager walk the router
    replaces with on-demand derivation."""
    tables = cp.build_tables()
    return {
        (dst_dc, candidate.dcs): candidate_path_quality(candidate, tables, cp.config)
        for dst_dc in cp.topology.dcs
        if dst_dc != src_dc
        for candidate in cp.pathset.candidates(src_dc, dst_dc)
    }


class TestPathScores:
    def test_scores_for_every_candidate(self, testbed_topology, testbed_paths):
        cp = ControlPlane(testbed_topology, testbed_paths)
        scores = path_scores(cp, "DC1")
        dc8_scores = {key: val for key, val in scores.items() if key[0] == "DC8"}
        assert len(dc8_scores) == 6
        assert all(0 <= val <= 255 for val in scores.values())

    def test_low_delay_paths_score_better(self, testbed_topology, testbed_paths):
        cp = ControlPlane(testbed_topology, testbed_paths)
        scores = path_scores(cp, "DC1")
        via = {key[1][1]: val for key, val in scores.items() if key[0] == "DC8"}
        assert via["DC3"] < via["DC2"]
        assert via["DC7"] < via["DC6"]

    def test_router_derives_the_precomputed_scores(self, testbed_topology, testbed_paths):
        """install() leaves scores to the router; each one it derives on
        demand must equal the control plane's up-front walk."""
        cp = ControlPlane(testbed_topology, testbed_paths)
        router = LCMPRouter()
        cp.install(router, "DC1")
        scores = path_scores(cp, "DC1")
        for (dst, dcs), score in scores.items():
            candidate = next(c for c in testbed_paths.candidates("DC1", dst) if c.dcs == dcs)
            assert router._path_quality_of(candidate) == score
        assert len(scores) > len(testbed_topology.dcs)


class TestInstallation:
    def test_install_single_router(self, testbed_topology, testbed_paths):
        router = LCMPRouter()
        ControlPlane(testbed_topology, testbed_paths).install(router, "DC1")
        assert router.installed

    def test_install_all_skips_baselines(self, testbed_topology, testbed_paths):
        cp = ControlPlane(testbed_topology, testbed_paths)
        network = RuntimeNetwork(
            testbed_topology, testbed_paths, make_router_factory("ecmp"), SimulationConfig()
        )
        assert cp.install_all(network) == 0

    def test_install_all_provisions_lcmp(self, testbed_topology, testbed_paths):
        cp = ControlPlane(testbed_topology, testbed_paths)
        network = RuntimeNetwork(
            testbed_topology,
            testbed_paths,
            lambda dc: LCMPRouter(),
            SimulationConfig(),
        )
        installed = cp.install_all(network)
        assert installed == len(testbed_topology.dcs)
        assert all(sw.router.installed for sw in network.switches.values())

    def test_factory_provisions_each_instance(self, testbed_topology, testbed_paths):
        factory = lcmp_router_factory(testbed_topology, testbed_paths, LCMPConfig())
        router_a = factory("DC1")
        router_b = factory("DC2")
        assert router_a is not router_b
        assert router_a.installed and router_b.installed
