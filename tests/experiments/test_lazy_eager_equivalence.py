"""Lazy vs eager path sets must be invisible at the experiment level.

Every router on every topology — the two paper topologies plus a small
generated fabric — must produce bit-identical simulation results whether
the candidate path set materializes pairs lazily or was prewarmed (every
pair enumerated up front with :meth:`PathSet.prewarm`).  This is the
end-to-end counterpart of the per-pair parity suite under
``tests/topology``.
"""

import pytest

from repro.experiments import ExperimentRunner, ExperimentSpec
from repro.scenarios.invariants import assert_results_identical
from repro.topology import FabricSpec

ROUTERS = ("lcmp", "ecmp", "ucmp", "wcmp", "redte")

TINY_FABRIC = FabricSpec(name="tiny", seed=3, regions=3, cores_per_region=2,
                         aggs_per_core=2, edges_per_agg=1)

TOPOLOGY_SPECS = {
    "testbed8": dict(topology="testbed8"),
    "bso13": dict(topology="bso13", pairs=(("DC1", "DC13"), ("DC13", "DC1"))),
    "fabric": dict(
        topology="fabric",
        fabric=TINY_FABRIC,
        pairs=(("R0E0x0x0", "R2E1x1x0"), ("R1E1x0x0", "R0E0x1x0")),
    ),
}


@pytest.fixture(scope="module")
def runner():
    # one runner per mode for the whole module, so routers share each
    # runner's cached path sets
    return ExperimentRunner()


@pytest.fixture(scope="module")
def eager_runner():
    return ExperimentRunner()


def eager_pathset(eager_runner, spec):
    """The eager runner's cached path set for ``spec``, prewarmed."""
    _, paths = eager_runner.topology_for(spec)
    paths.prewarm()
    return paths


@pytest.mark.parametrize("topology", sorted(TOPOLOGY_SPECS))
@pytest.mark.parametrize("router", ROUTERS)
def test_lazy_eager_bit_identical(runner, eager_runner, topology, router):
    base = ExperimentSpec(
        name=f"{topology}-{router}",
        router=router,
        num_flows=120,
        seed=11,
        **TOPOLOGY_SPECS[topology],
    )
    eager_pathset(eager_runner, base)
    lazy_run = runner.run(base)
    eager_run = eager_runner.run(base)
    assert_results_identical(
        lazy_run.result, eager_run.result, label=f"{topology}/{router}"
    )
    assert lazy_run.profile.overall_p99 == eager_run.profile.overall_p99


def test_lazy_and_eager_pathsets_share_candidates(eager_runner):
    spec = ExperimentSpec(name="probe", **TOPOLOGY_SPECS["fabric"])
    _, lazy_set = ExperimentRunner().topology_for(spec)
    eager_paths = eager_pathset(eager_runner, spec)
    for src, dst in spec.pairs:
        assert lazy_set.candidate_ids(src, dst) == eager_paths.candidate_ids(src, dst)
        assert [c.dcs for c in lazy_set.candidates(src, dst)] == [
            c.dcs for c in eager_paths.candidates(src, dst)
        ]
