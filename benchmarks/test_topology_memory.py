"""Topology-at-scale memory and build-time lanes (DESIGN.md, "Topologies at scale").

The lazy int-indexed path set has to pay for itself on a continent-scale
generated fabric (:data:`~repro.topology.generators.CONTINENT_400`:
400 DCs, ~1.2k directed inter-DC links, ~160k ordered pairs):

* **build-time gate** — constructing the lazy :class:`PathSet` must be
  at least **5×** faster than the eager all-pairs enumeration (measured
  headroom is orders of magnitude; the gate re-measures once before
  failing to absorb shared-runner noise), with the lazy set answering a
  sampled pair set bit-identically to the eager one;
* **memory gate** — a lazy set serving a bounded working-set of pairs
  (LRU-capped) must stay under **25 %** of the eager set's structure
  bytes, with the tracemalloc peak of the whole lazy construction
  recorded alongside the structure-size accounting
  (``PathSet.memory_bytes()``, surfaced as the ``topology.pathset_bytes``
  obs gauge on instrumented runs);
* **routable-simulation smoke** — a generated fabric must run a real
  flow workload end to end through the experiment stack, completing
  flows and exposing the path-set gauges in ``result.stats``.

Every lane runs on the full ``CONTINENT_400`` fabric.  Two
``@pytest.mark.benchmark`` lanes time fabric generation and lazy path-set
construction, and the run writes ``BENCH_topology_memory.json`` at the
repo root (schema in benchmarks/README.md) plus
``results/topology_memory.txt``.
"""

import gc
import json
import pathlib
import time
import tracemalloc

import pytest

from repro.experiments import ExperimentRunner, ExperimentSpec
from repro.topology import CONTINENT_400, FabricSpec, build_fabric, fabric_pathset

#: required lazy-vs-eager PathSet construction speedup
MIN_LAZY_SPEEDUP = 5.0
#: resident-structure cap for the working-set lane, as a fraction of the
#: eager set's structure bytes
MAX_LAZY_RESIDENT_FRACTION = 0.25
#: LRU cap used by the working-set lane
WORKING_SET_CACHE_PAIRS = 256
#: sampled pairs checked bit-identical between the lazy and eager sets
PARITY_SAMPLE_PAIRS = 40

def _sample_pairs(pathset, count):
    pairs = pathset.all_pairs()
    stride = max(1, len(pairs) // count)
    return pairs[::stride][:count]


def measure_build(spec: FabricSpec):
    """Time topology + lazy + eager path-set construction on one fabric.

    The eager set (hundreds of thousands of live view objects on the
    full fabric) is measured, sampled for the parity lane, and dropped —
    keeping it alive would tax every later GC pass and pollute the
    recorded lanes' timings.
    """
    t0 = time.perf_counter()
    topology = build_fabric(spec)
    topo_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    lazy = fabric_pathset(topology)
    lazy_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    eager = fabric_pathset(topology)
    eager.prewarm()
    eager_s = time.perf_counter() - t0

    eager_sample = {
        pair: (
            eager.candidate_ids(*pair),
            [
                (c.dcs, c.delay_s, c.bottleneck_bps)
                for c in eager.candidates(*pair)
            ],
        )
        for pair in _sample_pairs(eager, PARITY_SAMPLE_PAIRS)
    }
    out = {
        "topology": topology,
        "lazy": lazy,
        "topology_build_s": topo_s,
        "lazy_build_s": lazy_s,
        "eager_build_s": eager_s,
        "num_dcs": len(topology.dcs),
        "num_links": len(topology.inter_dc_links()),
        "num_pairs": len(lazy),
        "eager_paths": eager.num_paths,
        "eager_bytes": eager.memory_bytes(),
        "eager_sample": eager_sample,
    }
    del eager
    gc.collect()
    return out


@pytest.fixture(scope="module")
def measured():
    return measure_build(CONTINENT_400)


@pytest.fixture(scope="module")
def report(measured):
    """Collects lane results; written to disk after the module finishes."""
    data = {
        "schema": "topology_memory/v1",
        "fabric": {
            "name": CONTINENT_400.name,
            "num_dcs": measured["num_dcs"],
            "num_links": measured["num_links"],
            "num_pairs": measured["num_pairs"],
        },
        "build": {
            "topology_s": measured["topology_build_s"],
            "lazy_pathset_s": measured["lazy_build_s"],
            "eager_pathset_s": measured["eager_build_s"],
            "speedup": measured["eager_build_s"] / max(measured["lazy_build_s"], 1e-9),
            "min_required_speedup": MIN_LAZY_SPEEDUP,
        },
        "memory": {
            "eager_structure_bytes": measured["eager_bytes"],
            "eager_paths": measured["eager_paths"],
        },
    }
    yield data
    root = pathlib.Path(__file__).resolve().parent.parent
    (root / "BENCH_topology_memory.json").write_text(json.dumps(data, indent=2))
    results = pathlib.Path(__file__).parent / "results"
    results.mkdir(parents=True, exist_ok=True)
    build, mem = data["build"], data["memory"]
    lines = [
        f"topology memory lanes (fabric {data['fabric']['name']}, "
        f"{data['fabric']['num_dcs']} DCs, {data['fabric']['num_links']} links)",
        f"topology build    : {build['topology_s'] * 1e3:10.1f} ms",
        f"lazy pathset      : {build['lazy_pathset_s'] * 1e3:10.1f} ms",
        f"eager pathset     : {build['eager_pathset_s'] * 1e3:10.1f} ms "
        f"({mem['eager_paths']} paths)",
        f"build speedup     : {build['speedup']:10.1f}x (required >= "
        f"{MIN_LAZY_SPEEDUP:g}x)",
        f"eager bytes       : {mem['eager_structure_bytes'] / 1e6:10.2f} MB",
    ]
    if "lazy_working_set_bytes" in mem:
        lines += [
            f"lazy working set  : {mem['lazy_working_set_bytes'] / 1e6:10.2f} MB "
            f"({mem['working_set_pairs']} pairs, LRU cap "
            f"{WORKING_SET_CACHE_PAIRS})",
            f"lazy tracemalloc  : {mem['lazy_tracemalloc_peak_bytes'] / 1e6:10.2f} "
            "MB peak",
            f"resident fraction : {mem['lazy_resident_fraction']:10.2%} (allowed <= "
            f"{MAX_LAZY_RESIDENT_FRACTION:.0%})",
        ]
    (results / "topology_memory.txt").write_text("\n".join(lines) + "\n")


def test_lazy_build_speedup_gate(measured, report):
    """Acceptance: lazy PathSet construction >= 5x faster than eager.

    Wall-clock ratios on shared runners can catch an unlucky scheduling
    window, so a failing first measurement gets one full re-measurement
    before the assertion fires.
    """
    lazy_s, eager_s = measured["lazy_build_s"], measured["eager_build_s"]
    if eager_s / max(lazy_s, 1e-9) < MIN_LAZY_SPEEDUP:
        remeasured = measure_build(CONTINENT_400)
        lazy_s = remeasured["lazy_build_s"]
        eager_s = remeasured["eager_build_s"]
        report["build"]["lazy_pathset_s"] = lazy_s
        report["build"]["eager_pathset_s"] = eager_s
        report["build"]["speedup"] = eager_s / max(lazy_s, 1e-9)
    speedup = eager_s / max(lazy_s, 1e-9)
    assert speedup >= MIN_LAZY_SPEEDUP, (
        f"lazy pathset construction is only {speedup:.1f}x faster than eager "
        f"({lazy_s * 1e3:.2f} ms vs {eager_s * 1e3:.1f} ms)"
    )


def test_lazy_answers_match_eager(measured):
    """The lazy set serves sampled pairs bit-identically to the eager one."""
    lazy = measured["lazy"]
    for (src, dst), (ids, paths) in measured["eager_sample"].items():
        assert lazy.candidate_ids(src, dst) == ids
        got = [
            (c.dcs, c.delay_s, c.bottleneck_bps)
            for c in lazy.candidates(src, dst)
        ]
        assert got == paths


def test_lazy_working_set_memory_gate(measured, report):
    """Acceptance: a bounded lazy working set stays a small fraction of eager.

    Builds a fresh lazy set with an LRU cap, serves a spread of pairs
    (~2 % of all ordered pairs), and gates the resident structure bytes
    against the eager set's; the tracemalloc peak of the whole procedure
    is recorded alongside.
    """
    topology = measured["topology"]
    eager_bytes = measured["eager_bytes"]
    working_pairs = _sample_pairs(measured["lazy"], max(16, measured["num_pairs"] // 50))

    tracemalloc.start()
    lazy = fabric_pathset(topology, cache_pairs=WORKING_SET_CACHE_PAIRS)
    lazy.prewarm(working_pairs)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    resident = lazy.memory_bytes()
    fraction = resident / eager_bytes
    report["memory"].update(
        working_set_pairs=len(working_pairs),
        lazy_working_set_bytes=resident,
        lazy_tracemalloc_peak_bytes=peak,
        lazy_resident_fraction=fraction,
        max_allowed_fraction=MAX_LAZY_RESIDENT_FRACTION,
    )
    assert fraction <= MAX_LAZY_RESIDENT_FRACTION, (
        f"lazy working set holds {resident / 1e6:.1f} MB = {fraction:.1%} of the "
        f"eager set's {eager_bytes / 1e6:.1f} MB (allowed <= "
        f"{MAX_LAZY_RESIDENT_FRACTION:.0%})"
    )
    assert lazy.cache_evictions > 0 or len(working_pairs) <= WORKING_SET_CACHE_PAIRS


def test_generated_fabric_routable_simulation(measured, report):
    """A generated fabric runs a real workload end to end (instrumented).

    The run uses the experiment stack exactly as a user would — a
    ``topology="fabric"`` spec — and must complete flows and surface the
    path-set gauges in ``result.stats``.
    """
    topology = measured["topology"]
    # cross-region edge pairs exist for any generated spec
    edges = [dc for dc in topology.dcs if topology.dc_attrs(dc).tier == "edge"]
    pairs = ((edges[0], edges[-1]), (edges[-1], edges[0]))
    spec = ExperimentSpec(
        name="fabric-smoke",
        topology="fabric",
        fabric=CONTINENT_400,
        pairs=pairs,
        num_flows=200,
        seed=9,
        instrumentation=True,
    )
    run = ExperimentRunner().run(spec)
    completed = len(run.result.records)
    assert completed > 0, "no flow completed on the generated fabric"
    gauges = run.result.stats["gauges"]
    assert gauges["topology.pathset_bytes"]["last"] > 0
    assert run.result.stats["counters"]["topology.pathset_searches"] >= 2
    report["simulation"] = {
        "num_flows": spec.num_flows,
        "completed": completed,
        "pathset_bytes": gauges["topology.pathset_bytes"]["last"],
        "pathset_paths": gauges["topology.pathset_paths"]["last"],
        "searches_run": run.result.stats["counters"]["topology.pathset_searches"],
    }


@pytest.mark.benchmark(group="topology-memory")
def test_bench_lazy_pathset_build(benchmark):
    """Recorded lane: lazy path-set construction on the fabric.

    Each round gets a fresh topology so the measurement includes the
    shared index build instead of hitting the topology's index cache.
    """
    benchmark.pedantic(
        fabric_pathset,
        setup=lambda: ((build_fabric(CONTINENT_400),), {}),
        rounds=3,
        iterations=1,
    )


@pytest.mark.benchmark(group="topology-memory")
def test_bench_fabric_topology_build(benchmark):
    """Recorded lane: generating the fabric topology itself."""
    benchmark.pedantic(lambda: build_fabric(CONTINENT_400), rounds=3, iterations=1)
