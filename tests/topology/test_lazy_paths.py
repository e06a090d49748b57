"""Lazy path sets: parity with eager enumeration and the search contract.

The bounded best-first search must return *exactly* what the historical
exhaustive DFS-then-sort enumeration returned — same candidate set, same
order, bit-identical delays — and the lazy :class:`PathSet` must be
indistinguishable from the eager one (same candidates, same global ids)
regardless of materialization order or LRU evictions.
"""

import random
from collections import deque

import pytest

from repro.topology import (
    GBPS,
    MS,
    FabricSpec,
    PathSet,
    Topology,
    TopologyError,
    build_bso13,
    build_fabric,
    build_testbed8,
    enumerate_paths,
)

TINY_FABRIC = FabricSpec(name="tiny", seed=3, regions=3, cores_per_region=2,
                         aggs_per_core=2, edges_per_agg=1)


def _topologies():
    return [
        ("testbed8", build_testbed8(), 8, 1),
        ("bso13", build_bso13(), 8, 1),
        ("fabric", build_fabric(TINY_FABRIC), 4, 1),
    ]


def _as_tuple(candidate):
    return (candidate.dcs, candidate.links, candidate.delay_s, candidate.bottleneck_bps)


# ------------------------------------------------------------------ #
# reference implementation: the historical exhaustive enumeration
# ------------------------------------------------------------------ #
def _reference_enumerate(topology, src, dst, max_candidates, max_extra_hops):
    """Exhaustive DFS over simple paths + full sort, as the old code did."""
    adjacency = {}
    for spec in topology.inter_dc_links():
        adjacency.setdefault(spec.src, {})[spec.dst] = spec

    # BFS for the minimum hop count
    seen = {src: 0}
    queue = deque([src])
    while queue:
        node = queue.popleft()
        for nxt in adjacency.get(node, {}):
            if nxt not in seen:
                seen[nxt] = seen[node] + 1
                queue.append(nxt)
    if dst not in seen:
        return []
    hop_limit = seen[dst] + max_extra_hops

    paths = []

    def dfs(node, route):
        if node == dst:
            delay = 0.0
            bneck = float("inf")
            links = []
            for a, b in zip(route[:-1], route[1:]):
                spec = adjacency[a][b]
                links.append(spec)
                delay += spec.delay_s
                bneck = min(bneck, spec.cap_bps)
            paths.append((tuple(route), tuple(links), delay, bneck))
            return
        if len(route) - 1 >= hop_limit:
            return
        for nxt in sorted(adjacency.get(node, {})):
            if nxt not in route:
                dfs(nxt, route + [nxt])

    dfs(src, [src])
    paths.sort(key=lambda p: (len(p[1]), p[2], -p[3], p[0]))
    return paths[:max_candidates]


def _random_topology(seed):
    rng = random.Random(seed)
    topo = Topology(f"rand{seed}")
    n = rng.randint(5, 9)
    names = [f"DC{i}" for i in range(n)]
    for name in names:
        topo.add_dc(name)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                topo.add_inter_dc_link(
                    names[i], names[j],
                    cap_bps=rng.choice((10, 25, 100)) * GBPS,
                    delay_s=rng.uniform(0.5, 30.0) * MS,
                )
    return topo, names


class TestSearchParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_exhaustive_reference(self, seed):
        topo, names = _random_topology(seed)
        for src in names:
            for dst in names:
                if src == dst:
                    continue
                got = enumerate_paths(topo, src, dst, max_candidates=8, max_extra_hops=2)
                want = _reference_enumerate(topo, src, dst, 8, 2)
                assert [_as_tuple(c) for c in got] == want, f"{src}->{dst} seed {seed}"

    def test_paper_topologies_match_reference(self):
        for label, topo, k, extra in _topologies():
            for src, dst in [p for p in PathSet(topo).all_pairs()][:60]:
                got = enumerate_paths(topo, src, dst, max_candidates=k, max_extra_hops=extra)
                want = _reference_enumerate(topo, src, dst, k, extra)
                assert [_as_tuple(c) for c in got] == want, f"{label} {src}->{dst}"


class TestLazyEagerEquivalence:
    @pytest.mark.parametrize("label,topo,k,extra", _topologies(),
                             ids=lambda v: v if isinstance(v, str) else "")
    def test_same_candidates_and_ids(self, label, topo, k, extra):
        lazy = PathSet(topo, max_candidates=k, max_extra_hops=extra)
        eager = PathSet(topo, max_candidates=k, max_extra_hops=extra)
        eager.prewarm()
        assert lazy.searches_run == 0
        for src, dst in lazy.all_pairs():
            lc, ec = lazy.candidates(src, dst), eager.candidates(src, dst)
            assert [_as_tuple(c) for c in lc] == [_as_tuple(c) for c in ec]
            assert lazy.candidate_ids(src, dst) == eager.candidate_ids(src, dst)
        assert lazy.num_paths == eager.num_paths
        assert lazy.multipath_fraction() == eager.multipath_fraction()

    def test_ids_independent_of_materialization_order(self):
        topo = build_testbed8()
        forward = PathSet(topo)
        backward = PathSet(topo)
        pairs = forward.all_pairs()
        for src, dst in pairs:
            forward.candidate_ids(src, dst)
        for src, dst in reversed(pairs):
            backward.candidate_ids(src, dst)
        for src, dst in pairs:
            assert forward.candidate_ids(src, dst) == backward.candidate_ids(src, dst)


class TestLaziness:
    def test_no_search_until_queried(self):
        paths = PathSet(build_bso13())
        assert paths.searches_run == 0
        assert paths.num_paths == 0
        paths.candidates("DC1", "DC13")
        assert paths.searches_run == 1
        assert paths.num_paths >= 1

    def test_repeat_queries_hit_cache(self):
        paths = PathSet(build_testbed8())
        paths.candidates("DC1", "DC8")
        paths.candidates("DC1", "DC8")
        paths.candidate_ids("DC1", "DC8")
        assert paths.searches_run == 1

    def test_eager_materializes_everything(self):
        paths = PathSet(build_testbed8())
        paths.prewarm()
        assert paths.searches_run == len(paths.all_pairs())

    def test_prewarm_selected_pairs(self):
        paths = PathSet(build_testbed8())
        assert paths.prewarm([("DC1", "DC8"), ("DC8", "DC1")]) == 2
        assert paths.searches_run == 2

    def test_prewarm_all(self):
        paths = PathSet(build_testbed8())
        count = paths.prewarm()
        assert count == len(paths.all_pairs()) == paths.searches_run


class TestLRUCache:
    def test_eviction_and_rematerialization_stability(self):
        topo = build_bso13()
        unbounded = PathSet(topo)
        bounded = PathSet(topo, cache_pairs=2)
        pairs = [("DC1", "DC13"), ("DC2", "DC9"), ("DC5", "DC11"), ("DC13", "DC1")]
        first_ids = {p: bounded.candidate_ids(*p) for p in pairs}
        assert bounded.cache_evictions >= 2
        # evicted pairs re-enumerate to the same ids and geometry
        for pair in pairs:
            assert bounded.candidate_ids(*pair) == first_ids[pair]
            assert bounded.candidate_ids(*pair) == unbounded.candidate_ids(*pair)
            got = [_as_tuple(c) for c in bounded.candidates(*pair)]
            want = [_as_tuple(c) for c in unbounded.candidates(*pair)]
            assert got == want
        # geometry rows are shared, not duplicated, across re-materializations
        assert bounded.num_paths == unbounded.num_paths or bounded.num_paths <= unbounded.num_paths

    def test_rerun_counts_as_new_search(self):
        paths = PathSet(build_testbed8(), cache_pairs=1)
        paths.candidates("DC1", "DC8")
        paths.candidates("DC2", "DC7")
        paths.candidates("DC1", "DC8")
        assert paths.searches_run == 3
        assert paths.cache_evictions == 2


class TestIntegerIndex:
    def test_path_by_id_round_trip(self):
        paths = PathSet(build_testbed8())
        for src, dst in paths.all_pairs():
            for view in paths.candidates(src, dst):
                again = paths.path_by_id(view.path_id)
                assert again.dcs == view.dcs
                assert paths.path_id(view) == view.path_id

    def test_path_id_accepts_foreign_candidates(self):
        topo = build_testbed8()
        paths = PathSet(topo)
        for candidate in enumerate_paths(topo, "DC1", "DC8"):
            pid = paths.path_id(candidate)
            assert pid >= 0
            assert paths.path_by_id(pid).dcs == candidate.dcs

    def test_path_by_id_rejects_bad_ids(self):
        paths = PathSet(build_testbed8())
        with pytest.raises(IndexError):
            paths.path_by_id(-1)
        with pytest.raises(IndexError):
            paths.path_by_id(10**9)

    def test_unknown_path_is_minus_one(self):
        topo = build_testbed8()
        paths = PathSet(topo, max_candidates=1)
        rejected = enumerate_paths(topo, "DC1", "DC8", max_candidates=8)[-1]
        assert paths.path_id(rejected) == -1


class TestQueries:
    def test_has_path_matches_candidates(self):
        topo, names = _random_topology(4)
        paths = PathSet(topo)
        for src in names:
            for dst in names:
                if src == dst:
                    continue
                assert paths.has_path(src, dst) == bool(paths.candidates(src, dst))
        assert paths.has_path("DC0", "DC0") is False
        assert paths.has_path("nope", "DC0") is False

    def test_pair_metrics_align_with_candidates(self):
        paths = PathSet(build_bso13())
        delays, bnecks = paths.pair_metrics("DC1", "DC13")
        views = paths.candidates("DC1", "DC13")
        assert list(delays) == [v.delay_s for v in views]
        assert list(bnecks) == [v.bottleneck_bps for v in views]
        assert paths.ideal_delay("DC1", "DC13") == min(v.delay_s for v in views)
        assert paths.best_bottleneck("DC1", "DC13") == max(
            v.bottleneck_bps for v in views
        )

    def test_memory_bytes_grows_with_materialization(self):
        paths = PathSet(build_bso13())
        before = paths.memory_bytes()
        paths.prewarm()
        assert paths.memory_bytes() > before

    def test_rejects_nonpositive_max_candidates(self):
        with pytest.raises(TopologyError):
            PathSet(build_testbed8(), max_candidates=0)
