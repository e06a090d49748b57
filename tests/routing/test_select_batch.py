"""Batch-vs-single equivalence: ``select_batch`` must reproduce ``select``.

The ISSUE's hard requirement: for every shipped router, routing a batch of
demands through one ``select_batch`` call must yield exactly the candidate
the sequential ``select`` loop picks for each flow — same seeds, same
telemetry, identical path choices.  These tests drive both entry points of
two independently constructed router instances over identical inputs (so
stateful routers like LCMP cannot leak state between the two paths) and
compare the decisions index by index.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import LCMPConfig, lcmp_router_factory
from repro.core.lcmp_router import LCMPRouter
from repro.routing import make_router_factory
from repro.routing.base import flow_hash, flow_hash_array
from repro.simulator import DCISwitch, FlowDemand, RuntimeLink
from repro.topology import build_testbed8
from repro.topology import testbed8_pathset as _testbed8_pathset

from tests.helpers import port_view

ROUTERS = ["ecmp", "wcmp", "ucmp", "redte", "lcmp"]


@pytest.fixture(scope="module")
def testbed():
    topology = build_testbed8(capacity_scale=0.1)
    return topology, _testbed8_pathset(topology)


def make_demands(count, src="DC1", dst="DC8", id_offset=0):
    return [
        FlowDemand(
            flow_id=id_offset + i,
            src_dc=src,
            dst_dc=dst,
            src_host=i % 4,
            dst_host=(i + 1) % 4,
            size_bytes=100_000 + i,
            arrival_s=0.001 * i,
        )
        for i in range(count)
    ]


def make_router(name, topology, pathset, dc="DC1"):
    if name == "lcmp":
        return lcmp_router_factory(topology, pathset, config=LCMPConfig())(dc)
    return make_router_factory(name)(dc)


def attach_switch(router, topology, dc="DC1"):
    """Give the router a switch with live ports for every DC1 neighbour."""
    switch = DCISwitch(dc, router)
    for spec in topology.inter_dc_links():
        if spec.src == dc:
            switch.add_port(spec.dst, RuntimeLink(spec))
    return switch


def feed_samples(router, switch, queue_bytes=250_000.0, now=0.0):
    """Identical port telemetry for both router instances."""
    for next_dc, link in switch.ports.items():
        router.on_telemetry(
            port_view(
                next_dc,
                queue_bytes=queue_bytes * (1 + hash(next_dc) % 3),
                carried_bytes=1e6,
                cap_bps=link.cap_bps,
                buffer_bytes=link.buffer_bytes,
                switch=switch.dc,
            ),
            now,
        )


class TestFlowHashArray:
    def test_matches_scalar_hash(self):
        ids = np.array([0, 1, 2, 17, 991, 65_535, 1_000_000, 1_099_999, 2**31 - 1])
        for salt in (0x9E3779B1, 0x2545F491, 0x7FEB352D, 0x61C88647):
            batched = flow_hash_array(ids, salt)
            for i, flow_id in enumerate(ids.tolist()):
                assert int(batched[i]) == flow_hash(flow_id, salt)


class TestBatchEqualsSequential:
    @pytest.mark.parametrize("name", ROUTERS)
    def test_identical_choices(self, name, testbed):
        topology, pathset = testbed
        candidates = pathset.candidates("DC1", "DC8")
        assert len(candidates) >= 2

        sequential = make_router(name, topology, pathset)
        batched = make_router(name, topology, pathset)
        seq_switch = attach_switch(sequential, topology)
        bat_switch = attach_switch(batched, topology)
        feed_samples(sequential, seq_switch)
        feed_samples(batched, bat_switch)

        demands = make_demands(200)
        times = np.array([d.arrival_s for d in demands])

        expected = [
            sequential.select("DC8", candidates, d, float(times[i]))
            for i, d in enumerate(demands)
        ]
        got_idx = batched.select_batch("DC8", candidates, demands, times)
        got = [candidates[int(j)] for j in got_idx]
        assert [c.dcs for c in got] == [c.dcs for c in expected]
        assert sequential.decisions == batched.decisions == len(demands)

    @pytest.mark.parametrize("name", ROUTERS)
    def test_base_class_loop_matches_override(self, name, testbed):
        """The vectorized overrides agree with the generic select() loop."""
        topology, pathset = testbed
        candidates = pathset.candidates("DC1", "DC8")
        vector = make_router(name, topology, pathset)
        loop = make_router(name, topology, pathset)
        for router in (vector, loop):
            switch = attach_switch(router, topology)
            feed_samples(router, switch)

        demands = make_demands(64, id_offset=5_000)
        times = np.array([d.arrival_s for d in demands])
        from repro.routing.base import Router

        got = vector.select_batch("DC8", candidates, demands, times)
        ref = Router.select_batch(loop, "DC8", candidates, demands, times)
        assert got.tolist() == ref.tolist()

    def test_lcmp_unprovisioned_fallback(self, testbed):
        """The ECMP safe-fallback path must batch identically too."""
        topology, pathset = testbed
        candidates = pathset.candidates("DC1", "DC8")
        sequential = LCMPRouter()
        batched = LCMPRouter()
        demands = make_demands(50)
        times = np.array([d.arrival_s for d in demands])
        expected = [
            sequential.select("DC8", candidates, d, float(times[i]))
            for i, d in enumerate(demands)
        ]
        got_idx = batched.select_batch("DC8", candidates, demands, times)
        assert [candidates[int(j)].dcs for j in got_idx] == [c.dcs for c in expected]
        assert sequential.ecmp_fallbacks == batched.ecmp_fallbacks == 50

    def test_lcmp_sticky_entries_honoured(self, testbed):
        """Flows already in the cache stay on their recorded egress."""
        topology, pathset = testbed
        candidates = pathset.candidates("DC1", "DC8")
        sequential = make_router("lcmp", topology, pathset)
        batched = make_router("lcmp", topology, pathset)
        for router in (sequential, batched):
            switch = attach_switch(router, topology)
            feed_samples(router, switch)

        demands = make_demands(30)
        times = np.array([d.arrival_s for d in demands])
        # first pass inserts every flow; second pass must hit sticky
        for i, d in enumerate(demands):
            sequential.select("DC8", candidates, d, float(times[i]))
        batched.select_batch("DC8", candidates, demands, times)

        expected = [
            sequential.select("DC8", candidates, d, float(times[i]) + 0.01)
            for i, d in enumerate(demands)
        ]
        got_idx = batched.select_batch("DC8", candidates, demands, times + 0.01)
        assert [candidates[int(j)].dcs for j in got_idx] == [c.dcs for c in expected]
        assert sequential.sticky_hits == batched.sticky_hits == 30

    def test_lcmp_batch_under_cache_eviction_pressure(self, testbed):
        """A full flow cache forces LRU evictions; batch must still equal
        sequential (the batched router falls back to the per-flow loop
        whenever the batch could interact with eviction state)."""
        topology, pathset = testbed
        candidates = pathset.candidates("DC1", "DC8")
        config = LCMPConfig(flow_cache_capacity=16)
        sequential = lcmp_router_factory(topology, pathset, config=config)("DC1")
        batched = lcmp_router_factory(topology, pathset, config=config)("DC1")
        for router in (sequential, batched):
            switch = attach_switch(router, topology)
            feed_samples(router, switch)

        # overfill, then route a mixed batch of cached + fresh ids
        warm = make_demands(16)
        warm_times = np.array([d.arrival_s for d in warm])
        for i, d in enumerate(warm):
            sequential.select("DC8", candidates, d, float(warm_times[i]))
        batched.select_batch("DC8", candidates, warm, warm_times)

        mixed = make_demands(8) + make_demands(24, id_offset=1_000)
        times = np.array([d.arrival_s for d in mixed])
        expected = [
            sequential.select("DC8", candidates, d, float(times[i]))
            for i, d in enumerate(mixed)
        ]
        got_idx = batched.select_batch("DC8", candidates, mixed, times)
        assert [candidates[int(j)].dcs for j in got_idx] == [c.dcs for c in expected]
        assert sequential.stats() == batched.stats()
        assert sequential.flow_cache.evictions == batched.flow_cache.evictions > 0

    def test_lcmp_state_counters_match(self, testbed):
        topology, pathset = testbed
        candidates = pathset.candidates("DC1", "DC8")
        sequential = make_router("lcmp", topology, pathset)
        batched = make_router("lcmp", topology, pathset)
        for router in (sequential, batched):
            switch = attach_switch(router, topology)
            feed_samples(router, switch)
        demands = make_demands(120)
        times = np.array([d.arrival_s for d in demands])
        for i, d in enumerate(demands):
            sequential.select("DC8", candidates, d, float(times[i]))
        batched.select_batch("DC8", candidates, demands, times)
        assert sequential.stats() == batched.stats()


class TestLCMPPlanOnBSO13:
    """Multi-hop groups of 1-3 flows on the 13-DC topology, with telemetry
    changing between calls: every switch's ``select_batch`` must equal the
    ``Router.select_batch`` loop oracle, stats counters included.  This is
    what the per-candidate-set selection plan must survive: plans keyed by
    path ids and by DC tuples, C_cong moving on some ports and not others,
    dead ports, and re-routed (cached) flows."""

    def test_grouped_walk_matches_loop_oracle(self, bso_topology, bso_paths):
        from repro.routing.base import Router

        rng = np.random.default_rng(11)
        # a threshold the sampled queues cross now and then, so both the
        # herd plan and the reduced-set plan occur
        factory = lcmp_router_factory(
            bso_topology, bso_paths, config=LCMPConfig(congested_threshold=120)
        )
        dcs = list(bso_topology.dcs)
        vector = {dc: factory(dc) for dc in dcs}
        oracle = {dc: factory(dc) for dc in dcs}
        ports = {dc: [] for dc in dcs}
        for spec in bso_topology.inter_dc_links():
            ports[spec.src].append(spec)
        levels = (0.0, 0.05, 0.3, 0.9)
        routed = []
        next_id = 0
        calls = 0

        def sample(now):
            for dc in dcs:
                if rng.random() < 0.5:
                    continue  # this switch keeps its C_cong (plans stay valid)
                for spec in ports[dc]:
                    if rng.random() < 0.5:
                        continue
                    view = port_view(
                        spec.dst,
                        queue_bytes=spec.buffer_bytes * levels[rng.integers(len(levels))],
                        cap_bps=spec.cap_bps,
                        buffer_bytes=spec.buffer_bytes,
                        up=bool(rng.random() > 0.03),
                        switch=dc,
                    )
                    vector[dc].on_telemetry(view, now)
                    oracle[dc].on_telemetry(view, now)

        def walk(current, dst, group, times, visited):
            nonlocal calls
            if current == dst:
                return
            pairs = [
                (c, pid)
                for c, pid in zip(
                    bso_paths.candidates(current, dst), bso_paths.candidate_ids(current, dst)
                )
                if c.first_hop not in visited
            ]
            if not pairs:
                return
            candidates = [c for c, _ in pairs]
            ids = tuple(pid for _, pid in pairs) if rng.random() < 0.7 else None
            got = vector[current].select_batch(dst, candidates, group, times, path_ids=ids)
            want = Router.select_batch(oracle[current], dst, candidates, group, times)
            calls += 1
            assert got.tolist() == want.tolist()
            assert vector[current].stats() == oracle[current].stats()
            by_hop = {}
            for k, j in enumerate(got.tolist()):
                by_hop.setdefault(candidates[j].first_hop, []).append(k)
            for hop, members in by_hop.items():
                walk(
                    hop,
                    dst,
                    [group[k] for k in members],
                    [times[k] for k in members],
                    visited | {hop},
                )

        now = 0.0
        for _ in range(250):
            now += 1e-4
            if rng.random() < 0.6:
                sample(now)
            src, dst = rng.choice(dcs, size=2, replace=False).tolist()
            if routed and rng.random() < 0.15:
                # flows the switches have already cached: the sticky path
                group = [routed[int(k)] for k in rng.choice(len(routed), size=2)]
                group = [
                    FlowDemand(d.flow_id, src, dst, 0, 0, d.size_bytes, now) for d in group
                ]
            else:
                size = int(rng.integers(1, 4))
                group = make_demands(size, src=src, dst=dst, id_offset=next_id)
                next_id += size
                routed.extend(group)
            walk(src, dst, group, [now] * len(group), {src})

        assert calls > 250
        for dc in dcs:
            assert vector[dc].stats() == oracle[dc].stats()
        herd = sum(r.herd_fallbacks for r in vector.values())
        assert 0 < herd < sum(r.decisions for r in vector.values())
        assert sum(r.sticky_hits for r in vector.values()) > 0
        assert sum(r.failover_rehashes for r in vector.values()) > 0
