"""Tests for the columnar MetricsStore and DecisionLog.

Covers column growth, intern tables, record views, pair masks — and the
accessor-safety satellite: every accessor that used to hand back an
internal list must now return copies, so callers cannot mutate collector,
switch or trace state from outside.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulator import LinkTrace, MetricsStore
from repro.simulator.switch import DecisionLog
from repro.topology.graph import GBPS, MS, LinkSpec
from repro.topology.paths import CandidatePath


def fill(store: MetricsStore, count: int) -> None:
    for i in range(count):
        src, dst = ("DC1", "DC8") if i % 2 == 0 else ("DC8", "DC1")
        store.append(
            flow_id=i,
            src_dc=src,
            dst_dc=dst,
            size_bytes=10_000 * (i + 1),
            arrival_s=0.001 * i,
            fct_s=0.01 + 0.001 * i,
            ideal_fct_s=0.01,
            slowdown=1.0 + 0.1 * i,
            path_index=store.intern_route((src, "DC7", dst)),
        )


class TestMetricsStore:
    def test_append_and_growth(self):
        store = MetricsStore(capacity=4)
        fill(store, 100)  # forces several doublings
        assert len(store) == 100
        assert store.slowdowns().tolist() == pytest.approx(
            [1.0 + 0.1 * i for i in range(100)]
        )
        assert store.sizes()[-1] == 10_000 * 100

    def test_record_views_round_trip(self):
        store = MetricsStore()
        fill(store, 10)
        rec = store.record(3)
        assert rec.flow_id == 3
        assert rec.src_dc == "DC8" and rec.dst_dc == "DC1"
        assert rec.path_dcs == ("DC8", "DC7", "DC1")
        assert rec.slowdown == pytest.approx(1.3)

    def test_records_returns_fresh_copies(self):
        store = MetricsStore()
        fill(store, 5)
        first = store.records()
        first.clear()
        assert len(store.records()) == 5  # clearing the view changed nothing

    def test_columns_are_copies(self):
        store = MetricsStore()
        fill(store, 5)
        col = store.slowdowns()
        col[:] = -1.0
        assert store.slowdowns()[0] == pytest.approx(1.0)

    def test_pair_mask(self):
        store = MetricsStore()
        fill(store, 10)
        forward = store.pair_mask("DC1", "DC8")
        assert forward.sum() == 5
        both = store.pair_mask("DC1", "DC8", bidirectional=True)
        assert both.sum() == 10
        assert store.pair_mask("DC1", "DC9").sum() == 0

    def test_masked_records(self):
        store = MetricsStore()
        fill(store, 10)
        recs = store.records(store.pair_mask("DC1", "DC8"))
        assert [r.flow_id for r in recs] == [0, 2, 4, 6, 8]

    def test_intern_tables_deduplicate(self):
        store = MetricsStore()
        a = store.intern_route(("DC1", "DC8"))
        b = store.intern_route(("DC1", "DC8"))
        c = store.intern_route(("DC1", "DC7", "DC8"))
        assert a == b != c
        assert store.route(a) == ("DC1", "DC8")
        assert store.intern_dc("DC1") == store.intern_dc("DC1")

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            MetricsStore(capacity=0)


def make_candidate(dcs):
    links = tuple(
        LinkSpec(a, b, 100 * GBPS, 5 * MS, 1_000_000, True)
        for a, b in zip(dcs[:-1], dcs[1:])
    )
    return CandidatePath(
        dcs=tuple(dcs),
        links=links,
        delay_s=sum(l.delay_s for l in links),
        bottleneck_bps=min(l.cap_bps for l in links),
    )


class TestDecisionLog:
    def test_append_and_materialize(self):
        log = DecisionLog(capacity=2)
        direct = make_candidate(["A", "B"])
        detour = make_candidate(["A", "C", "B"])
        for i in range(10):
            log.append(
                flow_id=i,
                time_s=0.01 * i,
                chosen=direct if i % 2 == 0 else detour,
                dst_dc="B",
                num_candidates=2,
                fallback=False,
            )
        assert len(log) == 10
        decisions = log.materialize("A")
        assert decisions[1].chosen.dcs == ("A", "C", "B")
        assert decisions[0].switch == "A"
        assert decisions[3].time_s == pytest.approx(0.03)
        assert log.first_hops() == ["B", "C"] * 5

    def test_materialized_list_is_a_copy(self):
        log = DecisionLog()
        log.append(0, 0.0, make_candidate(["A", "B"]), "B", 1, False)
        view = log.materialize("A")
        view.clear()
        assert len(log) == 1
        assert len(log.materialize("A")) == 1

    def test_append_batch_matches_scalar_appends(self):
        direct = make_candidate(["A", "B"])
        detour = make_candidate(["A", "C", "B"])
        candidates = [direct, detour]
        times = [0.001 * i for i in range(6)]
        chosen_idx = [0, 1, 0, 0, 1, 1]

        batched = DecisionLog()
        refs = batched.intern_paths(candidates, [40, 41])
        dst = batched.intern_dst("B")
        batched.append_batch(
            [(i, times[i], refs[j], dst, 2, False) for i, j in enumerate(chosen_idx)]
        )
        scalar = DecisionLog()
        for i, j in enumerate(chosen_idx):
            scalar.append(i, times[i], candidates[j], "B", 2, False)
        import dataclasses

        got = [dataclasses.asdict(d) for d in batched.materialize("A")]
        want = [dataclasses.asdict(d) for d in scalar.materialize("A")]
        assert got == want
        # a path interned by id and by DC tuple shares one reference
        assert batched.intern_paths([detour], [41]) == [refs[1]]
        batched.append(6, 0.006, detour, "B", 2, False)
        assert batched.path_ref[6] == refs[1]


class TestAccessorCopies:
    def test_link_trace_series_is_a_copy(self):
        trace = LinkTrace()
        zeros = np.zeros(1)
        trace.observe_batch([("A", "B")], 0.0, np.array([500.0]), zeros, zeros)
        series = trace.series(("A", "B"))
        series.clear()
        assert len(trace.series(("A", "B"))) == 1
        times, queues, _, _ = trace.columns(("A", "B"))
        queues[:] = 0.0
        assert trace.peak_queue(("A", "B")) == 500.0
