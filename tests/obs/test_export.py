"""Unit tests for the exporters: Chrome trace and snapshot merge."""

import json

from repro.obs import (
    Instrumentation,
    NOOP,
    chrome_trace,
    merge_snapshots,
    write_chrome_trace,
)


def make_snapshot(counter=3, gauge=(2.0, 5.0)):
    """A ``SimulationResult.stats``-shaped dict: harvested values plus real spans."""
    instr = Instrumentation()
    with instr.span("step.update"):
        pass
    last, high = gauge
    return {
        "counters": {"slow_path.deliver_repeated": counter},
        "gauges": {"engine.peak_pending_events": {"last": last, "max": high}},
        "phases": instr.phases(),
    }


class TestChromeTrace:
    def test_document_shape(self):
        instr = Instrumentation()
        with instr.span("step.update"):
            pass
        doc = chrome_trace(instr)
        assert doc["displayTimeUnit"] == "ms"
        assert len(doc["traceEvents"]) == 1
        assert doc["traceEvents"][0]["name"] == "step.update"

    def test_write_is_perfetto_loadable_json(self, tmp_path):
        instr = Instrumentation()
        with instr.span("a"):
            pass
        path = tmp_path / "run.trace.json"
        write_chrome_trace(instr, path)
        doc = json.loads(path.read_text())
        assert doc["traceEvents"][0]["ph"] == "X"

    def test_disabled_instrumentation_writes_empty_trace(self, tmp_path):
        path = tmp_path / "empty.trace.json"
        write_chrome_trace(NOOP, path)
        assert json.loads(path.read_text())["traceEvents"] == []

    def test_trace_holds_at_most_the_event_cap(self):
        instr = Instrumentation(max_trace_events=3)
        span = instr.span("hot")
        for _ in range(10):
            with span:
                pass
        assert len(chrome_trace(instr)["traceEvents"]) == 3


class TestMergeSnapshots:
    def test_all_none_merges_to_none(self):
        assert merge_snapshots([]) is None
        assert merge_snapshots([None, None]) is None

    def test_none_entries_skipped(self):
        snap = make_snapshot(counter=2)
        merged = merge_snapshots([None, snap, None])
        assert merged["counters"]["slow_path.deliver_repeated"] == 2

    def test_counters_and_phase_counts_sum(self):
        merged = merge_snapshots([make_snapshot(counter=2), make_snapshot(counter=5)])
        assert merged["counters"]["slow_path.deliver_repeated"] == 7
        assert merged["phases"]["step.update"]["count"] == 2

    def test_gauge_max_and_last_semantics(self):
        a = make_snapshot(gauge=(1.0, 9.0))
        b = make_snapshot(gauge=(4.0, 6.0))
        merged = merge_snapshots([a, b])
        g = merged["gauges"]["engine.peak_pending_events"]
        assert g["max"] == 9.0  # fleet-wide high watermark
        assert g["last"] == 4.0  # last run's final value

    def test_phase_max_takes_the_maximum(self):
        a, b = make_snapshot(), make_snapshot()
        a["phases"]["step.update"]["max_ns"] = 900
        b["phases"]["step.update"]["max_ns"] = 400
        b["phases"]["step.update"]["total_ns"] = 700
        merged = merge_snapshots([a, b])["phases"]["step.update"]
        assert merged["max_ns"] == 900
        assert merged["total_ns"] == a["phases"]["step.update"]["total_ns"] + 700

    def test_names_from_any_run_are_kept(self):
        a = make_snapshot()
        b = make_snapshot()
        b["counters"] = {"slow_path.reroutes": 4}
        b["gauges"] = {"topology.pathset_bytes": {"last": 10.0, "max": 10.0}}
        merged = merge_snapshots([a, b])
        assert merged["counters"] == {
            "slow_path.deliver_repeated": 3,
            "slow_path.reroutes": 4,
        }
        assert set(merged["gauges"]) == {
            "engine.peak_pending_events",
            "topology.pathset_bytes",
        }

    def test_sections_sorted_and_inputs_untouched(self):
        a = make_snapshot()
        a["counters"] = {"z.last": 1, "a.first": 2}
        before = json.dumps(a, sort_keys=True)
        merged = merge_snapshots([a, a])
        assert list(merged["counters"]) == ["a.first", "z.last"]
        assert json.dumps(a, sort_keys=True) == before

    def test_merged_schema_matches_single_run(self):
        snap = make_snapshot()
        merged = merge_snapshots([snap, snap])
        assert set(merged) == set(snap)
        assert merge_snapshots([merged]) is not None  # re-mergeable
