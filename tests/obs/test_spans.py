"""Unit tests for phase timers and the Instrumentation / NOOP facades."""

import time

import pytest

from repro.obs import NOOP, Instrumentation, NullInstrumentation


class TestInstrumentationSpans:
    def test_span_handle_is_reused_per_name(self):
        instr = Instrumentation()
        assert instr.span("step.update") is instr.span("step.update")
        assert instr.span("step.update") is not instr.span("step.gc")

    def test_span_accumulates_phase_aggregates(self):
        instr = Instrumentation()
        span = instr.span("work")
        for _ in range(3):
            with span:
                pass
        phases = instr.phases()
        assert phases["work"]["count"] == 3
        assert phases["work"]["total_ns"] >= 0
        assert phases["work"]["max_ns"] <= phases["work"]["total_ns"]

    def test_nested_spans_by_different_names(self):
        instr = Instrumentation()
        outer, inner = instr.span("outer"), instr.span("inner")
        with outer:
            with inner:
                pass
        phases = instr.phases()
        assert phases["outer"]["count"] == 1
        assert phases["inner"]["count"] == 1
        assert phases["inner"]["total_ns"] <= phases["outer"]["total_ns"]

    def test_unentered_span_appears_with_zero_count(self):
        instr = Instrumentation()
        instr.span("never")
        assert instr.phases()["never"] == {
            "count": 0,
            "total_ns": 0,
            "max_ns": 0,
        }

    def test_trace_events_record_each_occurrence(self):
        instr = Instrumentation()
        with instr.span("a"):
            pass
        with instr.span("b"):
            pass
        events = instr.trace_events()
        assert [e["name"] for e in events] == ["a", "b"]
        for e in events:
            assert e["ph"] == "X"
            assert e["ts"] >= 0.0
            assert e["dur"] >= 0.0
            assert e["cat"] == "sim"

    def test_trace_event_cap_bounds_events_not_aggregates(self):
        instr = Instrumentation(max_trace_events=2)
        span = instr.span("hot")
        for _ in range(5):
            with span:
                pass
        assert len(instr.trace_events()) == 2
        assert instr.phases()["hot"]["count"] == 5

    def test_phases_sorted_by_name(self):
        instr = Instrumentation()
        for name in ("step.update", "arrivals.route", "step.gc"):
            with instr.span(name):
                pass
        assert list(instr.phases()) == ["arrivals.route", "step.gc", "step.update"]

    def test_max_tracks_the_longest_occurrence(self):
        instr = Instrumentation()
        span = instr.span("work")
        with span:
            pass
        with span:
            time.sleep(0.002)
        with span:
            pass
        phase = instr.phases()["work"]
        assert phase["max_ns"] >= 2_000_000
        assert phase["max_ns"] <= phase["total_ns"]

    def test_trace_durations_add_up_to_phase_total(self):
        instr = Instrumentation()
        span = instr.span("work")
        for _ in range(4):
            with span:
                sum(range(100))
        events = instr.trace_events()
        starts = [e["ts"] for e in events]
        assert starts == sorted(starts)
        total_us = instr.phases()["work"]["total_ns"] / 1000.0
        assert sum(e["dur"] for e in events) == pytest.approx(total_us)

    def test_span_records_when_the_body_raises(self):
        instr = Instrumentation()
        with pytest.raises(RuntimeError):
            with instr.span("failing"):
                raise RuntimeError("boom")
        assert instr.phases()["failing"]["count"] == 1
        assert [e["name"] for e in instr.trace_events()] == ["failing"]

    def test_instances_keep_separate_state(self):
        a, b = Instrumentation(), Instrumentation()
        with a.span("only.a"):
            pass
        assert a.span("x") is not b.span("x")
        assert "only.a" not in b.phases()
        assert b.trace_events() == []


class TestNullInstrumentation:
    def test_noop_is_shared_and_inert(self):
        assert isinstance(NOOP, NullInstrumentation)
        assert NOOP.enabled is False
        assert Instrumentation.enabled is True
        # every span is one shared singleton, allocating nothing
        assert NOOP.span("a") is NOOP.span("b")

    def test_noop_operations_do_nothing(self):
        with NOOP.span("x"):
            pass
        assert NOOP.trace_events() == []

    def test_noop_span_propagates_exceptions(self):
        with pytest.raises(ValueError):
            with NOOP.span("x"):
                raise ValueError("not swallowed")
