"""Phase timers and the ``Instrumentation`` facade.

An :class:`Instrumentation` object is the single handle a simulator run
carries for wall-clock observability: a set of phase timers and their
trace buffer.  When ``SimulationConfig.instrumentation`` is off the
simulator holds the module-level :data:`NOOP` singleton instead, whose
``span()`` returns a shared do-nothing context manager — the hot loops
then execute one attribute load plus an empty ``with`` block per
instrumented site.  Event counts are not kept here: simulator components
count in plain ints, harvested once when the run's result is built.

Span usage — bind the handle once at setup, enter it per occurrence::

    span = instrumentation.span("update.signals")
    ...
    with span:                     # 2x perf_counter_ns + list append
        compute_signals(...)

Handles are **reusable but not re-entrant**: each call site gets its own
handle, and a handle must not be entered again before it exits (phases in
the simulator nest by *different* names — ``step.update`` around
``update.signals`` — never recursively by the same name).

Each exit accumulates into per-phase ``count``/``total_ns``/``max_ns``
aggregates and, up to :attr:`Instrumentation.max_trace_events`, appends a
``(name, start_ns, dur_ns)`` trace event for Chrome trace export
(:func:`repro.obs.export.chrome_trace`).  The cap bounds memory on long
runs; aggregates keep counting past it.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Dict, List

__all__ = ["Instrumentation", "NullInstrumentation", "NOOP"]


class _SpanHandle:
    """A reusable (non-re-entrant) timer for one phase name."""

    __slots__ = ("_instr", "_name", "_start")

    def __init__(self, instr: "Instrumentation", name: str) -> None:
        self._instr = instr
        self._name = name
        self._start = 0

    def __enter__(self) -> "_SpanHandle":
        self._start = perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end = perf_counter_ns()
        self._instr._record(self._name, self._start, end - self._start)


class _Phase:
    """Aggregate timing for one phase name."""

    __slots__ = ("count", "total_ns", "max_ns")

    def __init__(self) -> None:
        self.count = 0
        self.total_ns = 0
        self.max_ns = 0


class Instrumentation:
    """Live observability state for one simulation run.

    Parameters
    ----------
    max_trace_events:
        Cap on retained Chrome-trace events; span aggregates keep
        accumulating after the cap is hit.
    """

    enabled = True

    def __init__(self, max_trace_events: int = 200_000) -> None:
        self.max_trace_events = max_trace_events
        self._phases: Dict[str, _Phase] = {}
        self._spans: Dict[str, _SpanHandle] = {}
        # flat parallel lists: one trace event per completed span occurrence
        self._ev_name: List[str] = []
        self._ev_start: List[int] = []
        self._ev_dur: List[int] = []
        self._origin_ns = perf_counter_ns()

    # -- spans ---------------------------------------------------------- #
    def span(self, name: str) -> _SpanHandle:
        """Get (or create) the reusable span handle for phase ``name``."""
        handle = self._spans.get(name)
        if handle is None:
            handle = _SpanHandle(self, name)
            self._spans[name] = handle
            self._phases.setdefault(name, _Phase())
        return handle

    def _record(self, name: str, start_ns: int, dur_ns: int) -> None:
        phase = self._phases[name]
        phase.count += 1
        phase.total_ns += dur_ns
        if dur_ns > phase.max_ns:
            phase.max_ns = dur_ns
        if len(self._ev_name) < self.max_trace_events:
            self._ev_name.append(name)
            self._ev_start.append(start_ns - self._origin_ns)
            self._ev_dur.append(dur_ns)

    # -- export --------------------------------------------------------- #
    def trace_events(self) -> List[dict]:
        """Completed spans as Chrome trace-event dicts (``"ph": "X"``)."""
        return [
            {
                "name": self._ev_name[i],
                "ph": "X",
                "ts": self._ev_start[i] / 1000.0,  # trace format wants µs
                "dur": self._ev_dur[i] / 1000.0,
                "pid": 0,
                "tid": 0,
                "cat": "sim",
            }
            for i in range(len(self._ev_name))
        ]

    def phases(self) -> Dict[str, dict]:
        """Per-phase aggregates, the ``phases`` section of ``SimulationResult.stats``::

            {name: {"count": int, "total_ns": int, "max_ns": int}}
        """
        return {
            name: {
                "count": phase.count,
                "total_ns": phase.total_ns,
                "max_ns": phase.max_ns,
            }
            for name, phase in sorted(self._phases.items())
        }


class _NullSpan:
    """Shared do-nothing span handle for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


class NullInstrumentation:
    """The ``instrumentation=False`` implementation: every span is inert.

    ``span()`` returns one shared singleton, so a disabled run allocates
    nothing and records nothing.
    """

    enabled = False

    _span = _NullSpan()

    def span(self, name: str) -> _NullSpan:
        """A shared no-op context manager."""
        return self._span

    def trace_events(self) -> List[dict]:
        """Always empty."""
        return []


NOOP = NullInstrumentation()
"""Module-level singleton used whenever instrumentation is off."""
