"""Exporters for observability data: Chrome trace, snapshot merge.

* :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome
  trace-event JSON format (``{"traceEvents": [...]}`` with ``"ph": "X"``
  complete events, timestamps in microseconds).  Load the file at
  https://ui.perfetto.dev or ``chrome://tracing`` to see the per-step
  phase timeline.
* :func:`merge_snapshots` — cross-worker aggregation of
  ``SimulationResult.stats`` dicts: sums counters and phase aggregates and
  takes maxima of gauges, so a ProcessPool sweep's per-run snapshots
  collapse into one fleet-wide profile with the same schema as a single
  run.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "merge_snapshots",
]


def chrome_trace(instrumentation) -> dict:
    """The Chrome trace-event document for a run's recorded spans.

    ``instrumentation`` is a live :class:`~repro.obs.spans.Instrumentation`
    (trace events are not part of the snapshot dict — they can be large, so
    they are exported separately and on demand).
    """
    return {"traceEvents": instrumentation.trace_events(), "displayTimeUnit": "ms"}


def write_chrome_trace(instrumentation, path) -> None:
    """Write :func:`chrome_trace` as JSON to ``path`` (perfetto-loadable)."""
    with open(path, "w") as fh:
        json.dump(chrome_trace(instrumentation), fh)


def merge_snapshots(snapshots: List[Optional[dict]]) -> Optional[dict]:
    """Merge per-run snapshot dicts into one aggregate with the same schema.

    ``None`` entries (uninstrumented runs) are skipped; if every entry is
    ``None`` the merge is ``None`` too.  Counters and phase
    ``count``/``total_ns`` sum across runs; gauge and phase maxima take the
    max; gauge ``last`` keeps the last run's value.
    """
    live = [s for s in snapshots if s is not None]
    if not live:
        return None
    counters: Dict[str, int] = {}
    gauges: Dict[str, dict] = {}
    phases: Dict[str, dict] = {}
    for snap in live:
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, g in snap.get("gauges", {}).items():
            agg = gauges.setdefault(name, {"last": 0.0, "max": 0.0})
            agg["last"] = g["last"]
            agg["max"] = max(agg["max"], g["max"])
        for name, p in snap.get("phases", {}).items():
            agg = phases.setdefault(name, {"count": 0, "total_ns": 0, "max_ns": 0})
            agg["count"] += p["count"]
            agg["total_ns"] += p["total_ns"]
            agg["max_ns"] = max(agg["max_ns"], p["max_ns"])
    return {
        "counters": {k: counters[k] for k in sorted(counters)},
        "gauges": {k: gauges[k] for k in sorted(gauges)},
        "phases": {k: phases[k] for k in sorted(phases)},
    }
