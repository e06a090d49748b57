"""Per-phase performance reports over observability snapshots.

Turns the snapshot dict a run attaches to ``SimulationResult.stats`` (or a
sweep-merged snapshot from
:meth:`~repro.experiments.runner.ExperimentRunner.aggregate_stats`) into:

* :func:`phase_breakdown` — per-phase rows (count, total/mean/max duration,
  share of the top-level ``step.*`` time), sorted by total time;
* :func:`top_counters` — the top-N counters by value;
* :func:`perf_report` — a human-readable text report of both.
"""

from __future__ import annotations

from typing import List, Optional

__all__ = [
    "phase_breakdown",
    "top_counters",
    "perf_report",
]


def phase_breakdown(snapshot: dict, top: Optional[int] = None) -> List[dict]:
    """Per-phase timing rows, sorted by total time (descending).

    Each row carries ``name``, ``count``, ``total_ms``, ``mean_us``,
    ``max_us`` and ``share`` — the phase's total as a fraction of the
    summed totals of the top-level ``step.*`` phases.  The top-level
    shares therefore sum to 1, and a nested phase (``update.*`` inside
    ``step.update``, ``arrivals.route`` inside ``step.arrivals``) reports
    its cut of the same whole, never more than its parent's share.
    """
    phases = snapshot.get("phases", {})
    step_total = (
        sum(p["total_ns"] for name, p in phases.items() if name.startswith("step."))
        or 1
    )
    rows = [
        {
            "name": name,
            "count": p["count"],
            "total_ms": p["total_ns"] / 1e6,
            "mean_us": (p["total_ns"] / p["count"] / 1e3) if p["count"] else 0.0,
            "max_us": p["max_ns"] / 1e3,
            "share": p["total_ns"] / step_total,
        }
        for name, p in phases.items()
    ]
    rows.sort(key=lambda r: (-r["total_ms"], r["name"]))
    return rows[:top] if top is not None else rows


def top_counters(snapshot: dict, top: int = 10) -> List[dict]:
    """The ``top`` counters by value, as ``{"name", "value"}`` rows."""
    counters = snapshot.get("counters", {})
    rows = [{"name": name, "value": value} for name, value in counters.items()]
    rows.sort(key=lambda r: (-r["value"], r["name"]))
    return rows[:top]


def perf_report(snapshot: Optional[dict], top: int = 10) -> str:
    """Human-readable top-N phase / counter report.

    Accepts ``None`` (an uninstrumented run) and says so, so callers can
    pipe ``result.stats`` straight in.
    """
    if snapshot is None:
        return "no observability data (run with instrumentation=True)\n"
    lines = ["phase breakdown (top %d by total time)" % top]
    lines.append(
        f"{'phase':<28} {'count':>8} {'total ms':>10} {'mean µs':>10} "
        f"{'max µs':>10} {'share':>7}"
    )
    for row in phase_breakdown(snapshot, top=top):
        lines.append(
            f"{row['name']:<28} {row['count']:>8} {row['total_ms']:>10.3f} "
            f"{row['mean_us']:>10.2f} {row['max_us']:>10.2f} {row['share']:>6.1%}"
        )
    lines.append("")
    lines.append("counters (top %d)" % top)
    lines.append(f"{'counter':<40} {'value':>12}")
    for row in top_counters(snapshot, top=top):
        lines.append(f"{row['name']:<40} {row['value']:>12}")
    return "\n".join(lines) + "\n"
