"""Analysis of simulation results: FCT slowdown, utilisation, fidelity, reports."""

from .fct_analysis import (
    DEFAULT_SIZE_BINS,
    BinStats,
    SlowdownProfile,
    compare,
    reduction,
)
from .fidelity import FidelityResult, fidelity_study, pearson
from .perf_report import perf_report, phase_breakdown, top_counters
from .report import format_table, reduction_report, slowdown_table, utilization_report
from .scenario_analysis import (
    EventImpact,
    event_impacts,
    recovery_report,
    slowdown_timeline,
)
from .utilization import LinkUtilization, imbalance, jain_fairness, utilization_table

__all__ = [
    "DEFAULT_SIZE_BINS",
    "BinStats",
    "SlowdownProfile",
    "compare",
    "reduction",
    "FidelityResult",
    "fidelity_study",
    "pearson",
    "perf_report",
    "phase_breakdown",
    "top_counters",
    "EventImpact",
    "event_impacts",
    "recovery_report",
    "slowdown_timeline",
    "format_table",
    "reduction_report",
    "slowdown_table",
    "utilization_report",
    "LinkUtilization",
    "imbalance",
    "jain_fairness",
    "utilization_table",
]
