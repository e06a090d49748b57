"""FCT-slowdown analysis: percentiles per flow-size bin, as the paper plots.

Every evaluation figure in the paper reports the median (P50) and tail (P99)
FCT slowdown as a function of flow size (10 kB … 10 MB+ on a log axis).
:class:`SlowdownProfile` bins completed flows by size and computes the two
percentiles per bin; :func:`compare` lines up several profiles (one per
routing algorithm) and :func:`reduction` computes the "LCMP reduces … by X %"
numbers quoted in the text.

Profiles build straight from metric columns: :meth:`SlowdownProfile
.from_result` reads the run's :class:`~repro.simulator.fct.MetricsStore`
arrays (no per-flow record objects), :meth:`SlowdownProfile.from_arrays` is
the raw-column entry point, and :meth:`SlowdownProfile.from_records` remains
for record lists (it extracts the columns and delegates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..simulator.fct import FlowRecord

__all__ = [
    "DEFAULT_SIZE_BINS",
    "BinStats",
    "SlowdownProfile",
    "compare",
    "reduction",
]

#: flow-size bin edges in bytes (log-spaced, matching the paper's x-axis:
#: 10 kB, 100 kB, 1 MB, 10 MB)
DEFAULT_SIZE_BINS: Tuple[float, ...] = (
    0,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    float("inf"),
)


@dataclass(frozen=True)
class BinStats:
    """P50/P99 slowdown of the flows falling into one size bin."""

    lo_bytes: float
    hi_bytes: float
    count: int
    p50: float
    p99: float
    mean: float

    @property
    def label(self) -> str:
        """Human-readable bin label, e.g. ``"10k-100k"``."""

        def fmt(value: float) -> str:
            if value == float("inf"):
                return "inf"
            if value >= 1_000_000:
                return f"{value / 1_000_000:g}M"
            if value >= 1_000:
                return f"{value / 1_000:g}k"
            return f"{value:g}"

        return f"{fmt(self.lo_bytes)}-{fmt(self.hi_bytes)}"


@dataclass
class SlowdownProfile:
    """Binned slowdown statistics of one simulation run."""

    name: str
    bins: List[BinStats]
    overall_p50: float
    overall_p99: float
    overall_mean: float
    total_flows: int

    # ------------------------------------------------------------------ #
    @classmethod
    def from_records(
        cls,
        name: str,
        records: Sequence[FlowRecord],
        size_bins: Sequence[float] = DEFAULT_SIZE_BINS,
    ) -> "SlowdownProfile":
        """Build a profile from flow records (column extraction + delegate).

        Args:
            name: label (typically the routing algorithm).
            records: completed flows.
            size_bins: increasing bin edges in bytes.

        Raises:
            ValueError: when ``records`` is empty or bins are not increasing.
        """
        slowdowns = np.array([r.slowdown for r in records], dtype=float)
        sizes = np.array([r.size_bytes for r in records], dtype=float)
        return cls.from_arrays(name, sizes, slowdowns, size_bins)

    @classmethod
    def from_result(
        cls,
        name: str,
        result,
        mask: Optional[np.ndarray] = None,
        size_bins: Sequence[float] = DEFAULT_SIZE_BINS,
    ) -> "SlowdownProfile":
        """Build a profile straight from a simulation result's metric columns.

        Args:
            name: label (typically the routing algorithm).
            result: a :class:`~repro.simulator.fluid.SimulationResult`; its
                :class:`~repro.simulator.fct.MetricsStore` columns are used
                directly (no record materialisation).
            mask: optional boolean row mask (e.g. a DC-pair restriction).
            size_bins: increasing bin edges in bytes.
        """
        sizes = result.store.sizes().astype(float)
        slowdowns = result.store.slowdowns()
        if mask is not None:
            sizes = sizes[mask]
            slowdowns = slowdowns[mask]
        return cls.from_arrays(name, sizes, slowdowns, size_bins)

    @classmethod
    def from_arrays(
        cls,
        name: str,
        sizes: np.ndarray,
        slowdowns: np.ndarray,
        size_bins: Sequence[float] = DEFAULT_SIZE_BINS,
    ) -> "SlowdownProfile":
        """Build a profile from raw size/slowdown columns.

        Args:
            name: label (typically the routing algorithm).
            sizes: flow sizes in bytes (one element per completed flow).
            slowdowns: FCT slowdowns, aligned with ``sizes``.
            size_bins: increasing bin edges in bytes.

        Raises:
            ValueError: when the columns are empty or bins not increasing.
        """
        if len(sizes) == 0:
            raise ValueError("cannot build a slowdown profile from zero records")
        edges = list(size_bins)
        if sorted(edges) != edges or len(edges) < 2:
            raise ValueError("size_bins must be increasing with >= 2 edges")

        bins: List[BinStats] = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            mask = (sizes >= lo) & (sizes < hi)
            selected = slowdowns[mask]
            if selected.size == 0:
                continue
            bins.append(
                BinStats(
                    lo_bytes=lo,
                    hi_bytes=hi,
                    count=int(selected.size),
                    p50=float(np.percentile(selected, 50)),
                    p99=float(np.percentile(selected, 99)),
                    mean=float(selected.mean()),
                )
            )
        return cls(
            name=name,
            bins=bins,
            overall_p50=float(np.percentile(slowdowns, 50)),
            overall_p99=float(np.percentile(slowdowns, 99)),
            overall_mean=float(slowdowns.mean()),
            total_flows=len(slowdowns),
        )

    # ------------------------------------------------------------------ #
    def bin_labels(self) -> List[str]:
        """Labels of the populated bins."""
        return [b.label for b in self.bins]

    def series(self, percentile: str = "p50") -> List[float]:
        """The per-bin series for ``"p50"`` or ``"p99"`` (paper's curves)."""
        if percentile not in ("p50", "p99", "mean"):
            raise ValueError("percentile must be 'p50', 'p99' or 'mean'")
        return [getattr(b, percentile) for b in self.bins]


def compare(profiles: Sequence[SlowdownProfile]) -> Dict[str, Dict[str, float]]:
    """Summarise several profiles side by side.

    Returns:
        ``{profile name: {"p50": ..., "p99": ..., "mean": ..., "flows": ...}}``
    """
    return {
        p.name: {
            "p50": p.overall_p50,
            "p99": p.overall_p99,
            "mean": p.overall_mean,
            "flows": float(p.total_flows),
        }
        for p in profiles
    }


def reduction(ours: SlowdownProfile, baseline: SlowdownProfile) -> Dict[str, float]:
    """Relative reduction of ours vs a baseline (positive = we are better).

    The paper quotes e.g. "LCMP reduces median FCT slowdown by 76 % compared
    to UCMP"; this helper computes exactly that number.
    """
    def rel(base: float, new: float) -> float:
        if base <= 0:
            return 0.0
        return (base - new) / base

    return {
        "p50": rel(baseline.overall_p50, ours.overall_p50),
        "p99": rel(baseline.overall_p99, ours.overall_p99),
        "mean": rel(baseline.overall_mean, ours.overall_mean),
    }
