"""Diversity-preserving selection for herd mitigation (paper §3.4).

When many flows arrive nearly simultaneously and each picks the currently
cheapest path, they collapse onto the same next hop (the herd effect).  LCMP
therefore selects in two stages:

1. **filter** — sort candidates by fused cost and drop the expensive suffix,
   keeping the low-cost half (``keep_fraction``);
2. **diversity-preserving hash** — ECMP-style hashing of the flow id inside
   the reduced set, so simultaneous arrivals spread across all good paths.

Fallback: when every candidate is highly congested the randomisation is
pointless, so the minimum-cost path is chosen directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..routing.base import flow_hash
from .config import LCMPConfig
from .cost_fusion import PathCost

__all__ = ["SelectionOutcome", "filter_candidates", "reduce_candidates", "select_path"]


@dataclass(frozen=True)
class SelectionOutcome:
    """The result of one two-stage selection, with bookkeeping for tests."""

    chosen: PathCost
    reduced_set: List[PathCost]
    all_congested: bool


def filter_candidates(costs: Sequence[PathCost], keep_fraction: float) -> List[PathCost]:
    """Stage 1: sort by fused cost and keep the low-cost prefix.

    At least one candidate is always retained.  Ties are broken by the
    candidate's DC sequence so the reduced set is deterministic.
    """
    if not costs:
        raise ValueError("no candidates to filter")
    if not 0 < keep_fraction <= 1:
        raise ValueError("keep_fraction must be in (0, 1]")
    ordered = sorted(costs, key=lambda c: (c.fused, c.candidate.dcs))
    keep = max(1, math.ceil(len(ordered) * keep_fraction))
    return ordered[:keep]


def reduce_candidates(
    costs: Sequence[PathCost], config: LCMPConfig
) -> Tuple[List[PathCost], bool]:
    """The flow-independent part of :func:`select_path`.

    Returns:
        ``(reduced, all_congested)``: the set the flow hash picks from and
        the herd verdict.  Under the herd fallback the set is just the
        minimum-cost path, so the hash always lands on it.
    """
    if not costs:
        raise ValueError("no candidates to select from")
    if all(c.congestion >= config.congested_threshold for c in costs):
        # randomising among uniformly bad choices is pointless: take the
        # minimum-cost path (paper §3.4, fallbacks and corner cases)
        return [min(costs, key=lambda c: (c.fused, c.candidate.dcs))], True
    return filter_candidates(costs, config.keep_fraction), False


def select_path(
    costs: Sequence[PathCost],
    flow_id: int,
    config: LCMPConfig,
) -> SelectionOutcome:
    """Run the full two-stage selection for one new flow.

    Args:
        costs: fused costs of every live candidate.
        flow_id: the flow identifier fed to the diversity-preserving hash.
        config: keep fraction, congestion-fallback threshold and hash salt.

    Returns:
        A :class:`SelectionOutcome`; ``chosen`` is the selected path.
    """
    reduced, all_congested = reduce_candidates(costs, config)
    index = flow_hash(flow_id, config.hash_salt) % len(reduced)
    return SelectionOutcome(chosen=reduced[index], reduced_set=reduced, all_congested=all_congested)
