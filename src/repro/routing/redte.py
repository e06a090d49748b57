"""RedTE-style distributed traffic engineering baseline (Gui et al., SIGCOMM 2024).

RedTE is the state-of-the-art distributed WAN TE system the paper compares
against: each edge router runs an agent (trained with multi-agent RL) that
adjusts per-destination traffic-splitting ratios on a ~100 ms control loop to
mitigate sub-second bursts.

This reproduction keeps the deployment model (per-switch agent, split ratios
over next hops, a 100 ms control period) and replaces the learned policy with
the utilisation-equalising update such a policy converges to: every control
interval the agent measures the utilisation of its egress ports and shifts
split weight from over-utilised ports toward under-utilised ones.  The paper
itself observes that at RDMA's microsecond burst timescale the 100 ms loop is
far too coarse and RedTE "effectively degenerates to static hashing"; the
deterministic control law reproduces exactly that behaviour (documented
substitution, see DESIGN.md).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..simulator.flow import FlowDemand
from ..topology.paths import CandidatePath
from .base import Router, flow_hash, flow_hash_array, register_router

__all__ = ["RedTERouter"]


@register_router
class RedTERouter(Router):
    """Split-ratio TE with a coarse (100 ms) control loop."""

    name = "redte"

    def __init__(
        self,
        control_interval_s: float = 0.1,
        step_size: float = 0.3,
        min_weight: float = 0.05,
        salt: int = 0x61C88647,
    ) -> None:
        """Create a RedTE agent.

        Args:
            control_interval_s: control-loop period (100 ms in the paper).
            step_size: how aggressively weight moves toward under-utilised
                ports each control interval (0 = static, 1 = jump straight
                to the utilisation-equalising split).
            min_weight: floor that keeps every port reachable.
            salt: hash salt used for per-flow placement within the split.
        """
        super().__init__()
        self.control_interval_s = control_interval_s
        self.step_size = step_size
        self.min_weight = min_weight
        self.salt = salt

        #: per next-hop split weight (shared across destinations, as the
        #: telemetry is per egress port)
        self._weights: Dict[str, float] = {}
        #: latest cumulative carried bytes per port
        self._carried: Dict[str, float] = {}
        #: carried bytes at the start of the current control interval
        self._carried_at_interval_start: Dict[str, float] = {}
        self._capacity: Dict[str, float] = {}
        self._last_control_s: float = 0.0
        #: number of control-loop executions (used by tests)
        self.control_updates = 0

    # ------------------------------------------------------------------ #
    # telemetry
    # ------------------------------------------------------------------ #
    def on_telemetry(self, view, now: float) -> None:
        """Track cumulative carried bytes and capacity per egress port."""
        carried = view.carried_bytes.tolist()
        caps = view.cap_bps.tolist()
        for i, port in enumerate(view.port_dcs):
            self._carried[port] = carried[i]
            self._capacity[port] = caps[i]
            if port not in self._weights:
                self._weights[port] = 1.0
                self._carried_at_interval_start[port] = carried[i]

    def on_tick(self, now: float) -> None:
        """Run the control loop when a full control interval has elapsed."""
        if now - self._last_control_s < self.control_interval_s:
            return
        elapsed = now - self._last_control_s
        self._last_control_s = now
        self._run_control_loop(elapsed)

    # ------------------------------------------------------------------ #
    # control loop
    # ------------------------------------------------------------------ #
    def _run_control_loop(self, elapsed_s: float) -> None:
        if not self._weights or elapsed_s <= 0:
            return
        utilisation: Dict[str, float] = {}
        for port, weight in self._weights.items():
            carried_now = self._carried.get(port, 0.0)
            carried_before = self._carried_at_interval_start.get(port, carried_now)
            self._carried_at_interval_start[port] = carried_now
            capacity = max(self._capacity.get(port, 1.0), 1.0)
            utilisation[port] = (carried_now - carried_before) * 8.0 / (capacity * elapsed_s)

        mean_util = sum(utilisation.values()) / len(utilisation)
        if mean_util <= 0:
            return
        for port in self._weights:
            # ports running hotter than average lose weight, cooler ports gain
            imbalance = (mean_util - utilisation[port]) / mean_util
            updated = self._weights[port] * (1.0 + self.step_size * imbalance)
            self._weights[port] = max(self.min_weight, updated)
        self.control_updates += 1

    # ------------------------------------------------------------------ #
    # selection
    # ------------------------------------------------------------------ #
    def select(
        self,
        dst_dc: str,
        candidates: Sequence[CandidatePath],
        demand: FlowDemand,
        now: float,
    ) -> CandidatePath:
        """Weighted hash across candidates using the current split ratios."""
        self.decisions += 1
        weights: List[float] = [
            self._weights.get(c.first_hop, 1.0) for c in candidates
        ]
        total = sum(weights)
        if total <= 0:
            weights = [1.0] * len(candidates)
            total = float(len(candidates))
        point = (flow_hash(demand.flow_id, self.salt) / 0xFFFFFFFF) * total
        cumulative = 0.0
        for candidate, weight in zip(candidates, weights):
            cumulative += weight
            if point <= cumulative:
                return candidate
        return candidates[-1]

    def select_batch(
        self,
        dst_dc: str,
        candidates: Sequence[CandidatePath],
        demands: Sequence[FlowDemand],
        times: Optional[Sequence[float]] = None,
        now: float = 0.0,
        path_ids: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Vectorized weighted hashing under the current split ratios.

        The split weights only move on the (coarse) control loop, so one
        cumulative table covers the whole batch; the ``searchsorted`` /
        clip pair reproduces the scalar loop's ``point <= cumulative`` exit
        and ``candidates[-1]`` fallthrough exactly.
        """
        self.decisions += len(demands)
        weights: List[float] = [
            self._weights.get(c.first_hop, 1.0) for c in candidates
        ]
        total = sum(weights)
        if total <= 0:
            weights = [1.0] * len(candidates)
            total = float(len(candidates))
        cumulative = np.cumsum(np.asarray(weights))
        ids = np.fromiter(
            (d.flow_id for d in demands), dtype=np.int64, count=len(demands)
        )
        points = (flow_hash_array(ids, self.salt).astype(np.float64) / 0xFFFFFFFF) * total
        return self.backend.weighted_choice_searchsorted(cumulative, points)
