"""Deterministic per-flow congestion-control mixes.

Heterogeneous-CC fleets (e.g. a datacenter migrating from DCQCN to HPCC
tenant by tenant) assign a congestion-control algorithm *per flow*.  A
:class:`MixedCCFactory` draws that assignment deterministically from
``(seed, flow_id)``, so the same spec produces the same fleet on both cores
(scalar and array), in every process of a parallel sweep, and
regardless of arrival batching — the property the cross-core equivalence
suite relies on.

Build one from registry names and weights::

    from repro.congestion_control import make_mixed_cc_factory

    factory = make_mixed_cc_factory((("dcqcn", 0.8), ("hpcc", 0.2)), seed=7)
    cc = factory(100e9, 0.05, 42)   # same class for flow id 42, always

It has the signature every congestion-control factory has,
``(line_rate_bps, base_rtt_s, flow_id)``: the fluid simulation passes each
demand's ``flow_id`` to whatever factory it was given.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence, Tuple

from .base import CCFactory, CongestionControl, make_cc_factory

__all__ = ["MixedCCFactory", "make_mixed_cc_factory"]

_MASK64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    """splitmix64 finalizer: a cheap, well-distributed 64-bit integer mix.

    Used instead of seeding a numpy Generator per flow — assignment runs
    once per arrival on the batched-arrival fast path, and constructing a
    ``default_rng`` costs ~25 µs against sub-µs for this mix.  Distinct
    constants from the routing layer's ``flow_hash`` keep CC assignment
    uncorrelated with path choice.
    """
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


class MixedCCFactory:
    """A per-flow factory choosing among several CC factories by weight.

    Args:
        components: pairs of ``(cc, weight)`` where ``cc`` is a registry
            name (``"dcqcn"``) or an existing factory and ``weight`` is a
            positive share (normalised internally).
        seed: base seed of the per-flow assignment stream.
    """

    def __init__(
        self, components: Sequence[Tuple[object, float]], seed: int = 0
    ) -> None:
        components = tuple(components)
        if not components:
            raise ValueError("a CC mix needs at least one component")
        factories = []
        labels = []
        weights = []
        for cc, weight in components:
            weight = float(weight)
            if weight <= 0:
                raise ValueError(f"CC mix weights must be positive, got {weight}")
            if isinstance(cc, str):
                factories.append(make_cc_factory(cc))
                labels.append(cc)
            else:
                factories.append(cc)
                labels.append(getattr(cc, "name", type(cc).__name__))
            weights.append(weight)
        self._factories: Tuple[CCFactory, ...] = tuple(factories)
        #: component labels, aligned with the assignment indices
        self.labels: Tuple[str, ...] = tuple(labels)
        total = sum(weights)
        acc = 0.0
        self._cum = []
        for w in weights:
            acc += w / total
            self._cum.append(acc)
        self._seed = _mix64(int(seed) & _MASK64)

    def assign(self, flow_id: int) -> int:
        """Component index assigned to ``flow_id`` (deterministic)."""
        u = _mix64(self._seed ^ _mix64(int(flow_id) & _MASK64)) / 2.0**64
        return min(bisect_right(self._cum, u), len(self._cum) - 1)

    def __call__(
        self, line_rate_bps: float, base_rtt_s: float, flow_id: int = 0
    ) -> CongestionControl:
        """Build the controller assigned to ``flow_id``."""
        return self._factories[self.assign(flow_id)](line_rate_bps, base_rtt_s, flow_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shares = [b - a for a, b in zip([0.0] + self._cum[:-1], self._cum)]
        parts = ", ".join(
            f"{label}:{share:.0%}" for label, share in zip(self.labels, shares)
        )
        return f"MixedCCFactory({parts}, seed={self._seed})"


def make_mixed_cc_factory(mix, seed: int = 0) -> MixedCCFactory:
    """Build a :class:`MixedCCFactory` from a mix description.

    Args:
        mix: a mapping ``{name: weight}`` or a sequence of ``(name, weight)``
            pairs; names may also be ready-made factories.
        seed: base seed of the per-flow assignment stream.
    """
    if hasattr(mix, "items"):
        mix = tuple(mix.items())
    return MixedCCFactory(mix, seed=seed)
