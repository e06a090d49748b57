"""Simulation configuration.

A single dataclass gathers every tunable of the fluid network simulation so
experiment configs (:mod:`repro.experiments.configs`) and tests can express
their setup declaratively and reproducibly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

__all__ = ["SimulationConfig"]


@dataclass
class SimulationConfig:
    """Tunables of the fluid flow-level simulation.

    Attributes:
        update_interval_s: length of a fluid rate/queue update step.  Queue
            integration, congestion-signal generation and CC rate updates all
            happen on this cadence.  Smaller values increase fidelity and
            cost; 0.5–1 ms is adequate for inter-DC RTTs of 10–500 ms.
        monitor_interval_s: cadence of the DCI-switch queue monitor that
            feeds the LCMP congestion estimator (and RedTE's telemetry).
        gc_interval_s: cadence of the flow-cache garbage-collection tick.
        ecn_kmin_fraction / ecn_kmax_fraction / ecn_pmax: RED/ECN marking
            profile of egress queues, expressed as fractions of the port
            buffer (DCQCN-style marking).
        max_sim_time_s: hard stop for the simulation clock.
        drain_timeout_s: extra simulated time allowed after the last flow
            arrival for in-flight flows to finish.
        fidelity_noise: multiplicative log-normal noise applied to recorded
            FCTs — zero for the "simulator" profile, a small value for the
            "testbed" profile used by the Fig. 6 fidelity study (SoftRoCE +
            Mininet emulation is noisier than NS-3).
        seed: base RNG seed; every stochastic component derives its stream
            from this value, making runs reproducible.
        vectorized: run the array core (default) instead of the
            pure-Python scalar loop.  The array core keeps per-flow and
            congestion-control state in the structure-of-arrays
            :class:`~repro.simulator.flow_table.FlowTable`, runs the update
            step as numpy math over the flow×link incidence arrays with the
            kernels of :mod:`repro.backend`, dispatches congestion control
            through each class's in-place column kernels, sweeps telemetry
            from the incidence arrays and routes batched arrivals through
            :meth:`~repro.routing.base.Router.select_batch`.  The scalar
            core is the executable specification: per-event arrivals,
            telemetry swept from the link objects and per-flow controller
            calls.
            Both produce bit-for-bit identical results (see DESIGN.md,
            "Vectorized core").
        instrumentation: enable the runtime observability plane
            (:mod:`repro.obs`): phase timers around every step sub-phase,
            plus a one-time harvest of the always-on plain-int counters
            (engine, routing, flow caches, path set, slow paths), attached
            to ``SimulationResult.stats`` (see DESIGN.md, "Observability
            plane").  Off by default; when off, every span is a shared
            no-op object and ``stats`` is ``None``.  Instrumentation never
            touches simulation numerics or RNG streams, so results are
            bit-for-bit identical either way.
    """

    update_interval_s: float = 1e-3
    monitor_interval_s: float = 1e-3
    gc_interval_s: float = 0.25
    ecn_kmin_fraction: float = 0.05
    ecn_kmax_fraction: float = 0.5
    ecn_pmax: float = 0.2
    max_sim_time_s: float = 120.0
    drain_timeout_s: float = 60.0
    fidelity_noise: float = 0.0
    seed: int = 1
    vectorized: bool = True
    instrumentation: bool = False

    def with_overrides(self, **kwargs) -> "SimulationConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    def validate(self) -> None:
        """Check that the configuration is internally consistent.

        Raises:
            ValueError: on a NaN field, non-positive or infinite intervals,
                a non-positive stop time, a negative drain timeout or noise
                level, or ECN settings out of range.
        """
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and math.isnan(value):
                raise ValueError(f"{f.name} must not be NaN")
        for name in ("update_interval_s", "monitor_interval_s", "gc_interval_s"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0 <= self.ecn_kmin_fraction <= self.ecn_kmax_fraction <= 1:
            raise ValueError("require 0 <= ecn_kmin_fraction <= ecn_kmax_fraction <= 1")
        if not 0 <= self.ecn_pmax <= 1:
            raise ValueError("ecn_pmax must be in [0, 1]")
        if self.max_sim_time_s <= 0:
            raise ValueError("max_sim_time_s must be positive")
        if self.drain_timeout_s < 0:
            raise ValueError("drain_timeout_s must be non-negative")
        if self.fidelity_noise < 0:
            raise ValueError("fidelity_noise must be non-negative")
