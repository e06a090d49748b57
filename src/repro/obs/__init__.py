"""Wall-clock observability for the simulator runtime.

See DESIGN.md, "Observability plane".  The package splits into:

* :mod:`repro.obs.spans` — ``perf_counter_ns`` phase timers behind the
  :class:`Instrumentation` facade, and the :data:`NOOP` null object that
  makes every span a no-op when ``SimulationConfig.instrumentation`` is
  off.
* :mod:`repro.obs.export` — Chrome trace-event JSON and cross-worker
  snapshot merging.

Event counts are not kept here: simulator components count in plain ints,
and :class:`~repro.simulator.fluid.FluidSimulation` harvests them once into
``SimulationResult.stats`` next to the phase aggregates.  Usage::

    from repro.obs import write_chrome_trace
    from repro.simulator import FluidSimulation, SimulationConfig

    config = SimulationConfig(instrumentation=True)
    sim = FluidSimulation(network, demands, cc_factory, config)
    result = sim.run()
    result.stats["counters"]["engine.events_fired"]    # harvested plain ints
    result.stats["phases"]["step.update"]["total_ns"]  # span aggregates
    write_chrome_trace(sim.obs, "run.trace.json")      # perfetto timeline
"""

from .export import chrome_trace, merge_snapshots, write_chrome_trace
from .spans import NOOP, Instrumentation, NullInstrumentation

__all__ = [
    "Instrumentation",
    "NullInstrumentation",
    "NOOP",
    "chrome_trace",
    "write_chrome_trace",
    "merge_snapshots",
]
