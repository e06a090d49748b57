"""Outside-in tracing for the benchmark's traced run.

Every span is recorded from the benchmark's own code, around a public call
into one layer of the program: the set-up building blocks, the update steps
seen through ``FluidSimulation.add_step_observer``, ``RuntimeNetwork``'s path
resolution, each switch router's ``select_batch``, fast-failover
revalidation, the telemetry sweep, the congestion-control slot kernels and
the kernels of the shared numpy array backend.

The wrappers only observe: they call the original with the original
arguments and return its result, so a traced run's model outputs are
bit-identical to an untraced one (the benchmark checks this).  Class- and
backend-level wrappers are installed by :class:`Tracer` and removed when it
closes; instance-level wrappers die with the objects they wrap.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Dict, List, Tuple

import numpy as np

from repro.backend import get_backend
from repro.congestion_control import DCQCN, DCTCP, HPCC, Timely

#: the kernels of :class:`repro.backend.core.ArrayBackend`
KERNELS = (
    "scatter_add",
    "segment_reduce",
    "expand_segments",
    "path_signals",
    "weighted_choice_searchsorted",
    "gather_rows",
    "scatter_rows",
    "masked_where",
    "masked_divide",
)
#: routers whose ``select_batch`` gets its own metrics
ROUTERS = ("lcmp", "ecmp", "ucmp", "redte")
CC_CLASSES = {cls.name: cls for cls in (DCQCN, DCTCP, HPCC, Timely)}
CC_KERNELS = (("advance_batch_slots", "cc.advance"), ("feedback_batch_slots", "cc.feedback"))

#: raw spans a recorder keeps for the Chrome trace
MAX_TRACE_EVENTS = 50_000
#: the span around one whole repetition; its self time is what no layer claims
ROOT = "workload"
#: span-name prefix -> row of the self-time table
LAYERS = (
    ("setup.", "experiments"),
    ("sim.", "simulator"),
    ("routing.", "routing"),
    ("failover.", "scenarios"),
    ("telemetry.", "simulator.telemetry"),
    ("cc.", "congestion_control"),
    ("backend.", "backend"),
    ("analysis.", "analysis"),
    ("bench.", "perfbench"),
)


def _layer_units() -> Dict[str, str]:
    units = {
        "setup.topology_s": "s",
        "setup.control_plane_s": "s",
        "setup.demands_s": "s",
        "setup.sim_init_s": "s",
        "topology.path_searches": "count",
        "topology.pathset_bytes": "B",
        "routing.resolve_calls": "count",
        "routing.batch_size_p50": "flows",
        "routing.decisions_per_flow": "ratio",
        "lcmp.cache_hit_ratio": "ratio",
        "lcmp.fallback_share": "ratio",
        "simulator.steps": "count",
        "simulator.step_self_us": "us",
        "simulator.engine_events": "count",
        "simulator.active_flows_mean": "flows",
        "telemetry.sweep_us": "us",
        "telemetry.sweeps": "count",
        "cc.advance_us_per_step": "us",
        "cc.feedback_us_per_step": "us",
        "cc.kernel_calls": "count",
        "failover.revalidate_us": "us",
        "failover.reroute_attempts": "count",
        "failover.reroutes": "count",
        "failover.reroute_success_ratio": "ratio",
        "analysis.profile_s": "s",
        "sim.slowdown_p50": "ratio",
        "sim.slowdown_p99": "ratio",
        "sim.duration_s": "sim_s",
        "sim.flows_completed": "count",
        "trace.unattributed_share": "ratio",
        "trace.overhead": "ratio",
    }
    for router in ROUTERS:
        units[f"routing.us_per_flow.{router}"] = "us"
        units[f"routing.select_us_per_call.{router}"] = "us"
    for kernel in KERNELS:
        units[f"backend.{kernel}.calls"] = "count"
        units[f"backend.{kernel}.us"] = "us"
        units[f"backend.{kernel}.elements"] = "count"
    return units


#: every per-layer metric the traced run reports, with its unit
LAYER_UNITS = _layer_units()


class SpanRecorder:
    """In-memory spans of one traced repetition.

    A span has an id, a parent id (0 for the root), a name and start/end
    times.  Per-name aggregates (calls, total and self time) cover every
    span; the raw spans kept for the Chrome trace stop at ``MAX_TRACE_EVENTS``.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.events: List[Tuple[int, int, str, int, int]] = []
        self.dropped = 0
        #: name -> [calls, total_ns, self_ns]
        self.totals: Dict[str, List[int]] = {}
        self._stack: List[list] = []
        self._next_id = 1

    def enter(self, name: str) -> None:
        self._stack.append([name, perf_counter_ns(), 0, self._next_id])
        self._next_id += 1

    def exit(self) -> None:
        end = perf_counter_ns()
        name, start, child_ns, span_id = self._stack.pop()
        dur = end - start
        agg = self.totals.get(name)
        if agg is None:
            agg = self.totals[name] = [0, 0, 0]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - child_ns
        parent_id = 0
        if self._stack:
            parent = self._stack[-1]
            parent[2] += dur
            parent_id = parent[3]
        if len(self.events) < MAX_TRACE_EVENTS:
            self.events.append((span_id, parent_id, name, start, end))
        else:
            self.dropped += 1

    def top(self) -> str:
        return self._stack[-1][0] if self._stack else ""

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def timed(self, name: str, fn):
        """``fn`` wrapped in a span called ``name``."""

        def call(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return call

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0, 0))[0]

    def total_us(self, name: str) -> float:
        return self.totals.get(name, (0, 0, 0))[1] / 1e3


class Tracer:
    """Observation-only wrappers for one traced repetition (a context manager).

    On entry it wraps the kernels of the shared numpy backend and the
    congestion-control class's slot kernels; on exit it restores both
    exactly.  :meth:`router_factory` and :meth:`attach` wrap per-run
    objects.
    """

    def __init__(self, recorder: SpanRecorder, cc: str) -> None:
        self.rec = recorder
        self.cc_class = CC_CLASSES[cc]
        self.batch_sizes: List[int] = []
        self.reroute_attempts = 0
        self.kernel_elements = dict.fromkeys(KERNELS, 0)
        self._undo: List = []

    def __enter__(self) -> "Tracer":
        try:
            self._wrap_backend()
            self._wrap_cc()
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _wrap_backend(self) -> None:
        backend = get_backend("numpy")
        rec, elements = self.rec, self.kernel_elements
        for kernel in KERNELS:
            original = getattr(backend, kernel)
            name = f"backend.{kernel}"

            def call(*args, _fn=original, _name=name, _kernel=kernel, **kwargs):
                elements[_kernel] += max(
                    (a.size for a in args if isinstance(a, np.ndarray)), default=0
                )
                rec.enter(_name)
                try:
                    return _fn(*args, **kwargs)
                finally:
                    rec.exit()

            setattr(backend, kernel, call)
            self._undo.append(lambda k=kernel: delattr(backend, k))

    def _wrap_cc(self) -> None:
        cls, rec = self.cc_class, self.rec
        for method, name in CC_KERNELS:
            own = cls.__dict__.get(method)
            func = getattr(cls, method).__func__

            def call(klass, *args, _fn=func, _name=name, **kwargs):
                rec.enter(_name)
                try:
                    return _fn(klass, *args, **kwargs)
                finally:
                    rec.exit()

            setattr(cls, method, classmethod(call))
            if own is None:
                self._undo.append(lambda m=method: delattr(cls, m))
            else:
                self._undo.append(lambda m=method, o=own: setattr(cls, m, o))

    def router_factory(self, factory, router: str):
        """``factory`` whose routers time their ``select_batch``."""
        name = f"routing.select.{router}"

        def make(dc: str):
            instance = factory(dc)
            instance.select_batch = self.rec.timed(name, instance.select_batch)
            return instance

        return make

    def attach(self, sim) -> None:
        """Wrap one constructed simulation's network, failover and telemetry calls."""
        rec = self.rec
        network = sim.network
        resolve_batch = network.resolve_paths_batch
        resolve_one = network.resolve_path

        def resolve_paths_batch(demands, times):
            self.batch_sizes.append(len(demands))
            rec.enter("routing.resolve_batch")
            try:
                return resolve_batch(demands, times)
            finally:
                rec.exit()

        def resolve_path(demand, now):
            if rec.inside("failover.revalidate"):
                self.reroute_attempts += 1
            rec.enter("routing.resolve_path")
            try:
                return resolve_one(demand, now)
            finally:
                rec.exit()

        network.resolve_paths_batch = resolve_paths_batch
        network.resolve_path = resolve_path
        sim.revalidate_flows = rec.timed("failover.revalidate", sim.revalidate_flows)
        if sim.telemetry is not None:
            sim.telemetry.sweep = rec.timed("telemetry.sweep", sim.telemetry.sweep)
        sim.add_step_observer(self._step)

    def _step(self, sim, now: float) -> None:
        # one span per gap between update steps, so everything the engine
        # does between two steps (arrivals, monitor, GC) nests inside it
        if self.rec.top() == "sim.step":
            self.rec.exit()
        self.rec.enter("sim.step")

    def run(self, sim):
        """``sim.run()`` inside the ``sim.run`` span."""
        self.rec.enter("sim.run")
        try:
            return sim.run()
        finally:
            if self.rec.top() == "sim.step":
                self.rec.exit()
            self.rec.exit()


def self_time_table(rec: SpanRecorder) -> List[Tuple[str, float, float]]:
    """``(layer, self seconds, share of wall time)`` rows, ``unattributed`` last.

    Each span's self time counts once, in its layer's row; the root span's
    self time is the ``unattributed`` row, so the shares sum to 1.
    """
    wall_ns = rec.totals[ROOT][1]
    rows: Dict[str, int] = {layer: 0 for _, layer in LAYERS}
    for name, (_, _, self_ns) in rec.totals.items():
        if name == ROOT:
            continue
        layer = next((layer for prefix, layer in LAYERS if name.startswith(prefix)), None)
        if layer is None:
            raise ValueError(f"span {name!r} belongs to no layer")
        rows[layer] += self_ns
    table = [(layer, ns / 1e9, ns / wall_ns) for layer, ns in rows.items()]
    table.append(("unattributed", rec.totals[ROOT][2] / 1e9, rec.totals[ROOT][2] / wall_ns))
    return table


def write_chrome_trace(rec: SpanRecorder, path, table) -> None:
    """Write the spans as Chrome trace-event JSON (load in ui.perfetto.dev)."""
    origin = rec.events[0][3] if rec.events else 0
    events = [
        {
            "name": name,
            "cat": name.split(".")[0],
            "ph": "X",
            "ts": (start - origin) / 1e3,
            "dur": (end - start) / 1e3,
            "pid": 1,
            "tid": 1,
            "args": {"id": span_id, "parent": parent_id, "run": rec.run_id},
        }
        for span_id, parent_id, name, start, end in rec.events
    ]
    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "run": rec.run_id,
            "dropped_spans": rec.dropped,
            "self_time": [
                {"layer": layer, "self_s": secs, "share": share} for layer, secs, share in table
            ],
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def layer_metrics(rec: SpanRecorder, tracer: Tracer, jobs) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition (``trace.overhead`` excluded).

    ``jobs`` are the repetition's :class:`~perfbench.run.JobRun` s; counts
    sum over them, and the model outputs (``sim.*``) come from the first,
    which is always the LCMP run.
    """
    steps = sum(job.steps for job in jobs)
    offered = sum(job.offered for job in jobs)

    def counter(name: str, routers=None) -> int:
        return sum(
            job.result.stats["counters"].get(name, 0)
            for job in jobs
            if routers is None or job.router in routers
        )

    def per(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: Dict[str, float] = {}
    for phase in ("topology", "control_plane", "demands", "sim_init"):
        name = f"setup.{phase}"
        m[f"{name}_s"] = per(rec.total_us(name) / 1e6, rec.calls(name))
    m["topology.path_searches"] = counter("topology.pathset_searches")
    m["topology.pathset_bytes"] = max(
        job.result.stats["gauges"]["topology.pathset_bytes"]["max"] for job in jobs
    )
    m["routing.resolve_calls"] = rec.calls("routing.resolve_batch") + rec.calls(
        "routing.resolve_path"
    )
    m["routing.batch_size_p50"] = (
        float(statistics.median(tracer.batch_sizes)) if tracer.batch_sizes else 0.0
    )
    for router in ROUTERS:
        name = f"routing.select.{router}"
        routed = sum(job.offered for job in jobs if job.router == router)
        m[f"routing.us_per_flow.{router}"] = per(rec.total_us(name), routed)
        m[f"routing.select_us_per_call.{router}"] = per(rec.total_us(name), rec.calls(name))
    m["routing.decisions_per_flow"] = per(
        sum(job.result.routing_decisions for job in jobs), offered
    )
    hits = counter("flow_cache.hits", ("lcmp",))
    m["lcmp.cache_hit_ratio"] = per(hits, hits + counter("flow_cache.misses", ("lcmp",)))
    m["lcmp.fallback_share"] = per(
        counter("routing.fallback_decisions", ("lcmp",)), counter("routing.decisions", ("lcmp",))
    )
    m["simulator.steps"] = steps
    m["simulator.step_self_us"] = per(
        rec.totals.get("sim.step", (0, 0, 0))[2] / 1e3, rec.calls("sim.step")
    )
    m["simulator.engine_events"] = counter("engine.events_fired")
    m["simulator.active_flows_mean"] = per(
        sum(float(job.result.store.fcts().sum()) for job in jobs),
        sum(job.result.duration_s for job in jobs),
    )
    m["telemetry.sweep_us"] = per(rec.total_us("telemetry.sweep"), rec.calls("telemetry.sweep"))
    m["telemetry.sweeps"] = rec.calls("telemetry.sweep")
    m["cc.advance_us_per_step"] = per(rec.total_us("cc.advance"), steps)
    m["cc.feedback_us_per_step"] = per(rec.total_us("cc.feedback"), steps)
    m["cc.kernel_calls"] = rec.calls("cc.advance") + rec.calls("cc.feedback")
    for kernel in KERNELS:
        name = f"backend.{kernel}"
        m[f"{name}.calls"] = rec.calls(name)
        m[f"{name}.us"] = rec.total_us(name)
        m[f"{name}.elements"] = tracer.kernel_elements[kernel]
    m["failover.revalidate_us"] = per(
        rec.total_us("failover.revalidate"), rec.calls("failover.revalidate")
    )
    m["failover.reroute_attempts"] = tracer.reroute_attempts
    m["failover.reroutes"] = counter("slow_path.reroutes")
    m["failover.reroute_success_ratio"] = per(m["failover.reroutes"], tracer.reroute_attempts)
    m["analysis.profile_s"] = per(
        rec.total_us("analysis.profile") / 1e6, rec.calls("analysis.profile")
    )
    first = jobs[0]
    m["sim.slowdown_p50"] = first.profile.overall_p50
    m["sim.slowdown_p99"] = first.profile.overall_p99
    m["sim.duration_s"] = first.result.duration_s
    m["sim.flows_completed"] = len(first.result.store)
    table = self_time_table(rec)
    m["trace.unattributed_share"] = table[-1][2]
    return m
