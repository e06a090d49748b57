"""The one shared kernel instance: lookup, who holds it, and the hooks.

Outside tools (tracers, profilers) attach to the simulator's hot paths by
wrapping attributes: a kernel on the shared instance or on
:class:`~repro.backend.NumpyBackend`, or a congestion-control class's
``*_batch_slots`` classmethods.  These tests pin that every such attribute
is class-level and looked up at call time, so a wrapper set before a run
sees the run's calls.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.backend import NumpyBackend, get_backend
from repro.congestion_control import DCQCN, DCTCP, HPCC, Timely, make_cc_factory
from repro.core import lcmp_router_factory
from repro.routing import make_router_factory
from repro.simulator import FluidSimulation, RuntimeNetwork, SimulationConfig
from repro.simulator.flow import FlowDemand
from repro.topology import build_testbed8
from repro.topology import testbed8_pathset as _testbed8_pathset
from repro.workloads import TrafficConfig, TrafficGenerator


#: the kernels every call site looks up on the shared instance
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

#: congestion controls with per-class column-block kernels
SLOT_KERNEL_CCS = {"dcqcn": DCQCN, "dctcp": DCTCP, "hpcc": HPCC, "timely": Timely}


def build_array_sim():
    """A small LCMP run on the array core (not yet started)."""
    topology = build_testbed8(capacity_scale=0.1)
    paths = _testbed8_pathset(topology)
    config = SimulationConfig(seed=4)
    traffic = TrafficConfig(
        workload="websearch", load=0.4, num_flows=60,
        pairs=[("DC1", "DC8")], seed=4,
    )
    demands = TrafficGenerator(topology, paths, traffic).generate()
    network = RuntimeNetwork(
        topology, paths, lcmp_router_factory(topology, paths), config
    )
    return FluidSimulation(network, demands, make_cc_factory("dcqcn"), config)


def build_long_flow_sim(cc):
    """Long flows on the array core: they outlive many RTTs, so both the
    per-step advance and the delayed feedback reach the CC kernels."""
    topology = build_testbed8(capacity_scale=0.1)
    paths = _testbed8_pathset(topology)
    config = SimulationConfig(seed=4, max_sim_time_s=0.05, drain_timeout_s=0.05)
    demands = [
        FlowDemand(i, "DC1", "DC8", i, i, 20_000_000, 1e-4 * i) for i in range(16)
    ]
    network = RuntimeNetwork(topology, paths, make_router_factory("ecmp"), config)
    return FluidSimulation(network, demands, make_cc_factory(cc), config)


class TestLookup:
    def test_one_shared_instance(self):
        assert isinstance(get_backend("numpy"), NumpyBackend)
        assert get_backend("numpy") is get_backend("numpy")

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown array backend"):
            get_backend("cupy")

    @pytest.mark.parametrize("name", KERNELS)
    def test_kernel_is_a_class_level_method(self, name, monkeypatch):
        shared = get_backend("numpy")
        assert callable(vars(NumpyBackend).get(name))
        assert name not in vars(shared)

        def replacement(*args, **kwargs):
            raise AssertionError("not called")

        # a class-level patch is what the shared instance resolves
        monkeypatch.setattr(NumpyBackend, name, replacement)
        assert getattr(shared, name).__func__ is replacement


class TestSharedBySimulation:
    def test_every_component_holds_the_shared_instance(self):
        shared = get_backend("numpy")
        sim = build_array_sim()
        assert sim._backend is shared
        assert sim._table.backend is shared
        assert sim._incidence.backend is shared
        assert sim.telemetry.backend is shared
        for switch in sim.network.switches.values():
            assert switch.router.backend is shared

    def test_instance_wrapper_sees_kernel_calls(self):
        """A wrapper set on the shared instance before construction is
        what every call site reaches during ``run()`` (the kernels are
        looked up at call time)."""
        shared = get_backend("numpy")
        calls = Counter()
        wrapped = ("scatter_add", "path_signals")
        for name in wrapped:
            original = getattr(shared, name)

            def counting(*args, _fn=original, _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            setattr(shared, name, counting)
        try:
            sim = build_array_sim()
            result = sim.run()
        finally:
            for name in wrapped:
                delattr(shared, name)
        assert result.records
        assert calls["scatter_add"] > 0
        assert calls["path_signals"] > 0
        assert not vars(shared)


class TestSlotKernelHooks:
    @pytest.mark.parametrize("cc", list(SLOT_KERNEL_CCS))
    def test_class_wrapper_sees_slot_kernel_calls(self, cc, monkeypatch):
        """Both column kernels are the class's own classmethods, and a
        wrapper installed on the class runs for every dispatch."""
        cls = SLOT_KERNEL_CCS[cc]
        calls = Counter()
        for hook in ("advance_batch_slots", "feedback_batch_slots"):
            assert isinstance(vars(cls).get(hook), classmethod)
            original = vars(cls)[hook].__func__

            def counting(klass, *args, _fn=original, _hook=hook, **kwargs):
                calls[_hook] += 1
                return _fn(klass, *args, **kwargs)

            monkeypatch.setattr(cls, hook, classmethod(counting))
        build_long_flow_sim(cc).run()
        assert calls["advance_batch_slots"] > 0
        assert calls["feedback_batch_slots"] > 0
