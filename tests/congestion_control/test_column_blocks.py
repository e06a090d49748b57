"""Per-class CC column-block suite: spec derivation and kernel equivalence.

Every congestion-control class declares its FlowTable block declaratively
(``cc_columns``); the base class derives the block layout, the bound-view
properties and the bind/release push/pull from it.  These tests check that
derivation for each class, and — the load-bearing contract — that each
class's in-place ``feedback_batch_slots`` / ``advance_batch_slots`` kernels
are *bit-for-bit* identical to its scalar ``on_feedback`` / ``on_interval``
under arrival/finish churn and slot reuse.
"""

import numpy as np
import pytest

from repro.congestion_control import DCQCN, DCTCP, HPCC, FixedRate, IdealCC, Timely
from repro.congestion_control.base import CongestionControl
from repro.simulator import FlowTable
from repro.simulator.flow import FeedbackSignal, Flow, FlowDemand
from repro.simulator.link import RuntimeLink
from repro.topology.graph import LinkSpec

#: every registered CC class (the ISSUE's five paper CCs + FixedRate)
CC_CLASSES = [DCQCN, DCTCP, HPCC, Timely, IdealCC, FixedRate]

LINE_RATE = 10e9
BASE_RTT = 0.02


def make_flow(flow_id: int, cc) -> Flow:
    demand = FlowDemand(
        flow_id=flow_id,
        src_dc="DC1",
        dst_dc="DC2",
        src_host=0,
        dst_host=1,
        size_bytes=1_000_000,
        arrival_s=0.0,
    )
    link = RuntimeLink(LinkSpec("A", "B", 1e9, 0.005, 1_000_000, True))
    return Flow(demand, [link], cc, base_rtt_s=BASE_RTT)


def state_attrs(cc_cls):
    return [col.attr for col in cc_cls.cc_columns.values() if col.kind == "state"]


def assert_same_state(bound, plain, cc_cls, context=""):
    assert bound.rate_bps == plain.rate_bps, f"rate {context}"
    assert bound.feedback_count == plain.feedback_count, f"feedback_count {context}"
    for attr in state_attrs(cc_cls):
        assert getattr(bound, attr) == getattr(plain, attr), f"{attr} {context}"


def lane_signal(step: int, lane: int):
    """A deterministic, varied signal for one lane at one step."""
    congested = (step + lane) % 3 != 0
    ecn = ((step * 7 + lane * 3) % 11) / 11.0 if congested else 0.0
    util = 0.1 + ((step * 5 + lane) % 13) / 6.5
    qd = ((step + lane * 2) % 9) * 2.5e-4
    rtt = BASE_RTT + qd
    return ecn, util, rtt, qd


@pytest.mark.parametrize("cc_cls", CC_CLASSES, ids=lambda c: c.name)
class TestSpecDerivation:
    def test_block_spec_derived_from_columns(self, cc_cls):
        assert set(cc_cls.table_block_spec) == set(cc_cls.cc_columns)
        for name, col in cc_cls.cc_columns.items():
            assert cc_cls.table_block_spec[name] == col.dtype

    def test_state_properties_dispatch_to_block(self, cc_cls):
        table = FlowTable(capacity=4)
        cc = cc_cls(LINE_RATE, BASE_RTT)
        unbound_values = {attr: getattr(cc, attr) for attr in state_attrs(cc_cls)}
        flow = make_flow(0, cc)
        slot = table.acquire(flow)
        block = table.cc_block(cc_cls) if cc_cls.cc_columns else None
        for name, col in cc_cls.cc_columns.items():
            if col.kind != "state":
                continue
            # bind pushed the unbound value into the column
            assert col.py(getattr(block, name)[slot]) == unbound_values[col.attr]
            # writes through the property land in the column
            new = (not unbound_values[col.attr]) if col.py is bool else col.py(1)
            setattr(cc, col.attr, new)
            assert col.py(getattr(block, name)[slot]) == new
        for name, col in cc_cls.cc_columns.items():
            if col.kind == "param":
                # parameters are replicated into the row at bind
                assert float(getattr(block, name)[slot]) == float(
                    getattr(cc, col.attr)
                )
        table.release(flow)
        assert cc._table is None

    def test_release_pulls_state_back(self, cc_cls):
        table = FlowTable(capacity=4)
        cc = cc_cls(LINE_RATE, BASE_RTT)
        flow = make_flow(0, cc)
        table.acquire(flow)
        # mutate through the scalar methods while bound
        for step in range(20):
            ecn, util, rtt, qd = lane_signal(step, 0)
            cc.on_feedback(FeedbackSignal(step * 1e-3, ecn, util, rtt, qd), step * 1e-3)
            cc.on_interval(1e-3, step * 1e-3)
        snapshot = {attr: getattr(cc, attr) for attr in state_attrs(cc_cls)}
        rate, count = cc.rate_bps, cc.feedback_count
        table.release(flow)
        assert cc.rate_bps == rate
        assert cc.feedback_count == count
        for attr, value in snapshot.items():
            assert getattr(cc, attr) == value


@pytest.mark.parametrize("cc_cls", CC_CLASSES, ids=lambda c: c.name)
class TestBoundScalarEquivalence:
    def test_bound_and_unbound_instances_stay_bitwise_identical(self, cc_cls):
        """The scalar methods act identically through the block views."""
        table = FlowTable(capacity=4)
        bound = cc_cls(LINE_RATE, BASE_RTT)
        plain = cc_cls(LINE_RATE, BASE_RTT)
        flow = make_flow(0, cc=bound)
        table.acquire(flow)
        for step in range(120):
            now = step * 1e-3
            ecn, util, rtt, qd = lane_signal(step, 0)
            signal = FeedbackSignal(now, ecn, util, rtt, qd)
            bound.on_feedback(signal, now)
            plain.on_feedback(signal, now)
            bound.on_interval(1e-3, now)
            plain.on_interval(1e-3, now)
        assert_same_state(bound, plain, cc_cls)


@pytest.mark.parametrize("cc_cls", CC_CLASSES, ids=lambda c: c.name)
class TestKernelEquivalence:
    """feedback_batch_slots / advance_batch_slots == scalar, under churn."""

    N = 24

    def run_lockstep(self, cc_cls, steps, churn=False):
        table = FlowTable(capacity=8)  # force growth
        bound, plain, flows = [], [], []
        next_id = 0
        for _ in range(self.N):
            b = cc_cls(LINE_RATE, BASE_RTT)
            p = cc_cls(LINE_RATE, BASE_RTT)
            f = make_flow(next_id, b)
            next_id += 1
            table.acquire(f)
            bound.append(b)
            plain.append(p)
            flows.append(f)

        rng = np.random.default_rng(7)
        for step in range(steps):
            now = step * 1e-3
            if churn and step and step % 40 == 0:
                # release a few rows and hand their slots to newcomers —
                # kernels must neither read stale state nor leak any into
                # the next tenant
                for _ in range(3):
                    victim = int(rng.integers(len(flows)))
                    table.release(flows.pop(victim))
                    bound.pop(victim)
                    plain.pop(victim)
                for _ in range(3):
                    b = cc_cls(LINE_RATE, BASE_RTT)
                    p = cc_cls(LINE_RATE, BASE_RTT)
                    f = make_flow(next_id, b)
                    next_id += 1
                    table.acquire(f)
                    bound.append(b)
                    plain.append(p)
                    flows.append(f)

            slots = np.array([f._slot for f in flows], dtype=np.intp)
            n = len(slots)
            sig = [lane_signal(step, lane) for lane in range(n)]
            ecn = np.array([s[0] for s in sig])
            util = np.array([s[1] for s in sig])
            rtt = np.array([s[2] for s in sig])
            qd = np.array([s[3] for s in sig])

            cc_cls.feedback_batch_slots(table, slots, now, ecn, util, rtt, qd, now)
            for i, p in enumerate(plain):
                p.on_feedback(
                    FeedbackSignal(now, ecn[i], util[i], rtt[i], qd[i]), now
                )
            cc_cls.advance_batch_slots(table, slots, 1e-3, now)
            for p in plain:
                p.on_interval(1e-3, now)

            for i, (b, p) in enumerate(zip(bound, plain)):
                assert_same_state(b, p, cc_cls, context=f"step {step} lane {i}")

        # release everything; final values must survive unbinding
        for f, b, p in zip(flows, bound, plain):
            table.release(f)
            assert_same_state(b, p, cc_cls, context="after release")

    def test_kernels_match_scalar(self, cc_cls):
        self.run_lockstep(cc_cls, steps=150)

    def test_kernels_match_scalar_under_slot_churn(self, cc_cls):
        self.run_lockstep(cc_cls, steps=200, churn=True)


class TestKernelSubsetDispatch:
    def test_kernels_touch_only_their_slots(self):
        """Delivering to a subset leaves the other rows' state untouched
        (the grouped mixed-fleet dispatch relies on this)."""
        table = FlowTable(capacity=8)
        ccs = [DCQCN(LINE_RATE, BASE_RTT) for _ in range(6)]
        flows = [make_flow(i, cc) for i, cc in enumerate(ccs)]
        for f in flows:
            table.acquire(f)
        before = [
            (cc.rate_bps, cc.alpha, cc.feedback_count) for cc in ccs
        ]
        subset = np.array([flows[1]._slot, flows[4]._slot], dtype=np.intp)
        DCQCN.feedback_batch_slots(
            table, subset, 0.0,
            np.array([0.9, 0.9]), np.array([1.5, 1.5]),
            np.array([0.03, 0.03]), np.array([0.01, 0.01]), 0.0,
        )
        for i, cc in enumerate(ccs):
            if i in (1, 4):
                assert cc.feedback_count == 1
                assert cc.rate_bps < before[i][0]
            else:
                assert (cc.rate_bps, cc.alpha, cc.feedback_count) == before[i]


def test_base_subclass_without_spec_keeps_object_dispatch():
    """A CC class with no cc_columns still works through the base
    slot-batch hooks (loop the scalar methods over the bound instances)."""

    class Plain(CongestionControl):
        name = "plain-test"

        def on_feedback(self, signal, now):
            self.feedback_count += 1
            self.rate_bps *= 0.5
            self._clamp()

        def on_interval(self, dt, now):
            self.rate_bps *= 1.01
            self._clamp()

    table = FlowTable(capacity=4)
    ccs = [Plain(LINE_RATE, BASE_RTT) for _ in range(3)]
    flows = [make_flow(i, cc) for i, cc in enumerate(ccs)]
    for f in flows:
        table.acquire(f)
    slots = np.array([f._slot for f in flows], dtype=np.intp)
    Plain.feedback_batch_slots(
        table, slots, 0.0, np.zeros(3), np.ones(3), np.full(3, 0.02), np.zeros(3), 0.0
    )
    Plain.advance_batch_slots(table, slots, 1e-3, 0.0)
    twin = Plain(LINE_RATE, BASE_RTT)
    twin.on_feedback(FeedbackSignal(0.0, 0.0, 1.0, 0.02, 0.0), 0.0)
    twin.on_interval(1e-3, 0.0)
    for cc in ccs:
        assert cc.rate_bps == twin.rate_bps
        assert cc.feedback_count == 1
