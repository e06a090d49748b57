"""Per-class CC column-block suite: spec derivation, copy-in / copy-out and
kernel equivalence.

Every congestion-control class declares its FlowTable block declaratively
(``cc_columns``); the base class derives the block layout from it, and the
FlowTable copies a controller's state into its row at ``acquire`` and back
at ``release``.  These tests check that contract for each class, and — the
load-bearing one — that each class's in-place ``feedback_batch_slots`` /
``advance_batch_slots`` kernels are *bit-for-bit* identical to its scalar
``on_feedback`` / ``on_interval`` under arrival/finish churn, slot reuse and
repeated feedback delivery.
"""

import numpy as np
import pytest

from repro.congestion_control import DCQCN, DCTCP, HPCC, FixedRate, IdealCC, Timely
from repro.congestion_control.base import CongestionControl
from repro.simulator import FlowTable
from repro.simulator.flow import FeedbackSignal, Flow, FlowDemand
from repro.simulator.link import RuntimeLink
from repro.topology.graph import LinkSpec

#: every registered CC class (the five paper CCs + FixedRate)
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


def state_columns(cc_cls):
    return [(name, col) for name, col in cc_cls.cc_columns.items() if col.kind == "state"]


def assert_same_state(released, plain, cc_cls, context=""):
    """A controller object's state equals its scalar twin's."""
    assert released.rate_bps == plain.rate_bps, f"rate {context}"
    assert released.feedback_count == plain.feedback_count, f"feedback_count {context}"
    for _, col in state_columns(cc_cls):
        assert getattr(released, col.attr) == getattr(plain, col.attr), f"{col.attr} {context}"


def assert_row_matches(table, slot, plain, context=""):
    """A table row's CC state equals the scalar twin's object state."""
    cc_cls = type(plain)
    assert table.cc_rate_bps[slot] == plain.rate_bps, f"rate {context}"
    assert table.feedback_count[slot] == plain.feedback_count, f"feedback_count {context}"
    block = table.cc_block(cc_cls)
    for name, col in state_columns(cc_cls):
        assert col.py(getattr(block, name)[slot]) == getattr(plain, col.attr), (
            f"{col.attr} {context}"
        )


def lane_signal(step: int, lane: int):
    """A deterministic, varied signal for one lane at one step."""
    congested = (step + lane) % 3 != 0
    ecn = ((step * 7 + lane * 3) % 11) / 11.0 if congested else 0.0
    util = 0.1 + ((step * 5 + lane) % 13) / 6.5
    qd = ((step + lane * 2) % 9) * 2.5e-4
    rtt = BASE_RTT + qd
    return ecn, util, rtt, qd


def signal_arrays(step: int, n: int):
    sig = [lane_signal(step, lane) for lane in range(n)]
    return tuple(np.array([s[k] for s in sig]) for k in range(4))


@pytest.mark.parametrize("cc_cls", CC_CLASSES, ids=lambda c: c.name)
class TestSpecDerivation:
    def test_block_spec_derived_from_columns(self, cc_cls):
        assert set(cc_cls.table_block_spec) == set(cc_cls.cc_columns)
        for name, col in cc_cls.cc_columns.items():
            assert cc_cls.table_block_spec[name] == col.dtype

    def test_acquire_copies_state_and_params_into_row(self, cc_cls):
        table = FlowTable(capacity=4)
        cc = cc_cls(LINE_RATE, BASE_RTT)
        slot = table.acquire(make_flow(0, cc))
        block = table.cc_block(cc_cls)
        assert table.cc_rate_bps[slot] == cc.rate_bps
        assert table.feedback_count[slot] == cc.feedback_count
        for name, col in cc_cls.cc_columns.items():
            # state and parameters alike are replicated into the row
            assert float(getattr(block, name)[slot]) == float(getattr(cc, col.attr))
        # the object is a copy, not a view: writing it leaves the row alone
        cc.rate_bps = 1.0
        assert table.cc_rate_bps[slot] == LINE_RATE

    def test_release_copies_row_state_back(self, cc_cls):
        table = FlowTable(capacity=4)
        cc = cc_cls(LINE_RATE, BASE_RTT)
        twin = cc_cls(LINE_RATE, BASE_RTT)
        flow = make_flow(0, cc)
        slot = table.acquire(flow)
        slots = np.array([slot], dtype=np.intp)
        # mutate the row through the kernels, the twin through the scalar
        # methods; the object sees none of it until release
        for step in range(20):
            now = step * 1e-3
            ecn, util, rtt, qd = signal_arrays(step, 1)
            cc_cls.feedback_batch_slots(table, slots, now, ecn, util, rtt, qd, now)
            twin.on_feedback(FeedbackSignal(now, ecn[0], util[0], rtt[0], qd[0]), now)
            cc_cls.advance_batch_slots(table, slots, 1e-3, now)
            twin.on_interval(1e-3, now)
        assert cc.feedback_count == 0
        table.release(flow)
        assert_same_state(cc, twin, cc_cls)
        for _, col in state_columns(cc_cls):
            assert type(getattr(cc, col.attr)) is col.py


@pytest.mark.parametrize("cc_cls", CC_CLASSES, ids=lambda c: c.name)
class TestDetachedController:
    def test_object_writes_while_in_table_are_overwritten_at_release(self, cc_cls):
        """The row is authoritative from acquire to release: state written
        to the object in between is discarded, not merged."""
        table = FlowTable(capacity=4)
        cc = cc_cls(LINE_RATE, BASE_RTT)
        untouched = cc_cls(LINE_RATE, BASE_RTT)
        flow = make_flow(0, cc)
        table.acquire(flow)
        cc.rate_bps = 1.0
        cc.feedback_count = 99
        for _, col in state_columns(cc_cls):
            setattr(cc, col.attr, col.py(7))
        table.release(flow)
        assert_same_state(cc, untouched, cc_cls)


@pytest.mark.parametrize("cc_cls", CC_CLASSES, ids=lambda c: c.name)
class TestKernelEquivalence:
    """feedback_batch_slots / advance_batch_slots == scalar, under churn."""

    N = 24

    def run_lockstep(self, cc_cls, steps, churn=False):
        table = FlowTable(capacity=8)  # force growth
        held, plain, flows = [], [], []
        next_id = 0

        def admit():
            nonlocal next_id
            h = cc_cls(LINE_RATE, BASE_RTT)
            f = make_flow(next_id, h)
            next_id += 1
            table.acquire(f)
            held.append(h)
            plain.append(cc_cls(LINE_RATE, BASE_RTT))
            flows.append(f)

        for _ in range(self.N):
            admit()

        rng = np.random.default_rng(7)
        for step in range(steps):
            now = step * 1e-3
            if churn and step and step % 40 == 0:
                # release a few rows and hand their slots to newcomers —
                # kernels must neither read stale state nor leak any into
                # the next tenant; released objects carry the row state
                for _ in range(3):
                    victim = int(rng.integers(len(flows)))
                    table.release(flows.pop(victim))
                    assert_same_state(held.pop(victim), plain.pop(victim), cc_cls)
                for _ in range(3):
                    admit()

            slots = np.array([f._slot for f in flows], dtype=np.intp)
            ecn, util, rtt, qd = signal_arrays(step, len(slots))

            cc_cls.feedback_batch_slots(table, slots, now, ecn, util, rtt, qd, now)
            for i, p in enumerate(plain):
                p.on_feedback(
                    FeedbackSignal(now, ecn[i], util[i], rtt[i], qd[i]), now
                )
            cc_cls.advance_batch_slots(table, slots, 1e-3, now)
            for p in plain:
                p.on_interval(1e-3, now)

            for i, (slot, p) in enumerate(zip(slots.tolist(), plain)):
                assert_row_matches(table, slot, p, context=f"step {step} lane {i}")

        # release everything; final values must survive the copy back
        for f, h, p in zip(flows, held, plain):
            table.release(f)
            assert_same_state(h, p, cc_cls, context="after release")

    def test_kernels_match_scalar(self, cc_cls):
        self.run_lockstep(cc_cls, steps=150)

    def test_kernels_match_scalar_under_slot_churn(self, cc_cls):
        self.run_lockstep(cc_cls, steps=200, churn=True)


def dcqcn_lanes(lanes):
    """Fresh DCQCN controllers, one per ``(params, state)`` lane spec."""
    out = []
    for params, state in lanes:
        cc = DCQCN(LINE_RATE, BASE_RTT, **params)
        for attr, value in state.items():
            setattr(cc, attr, value)
        out.append(cc)
    return out


def dcqcn_advance_lockstep(lanes, dt, steps=3):
    """``advance_batch_slots`` == ``on_interval`` bit for bit, step by step.

    Returns the scalar twins after the last step.
    """
    table = FlowTable(capacity=4)
    flows = [make_flow(i, cc) for i, cc in enumerate(dcqcn_lanes(lanes))]
    for f in flows:
        table.acquire(f)
    twins = dcqcn_lanes(lanes)
    slots = np.array([f._slot for f in flows], dtype=np.intp)
    for step in range(steps):
        now = step * dt
        DCQCN.advance_batch_slots(table, slots, dt, now)
        for twin in twins:
            twin.on_interval(dt, now)
        for i, (slot, twin) in enumerate(zip(slots.tolist(), twins)):
            assert_row_matches(table, slot, twin, context=f"step {step} lane {i}")
    return twins


#: a throttled controller: recovery has somewhere to go
THROTTLED = dict(alpha=0.5, rate_bps=2e9, target_rate_bps=5e9)


class TestDCQCNAdvanceEdges:
    """The unmasked common count plus the masked remainder, at the edges."""

    def test_dt_below_both_intervals(self):
        lanes = [({}, THROTTLED), ({}, dict(THROTTLED, _increase_stage=7))]
        twins = dcqcn_advance_lockstep(lanes, dt=10e-6, steps=1)
        # no lane crossed a boundary: the timers only accumulated
        assert all(t.alpha == 0.5 and t.rate_bps == 2e9 for t in twins)
        assert all(t._time_since_alpha_update == 10e-6 for t in twins)
        # many short steps then cross boundaries one at a time
        dcqcn_advance_lockstep(lanes, dt=10e-6, steps=80)

    def test_dt_exact_multiple_of_both_intervals(self):
        # binary-exact intervals: the repeated subtraction lands on 0 exactly
        params = dict(alpha_resume_interval_s=2.0**-10, increase_timer_s=2.0**-8)
        lanes = [(params, THROTTLED), (params, dict(THROTTLED, _increase_stage=4))]
        twins = dcqcn_advance_lockstep(lanes, dt=3 * 2.0**-8, steps=4)
        assert all(t._time_since_alpha_update == 0.0 for t in twins)
        assert all(t._time_since_increase == 0.0 for t in twins)
        assert twins[0]._increase_stage == 12

    def test_crossing_counts_differ_by_one(self):
        lanes = [
            ({}, THROTTLED),
            ({}, dict(THROTTLED, _time_since_alpha_update=54.9e-6)),
            ({}, dict(THROTTLED, _time_since_increase=0.29e-3)),
            ({}, dict(THROTTLED, _time_since_alpha_update=30e-6, _time_since_increase=0.1e-3)),
        ]
        twins = dcqcn_advance_lockstep(lanes, dt=1e-3, steps=1)
        # lane 1 took one more alpha decay, lane 2 one more increase
        assert twins[1].alpha == twins[0].alpha * (1 - twins[0].g)
        assert twins[2]._increase_stage == twins[0]._increase_stage + 1
        dcqcn_advance_lockstep(lanes, dt=1e-3, steps=10)

    def test_stages_cross_ai_and_hai_boundaries(self):
        lanes = [({}, dict(THROTTLED, _increase_stage=stage)) for stage in (3, 4, 5, 8, 9, 10)]
        # dt = 3 increase periods: every lane steps through 3 stages in the
        # common count, so 4 -> 7 enters AI, 9 -> 12 enters HAI mid-loop
        twins = dcqcn_advance_lockstep(lanes, dt=3 * 0.3e-3 + 1e-6, steps=1)
        assert [t._increase_stage for t in twins] == [6, 7, 8, 11, 12, 13]
        assert len({t.target_rate_bps for t in twins}) > 2
        dcqcn_advance_lockstep(lanes, dt=3 * 0.3e-3 + 1e-6, steps=6)

    def test_two_parameter_sets_in_one_table(self):
        fast = dict(alpha_resume_interval_s=55e-6, increase_timer_s=0.3e-3)
        slow = dict(alpha_resume_interval_s=80e-6, increase_timer_s=0.45e-3, g=1 / 8)
        lanes = [(fast, THROTTLED), (slow, THROTTLED)] * 3
        twins = dcqcn_advance_lockstep(lanes, dt=1e-3, steps=1)
        # the parameter sets give different counts, so the masked
        # remainder ran for the fast lanes
        assert twins[0].alpha != twins[1].alpha
        assert twins[0]._increase_stage != twins[1]._increase_stage
        dcqcn_advance_lockstep(lanes, dt=1e-3, steps=20)


#: the FlowTable-level repeated-delivery cases: each class alone, plus a
#: fleet cycling through all of them
FLEETS = [[cls] for cls in CC_CLASSES] + [CC_CLASSES]


@pytest.mark.parametrize("fleet", FLEETS, ids=[f[0].name for f in FLEETS[:-1]] + ["mixed"])
class TestRepeatedDelivery:
    """Several due signals per row, through ``FlowTable.deliver_feedback``."""

    N = 12
    GENERATIONS = 5

    def test_rows_apply_signals_in_deliver_time_order(self, fleet):
        table = FlowTable(capacity=4)
        flows, twins = [], []
        for i in range(self.N):
            cls = fleet[i % len(fleet)]
            flows.append(make_flow(i, cls(LINE_RATE, BASE_RTT)))
            twins.append(cls(LINE_RATE, BASE_RTT))
            table.acquire(flows[-1])
        slots = np.array([f._slot for f in flows], dtype=np.intp)
        rng = np.random.default_rng(5)
        now = 1.0

        # the generations' lanes merged in enqueue order, as the delay line
        # hands them over: rows, (generated_s, ecn, util, rtt, qd), deliver_s
        rows, fields, deliver_s = [], [], []
        pending = {i: [] for i in range(self.N)}
        for gen in range(self.GENERATIONS):
            lanes = np.sort(rng.choice(self.N, size=self.N - gen, replace=False))
            # deliver times out of enqueue order across generations (an
            # RTT-shortening reroute), with exact ties among them
            due = now - rng.integers(0, 4, size=len(lanes)) * 1e-3
            ecn, util, rtt, qd = signal_arrays(gen, len(lanes))
            generated = 0.5 + gen * 1e-3
            rows.append(slots[lanes])
            fields.append((np.full(len(lanes), generated), ecn, util, rtt, qd))
            deliver_s.append(due)
            for k, lane in enumerate(lanes.tolist()):
                signal = FeedbackSignal(generated, ecn[k], util[k], rtt[k], qd[k])
                pending[lane].append((due[k], signal))
        assert any(
            [d for d, _ in items] != sorted(d for d, _ in items)
            for items in pending.values()
        ), "no row received out-of-order signals; the case is vacuous"

        rows = np.concatenate(rows)
        assert table.repeated_rows(rows)
        signals = [np.concatenate(f) for f in zip(*fields)]
        calls = table.deliver_feedback(rows, signals, now, np.concatenate(deliver_s))

        for lane, twin in enumerate(twins):
            # a stable sort keeps enqueue (generation) order among ties
            for _, signal in sorted(pending[lane], key=lambda item: item[0]):
                twin.on_feedback(signal, now)
            assert twin.feedback_count == len(pending[lane])
            assert_row_matches(table, slots[lane], twin, context=f"row {lane}")
        waves = max(len(items) for items in pending.values())
        # one call per class present per wave, no split by generation
        assert waves <= calls <= waves * len(fleet)


class TestKernelSubsetDispatch:
    def test_kernels_touch_only_their_slots(self):
        """Delivering to a subset leaves the other rows' state untouched
        (the grouped mixed-fleet dispatch relies on this)."""
        table = FlowTable(capacity=8)
        flows = [make_flow(i, DCQCN(LINE_RATE, BASE_RTT)) for i in range(6)]
        for f in flows:
            table.acquire(f)
        block = table.cc_block(DCQCN)
        before = [
            (table.cc_rate_bps[f._slot], block.alpha[f._slot], table.feedback_count[f._slot])
            for f in flows
        ]
        subset = np.array([flows[1]._slot, flows[4]._slot], dtype=np.intp)
        DCQCN.feedback_batch_slots(
            table, subset, 0.0,
            np.array([0.9, 0.9]), np.array([1.5, 1.5]),
            np.array([0.03, 0.03]), np.array([0.01, 0.01]), 0.0,
        )
        for i, f in enumerate(flows):
            s = f._slot
            after = (table.cc_rate_bps[s], block.alpha[s], table.feedback_count[s])
            if i in (1, 4):
                assert after[2] == 1
                assert after[0] < before[i][0]
            else:
                assert after == before[i]


class _NoKernels(CongestionControl):
    """A controller with scalar methods only."""

    name = "no-kernels-test"

    def on_feedback(self, signal, now):
        self.feedback_count += 1
        self.rate_bps *= 0.5
        self._clamp()

    def on_interval(self, dt, now):
        self.rate_bps *= 1.01
        self._clamp()


class TestClassWithoutKernels:
    def test_array_core_rejects_it_at_acquire(self):
        table = FlowTable(capacity=4)
        with pytest.raises(TypeError, match=r"_NoKernels.*vectorized=False"):
            table.acquire(make_flow(0, _NoKernels(LINE_RATE, BASE_RTT)))
        # the rejected flow took no row
        assert len(table) == 0

    def test_scalar_core_runs_it(self, tiny_topology, tiny_pathset, quick_sim_config):
        from repro.routing import make_router_factory
        from repro.simulator import FluidSimulation, RuntimeNetwork

        demands = [
            FlowDemand(i, "A", "B", i % 4, (i + 1) % 4, 500_000, 0.002 * i)
            for i in range(10)
        ]

        def factory(line_rate_bps, base_rtt_s, flow_id):
            return _NoKernels(line_rate_bps, base_rtt_s)

        def run(vectorized):
            config = quick_sim_config.with_overrides(vectorized=vectorized)
            network = RuntimeNetwork(
                tiny_topology, tiny_pathset, make_router_factory("ecmp"), config
            )
            return FluidSimulation(network, demands, factory, config).run()

        result = run(vectorized=False)
        assert result.unfinished_flows == 0
        assert len(result.records) == 10
        with pytest.raises(TypeError, match="vectorized=False"):
            run(vectorized=True)
