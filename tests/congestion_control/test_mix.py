"""Tests for deterministic per-flow congestion-control mixes."""

import pickle

import pytest

from repro.congestion_control import (
    DCQCN,
    HPCC,
    MixedCCFactory,
    make_cc_factory,
    make_mixed_cc_factory,
)
from repro.experiments import DEFAULT_CC_MIX, ExperimentSpec, mixed_fleet_spec


class TestMixedCCFactory:
    def test_assignment_is_deterministic_per_seed_and_flow(self):
        a = make_mixed_cc_factory((("dcqcn", 0.8), ("hpcc", 0.2)), seed=3)
        b = make_mixed_cc_factory((("dcqcn", 0.8), ("hpcc", 0.2)), seed=3)
        assert [a.assign(i) for i in range(200)] == [b.assign(i) for i in range(200)]
        other_seed = make_mixed_cc_factory((("dcqcn", 0.8), ("hpcc", 0.2)), seed=4)
        assert [a.assign(i) for i in range(200)] != [
            other_seed.assign(i) for i in range(200)
        ]

    def test_shares_roughly_follow_weights(self):
        factory = make_mixed_cc_factory((("dcqcn", 0.8), ("hpcc", 0.2)), seed=1)
        picks = [factory.assign(i) for i in range(2000)]
        hpcc_share = picks.count(1) / len(picks)
        assert 0.15 < hpcc_share < 0.25

    def test_builds_the_assigned_class(self):
        factory = make_mixed_cc_factory((("dcqcn", 0.5), ("hpcc", 0.5)), seed=1)
        for flow_id in range(50):
            cc = factory(10e9, 0.02, flow_id=flow_id)
            expected = (DCQCN, HPCC)[factory.assign(flow_id)]
            assert type(cc) is expected

    def test_accepts_mapping_and_ready_made_factories(self):
        by_mapping = make_mixed_cc_factory({"dcqcn": 1.0})
        assert type(by_mapping(10e9, 0.02, flow_id=0)) is DCQCN
        custom = MixedCCFactory((((lambda lr, rtt, flow_id: HPCC(lr, rtt)), 1.0),), seed=0)
        assert type(custom(10e9, 0.02, flow_id=0)) is HPCC

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            MixedCCFactory(())
        with pytest.raises(ValueError):
            make_mixed_cc_factory((("dcqcn", 0.0),))
        with pytest.raises(KeyError):
            make_mixed_cc_factory((("cubic", 1.0),))

    def test_factories_share_one_signature(self):
        """Mixed and uniform factories both take (line_rate, base_rtt, flow_id)."""
        mixed = make_mixed_cc_factory(DEFAULT_CC_MIX, seed=9)
        uniform = make_cc_factory("hpcc")
        for flow_id in range(20):
            cc = mixed(100e9, 0.05, flow_id)
            assert cc.name == mixed.labels[mixed.assign(flow_id)]
            assert uniform(100e9, 0.05, flow_id).name == "hpcc"

    def test_spec_with_mix_is_picklable(self):
        """Parallel sweeps ship specs (not factories) to workers; a mixed
        spec must survive the round trip with its mix intact."""
        spec = mixed_fleet_spec(num_flows=10)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.cc_mix == spec.cc_mix
        assert clone.seed == spec.seed


class TestSpecWiring:
    def test_mixed_fleet_spec_defaults(self):
        spec = mixed_fleet_spec(num_flows=10)
        assert spec.cc_mix == DEFAULT_CC_MIX
        spec.validate()

    def test_validate_accepts_mapping_form(self):
        spec = ExperimentSpec(name="map", cc_mix={"dcqcn": 0.8, "hpcc": 0.2})
        spec.validate()

    def test_validate_rejects_unknown_mix_names(self):
        spec = ExperimentSpec(name="bad", cc_mix=(("cubic", 1.0),))
        with pytest.raises(ValueError):
            spec.validate()

    def test_validate_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            ExperimentSpec(name="bad", cc_mix=(("dcqcn", -1.0),)).validate()
        with pytest.raises(ValueError):
            ExperimentSpec(name="bad", cc_mix=()).validate()
