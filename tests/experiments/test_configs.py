"""Tests for experiment specifications."""

import pytest

from repro.core import LCMPConfig
from repro.experiments import (
    ALL_ROUTERS,
    CC_NAMES,
    LOADS,
    TESTBED_ENDPOINT_PAIRS,
    WORKLOAD_NAMES,
    ExperimentSpec,
)
from repro.workloads import TrafficConfig
from repro.workloads.traffic_gen import MAX_LOAD


class TestConstants:
    def test_paper_loads(self):
        assert LOADS == (0.3, 0.5, 0.8)

    def test_all_routers_includes_lcmp_and_baselines(self):
        assert "lcmp" in ALL_ROUTERS
        assert {"ecmp", "ucmp", "redte"} <= set(ALL_ROUTERS)

    def test_workloads_and_ccs(self):
        assert set(WORKLOAD_NAMES) == {"websearch", "alistorage", "fbhadoop"}
        assert set(CC_NAMES) == {"dcqcn", "hpcc", "timely", "dctcp"}

    def test_testbed_endpoints(self):
        assert TESTBED_ENDPOINT_PAIRS == (("DC1", "DC8"), ("DC8", "DC1"))


class TestSpec:
    def test_defaults_validate(self):
        ExperimentSpec(name="x").validate()

    def test_with_overrides(self):
        spec = ExperimentSpec(name="x")
        changed = spec.with_overrides(router="ecmp", load=0.8)
        assert changed.router == "ecmp" and changed.load == 0.8
        assert spec.router == "lcmp"

    def test_invalid_topology(self):
        with pytest.raises(ValueError):
            ExperimentSpec(name="x", topology="fat-tree").validate()

    @pytest.mark.parametrize(
        "overrides, match",
        [
            (dict(load=0), "load"),
            (dict(load=2.0), "load must be in \\(0, 1.5\\], got 2.0"),
            (dict(num_flows=0), "num_flows"),
            (dict(capacity_scale=0), "capacity_scale"),
            (dict(router="ospf"), "unknown router 'ospf'"),
            (dict(workload="mapreduce"), "unknown workload 'mapreduce'"),
            (dict(cc="reno"), "unknown congestion control 'reno'"),
            (dict(pairs="everything"), "pairs must be"),
            (dict(pairs=()), "pairs must be"),
            (dict(pairs=(("DC1", "DC8", "DC3"),)), "not a \\(src, dst\\) pair"),
            (dict(pairs=("DC1", "DC8")), "not a \\(src, dst\\) pair"),
            (dict(pairs=(("DC1", "DC1"),)), "distinct DCs"),
        ],
        ids=lambda v: "-".join(f"{k}={v[k]!r}" for k in v) if isinstance(v, dict) else "",
    )
    def test_invalid_fields(self, overrides, match):
        with pytest.raises(ValueError, match=match):
            ExperimentSpec(name="x", **overrides).validate()

    # The spec accepts exactly the loads TrafficConfig accepts, so a spec
    # that validates never fails later inside a run.
    @pytest.mark.parametrize("load", [1e-9, 0.8, MAX_LOAD])
    def test_load_accepted_by_spec_and_traffic_generator(self, load):
        ExperimentSpec(name="x", load=load).validate()
        TrafficConfig(load=load).validate()

    @pytest.mark.parametrize(
        "load", [0.0, -0.5, MAX_LOAD * (1 + 1e-9), float("nan"), float("inf")]
    )
    def test_load_rejected_by_spec_and_traffic_generator(self, load):
        with pytest.raises(ValueError, match="load must be in"):
            ExperimentSpec(name="x", load=load).validate()
        with pytest.raises(ValueError, match="load must be in"):
            TrafficConfig(load=load).validate()

    def test_valid_pairs(self):
        ExperimentSpec(name="x", pairs="all_to_all").validate()
        ExperimentSpec(name="x", pairs=[["DC1", "DC8"], ("DC8", "DC2")]).validate()

    def test_carries_lcmp_config(self):
        cfg = LCMPConfig(alpha=1, beta=3)
        spec = ExperimentSpec(name="x", lcmp_config=cfg)
        assert spec.lcmp_config.alpha == 1
