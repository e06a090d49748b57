"""Tests for cost fusion and diversity-preserving selection (Eq. 1, paper §3.4)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LCMPConfig, reduce_set
from repro.routing.base import flow_hash


def dcs_of(n):
    """``n`` distinct DC tuples, in ascending order."""
    return [("DC1", f"X{j}", "DC8") for j in range(n)]


def reduce_fused(fused, config=None):
    """:func:`reduce_set` over candidates whose fused cost is ``fused`` (C_cong alone)."""
    config = (config or LCMPConfig()).with_overrides(alpha=0, beta=1)
    return reduce_set([0] * len(fused), fused, dcs_of(len(fused)), config)


def pick(positions, flow_id, config):
    """The diversity-preserving hash of ``flow_id`` into the reduced set."""
    return positions[flow_hash(flow_id, config.hash_salt) % len(positions)]


class TestFusion:
    """Eq. 1: C = alpha * C_path + beta * C_cong, compared on plain integers."""

    @pytest.mark.parametrize(
        "c_congs, order", [([42, 40], (0, 1)), ([44, 40], (1, 0)), ([43, 40], (0, 1))]
    )
    def test_eq1_default_weights(self, c_congs, order):
        # 3*100 + C_cong vs 3*101 + 40 = 343: one unit of C_cong decides
        cfg = LCMPConfig(alpha=3, beta=1, keep_fraction=1.0)
        assert reduce_set([100, 101], c_congs, dcs_of(2), cfg) == (False, order)

    def test_rm_alpha_uses_only_congestion(self):
        cfg = LCMPConfig(keep_fraction=1.0)
        c_paths, c_congs = [200, 0], [10, 50]
        assert reduce_set(c_paths, c_congs, dcs_of(2), cfg)[1] == (1, 0)
        rm_alpha = cfg.ablate_path_quality()
        assert reduce_set(c_paths, c_congs, dcs_of(2), rm_alpha)[1] == (0, 1)

    def test_rm_beta_uses_only_path_quality(self):
        cfg = LCMPConfig(keep_fraction=1.0)
        c_paths, c_congs = [10, 50], [150, 0]
        assert reduce_set(c_paths, c_congs, dcs_of(2), cfg)[1] == (1, 0)
        rm_beta = cfg.ablate_congestion()
        assert reduce_set(c_paths, c_congs, dcs_of(2), rm_beta)[1] == (0, 1)

    def test_ordering_follows_fused_cost(self):
        cfg = LCMPConfig(alpha=1, beta=1, keep_fraction=1.0)
        assert reduce_set([100, 10, 50], [0, 0, 0], dcs_of(3), cfg)[1] == (1, 2, 0)

    def test_equal_fused_costs_ordered_by_dc_tuple(self):
        cfg = LCMPConfig(keep_fraction=1.0)
        dcs = list(reversed(dcs_of(3)))
        # candidates 0 and 2 tie at 30; candidate 2's DC tuple sorts first
        assert reduce_set([10, 0, 10], [0, 0, 0], dcs, cfg)[1] == (1, 2, 0)

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            reduce_set([], [], [], LCMPConfig())


class TestFilter:
    def test_keeps_low_cost_half(self):
        herd, positions = reduce_fused([60, 10, 40, 90, 20, 70])
        assert not herd
        assert positions == (1, 4, 2)

    @pytest.mark.parametrize(
        "n, keep, kept", [(1, 0.1, 1), (3, 0.5, 2), (5, 0.5, 3), (5, 0.1, 1), (3, 1.0, 3)]
    )
    def test_keeps_the_ceiling_of_the_fraction(self, n, keep, kept):
        positions = reduce_fused(list(range(n, 0, -1)), config=LCMPConfig(keep_fraction=keep))[1]
        assert positions == tuple(range(n - 1, n - 1 - kept, -1))


class TestHerdFallback:
    def test_all_congested_falls_back_to_min_cost(self):
        cfg = LCMPConfig(congested_threshold=200)
        # fused costs 898, 501, 699, every C_cong at or above the threshold
        herd, positions = reduce_set([216, 97, 148], [250, 210, 255], dcs_of(3), cfg)
        assert herd
        assert positions == (1,)
        assert all(pick(positions, flow_id, cfg) == 1 for flow_id in range(50))

    def test_not_all_congested_keeps_diversity(self):
        cfg = LCMPConfig(congested_threshold=200)
        herd, positions = reduce_set([0, 0, 0], [250, 10, 255], dcs_of(3), cfg)
        assert not herd
        assert positions == (1, 0)


class TestDiversityPreservingHash:
    def test_chosen_is_from_reduced_set(self):
        cfg = LCMPConfig()
        _, positions = reduce_fused([60, 10, 40, 90, 20, 70])
        assert pick(positions, 1234, cfg) in positions

    def test_diversity_across_flow_ids(self):
        """The herd-mitigation property: a burst of simultaneous new flows is
        spread over *all* members of the low-cost set, not just the single
        cheapest path."""
        cfg = LCMPConfig()
        _, positions = reduce_fused([60, 10, 40, 90, 20, 70])
        assert {pick(positions, flow_id, cfg) for flow_id in range(200)} == set(positions)

    def test_selection_deterministic_per_flow(self):
        cfg = LCMPConfig()
        first = reduce_fused([60, 10, 40, 90, 20, 70])
        second = reduce_fused([60, 10, 40, 90, 20, 70])
        assert first == second
        assert pick(first[1], 77, cfg) == pick(second[1], 77, cfg)


@settings(max_examples=60, deadline=None)
@given(
    costs=st.lists(
        st.tuples(st.integers(0, 255), st.integers(0, 255)), min_size=1, max_size=6
    ),
    flow_id=st.integers(min_value=0, max_value=2**32 - 1),
    keep=st.floats(min_value=0.1, max_value=1.0),
)
def test_property_selection_invariants(costs, flow_id, keep):
    """Property: the reduced set is the low-cost prefix and holds the chosen path."""
    cfg = LCMPConfig(keep_fraction=keep)
    c_paths = [c_path for c_path, _ in costs]
    c_congs = [c_cong for _, c_cong in costs]
    herd, positions = reduce_set(c_paths, c_congs, dcs_of(len(costs)), cfg)
    fused = [cfg.alpha * p + cfg.beta * c for p, c in costs]
    assert herd == all(c >= cfg.congested_threshold for c in c_congs)
    assert len(set(positions)) == len(positions)
    assert len(positions) == (1 if herd else max(1, math.ceil(len(costs) * keep)))
    max_kept = max(fused[j] for j in positions)
    assert all(fused[j] >= max_kept for j in range(len(costs)) if j not in positions)
    assert pick(positions, flow_id, cfg) in positions
