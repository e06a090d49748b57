"""Unit tests for the flow×link incidence structure (the array core's layout).

Each FlowTable row's path is one row of a hop matrix padded with the
sentinel link column; the path grid the kernels read (``grid``, plus
``active_slots``) is one gather over the active rows.  These tests pin
that grid against a per-flow oracle through growth, row reuse, ragged hop
counts and links registered mid-run, check that every padded lane reads
the reductions' identities, and check the liveness query through a cut
and its repair.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulator import RuntimeLink
from repro.simulator.incidence import FlowLinkIncidence
from repro.topology.graph import LinkSpec


def make_links(n):
    return [
        RuntimeLink(
            LinkSpec(
                src=f"N{i}",
                dst=f"N{i + 1}",
                cap_bps=1e9 * (i + 1),
                delay_s=0.001,
                buffer_bytes=1_000_000,
                inter_dc=True,
            )
        )
        for i in range(n)
    ]


def oracle(inc, paths, active_rows):
    """The grid built the obvious way: pad per-flow slot arrays with the sentinel."""
    per_flow = [
        [inc.register_links([link])[0] for link in paths[row]] for row in active_rows
    ]
    width = max((len(slots) for slots in per_flow), default=0)
    grid = np.full((len(per_flow), width), inc.sentinel, dtype=np.intp)
    for i, slots in enumerate(per_flow):
        grid[i, : len(slots)] = slots
    return grid, np.unique([s for slots in per_flow for s in slots]).astype(np.intp)


def assert_view(inc, paths, active_rows):
    rows = np.asarray(active_rows, dtype=np.intp)
    inc.refresh(rows)
    grid, active_slots = oracle(inc, paths, active_rows)
    np.testing.assert_array_equal(inc.grid, grid)
    np.testing.assert_array_equal(inc.active_slots, active_slots)
    for name in ("grid", "active_slots"):
        assert getattr(inc, name).dtype == np.intp, name
    # the sentinel is no registered link, and every padded lane reads the
    # reductions' identities from it
    sentinel = inc.sentinel
    assert sentinel == inc.num_links == len(inc.links)
    assert sentinel not in inc.active_slots
    padded = inc.grid[inc.grid == sentinel]
    assert np.isinf(inc.cap_bps[padded]).all() and inc.up[padded].all()
    for name in ("queue_bytes", "offered_bps", "ecn_kmin", "ecn_kmax"):
        assert not getattr(inc, name)[padded].any(), name


class TestHopMatrixGrowth:
    def test_row_past_capacity_grows_and_keeps_rows(self):
        links = make_links(6)
        inc = FlowLinkIncidence()
        paths = {0: links[:2], 1: links[2:4]}
        for row, path in paths.items():
            inc.set_path(row, path)
        rows_before = inc.hops.shape[0]
        paths[rows_before + 3] = links[4:6]
        inc.set_path(rows_before + 3, paths[rows_before + 3])
        assert inc.hops.shape[0] >= rows_before + 4
        assert_view(inc, paths, [0, 1, rows_before + 3])

    def test_rows_grow_by_doubling(self):
        links = make_links(2)
        inc = FlowLinkIncidence()
        for row in range(9):
            inc.set_path(row, links)
        assert inc.hops.shape[0] == 16

    def test_longer_path_widens_the_matrix(self):
        links = make_links(8)
        inc = FlowLinkIncidence()
        paths = {0: links[:2], 1: links[2:4]}
        for row, path in paths.items():
            inc.set_path(row, path)
        assert inc.hops.shape[1] == 2
        assert_view(inc, paths, [0, 1])
        paths[2] = links[2:8]
        inc.set_path(2, paths[2])
        assert inc.hops.shape[1] == 6
        assert inc.membership_rebuilds == 1
        assert_view(inc, paths, [0, 1, 2])
        assert inc.membership_rebuilds == 2

    def test_reroute_rewrites_the_row(self):
        links = make_links(7)
        inc = FlowLinkIncidence()
        paths = {0: links[:3], 1: links[3:7]}
        for row, path in paths.items():
            inc.set_path(row, path)
        assert_view(inc, paths, [0, 1])
        # a shorter path on a live row: its old hops 1..2 become padding
        paths[0] = [links[4]]
        inc.set_path(0, paths[0])
        assert_view(inc, paths, [0, 1])
        assert not np.isin([1, 2], inc.grid).any()


class TestBatchWrite:
    def test_set_paths_equals_one_set_path_per_row(self):
        """Registration order, padding, growth and rows of one batch write
        match a set_path per row, over existing rows and past capacity."""
        links = make_links(9)
        batches = [
            ([0, 1], [links[:2], links[2:3]]),
            ([2, 5, 3, 4], [links[3:6], links[1:2], links[6:9] + links[:2], links[8:9]]),
            ([1, 9, 6], [links[4:5], links[0:3], links[7:9]]),
        ]
        batched, single = FlowLinkIncidence(), FlowLinkIncidence()
        for rows, paths in batches:
            batched.set_paths(rows, paths)
            for row, path in zip(rows, paths):
                single.set_path(row, path)
            assert batched.links == single.links
            assert batched.hops.shape == single.hops.shape
            assert np.array_equal(batched.hops, single.hops)
            assert np.array_equal(batched.hop_counts, single.hop_counts)


class TestRowReuse:
    def test_shorter_path_after_remove_leaks_no_stale_slots(self):
        links = make_links(6)
        inc = FlowLinkIncidence()
        paths = {0: links[:5], 1: links[5:6]}
        for row, path in paths.items():
            inc.set_path(row, path)
        assert_view(inc, paths, [0, 1])
        inc.remove_row(0)
        assert inc.hop_counts[0] == 0
        assert_view(inc, paths, [1])
        # row 0 is reused by a 2-hop flow while a 4-hop row keeps the grid
        # wide: its old hops 2..4 must read as padding, not as links
        paths[0] = [links[5], links[0]]
        paths[2] = [links[1], links[0], links[5], links[1]]
        inc.set_path(0, paths[0])
        inc.set_path(2, paths[2])
        assert_view(inc, paths, [0, 1, 2])
        assert not np.isin([2, 3, 4], inc.grid).any()
        assert list(inc.active_slots) == [0, 1, 5]

    def test_uniform_rows_after_reuse(self):
        """Every active path as wide as the longest: the plain-ravel case."""
        links = make_links(6)
        inc = FlowLinkIncidence()
        paths = {0: links[:4], 1: links[4:6]}
        for row, path in paths.items():
            inc.set_path(row, path)
        inc.remove_row(0)
        paths[0] = [links[3], links[2]]
        inc.set_path(0, paths[0])
        assert_view(inc, paths, [1, 0])
        assert inc.hops.shape[1] == 4


class TestRaggedView:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_permuted_ragged_rows_match_the_oracle(self, seed):
        rng = np.random.default_rng(seed)
        links = make_links(12)
        inc = FlowLinkIncidence()
        paths = {}
        for row in rng.permutation(40).tolist():
            hops = int(rng.integers(1, 7))
            paths[row] = [links[i] for i in rng.choice(12, size=hops, replace=False)]
            inc.set_path(row, paths[row])
        active = rng.permutation(40)[:25].tolist()
        assert len({len(paths[row]) for row in active}) > 1
        assert_view(inc, paths, active)
        # churn: drop some rows, re-path others, and check again
        for row in active[:5]:
            inc.remove_row(row)
        for row in active[5:10]:
            paths[row] = [links[i] for i in rng.choice(12, size=2, replace=False)]
            inc.set_path(row, paths[row])
        assert_view(inc, paths, active[5:][::-1])
        # links registered while padded rows are active take the slots the
        # padding pointed at: one up front (as the telemetry plane does),
        # one on a re-routed path
        extra = make_links(14)[12:]
        inc.register_links([extra[0]])
        assert_view(inc, paths, active[5:][::-1])
        paths[active[5]] = [extra[1]]
        inc.set_path(active[5], paths[active[5]])
        assert_view(inc, paths, active[5:][::-1])

    def test_no_active_rows(self):
        links = make_links(3)
        inc = FlowLinkIncidence()
        inc.set_path(0, links)
        inc.refresh(np.empty(0, dtype=np.intp))
        assert inc.grid.shape == (0, 0)
        assert len(inc.active_slots) == 0
        assert inc.broken_flows().shape == (0,)


class TestBrokenFlows:
    def test_cut_and_repair(self):
        links = make_links(4)
        inc = FlowLinkIncidence()
        # row 3 is one hop long: its padded lane reads the sentinel's "up"
        paths = {0: links[:2], 1: links[2:4], 2: [links[1], links[3]], 3: [links[0]]}
        for row, path in paths.items():
            inc.set_path(row, path)
        rows = np.array([2, 0, 3, 1], dtype=np.intp)

        version = RuntimeLink.state_version
        inc.refresh(rows)
        np.testing.assert_array_equal(inc.broken_flows(), [False] * 4)

        links[1].fail()
        assert RuntimeLink.state_version != version
        version = RuntimeLink.state_version
        inc.refresh(rows)
        np.testing.assert_array_equal(inc.broken_flows(), [True, True, False, False])

        links[1].recover()
        assert RuntimeLink.state_version != version
        inc.refresh(rows)
        np.testing.assert_array_equal(inc.broken_flows(), [False] * 4)

    def test_all_up_skips_the_reduction(self):
        links = make_links(3)
        inc = FlowLinkIncidence()
        inc.set_path(0, links)
        inc.set_path(1, links[1:])
        rows = np.array([0, 1], dtype=np.intp)

        class NoReduction:
            def gather_rows(self, *args):
                raise AssertionError("liveness gathered while every link is up")

            segment_reduce = gather_rows

        inc.backend = NoReduction()
        inc.refresh(rows)
        np.testing.assert_array_equal(inc.broken_flows(), [False, False])

    def test_dead_link_off_every_active_path(self):
        """A registered but unused dead link breaks no flow."""
        links = make_links(4)
        inc = FlowLinkIncidence()
        inc.register_links([links[3]])
        inc.set_path(0, links[:2])
        links[3].fail()
        try:
            inc.refresh(np.array([0], dtype=np.intp))
            np.testing.assert_array_equal(inc.broken_flows(), [False])
        finally:
            links[3].recover()
