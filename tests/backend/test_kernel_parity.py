"""Kernel-parity suite: every kernel vs a naive loop reference.

Every kernel of :class:`~repro.backend.NumpyBackend` is compared
**bitwise** (signed zeros included) against a hand-written per-element
Python loop (for the per-path reductions: the module's own loop oracle,
``_segment_reduce_loop``, over the real lanes in CSR layout) on the
geometries that historically break fused kernels:

* empty rows (length 0 → op identity),
* single-element rows,
* duplicate scatter indices (accumulation order),
* non-contiguous / permuted row subsets,
* uniform rows (no padding) and ragged mixes (padded after each short
  row's last lane),
* a -0.0 in a short row's last real lane, right before its padding,
* one fluid step's kernel calls on the grid its active rows gather from
  a sentinel-padded hop matrix (``TestHopMatrixGrid``),
* the 20k-flow step shape at full size (``TestHotLaneGeometry``: 80k
  lanes onto 40 links, where a reordered accumulation shows), uniform
  and ragged.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import get_backend

#: op -> the identity a padding lane holds for it
IDENTITY = {"sum": 0.0, "prod": 1.0, "min": np.inf, "max": -np.inf}


def _assert_equal(got, want) -> None:
    got = np.asarray(got)
    want = np.asarray(want)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    if got.dtype.kind == "f":
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def csr(rows):
    """The CSR layout ``(values, starts, lengths)`` of ragged ``rows``."""
    lengths = np.array([len(r) for r in rows], dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1])).astype(np.int64)
    values = np.array([v for r in rows for v in r], dtype=np.float64)
    return values, starts[: len(rows)], lengths


def pad(rows, fill, width=None):
    """``rows`` as a ``(len(rows), width)`` grid padded with ``fill``."""
    if width is None:
        width = max((len(r) for r in rows), default=0)
    grid = np.full((len(rows), width), fill)
    for i, r in enumerate(rows):
        grid[i, : len(r)] = r
    return grid


# --------------------------------------------------------------------- #
# geometries
# --------------------------------------------------------------------- #
def grid_cases():
    """Ragged row lists covering the edge shapes."""
    rng = np.random.default_rng(42)

    def rows_of(lengths):
        return [rng.normal(size=n).tolist() for n in lengths]

    cases = {}
    # ragged: empty + single + long rows interleaved
    cases["ragged"] = rows_of([0, 1, 3, 0, 5, 1, 0])
    # uniform (no padding), includes zeros of both signs
    uniform = rows_of([4] * 6)
    uniform[0][3] = 0.0
    uniform[1][3] = -0.0
    cases["uniform"] = uniform
    # single column (width 1)
    cases["unit"] = rows_of([1] * 5)
    # all-empty: a width-0 grid with rows
    cases["empty"] = [[] for _ in range(4)]
    # no rows at all
    cases["none"] = []
    # ragged with no empty row (every path has a hop)
    cases["contiguous"] = rows_of([2, 1, 4, 3])
    # a -0.0 as a short row's last real lane, right before the padding,
    # and an unpadded all -0.0 row (whose sum is +0.0 from the +0.0 start)
    cases["signed-zero-tail"] = [
        [2.5e-4, -0.0],
        [-0.0],
        [1e-4, 3e-4, -0.0, 5e-5],
        [-0.0, -0.0],
        [-0.0, -0.0, -0.0, -0.0],
    ]
    return cases


GRID_CASES = grid_cases()


@pytest.fixture
def backend():
    return get_backend("numpy")


# --------------------------------------------------------------------- #
# scatter_add
# --------------------------------------------------------------------- #
def scatter_patterns():
    """(size, idx, values) index patterns for the accumulation contract."""
    rng = np.random.default_rng(5)
    return {
        "duplicates": (
            7,
            np.array([0, 2, 2, 2, 5, 0], dtype=np.intp),
            np.array([1.5, 2.0, -0.5, 4.0, 1.0, 0.25]),
        ),
        # unsorted duplicates: lanes accumulate in input order
        "unsorted": (
            5,
            np.array([3, 1, 3, 0, 1, 3], dtype=np.intp),
            rng.normal(size=6),
        ),
        # every lane into one bin
        "single-bin": (5, np.full(7, 2, dtype=np.intp), rng.normal(size=7)),
        # bins past the largest index stay exactly zero
        "trailing-bins": (
            6,
            np.array([0, 1, 1], dtype=np.intp),
            np.array([1.0, 2.0, 3.0]),
        ),
        # cancellation: only the left-to-right order yields exactly 0.0
        "cancellation": (
            2,
            np.array([1, 1, 1], dtype=np.intp),
            np.array([1e16, 1.0, -1e16]),
        ),
        # the offered-load shape: many lanes onto few links
        "many-to-few": (
            17,
            rng.integers(0, 17, size=1000).astype(np.intp),
            rng.uniform(0.0, 1e9, size=1000),
        ),
    }


SCATTER_PATTERNS = scatter_patterns()


class TestScatterAdd:
    def test_empty_input(self, backend):
        out = backend.scatter_add(
            4, np.empty(0, dtype=np.intp), np.empty(0)
        )
        _assert_equal(out, np.zeros(4))

    def test_signed_zero_accumulation(self, backend):
        # 0.0 + (-0.0) must be +0.0, never a copied -0.0
        idx = np.array([1, 1], dtype=np.intp)
        values = np.array([0.0, -0.0])
        out = np.asarray(backend.scatter_add(3, idx, values))
        assert np.signbit(out[1]) == np.signbit(np.float64(0.0))

    def test_every_index_distinct(self, backend):
        rng = np.random.default_rng(3)
        values = rng.normal(size=8)
        idx = rng.permutation(8).astype(np.intp)
        want = np.zeros(8)
        want[idx] = values
        _assert_equal(backend.scatter_add(8, idx, values), want)

    @pytest.mark.parametrize("pattern", list(SCATTER_PATTERNS))
    def test_matches_loop(self, backend, pattern):
        size, idx, values = SCATTER_PATTERNS[pattern]
        want = np.zeros(size)
        for i, v in zip(idx, values):
            want[i] += v
        _assert_equal(backend.scatter_add(size, idx, values), want)


# --------------------------------------------------------------------- #
# segment_reduce
# --------------------------------------------------------------------- #
def sentinel_rows(op, rng):
    """Ragged rows in the range the fluid step feeds ``op``, with the
    padding value its sentinel column gives it."""
    lengths = [2, 1, 4, 3, 4]
    if op == "sum":  # queueing delays, zeros of both signs
        rows = [rng.uniform(0.0, 1e-3, size=n).tolist() for n in lengths]
        rows[1][0], rows[3][2] = -0.0, -0.0
        return rows, 0.0
    if op == "prod":  # ECN survival probabilities
        return [rng.uniform(0.5, 1.0, size=n).tolist() for n in lengths], 1.0
    if op == "min":  # scale factors in [0, 1], both ends included
        rows = [rng.uniform(0.0, 1.0, size=n).tolist() for n in lengths]
        rows[0][1], rows[2][3] = 1.0, 0.0
        return rows, 1.0
    rows = [rng.uniform(0.0, 2.0, size=n).tolist() for n in lengths]  # utilisation
    rows[1][0] = 0.0
    return rows, 0.0


class TestSegmentReduce:
    @pytest.mark.parametrize("case", list(GRID_CASES))
    @pytest.mark.parametrize("op", ["sum", "prod", "min", "max"])
    def test_matches_loop_reference(self, backend, case, op):
        rows = GRID_CASES[case]
        want = backend._segment_reduce_loop(*csr(rows), op)
        got = backend.segment_reduce(pad(rows, IDENTITY[op]), op)
        _assert_equal(got, want)

    @pytest.mark.parametrize("op", ["sum", "prod", "min", "max"])
    def test_sentinel_padding_matches_loop(self, backend, op):
        """The sentinel column's values pad exactly: +0.0 delay, 1.0
        survival, 1.0 scale and 0.0 utilisation."""
        rows, fill = sentinel_rows(op, np.random.default_rng(8))
        want = backend._segment_reduce_loop(*csr(rows), op)
        _assert_equal(backend.segment_reduce(pad(rows, fill), op), want)

    @pytest.mark.parametrize("case", ["ragged", "empty"])
    def test_empty_segments_yield_identity(self, backend, case):
        rows = GRID_CASES[case]
        empties = [i for i, r in enumerate(rows) if not r]
        assert len(empties)
        for op, identity in IDENTITY.items():
            out = np.asarray(backend.segment_reduce(pad(rows, identity), op))
            np.testing.assert_array_equal(out[empties], identity)

    def test_unknown_op_raises(self, backend):
        with pytest.raises((KeyError, ValueError)):
            backend.segment_reduce(pad(GRID_CASES["uniform"], 0.0), "mean")


# --------------------------------------------------------------------- #
# expand_segments
# --------------------------------------------------------------------- #
class TestSegmentMaps:
    @pytest.mark.parametrize("case", list(GRID_CASES))
    def test_expand_matches_loop(self, backend, case):
        _, _, lengths = csr(GRID_CASES[case])
        per_segment = np.arange(len(lengths), dtype=np.float64) * 1.5
        want = [per_segment[i] for i, n in enumerate(lengths) for _ in range(int(n))]
        got = backend.expand_segments(per_segment, lengths)
        _assert_equal(got, np.asarray(want))

    @pytest.mark.parametrize("width", [0, 1, 4])
    def test_expand_to_grid_width(self, backend, width):
        per_segment = np.arange(5, dtype=np.float64) * 1.5
        want = [v for v in per_segment for _ in range(width)]
        got = backend.expand_segments(per_segment, width)
        _assert_equal(got, np.asarray(want))


# --------------------------------------------------------------------- #
# path_signals
# --------------------------------------------------------------------- #
def slot_grid(idx, starts, lengths, sentinel):
    """The CSR link lanes as a path grid padded with ``sentinel``."""
    rows = [idx[s : s + n] for s, n in zip(starts.tolist(), lengths.tolist())]
    return pad(rows, sentinel).astype(np.intp)


class TestPathSignals:
    @pytest.mark.parametrize("case", list(GRID_CASES))
    @pytest.mark.parametrize("links", ["per-lane", "shared"])
    def test_matches_segment_reduce_pair(self, backend, case, links):
        values, starts, lengths = csr(GRID_CASES[case])
        rng = np.random.default_rng(9)
        if links == "per-lane":
            # every lane its own link, whose delay is the case's value
            idx = np.arange(len(values), dtype=np.intp)
            delay = values
        else:
            idx = rng.integers(0, 11, size=len(values)).astype(np.intp)
            delay = rng.uniform(0.0, 1e-3, size=11)
        num_links = len(delay)
        # the sentinel column sits one past the last link
        not_marked_links = np.append(rng.uniform(0.5, 1.0, size=num_links), 1.0)
        delay_links = np.append(delay, 0.0)
        want_nm = backend._segment_reduce_loop(
            not_marked_links[idx], starts, lengths, "prod"
        )
        want_qd = backend._segment_reduce_loop(
            delay_links[idx], starts, lengths, "sum"
        )
        nm, qd = backend.path_signals(
            slot_grid(idx, starts, lengths, num_links), not_marked_links, delay_links
        )
        _assert_equal(nm, want_nm)
        _assert_equal(qd, want_qd)


# --------------------------------------------------------------------- #
# one fluid step's kernels on row subsets of a padded hop matrix
# --------------------------------------------------------------------- #
#: links of the hop-matrix fixture; the sentinel is slot HOP_LINKS
HOP_LINKS = 9


def hop_matrix():
    """A padded hop matrix shaped like the incidence's: 12 flow rows of
    1-6 hops over 9 shared links in an 8-column matrix, every slot past a
    row's hop count holding the sentinel slot."""
    rng = np.random.default_rng(31)
    counts = np.array([3, 1, 6, 2, 4, 6, 1, 5, 3, 2, 4, 3], dtype=np.int64)
    paths = [rng.choice(HOP_LINKS, size=n, replace=False) for n in counts]
    return pad(paths, HOP_LINKS, width=8).astype(np.intp), counts


HOPS, HOP_COUNTS = hop_matrix()

#: active-row lists (the active-list order) the step gathers its grid for
ACTIVE_ROWS = {
    "all": np.arange(len(HOPS)),
    "permuted": np.random.default_rng(37).permutation(len(HOPS)),
    # freed rows in between, out of slot order
    "non-contiguous": np.array([10, 2, 7, 4]),
    # no 6-hop row active: the grid is narrower than the longest path
    "narrowed": np.array([8, 0, 3, 9, 1]),
    "single-hop": np.array([6, 1]),
    "empty": np.array([], dtype=np.int64),
}


def link_state():
    """Per-link step state with the sentinel entry appended: each array's
    sentinel value is its reduction's identity, as in the incidence."""
    rng = np.random.default_rng(41)
    scale = rng.uniform(0.0, 1.0, size=HOP_LINKS)
    scale[[2, 5]] = 1.0, 0.0
    util = rng.uniform(0.0, 2.0, size=HOP_LINKS)
    util[4] = 0.0
    up = np.ones(HOP_LINKS, dtype=bool)
    up[3] = False
    delay = rng.uniform(0.0, 1e-3, size=HOP_LINKS)
    # the single-hop rows' only link: a -0.0 lane right before padding
    delay[[6, 0]] = -0.0, 0.0
    return {
        "scale": np.append(scale, 1.0),
        "util": np.append(util, 0.0),
        "up": np.append(up, True),
        "not_marked": np.append(rng.uniform(0.5, 1.0, size=HOP_LINKS), 1.0),
        "delay": np.append(delay, 0.0),
    }


LINK_STATE = link_state()


class TestHopMatrixGrid:
    """The fluid step's kernel calls on ``hops[active_rows, :width]`` (the
    incidence's refresh) against the loop oracle over each active row's
    real hops, for every row-subset shape the active list takes."""

    @staticmethod
    def grid_of(subset):
        rows = ACTIVE_ROWS[subset]
        width = int(HOP_COUNTS[rows].max()) if len(rows) else 0
        return HOPS[rows, :width]

    @staticmethod
    def real_hops(subset):
        """Each active row's real link slots, in hop order."""
        return [HOPS[r, : HOP_COUNTS[r]] for r in ACTIVE_ROWS[subset].tolist()]

    def loop_reduce(self, backend, subset, links, op):
        rows = [links[hops].tolist() for hops in self.real_hops(subset)]
        return backend._segment_reduce_loop(*csr(rows), op)

    @pytest.mark.parametrize("subset", list(ACTIVE_ROWS))
    def test_offered_load(self, backend, subset):
        grid = self.grid_of(subset)
        rates = np.arange(1, len(grid) + 1, dtype=np.float64) * 1.25e9
        got = backend.scatter_add(
            HOP_LINKS + 1, grid.ravel(), backend.expand_segments(rates, grid.shape[1])
        )
        got[HOP_LINKS] = 0.0
        want = np.zeros(HOP_LINKS + 1)
        for rate, hops in zip(rates.tolist(), self.real_hops(subset)):
            for link in hops.tolist():
                want[link] += rate
        _assert_equal(got, want)

    @pytest.mark.parametrize("subset", list(ACTIVE_ROWS))
    def test_scale_min(self, backend, subset):
        scale = LINK_STATE["scale"]
        got = backend.segment_reduce(
            backend.gather_rows(scale, self.grid_of(subset)), "min"
        )
        _assert_equal(got, self.loop_reduce(backend, subset, scale, "min"))

    @pytest.mark.parametrize("subset", list(ACTIVE_ROWS))
    def test_util_max(self, backend, subset):
        util = LINK_STATE["util"]
        got = backend.segment_reduce(
            backend.gather_rows(util, self.grid_of(subset)), "max"
        )
        _assert_equal(got, self.loop_reduce(backend, subset, util, "max"))

    @pytest.mark.parametrize("subset", list(ACTIVE_ROWS))
    def test_liveness_min(self, backend, subset):
        up = LINK_STATE["up"]
        got = backend.segment_reduce(
            backend.gather_rows(up, self.grid_of(subset)).astype(np.float64), "min"
        )
        want = self.loop_reduce(backend, subset, up.astype(np.float64), "min")
        _assert_equal(got, want)

    @pytest.mark.parametrize("subset", list(ACTIVE_ROWS))
    def test_path_signals(self, backend, subset):
        not_marked, delay = LINK_STATE["not_marked"], LINK_STATE["delay"]
        nm, qd = backend.path_signals(self.grid_of(subset), not_marked, delay)
        _assert_equal(nm, self.loop_reduce(backend, subset, not_marked, "prod"))
        _assert_equal(qd, self.loop_reduce(backend, subset, delay, "sum"))


# --------------------------------------------------------------------- #
# weighted_choice_searchsorted
# --------------------------------------------------------------------- #
def cursor_loop(cumulative, points):
    """The scalar routers' cursor walk: first bucket reaching the point."""
    want = []
    for p in points:
        for j, c in enumerate(cumulative):
            if p <= c:
                want.append(j)
                break
        else:
            want.append(len(cumulative) - 1)
    return np.asarray(want, dtype=np.intp)


#: candidate weight tables with shapes the cursor walk must agree on
WEIGHT_TABLES = {
    # a zero-weight candidate shares its bucket edge with its predecessor
    "zero-weight": np.array([1.0, 0.0, 2.0]),
    "single": np.array([2.5]),
    "equal": np.array([1.0, 1.0, 1.0, 1.0]),
}


class TestWeightedChoice:
    def test_matches_scalar_cursor_loop(self, backend):
        weights = np.array([2.0, 1.0, 3.0, 0.5])
        cumulative = np.cumsum(weights)
        rng = np.random.default_rng(11)
        points = np.concatenate(
            [rng.uniform(0, cumulative[-1], size=64), cumulative, [0.0]]
        )
        got = np.asarray(backend.weighted_choice_searchsorted(cumulative, points))
        np.testing.assert_array_equal(got, cursor_loop(cumulative, points))

    @pytest.mark.parametrize("table", list(WEIGHT_TABLES))
    def test_table_shapes_match_cursor_loop(self, backend, table):
        cumulative = np.cumsum(WEIGHT_TABLES[table])
        rng = np.random.default_rng(13)
        # random draws, every bucket edge exactly, and the bottom of the table
        points = np.concatenate(
            [rng.uniform(0, cumulative[-1], size=32), cumulative, [0.0]]
        )
        got = np.asarray(backend.weighted_choice_searchsorted(cumulative, points))
        np.testing.assert_array_equal(got, cursor_loop(cumulative, points))

    def test_point_above_table_clamps(self, backend):
        cumulative = np.array([1.0, 2.0])
        got = np.asarray(
            backend.weighted_choice_searchsorted(
                cumulative, np.array([2.0000001, 99.0])
            )
        )
        np.testing.assert_array_equal(got, [1, 1])


# --------------------------------------------------------------------- #
# gather / scatter rows, masked select / divide
# --------------------------------------------------------------------- #
class TestRowKernels:
    def test_gather_non_contiguous_rows(self, backend):
        column = np.arange(10, dtype=np.float64) * 2.0
        rows = np.array([7, 0, 7, 3], dtype=np.intp)
        _assert_equal(backend.gather_rows(column, rows), column[rows])

    def test_scatter_rows_in_place(self, backend):
        column = np.zeros(6)
        rows = np.array([5, 1, 3], dtype=np.intp)
        values = np.array([1.0, 2.0, 3.0])
        backend.scatter_rows(column, rows, values)
        want = np.zeros(6)
        want[rows] = values
        _assert_equal(column, want)

    def test_masked_where(self, backend):
        cond = np.array([True, False, True, False])
        a = np.array([1.0, 2.0, 3.0, 4.0])
        b = np.array([-1.0, -2.0, -3.0, -4.0])
        _assert_equal(backend.masked_where(cond, a, b), np.where(cond, a, b))

    def test_masked_divide_zero_denominator(self, backend):
        num = np.array([1.0, 2.0, 3.0, -4.0])
        den = np.array([2.0, 0.0, 4.0, 0.0])
        mask = den > 0
        out = np.asarray(backend.masked_divide(num, den, mask))
        np.testing.assert_array_equal(out, [0.5, 0.0, 0.75, 0.0])

    @pytest.mark.parametrize(
        "kernel", ["gather_rows", "scatter_rows", "masked_where", "masked_divide"]
    )
    def test_empty_selection(self, backend, kernel):
        """Steps where no row is selected (no feedback due, no flow of a
        class) pass empty selections; they must be exact no-ops."""
        column = np.arange(4, dtype=np.float64)
        rows = np.empty(0, dtype=np.intp)
        empty = np.empty(0)
        if kernel == "gather_rows":
            out = backend.gather_rows(column, rows)
        elif kernel == "scatter_rows":
            backend.scatter_rows(column, rows, empty)
            out = np.empty(0)
            _assert_equal(column, np.arange(4, dtype=np.float64))
        elif kernel == "masked_where":
            out = backend.masked_where(np.empty(0, dtype=bool), empty, empty)
        else:
            out = backend.masked_divide(empty, empty, np.empty(0, dtype=bool))
        _assert_equal(out, np.empty(0))

    def test_masked_divide_broadcasts(self, backend):
        num = np.array([1.0, 2.0, 3.0])
        den = 2.0
        out = np.asarray(backend.masked_divide(num, den, np.array([True, False, True])))
        np.testing.assert_array_equal(out, [0.5, 0.0, 1.5])


# --------------------------------------------------------------------- #
# the production step shape, at full size
# --------------------------------------------------------------------- #
#: the 20k-flow fluid step: 20k paths of the testbed8 path length (4)
#: over ~40 registered links
HOT_SEGMENTS = 20_000
HOT_SEG_LEN = 4
HOT_LINKS = 40


def hot_lane_inputs():
    """Deterministic inputs shaped like the 20k-flow step's kernel calls."""
    rng = np.random.default_rng(17)
    lanes = HOT_SEGMENTS * HOT_SEG_LEN
    return {
        "lengths": np.full(HOT_SEGMENTS, HOT_SEG_LEN, dtype=np.int64),
        "starts": np.arange(HOT_SEGMENTS, dtype=np.int64) * HOT_SEG_LEN,
        "idx": rng.integers(0, HOT_LINKS, size=lanes).astype(np.intp),
        "lane_values": rng.uniform(0.5, 2.0, size=lanes),
        "link_values": rng.uniform(0.0, 1.0, size=HOT_LINKS),
        "rows": rng.permutation(HOT_SEGMENTS).astype(np.intp),
        "column": rng.uniform(size=HOT_SEGMENTS),
    }


HOT = hot_lane_inputs()


def hot_geometry(name):
    """``(idx, lane_values, starts, lengths)`` of the 20k-flow step: the
    uniform 4-hop testbed paths, or fig7-style ragged 3-7 hop paths."""
    if name == "uniform":
        return HOT["idx"], HOT["lane_values"], HOT["starts"], HOT["lengths"]
    rng = np.random.default_rng(23)
    lengths = rng.integers(3, 8, size=HOT_SEGMENTS)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    lanes = int(lengths.sum())
    idx = rng.integers(0, HOT_LINKS, size=lanes).astype(np.intp)
    return idx, rng.uniform(0.5, 2.0, size=lanes), starts, lengths


HOT_GEOMETRIES = {name: hot_geometry(name) for name in ("uniform", "ragged")}


def hot_rows(lanes, name):
    """One geometry's per-path lists of ``lanes``."""
    _, _, starts, lengths = HOT_GEOMETRIES[name]
    return [lanes[s : s + n] for s, n in zip(starts.tolist(), lengths.tolist())]


class TestHotLaneGeometry:
    """Every kernel against its loop reference on the shape the simulator
    hands it at 20k flows: 80k+ lanes accumulating onto 40 links (long
    duplicate runs per bin), unpadded and padded.  The edge-geometry
    classes above stay tiny; this tier catches a kernel that is exact on
    a handful of lanes but reorders accumulation once a bin takes
    thousands of them."""

    @pytest.mark.parametrize("geometry", list(HOT_GEOMETRIES))
    def test_scatter_add(self, backend, geometry):
        idx, lane_values, _, _ = HOT_GEOMETRIES[geometry]
        # the offered-load scatter: padded lanes go to the sentinel's bin
        slots = pad(hot_rows(idx, geometry), HOT_LINKS).astype(np.intp).ravel()
        values = pad(hot_rows(lane_values, geometry), 0.5).ravel()
        want = np.zeros(HOT_LINKS + 1)
        for i, v in zip(slots.tolist(), values.tolist()):
            want[i] += v
        got = backend.scatter_add(HOT_LINKS + 1, slots, values)
        _assert_equal(got, want)

    @pytest.mark.parametrize("geometry", list(HOT_GEOMETRIES))
    @pytest.mark.parametrize("op", ["sum", "prod", "min", "max"])
    def test_segment_reduce(self, backend, geometry, op):
        _, lane_values, starts, lengths = HOT_GEOMETRIES[geometry]
        grid = pad(hot_rows(lane_values, geometry), IDENTITY[op])
        _assert_equal(
            backend.segment_reduce(grid, op),
            backend._segment_reduce_loop(lane_values, starts, lengths, op),
        )

    @pytest.mark.parametrize("geometry", list(HOT_GEOMETRIES))
    def test_expand_segments(self, backend, geometry):
        _, _, _, lengths = HOT_GEOMETRIES[geometry]
        want = [v for v, n in zip(HOT["column"].tolist(), lengths.tolist()) for _ in range(n)]
        got = backend.expand_segments(HOT["column"], lengths)
        _assert_equal(got, np.asarray(want))

    @pytest.mark.parametrize("geometry", list(HOT_GEOMETRIES))
    def test_path_signals(self, backend, geometry):
        idx, _, starts, lengths = HOT_GEOMETRIES[geometry]
        not_marked_links = np.append(1.0 - HOT["link_values"] * 0.1, 1.0)
        delay_links = np.append(HOT["link_values"] * 1e-4, 0.0)
        nm, qd = backend.path_signals(
            slot_grid(idx, starts, lengths, HOT_LINKS), not_marked_links, delay_links
        )
        _assert_equal(
            nm,
            backend._segment_reduce_loop(
                not_marked_links[idx], starts, lengths, "prod"
            ),
        )
        _assert_equal(
            qd,
            backend._segment_reduce_loop(delay_links[idx], starts, lengths, "sum"),
        )

    def test_weighted_choice(self, backend):
        cumulative = np.cumsum(np.full(8, 12.5))
        points = HOT["column"] * cumulative[-1]
        got = np.asarray(backend.weighted_choice_searchsorted(cumulative, points))
        np.testing.assert_array_equal(got, cursor_loop(cumulative, points))

    def test_gather_rows(self, backend):
        column = HOT["column"]
        want = [column[r] for r in HOT["rows"].tolist()]
        _assert_equal(backend.gather_rows(column, HOT["rows"]), np.asarray(want))

    def test_scatter_rows(self, backend):
        column = np.zeros(HOT_SEGMENTS)
        values = HOT["column"]
        backend.scatter_rows(column, HOT["rows"], values)
        want = np.zeros(HOT_SEGMENTS)
        for r, v in zip(HOT["rows"].tolist(), values.tolist()):
            want[r] = v
        _assert_equal(column, want)

    def test_masked_divide(self, backend):
        num = HOT["column"]
        den = HOT["column"][::-1].copy()
        den[::7] = 0.0
        mask = den > 0
        want = [n / d if m else 0.0 for n, d, m in zip(num, den, mask)]
        got = backend.masked_divide(num, den, mask)
        _assert_equal(got, np.asarray(want))
