"""Kernel-parity suite: every kernel vs a naive loop reference.

Every kernel of :class:`~repro.backend.NumpyBackend` is compared
**bitwise** against a hand-written per-element Python loop (for the
segment reductions: the module's own loop oracle,
``_segment_reduce_loop``) on the geometries that historically break fused
kernels:

* empty segments (length 0 → op identity),
* single-element segments,
* duplicate scatter indices (accumulation order),
* non-contiguous / permuted row subsets,
* uniform segment lengths (the reshape fast path) and ragged mixes (the
  masked-walk fallback),
* uniform lengths at permuted starts and overlapping segments (which the
  fast path must refuse),
* the 20k-flow step shape at full size (``TestHotLaneGeometry``: 80k
  lanes onto 40 links, where a reordered accumulation shows).

Each geometry tier is additionally driven directly (``TestGeometryTiers``)
on every geometry it can take, so a dispatch change cannot route a case to
a tier that was never checked on it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import NumpyBackend, get_backend
from repro.backend import _csr_contiguous, _uniform_length


def _assert_equal(got, want) -> None:
    got = np.asarray(got)
    want = np.asarray(want)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)


# --------------------------------------------------------------------- #
# geometries
# --------------------------------------------------------------------- #
def csr_cases():
    """CSR (values, starts, lengths) geometries covering the edge shapes."""
    rng = np.random.default_rng(42)
    cases = {}

    # ragged: empty + single + long segments interleaved
    lengths = np.array([0, 1, 3, 0, 5, 1, 0], dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    values = rng.normal(size=int(lengths.sum()))
    cases["ragged"] = (values, starts, lengths)

    # uniform length (reshape fast path), includes negatives/zeros
    lengths = np.full(6, 4, dtype=np.int64)
    starts = np.arange(6, dtype=np.int64) * 4
    values = rng.normal(size=24)
    values[3] = 0.0
    values[7] = -0.0
    cases["uniform"] = (values, starts, lengths)

    # single uniform column (L == 1)
    lengths = np.ones(5, dtype=np.int64)
    starts = np.arange(5, dtype=np.int64)
    cases["unit"] = (rng.normal(size=5), starts, lengths)

    # all-empty
    cases["empty"] = (
        np.empty(0),
        np.zeros(4, dtype=np.int64),
        np.zeros(4, dtype=np.int64),
    )

    # zero segments over a zero lane array
    cases["none"] = (
        np.empty(0),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
    )

    # ragged but back to back with no empty segment (reduceat's geometry)
    lengths = np.array([2, 1, 4, 3], dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    cases["contiguous"] = (rng.normal(size=10), starts, lengths)

    # uniform lengths tiling the lanes, but the middle starts swapped (the
    # first and last are where the tiled layout puts them)
    lengths = np.full(4, 3, dtype=np.int64)
    starts = np.array([0, 6, 3, 9], dtype=np.int64)
    cases["permuted"] = (rng.normal(size=12), starts, lengths)

    # overlapping segments that share lanes
    lengths = np.array([3, 3, 2, 3], dtype=np.int64)
    starts = np.array([0, 2, 1, 5], dtype=np.int64)
    cases["overlapping"] = (rng.normal(size=8), starts, lengths)
    return cases


CSR_CASES = csr_cases()

#: per geometry: the reshape width ``_uniform_length`` must report (None =
#: no fast path) and whether ``_csr_contiguous`` holds
GEOMETRY = {
    "ragged": (None, True),
    "uniform": (4, True),
    "unit": (1, True),
    "empty": (None, True),
    "none": (None, True),
    "contiguous": (None, True),
    "permuted": (None, False),
    "overlapping": (None, False),
}


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
class TestSegmentReduce:
    @pytest.mark.parametrize("case", list(CSR_CASES))
    @pytest.mark.parametrize("op", ["sum", "prod", "min", "max"])
    def test_matches_loop_reference(self, backend, case, op):
        values, starts, lengths = CSR_CASES[case]
        want = backend._segment_reduce_loop(values, starts, lengths, op)
        got = backend.segment_reduce(values, starts, lengths, op)
        _assert_equal(got, want)

    def test_empty_segments_yield_identity(self, backend):
        values, starts, lengths = CSR_CASES["ragged"]
        empties = np.flatnonzero(lengths == 0)
        assert len(empties)
        for op, identity in [
            ("sum", 0.0),
            ("prod", 1.0),
            ("min", np.inf),
            ("max", -np.inf),
        ]:
            out = np.asarray(backend.segment_reduce(values, starts, lengths, op))
            np.testing.assert_array_equal(out[empties], identity)

    def test_non_contiguous_segment_subset(self, backend):
        # starts that skip lanes and revisit earlier ones (shared lanes)
        values = np.array([2.0, 3.0, 5.0, 7.0, 11.0, 13.0])
        starts = np.array([4, 0, 2, 0], dtype=np.int64)
        lengths = np.array([2, 1, 3, 4], dtype=np.int64)
        for op in ("sum", "prod", "min", "max"):
            want = backend._segment_reduce_loop(values, starts, lengths, op)
            got = backend.segment_reduce(values, starts, lengths, op)
            _assert_equal(got, want)

    def test_unknown_op_raises(self, backend):
        values, starts, lengths = CSR_CASES["uniform"]
        with pytest.raises((KeyError, ValueError)):
            backend.segment_reduce(values, starts, lengths, "mean")


# --------------------------------------------------------------------- #
# geometry tiers of segment_reduce / path_signals
# --------------------------------------------------------------------- #
class TestGeometryTiers:
    @pytest.mark.parametrize("case", list(CSR_CASES))
    def test_geometry_classification(self, case):
        values, starts, lengths = CSR_CASES[case]
        width, contiguous = GEOMETRY[case]
        assert _uniform_length(len(values), starts, lengths) == width
        assert _csr_contiguous(len(values), starts, lengths) is contiguous

    @pytest.mark.parametrize("case", list(CSR_CASES))
    @pytest.mark.parametrize("op", ["sum", "prod"])
    def test_masked_walk_matches_loop(self, case, op):
        """The fallback is exact on every geometry, including the ones
        dispatch sends to the fast path."""
        values, starts, lengths = CSR_CASES[case]
        want = NumpyBackend._segment_reduce_loop(values, starts, lengths, op)
        got = NumpyBackend._segment_walk(values, starts, lengths, op)
        _assert_equal(got, want)

    @pytest.mark.parametrize("case", ["uniform", "unit"])
    @pytest.mark.parametrize("op", ["sum", "prod", "min", "max"])
    def test_column_reduce_matches_loop(self, case, op):
        values, starts, lengths = CSR_CASES[case]
        width = _uniform_length(len(values), starts, lengths)
        grid = values.reshape(len(starts), width)
        want = NumpyBackend._segment_reduce_loop(values, starts, lengths, op)
        _assert_equal(NumpyBackend._reduce_columns(grid, op), want)


# --------------------------------------------------------------------- #
# expand_segments
# --------------------------------------------------------------------- #
class TestSegmentMaps:
    @pytest.mark.parametrize("case", list(CSR_CASES))
    def test_expand_matches_loop(self, backend, case):
        _, _, lengths = CSR_CASES[case]
        per_segment = np.arange(len(lengths), dtype=np.float64) * 1.5
        want = [per_segment[i] for i, n in enumerate(lengths) for _ in range(int(n))]
        got = backend.expand_segments(per_segment, lengths)
        _assert_equal(got, np.asarray(want))


# --------------------------------------------------------------------- #
# path_signals
# --------------------------------------------------------------------- #
class TestPathSignals:
    @pytest.mark.parametrize("case", [c for c in CSR_CASES if c != "none"])
    def test_matches_segment_reduce_pair(self, backend, case):
        values, starts, lengths = CSR_CASES[case]
        rng = np.random.default_rng(9)
        num_links = 11
        idx = rng.integers(0, num_links, size=len(values)).astype(np.intp)
        not_marked_links = rng.uniform(0.5, 1.0, size=num_links)
        delay_links = rng.uniform(0.0, 1e-3, size=num_links)
        want_nm = backend._segment_reduce_loop(
            not_marked_links[idx], starts, lengths, "prod"
        )
        want_qd = backend._segment_reduce_loop(
            delay_links[idx], starts, lengths, "sum"
        )
        nm, qd = backend.path_signals(
            idx, starts, lengths, not_marked_links, delay_links
        )
        _assert_equal(nm, want_nm)
        _assert_equal(qd, want_qd)


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
#: the 20k-flow fluid step: 20k segments of the testbed8 path length (4)
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


class TestHotLaneGeometry:
    """Every kernel against its loop reference on the shape the simulator
    hands it at 20k flows: 80k lanes accumulating onto 40 links (long
    duplicate runs per bin) and the uniform-length fast path at full
    width.  The edge-geometry classes above stay tiny; this tier catches a
    kernel that is exact on a handful of lanes but reorders accumulation
    once a bin takes thousands of them."""

    def test_geometry_takes_the_fast_path(self):
        n_lanes = len(HOT["lane_values"])
        assert _uniform_length(n_lanes, HOT["starts"], HOT["lengths"]) == HOT_SEG_LEN
        assert _csr_contiguous(n_lanes, HOT["starts"], HOT["lengths"])

    def test_scatter_add(self, backend):
        want = np.zeros(HOT_LINKS)
        for i, v in zip(HOT["idx"].tolist(), HOT["lane_values"].tolist()):
            want[i] += v
        got = backend.scatter_add(HOT_LINKS, HOT["idx"], HOT["lane_values"])
        _assert_equal(got, want)

    @pytest.mark.parametrize("op", ["sum", "prod", "min", "max"])
    def test_segment_reduce(self, backend, op):
        args = (HOT["lane_values"], HOT["starts"], HOT["lengths"], op)
        _assert_equal(
            backend.segment_reduce(*args), backend._segment_reduce_loop(*args)
        )

    def test_expand_segments(self, backend):
        want = [v for v in HOT["column"].tolist() for _ in range(HOT_SEG_LEN)]
        got = backend.expand_segments(HOT["column"], HOT["lengths"])
        _assert_equal(got, np.asarray(want))

    def test_path_signals(self, backend):
        not_marked_links = 1.0 - HOT["link_values"] * 0.1
        delay_links = HOT["link_values"] * 1e-4
        idx, starts, lengths = HOT["idx"], HOT["starts"], HOT["lengths"]
        nm, qd = backend.path_signals(
            idx, starts, lengths, not_marked_links, delay_links
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
