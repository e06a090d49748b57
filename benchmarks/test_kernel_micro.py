"""Per-kernel micro-benchmarks of the shared numpy kernels.

Each ``@pytest.mark.benchmark`` lane times one kernel on the geometry the
20k-flow fluid step actually presents (20k segments of uniform length 4 —
the testbed8 path shape — over ~40 links), so the recorded trajectory
(``BENCH_step_throughput.json``, group ``kernel-micro``) shows *which*
kernel a regression comes from, in ns/op, next to the end-to-end lanes.

The shapes are fixed and the inputs deterministic, so numbers are
comparable across commits on one machine; output equality against the
loop oracle is asserted by ``tests/backend/test_kernel_parity.py``, not
here.
"""

import numpy as np
import pytest

from repro.backend import get_backend

#: the hot-lane geometry: 20k flows × 4 hops on ~40 registered links
NUM_SEGMENTS = 20_000
SEG_LEN = 4
NUM_LANES = NUM_SEGMENTS * SEG_LEN
NUM_LINKS = 40


def _inputs():
    rng = np.random.default_rng(17)
    lengths = np.full(NUM_SEGMENTS, SEG_LEN, dtype=np.int64)
    starts = np.arange(NUM_SEGMENTS, dtype=np.int64) * SEG_LEN
    idx = rng.integers(0, NUM_LINKS, size=NUM_LANES).astype(np.intp)
    lane_values = rng.uniform(0.5, 2.0, size=NUM_LANES)
    link_values = rng.uniform(0.0, 1.0, size=NUM_LINKS)
    rows = rng.permutation(NUM_SEGMENTS).astype(np.intp)
    column = rng.uniform(size=NUM_SEGMENTS)
    return {
        "lengths": lengths,
        "starts": starts,
        "idx": idx,
        "lane_values": lane_values,
        "link_values": link_values,
        "rows": rows,
        "column": column,
    }


INPUTS = _inputs()


@pytest.fixture
def backend():
    return get_backend("numpy")


@pytest.mark.benchmark(group="kernel-micro")
def test_bench_scatter_add(benchmark, backend):
    benchmark(
        backend.scatter_add, NUM_LINKS, INPUTS["idx"], INPUTS["lane_values"]
    )


@pytest.mark.benchmark(group="kernel-micro")
@pytest.mark.parametrize("op", ["sum", "prod", "min", "max"])
def test_bench_segment_reduce(benchmark, backend, op):
    benchmark(
        backend.segment_reduce,
        INPUTS["lane_values"],
        INPUTS["starts"],
        INPUTS["lengths"],
        op,
    )


@pytest.mark.benchmark(group="kernel-micro")
def test_bench_expand_segments(benchmark, backend):
    benchmark(backend.expand_segments, INPUTS["column"], INPUTS["lengths"])


@pytest.mark.benchmark(group="kernel-micro")
def test_bench_path_signals(benchmark, backend):
    not_marked = 1.0 - INPUTS["link_values"] * 0.1
    delays = INPUTS["link_values"] * 1e-4
    benchmark(
        backend.path_signals,
        INPUTS["idx"],
        INPUTS["starts"],
        INPUTS["lengths"],
        not_marked,
        delays,
    )


@pytest.mark.benchmark(group="kernel-micro")
def test_bench_weighted_choice(benchmark, backend):
    cumulative = np.cumsum(np.full(8, 12.5))
    points = INPUTS["column"] * cumulative[-1]
    benchmark(backend.weighted_choice_searchsorted, cumulative, points)


@pytest.mark.benchmark(group="kernel-micro")
def test_bench_gather_rows(benchmark, backend):
    benchmark(backend.gather_rows, INPUTS["column"], INPUTS["rows"])


@pytest.mark.benchmark(group="kernel-micro")
def test_bench_scatter_rows(benchmark, backend):
    column = INPUTS["column"].copy()
    values = INPUTS["column"][: len(INPUTS["rows"])]
    benchmark(backend.scatter_rows, column, INPUTS["rows"], values)


@pytest.mark.benchmark(group="kernel-micro")
def test_bench_masked_divide(benchmark, backend):
    num = INPUTS["column"]
    den = INPUTS["column"][::-1].copy()
    den[::7] = 0.0
    mask = den > 0
    benchmark(backend.masked_divide, num, den, mask)
