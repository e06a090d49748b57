"""Benchmark E5 — paper Fig. 10 (congestion-control orthogonality).

The WebSearch / 30 % scenario under HPCC, TIMELY and DCTCP (DCQCN is covered
by the Fig. 5 benchmark), LCMP vs ECMP vs UCMP — plus the canned
heterogeneous fleet (80 % DCQCN + 20 % HPCC, per-flow assignment) that only
the grouped CC dispatch can run on the fast path.

Every run executes on the array core (the default) with the per-class
column-block CC kernels; ``test_fig10_scalar_equivalence`` pins that
choice down with one small run per congestion control comparing the
array core against the pure-Python scalar reference — the figure data is
produced by the fast path *because* the fast path is bit-identical.

Expected shape (paper): LCMP's improvements are consistent across congestion
controls — it is a routing-layer gain, orthogonal to the end-host CC.
"""

import pytest

from repro.experiments import DEFAULT_CC_MIX, ExperimentSpec, figure10

#: the CC groups the figure runs (the paper's three + the mixed fleet)
FIG10_GROUPS = ("hpcc", "timely", "dctcp", "mixed")


@pytest.mark.benchmark(group="fig10")
def test_fig10_cc_orthogonality(benchmark, runner, save_result, flow_scale):
    result = benchmark.pedantic(
        figure10,
        kwargs=dict(num_flows=int(1500 * flow_scale), runner=runner),
        rounds=1,
        iterations=1,
    )
    save_result(result)

    reductions_vs_ecmp = []
    for cc in FIG10_GROUPS:
        series = result.groups[cc]
        lcmp = series["lcmp"]
        assert lcmp.overall_p50 < series["ecmp"].overall_p50, cc
        assert lcmp.overall_p50 < series["ucmp"].overall_p50, cc
        reductions_vs_ecmp.append(result.metrics[f"{cc}_p50_reduction_vs_ecmp"])
    # orthogonality: the gain exists under every CC (all reductions
    # positive), including the heterogeneous fleet
    assert min(reductions_vs_ecmp) > 0.0


@pytest.mark.parametrize("cc", ["hpcc", "timely", "dctcp", "dcqcn"])
def test_fig10_scalar_equivalence(runner, cc):
    """One small run per CC: the array core the figure uses matches the
    scalar reference bit for bit on the figure's own spec shape."""
    base = ExperimentSpec(
        name=f"fig10-equiv-{cc}",
        topology="testbed8",
        workload="websearch",
        load=0.3,
        cc=cc,
        num_flows=150,
        seed=10,
    )
    fast = runner.run(base)
    scalar = runner.run(base.with_overrides(vectorized=False))
    assert fast.result.slowdowns() == scalar.result.slowdowns()
    assert fast.result.duration_s == scalar.result.duration_s


def test_fig10_mixed_fleet_scalar_equivalence(runner):
    """The mixed-fleet group too: grouped column kernels == scalar spec."""
    base = ExperimentSpec(
        name="fig10-equiv-mixed",
        topology="testbed8",
        workload="websearch",
        load=0.3,
        cc_mix=DEFAULT_CC_MIX,
        num_flows=150,
        seed=10,
    )
    fast = runner.run(base)
    scalar = runner.run(base.with_overrides(vectorized=False))
    assert fast.result.slowdowns() == scalar.result.slowdowns()
    assert fast.result.duration_s == scalar.result.duration_s
