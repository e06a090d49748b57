"""Per-figure experiment drivers.

One function per table/figure of the paper's evaluation; each assembles the
relevant :class:`~repro.experiments.configs.ExperimentSpec` matrix, runs it
through an :class:`~repro.experiments.runner.ExperimentRunner` and returns a
:class:`FigureResult` whose ``render()`` prints the same rows/series the
paper plots.  Every function takes ``num_flows`` so tests and benchmarks can
trade fidelity for runtime; the defaults regenerate publication-shaped data
in a few minutes on a laptop.

Figure index (see DESIGN.md for the full mapping):

* :func:`figure1`  — motivation: link utilisation + FCT slowdown (Fig. 1b/1c)
* :func:`figure5`  — 8-DC testbed, 3 loads, 4 routing schemes (Fig. 5)
* :func:`figure6`  — simulator-fidelity correlation (Fig. 6)
* :func:`figure7`  — 13-DC system-wide all-to-all (Fig. 7)
* :func:`figure8`  — DC1–DC13 case study (Fig. 8)
* :func:`figure9`  — workload sensitivity (Fig. 9)
* :func:`figure10` — congestion-control orthogonality (Fig. 10)
* :func:`figure11_ablation` / :func:`figure11_global_weights` /
  :func:`figure11_path_weights` / :func:`figure11_congestion_weights`
  — ablation and weight sensitivity (Fig. 11a–11d)
* :func:`section4_resources` — the §4 resource-cost accounting
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.fct_analysis import SlowdownProfile, reduction
from ..analysis.fidelity import FidelityResult, fidelity_study
from ..analysis.report import reduction_report, slowdown_table, utilization_report
from ..analysis.utilization import imbalance, utilization_table
from ..core import LCMPConfig
from ..core.resource_model import estimate as resource_estimate
from ..core.resource_model import per_new_flow_ops
from .configs import (
    ALL_ROUTERS,
    CASE_STUDY_PAIRS,
    DEFAULT_CC_MIX,
    LOADS,
    TESTBED_ENDPOINT_PAIRS,
    WORKLOAD_NAMES,
    ExperimentSpec,
)
from .runner import ExperimentRun, ExperimentRunner

__all__ = [
    "FigureResult",
    "figure1",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "figure11_ablation",
    "figure11_global_weights",
    "figure11_path_weights",
    "figure11_congestion_weights",
    "section4_resources",
    "ALL_FIGURES",
]


@dataclass
class FigureResult:
    """Structured output of one figure driver.

    Attributes:
        figure: figure identifier, e.g. ``"fig5"``.
        description: one-line description of what the figure shows.
        groups: nested mapping ``{group label: {series label: profile}}`` —
            a group corresponds to one subplot (e.g. ``"30% load"``) and a
            series to one curve (e.g. ``"lcmp"``).
        tables: extra pre-rendered text tables (utilisation, correlations...).
        metrics: scalar metrics for programmatic assertions in benchmarks.
    """

    figure: str
    description: str
    groups: Dict[str, Dict[str, SlowdownProfile]] = field(default_factory=dict)
    tables: Dict[str, str] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        """Render the figure data as text (P50 and P99 tables per group)."""
        parts = [f"=== {self.figure}: {self.description} ==="]
        for group, series in self.groups.items():
            profiles = list(series.values())
            if not profiles:
                continue
            parts.append(f"-- {group} | P50 slowdown --")
            parts.append(slowdown_table(profiles, "p50"))
            parts.append(f"-- {group} | P99 slowdown --")
            parts.append(slowdown_table(profiles, "p99"))
        for title, table in self.tables.items():
            parts.append(f"-- {title} --")
            parts.append(table)
        if self.metrics:
            parts.append("-- metrics --")
            for key, value in sorted(self.metrics.items()):
                parts.append(f"{key} = {value:.4f}")
        return "\n".join(parts)

    def profile(self, group: str, series: str) -> SlowdownProfile:
        """Convenience accessor for one curve."""
        return self.groups[group][series]


# --------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------- #
def _load_label(load: float) -> str:
    return f"{int(round(load * 100))}% load"


def _comparison_group(
    runner: ExperimentRunner,
    base: ExperimentSpec,
    routers: Sequence[str] = ALL_ROUTERS,
    lcmp_config: Optional[LCMPConfig] = None,
) -> Dict[str, ExperimentRun]:
    return runner.run_router_comparison(base, routers, lcmp_config=lcmp_config)


# --------------------------------------------------------------------- #
# E0 — Fig. 1: motivation
# --------------------------------------------------------------------- #
def figure1(
    num_flows: int = 1500,
    seed: int = 11,
    runner: Optional[ExperimentRunner] = None,
) -> FigureResult:
    """Motivation experiment (Fig. 1b/1c): utilisation imbalance and FCT.

    WebSearch at 30 % load between DC1 and DC8 on the 8-DC topology under
    DCQCN, comparing LCMP against ECMP and UCMP.
    """
    runner = runner or ExperimentRunner()
    base = ExperimentSpec(
        name="fig1",
        topology="testbed8",
        workload="websearch",
        load=0.3,
        num_flows=num_flows,
        pairs=TESTBED_ENDPOINT_PAIRS,
        seed=seed,
    )
    runs = _comparison_group(runner, base, routers=("lcmp", "ecmp", "ucmp"))

    result = FigureResult(
        figure="fig1",
        description="Motivation: per-link utilisation and FCT slowdown (8-DC, WebSearch, 30%)",
    )
    result.groups["30% load"] = {name: run.profile for name, run in runs.items()}

    utilisation_rows = {
        name: utilization_table(run.result, sources=["DC1"]) for name, run in runs.items()
    }
    result.tables["per-link utilisation (DC1 egress)"] = utilization_report(utilisation_rows)
    for name, rows in utilisation_rows.items():
        result.metrics[f"imbalance_{name}"] = imbalance(rows)
    for name, run in runs.items():
        result.metrics[f"p50_{name}"] = run.profile.overall_p50
        result.metrics[f"p99_{name}"] = run.profile.overall_p99
        # absolute FCT summary straight off the metrics-store column
        result.metrics[f"mean_fct_ms_{name}"] = float(
            run.result.store.fcts().mean() * 1e3
        )
    return result


# --------------------------------------------------------------------- #
# E1 — Fig. 5: testbed comparison
# --------------------------------------------------------------------- #
def figure5(
    num_flows: int = 2000,
    loads: Sequence[float] = LOADS,
    seed: int = 5,
    runner: Optional[ExperimentRunner] = None,
) -> FigureResult:
    """Testbed comparison (Fig. 5): 8-DC, WebSearch, DCQCN, 3 loads, 4 schemes."""
    runner = runner or ExperimentRunner()
    result = FigureResult(
        figure="fig5",
        description="Median and tail FCT slowdown on the 8-DC testbed (WebSearch, DCQCN)",
    )
    for load in loads:
        base = ExperimentSpec(
            name="fig5",
            topology="testbed8",
            workload="websearch",
            load=load,
            num_flows=num_flows,
            pairs=TESTBED_ENDPOINT_PAIRS,
            seed=seed,
        )
        runs = _comparison_group(runner, base)
        group = _load_label(load)
        result.groups[group] = {name: run.profile for name, run in runs.items()}
        reductions = {
            name: reduction(runs["lcmp"].profile, run.profile)
            for name, run in runs.items()
            if name != "lcmp"
        }
        result.tables[f"LCMP reduction vs baselines ({group})"] = reduction_report(reductions)
        for name, vals in reductions.items():
            result.metrics[f"{group}_p50_reduction_vs_{name}"] = vals["p50"]
            result.metrics[f"{group}_p99_reduction_vs_{name}"] = vals["p99"]
    return result


# --------------------------------------------------------------------- #
# E1b — Fig. 6: simulator fidelity
# --------------------------------------------------------------------- #
def figure6(
    num_flows: int = 1500,
    seed: int = 6,
    testbed_noise: float = 0.08,
    runner: Optional[ExperimentRunner] = None,
) -> FigureResult:
    """Simulator-fidelity study (Fig. 6).

    The same WebSearch/30 % scenario is measured under a clean "simulator"
    profile and a noisier, smaller-scale "testbed" profile (SoftRoCE +
    Mininet emulation); the per-size-bin P50/P99 slowdowns of the two are
    correlated.
    """
    runner = runner or ExperimentRunner()
    result = FigureResult(
        figure="fig6",
        description="Simulator fidelity: testbed-profile vs simulator-profile slowdown",
    )
    pairs_p50: List[Tuple[float, float]] = []
    pairs_p99: List[Tuple[float, float]] = []
    for router in ("lcmp", "ecmp", "ucmp"):
        simulator_spec = ExperimentSpec(
            name=f"{router}-simulator",
            router=router,
            topology="testbed8",
            load=0.3,
            num_flows=num_flows,
            pairs=TESTBED_ENDPOINT_PAIRS,
            seed=seed,
        )
        testbed_spec = simulator_spec.with_overrides(
            name=f"{router}-testbed",
            num_flows=max(200, num_flows // 3),
            fidelity_noise=testbed_noise,
            seed=seed + 1,
        )
        sim_run = runner.run(simulator_spec)
        testbed_run = runner.run(testbed_spec)
        result.groups[router] = {
            "simulator": sim_run.profile,
            "testbed": testbed_run.profile,
        }
        study: FidelityResult = fidelity_study(testbed_run.profile, sim_run.profile)
        pairs_p50.extend(study.pairs_p50)
        pairs_p99.extend(study.pairs_p99)
        result.metrics[f"pearson_p50_{router}"] = study.p50_correlation
        result.metrics[f"pearson_p99_{router}"] = study.p99_correlation

    from ..analysis.fidelity import pearson

    result.metrics["pearson_p50"] = pearson(
        [p[0] for p in pairs_p50], [p[1] for p in pairs_p50]
    )
    result.metrics["pearson_p99"] = pearson(
        [p[0] for p in pairs_p99], [p[1] for p in pairs_p99]
    )
    return result


# --------------------------------------------------------------------- #
# E2/E3 — Fig. 7 and Fig. 8: 13-DC simulations
# --------------------------------------------------------------------- #
def figure7(
    num_flows: int = 2500,
    loads: Sequence[float] = LOADS,
    seed: int = 7,
    runner: Optional[ExperimentRunner] = None,
    _keep_runs: Optional[Dict[str, Dict[str, ExperimentRun]]] = None,
) -> FigureResult:
    """System-wide validation (Fig. 7): 13-DC all-to-all, 3 loads, 4 schemes."""
    runner = runner or ExperimentRunner()
    result = FigureResult(
        figure="fig7",
        description="System-wide FCT slowdown on the 13-DC topology (all-to-all, WebSearch)",
    )
    for load in loads:
        base = ExperimentSpec(
            name="fig7",
            topology="bso13",
            workload="websearch",
            load=load,
            num_flows=num_flows,
            pairs="all_to_all",
            seed=seed,
        )
        runs = _comparison_group(runner, base)
        group = _load_label(load)
        result.groups[group] = {name: run.profile for name, run in runs.items()}
        if _keep_runs is not None:
            _keep_runs[group] = runs
        reductions = {
            name: reduction(runs["lcmp"].profile, run.profile)
            for name, run in runs.items()
            if name != "lcmp"
        }
        result.tables[f"LCMP reduction vs baselines ({group})"] = reduction_report(reductions)
        for name, vals in reductions.items():
            result.metrics[f"{group}_p99_reduction_vs_{name}"] = vals["p99"]
    return result


def figure8(
    num_flows: int = 2500,
    loads: Sequence[float] = LOADS,
    seed: int = 7,
    runner: Optional[ExperimentRunner] = None,
) -> FigureResult:
    """DC-pair case study (Fig. 8): flows between DC1 and DC13 on the 13-DC topology.

    The paper filters the Fig. 7 runs down to the representative multi-path
    pair; we do the same by re-running the identical specs and restricting
    the analysis to that pair's flows.
    """
    runner = runner or ExperimentRunner()
    kept: Dict[str, Dict[str, ExperimentRun]] = {}
    figure7(num_flows=num_flows, loads=loads, seed=seed, runner=runner, _keep_runs=kept)

    result = FigureResult(
        figure="fig8",
        description="FCT slowdown for flows between DC1 and DC13 (13-DC topology)",
    )
    src, dst = CASE_STUDY_PAIRS[0]
    for group, runs in kept.items():
        series = {}
        for name, run in runs.items():
            series[name] = run.pair_profile(src, dst, bidirectional=True)
        result.groups[group] = series
        reductions = {
            name: reduction(series["lcmp"], profile)
            for name, profile in series.items()
            if name != "lcmp"
        }
        result.tables[f"LCMP reduction vs baselines ({group})"] = reduction_report(reductions)
        for name, vals in reductions.items():
            result.metrics[f"{group}_p50_reduction_vs_{name}"] = vals["p50"]
            result.metrics[f"{group}_p99_reduction_vs_{name}"] = vals["p99"]
    return result


# --------------------------------------------------------------------- #
# E4 — Fig. 9: workload sensitivity
# --------------------------------------------------------------------- #
def figure9(
    num_flows: int = 2000,
    workloads: Sequence[str] = WORKLOAD_NAMES,
    seed: int = 9,
    runner: Optional[ExperimentRunner] = None,
) -> FigureResult:
    """Workload sensitivity (Fig. 9): WebSearch / AliStorage / FB Hadoop at 30 %."""
    runner = runner or ExperimentRunner()
    result = FigureResult(
        figure="fig9",
        description="FCT slowdown for three workloads (8-DC, 30% load, DCQCN)",
    )
    for workload in workloads:
        base = ExperimentSpec(
            name="fig9",
            topology="testbed8",
            workload=workload,
            load=0.3,
            num_flows=num_flows,
            pairs=TESTBED_ENDPOINT_PAIRS,
            seed=seed,
        )
        runs = _comparison_group(runner, base, routers=("lcmp", "ecmp", "ucmp"))
        result.groups[workload] = {name: run.profile for name, run in runs.items()}
        for baseline in ("ecmp", "ucmp"):
            vals = reduction(runs["lcmp"].profile, runs[baseline].profile)
            result.metrics[f"{workload}_p50_reduction_vs_{baseline}"] = vals["p50"]
            result.metrics[f"{workload}_p99_reduction_vs_{baseline}"] = vals["p99"]
    return result


# --------------------------------------------------------------------- #
# E5 — Fig. 10: congestion-control orthogonality
# --------------------------------------------------------------------- #
def figure10(
    num_flows: int = 2000,
    ccs: Sequence[str] = ("hpcc", "timely", "dctcp"),
    seed: int = 10,
    runner: Optional[ExperimentRunner] = None,
    include_mixed: bool = True,
) -> FigureResult:
    """CC orthogonality (Fig. 10): HPCC / TIMELY / DCTCP under WebSearch, 30 %.

    With ``include_mixed`` (the default) a fourth group runs the canned
    heterogeneous fleet (:data:`~repro.experiments.configs.DEFAULT_CC_MIX`,
    80 % DCQCN + 20 % HPCC with deterministic per-seed assignment) — the
    orthogonality claim should survive a datacenter mid-CC-migration too.
    """
    runner = runner or ExperimentRunner()
    result = FigureResult(
        figure="fig10",
        description="FCT slowdown under different RDMA congestion controls (8-DC, 30%)",
    )
    groups = [(cc, {"cc": cc}) for cc in ccs]
    if include_mixed:
        groups.append(("mixed", {"cc_mix": DEFAULT_CC_MIX}))
    for label, cc_fields in groups:
        base = ExperimentSpec(
            name="fig10",
            topology="testbed8",
            workload="websearch",
            load=0.3,
            num_flows=num_flows,
            pairs=TESTBED_ENDPOINT_PAIRS,
            seed=seed,
            **cc_fields,
        )
        runs = _comparison_group(runner, base, routers=("lcmp", "ecmp", "ucmp"))
        result.groups[label] = {name: run.profile for name, run in runs.items()}
        for baseline in ("ecmp", "ucmp"):
            vals = reduction(runs["lcmp"].profile, runs[baseline].profile)
            result.metrics[f"{label}_p50_reduction_vs_{baseline}"] = vals["p50"]
            result.metrics[f"{label}_p99_reduction_vs_{baseline}"] = vals["p99"]
    return result


# --------------------------------------------------------------------- #
# E6 — Fig. 11: ablation and weight sensitivity
# --------------------------------------------------------------------- #
def _weight_sweep(
    figure: str,
    description: str,
    variants: Dict[str, LCMPConfig],
    num_flows: int,
    seed: int,
    runner: Optional[ExperimentRunner],
    load: float = 0.3,
) -> FigureResult:
    runner = runner or ExperimentRunner()
    result = FigureResult(figure=figure, description=description)
    series: Dict[str, SlowdownProfile] = {}
    for label, lcmp_config in variants.items():
        spec = ExperimentSpec(
            name=label,
            topology="testbed8",
            router="lcmp",
            workload="websearch",
            load=load,
            num_flows=num_flows,
            pairs=TESTBED_ENDPOINT_PAIRS,
            seed=seed,
            lcmp_config=lcmp_config,
        )
        run = runner.run(spec)
        series[label] = run.profile
        result.metrics[f"p50_{label}"] = run.profile.overall_p50
        result.metrics[f"p99_{label}"] = run.profile.overall_p99
    result.groups[_load_label(load)] = series
    return result


def figure11_ablation(
    num_flows: int = 2000, seed: int = 111, runner: Optional[ExperimentRunner] = None
) -> FigureResult:
    """Ablation (Fig. 11a): full LCMP vs rm-alpha (α=0) vs rm-beta (β=0)."""
    base = LCMPConfig()
    variants = {
        "full": base,
        "rm-alpha": base.ablate_path_quality(),
        "rm-beta": base.ablate_congestion(),
    }
    return _weight_sweep(
        "fig11a",
        "Ablation: removing the path-quality or congestion term",
        variants,
        num_flows,
        seed,
        runner,
    )


def figure11_global_weights(
    num_flows: int = 2000, seed: int = 112, runner: Optional[ExperimentRunner] = None
) -> FigureResult:
    """Global fusion-weight sweep (Fig. 11b): (α, β) in {(3,1), (1,1), (1,3)}."""
    base = LCMPConfig()
    variants = {
        "alpha:beta=3:1": base.with_overrides(alpha=3, beta=1),
        "alpha:beta=1:1": base.with_overrides(alpha=1, beta=1),
        "alpha:beta=1:3": base.with_overrides(alpha=1, beta=3),
    }
    return _weight_sweep(
        "fig11b",
        "Global fusion weights (alpha, beta)",
        variants,
        num_flows,
        seed,
        runner,
    )


def figure11_path_weights(
    num_flows: int = 2000, seed: int = 113, runner: Optional[ExperimentRunner] = None
) -> FigureResult:
    """Path-quality weight sweep (Fig. 11c): (w_dl, w_lc) in {(3,1), (1,1), (1,3)}."""
    base = LCMPConfig()
    variants = {
        "dl:lc=3:1": base.with_overrides(w_dl=3, w_lc=1),
        "dl:lc=1:1": base.with_overrides(w_dl=1, w_lc=1),
        "dl:lc=1:3": base.with_overrides(w_dl=1, w_lc=3),
    }
    return _weight_sweep(
        "fig11c",
        "Path-quality weights (w_dl, w_lc)",
        variants,
        num_flows,
        seed,
        runner,
    )


def figure11_congestion_weights(
    num_flows: int = 2000, seed: int = 114, runner: Optional[ExperimentRunner] = None
) -> FigureResult:
    """Congestion weight sweep (Fig. 11d): (w_ql, w_tl, w_dp) allocations."""
    base = LCMPConfig()
    variants = {
        "ql:tl:dp=2:1:1": base.with_overrides(w_ql=2, w_tl=1, w_dp=1),
        "ql:tl:dp=1:2:1": base.with_overrides(w_ql=1, w_tl=2, w_dp=1),
        "ql:tl:dp=1:1:2": base.with_overrides(w_ql=1, w_tl=1, w_dp=2),
    }
    return _weight_sweep(
        "fig11d",
        "Congestion-cost weights (w_ql, w_tl, w_dp)",
        variants,
        num_flows,
        seed,
        runner,
    )


# --------------------------------------------------------------------- #
# §4 — resource accounting
# --------------------------------------------------------------------- #
def section4_resources() -> FigureResult:
    """Resource-cost accounting (paper §4): memory and per-decision compute."""
    est = resource_estimate(num_ports=48, flow_cache_entries=50_000, num_paths=10_000)
    result = FigureResult(
        figure="sec4",
        description="Resource cost: per-port/per-flow memory and per-new-flow compute",
    )
    result.metrics = {
        "per_port_bytes": 24.0,
        "per_flow_bytes": 20.0,
        "port_cache_bytes": float(est.port_bytes),
        "flow_cache_bytes": float(est.flow_bytes),
        "total_megabytes": est.total_megabytes,
        "ops_per_new_flow_m6": float(per_new_flow_ops(6)),
    }
    rows = [
        ["per-port registers", "24 B"],
        ["per-flow cache entry", "20 B"],
        ["48-port register cache", f"{est.port_bytes} B"],
        ["50k-entry flow cache", f"{est.flow_bytes / 1e6:.2f} MB"],
        ["control tables (10k paths)", f"{est.table_bytes / 1e3:.1f} kB"],
        ["total working set", f"{est.total_megabytes:.2f} MB"],
        ["integer ops per new flow (m=6)", str(per_new_flow_ops(6))],
    ]
    from ..analysis.report import format_table

    result.tables["resource accounting"] = format_table(["item", "value"], rows)
    return result


#: registry used by the benchmark harness and the ``examples`` scripts
ALL_FIGURES = {
    "fig1": figure1,
    "fig5": figure5,
    "fig6": figure6,
    "fig7": figure7,
    "fig8": figure8,
    "fig9": figure9,
    "fig10": figure10,
    "fig11a": figure11_ablation,
    "fig11b": figure11_global_weights,
    "fig11c": figure11_path_weights,
    "fig11d": figure11_congestion_weights,
    "sec4": section4_resources,
}
