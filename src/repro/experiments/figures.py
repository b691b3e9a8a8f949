"""Data generators for every figure of the paper's evaluation (§5).

Each ``figN`` function runs the relevant scenario(s) and returns a plain
data structure (dataclass of dicts/arrays) that the corresponding
benchmark renders.  Figures share scenario runs where the paper shared
them (e.g. Fig. 7/8 reuse the Fig. 3 runs' traces), so generating the full
set stays cheap.

Conventions
-----------
* ``seed`` selects the substrate's random universe; comparisons always
  reuse one seed across policies.
* Completion times are in simulated seconds; "NA" marks the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines.na import NAPolicy
from repro.config import FlowConConfig, SimulationConfig
from repro.core.policy import FlowConPolicy
from repro.experiments.runner import RunResult, run_scenario
from repro.experiments.scenarios import (
    fixed_three_job,
    random_fifteen_job,
    random_five_job,
    random_ten_job,
)
from repro.metrics.summary import jitter_index
from repro.workloads.models import MODEL_ZOO, make_job

__all__ = [
    "Fig1Data",
    "SweepData",
    "TraceData",
    "ScaleData",
    "GrowthCompareData",
    "fig1_training_progress",
    "fig3_fixed_alpha5",
    "fig4_fixed_alpha10",
    "fig5_fixed_itval20",
    "fig6_fixed_itval30",
    "fig7_cpu_flowcon_3job",
    "fig8_cpu_na_3job",
    "fig9_random_five",
    "fig10_cpu_flowcon_5job",
    "fig11_cpu_na_5job",
    "fig12_ten_jobs",
    "fig13_growth_comparison",
    "fig14_growth_comparison",
    "fig15_cpu_flowcon_10job",
    "fig16_cpu_na_10job",
    "fig17_fifteen_jobs",
]

#: The five models of the motivating Fig. 1, as labelled there.
FIG1_MODELS = [
    "vae@pytorch",
    "mnist@pytorch",
    "cnn_lstm@tensorflow",
    "gru@tensorflow",
    "logreg@tensorflow",
]


# ---------------------------------------------------------------------------
# Fig. 1 — training progress of five models
# ---------------------------------------------------------------------------


@dataclass
class Fig1Data:
    """Normalized training-progress curves, one per model.

    ``curves[name] = (time_fraction, improvement_fraction)`` — both in
    [0, 1], mirroring Fig. 1's normalized axes.
    """

    curves: dict[str, tuple[np.ndarray, np.ndarray]]

    def fraction_at(self, name: str, time_frac: float) -> float:
        """Improvement fraction of *name* at a cumulative-time fraction."""
        t, v = self.curves[name]
        return float(np.interp(time_frac, t, v))


def fig1_training_progress(n_points: int = 200) -> Fig1Data:
    """Fig. 1: each model training *alone* on one node.

    Solo and uncontended, wall-time fraction equals work fraction, so the
    curves come straight from the analytic models — exactly what Fig. 1
    plots (accuracy vs cumulative time for independent runs).
    """
    curves: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for key in FIG1_MODELS:
        job = make_job(key)
        # Time fraction spent in warm-up produces a flat lead-in.
        warm_frac = job.warmup_work / job.total_work
        t = np.linspace(0.0, 1.0, n_points)
        p = np.clip((t - warm_frac) / (1.0 - warm_frac), 0.0, 1.0)
        frac = np.asarray(job.curve.improvement_fraction(p), dtype=np.float64)
        curves[MODEL_ZOO[key].display_name] = (t, frac)
    return Fig1Data(curves=curves)


# ---------------------------------------------------------------------------
# Figs. 3–6 — fixed schedule parameter sweeps
# ---------------------------------------------------------------------------


@dataclass
class SweepData:
    """Completion times across a parameter sweep plus the NA reference.

    ``completion[config_label][job_label] = seconds``; ``"NA"`` is always
    present.  ``makespan[config_label]`` likewise.
    """

    parameter: str
    completion: dict[str, dict[str, float]]
    makespan: dict[str, float]
    job_names: dict[str, str]
    #: The underlying runs (label → RunResult) for trace reuse.
    runs: dict[str, RunResult] = field(default_factory=dict)

    def reduction_vs_na(self, config_label: str, job_label: str) -> float:
        """Percent completion-time reduction of one job vs NA."""
        na = self.completion["NA"][job_label]
        fc = self.completion[config_label][job_label]
        return (na - fc) / na * 100.0


def _fixed_sweep(
    configs: list[FlowConConfig],
    parameter: str,
    labels: list[str],
    seed: int,
) -> SweepData:
    specs = fixed_three_job()
    job_names = {s.label: MODEL_ZOO[s.model_key].display_name for s in specs}
    sim_cfg = SimulationConfig(seed=seed)

    completion: dict[str, dict[str, float]] = {}
    makespan: dict[str, float] = {}
    runs: dict[str, RunResult] = {}

    for label, cfg in zip(labels, configs):
        result = run_scenario(specs, FlowConPolicy(cfg), sim_cfg)
        completion[label] = result.completion_times()
        makespan[label] = result.makespan
        runs[label] = result

    na = run_scenario(specs, NAPolicy(), sim_cfg)
    completion["NA"] = na.completion_times()
    makespan["NA"] = na.makespan
    runs["NA"] = na

    return SweepData(
        parameter=parameter,
        completion=completion,
        makespan=makespan,
        job_names=job_names,
        runs=runs,
    )


def fig3_fixed_alpha5(seed: int = 1) -> SweepData:
    """Fig. 3: α = 5 %, itval ∈ {20, 30, 40, 50, 60} s, fixed 3-job."""
    itvals = [20.0, 30.0, 40.0, 50.0, 60.0]
    return _fixed_sweep(
        [FlowConConfig(alpha=0.05, itval=iv) for iv in itvals],
        parameter="itval",
        labels=[f"{iv:g}" for iv in itvals],
        seed=seed,
    )


def fig4_fixed_alpha10(seed: int = 1) -> SweepData:
    """Fig. 4: α = 10 %, itval ∈ {20, 30, 40, 50, 60} s, fixed 3-job."""
    itvals = [20.0, 30.0, 40.0, 50.0, 60.0]
    return _fixed_sweep(
        [FlowConConfig(alpha=0.10, itval=iv) for iv in itvals],
        parameter="itval",
        labels=[f"{iv:g}" for iv in itvals],
        seed=seed,
    )


def fig5_fixed_itval20(seed: int = 1) -> SweepData:
    """Fig. 5: itval = 20 s, α ∈ {1, 3, 5, 10, 15} %, fixed 3-job."""
    alphas = [0.01, 0.03, 0.05, 0.10, 0.15]
    return _fixed_sweep(
        [FlowConConfig(alpha=a, itval=20.0) for a in alphas],
        parameter="alpha",
        labels=[f"{a:.0%}" for a in alphas],
        seed=seed,
    )


def fig6_fixed_itval30(seed: int = 1) -> SweepData:
    """Fig. 6: itval = 30 s, α ∈ {1, 3, 5, 10, 15} %, fixed 3-job."""
    alphas = [0.01, 0.03, 0.05, 0.10, 0.15]
    return _fixed_sweep(
        [FlowConConfig(alpha=a, itval=30.0) for a in alphas],
        parameter="alpha",
        labels=[f"{a:.0%}" for a in alphas],
        seed=seed,
    )


# ---------------------------------------------------------------------------
# CPU-usage trace figures (7, 8, 10, 11, 15, 16)
# ---------------------------------------------------------------------------


@dataclass
class TraceData:
    """Per-job CPU-usage step series from one run.

    ``usage[job_label] = (times, values)``; ``jitter[job_label]`` is the
    smoothness metric from :func:`repro.metrics.summary.jitter_index`.
    """

    policy: str
    usage: dict[str, tuple[np.ndarray, np.ndarray]]
    limits: dict[str, tuple[np.ndarray, np.ndarray]]
    jitter: dict[str, float]
    makespan: float
    run: RunResult


def _trace_data(result: RunResult) -> TraceData:
    usage: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    limits: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    jitter: dict[str, float] = {}
    for trace in result.recorder.traces.values():
        if trace.cpu_usage.empty:
            continue
        usage[trace.label] = trace.cpu_usage.arrays()
        if not trace.cpu_limit.empty:
            limits[trace.label] = trace.cpu_limit.arrays()
        jitter[trace.label] = jitter_index(trace.cpu_usage, grid_step=5.0)
    return TraceData(
        policy=result.policy_name,
        usage=usage,
        limits=limits,
        jitter=jitter,
        makespan=result.makespan,
        run=result,
    )


def fig7_cpu_flowcon_3job(seed: int = 1) -> TraceData:
    """Fig. 7: CPU usage under FlowCon (α=5 %, itval=20), fixed 3-job."""
    result = run_scenario(
        fixed_three_job(),
        FlowConPolicy(FlowConConfig(alpha=0.05, itval=20.0)),
        SimulationConfig(seed=seed, sample_interval=2.0),
    )
    return _trace_data(result)


def fig8_cpu_na_3job(seed: int = 1) -> TraceData:
    """Fig. 8: CPU usage under NA, fixed 3-job."""
    result = run_scenario(
        fixed_three_job(),
        NAPolicy(),
        SimulationConfig(seed=seed, sample_interval=2.0),
    )
    return _trace_data(result)


def fig10_cpu_flowcon_5job(seed: int = 42) -> TraceData:
    """Fig. 10: CPU usage under FlowCon (α=3 %, itval=30), 5 random jobs."""
    result = run_scenario(
        random_five_job(seed),
        FlowConPolicy(FlowConConfig(alpha=0.03, itval=30.0)),
        SimulationConfig(seed=seed, sample_interval=2.0),
    )
    return _trace_data(result)


def fig11_cpu_na_5job(seed: int = 42) -> TraceData:
    """Fig. 11: CPU usage under NA, 5 random jobs."""
    result = run_scenario(
        random_five_job(seed),
        NAPolicy(),
        SimulationConfig(seed=seed, sample_interval=2.0),
    )
    return _trace_data(result)


def fig15_cpu_flowcon_10job(seed: int = 42) -> TraceData:
    """Fig. 15: CPU usage under FlowCon (α=10 %, itval=20), 10 jobs."""
    result = run_scenario(
        random_ten_job(seed),
        FlowConPolicy(FlowConConfig(alpha=0.10, itval=20.0)),
        SimulationConfig(seed=seed, sample_interval=2.0),
    )
    return _trace_data(result)


def fig16_cpu_na_10job(seed: int = 42) -> TraceData:
    """Fig. 16: CPU usage under NA, 10 jobs."""
    result = run_scenario(
        random_ten_job(seed),
        NAPolicy(),
        SimulationConfig(seed=seed, sample_interval=2.0),
    )
    return _trace_data(result)


# ---------------------------------------------------------------------------
# Random / scalability completion-time figures (9, 12, 17)
# ---------------------------------------------------------------------------


@dataclass
class ScaleData:
    """FlowCon-vs-NA completion comparison for a random workload."""

    completion: dict[str, dict[str, float]]
    makespan: dict[str, float]
    job_names: dict[str, str]
    runs: dict[str, RunResult] = field(default_factory=dict)

    def wins(self, config_label: str) -> int:
        """Number of jobs faster under *config_label* than under NA."""
        na = self.completion["NA"]
        fc = self.completion[config_label]
        return sum(1 for label in na if fc[label] < na[label])

    def reductions(self, config_label: str) -> dict[str, float]:
        """Per-job percent reduction vs NA."""
        na = self.completion["NA"]
        fc = self.completion[config_label]
        return {
            label: (na[label] - fc[label]) / na[label] * 100.0 for label in na
        }


def _scale_experiment(
    specs,
    configs: list[FlowConConfig],
    seed: int,
    sample_interval: float = 5.0,
) -> ScaleData:
    job_names = {s.label: MODEL_ZOO[s.model_key].display_name for s in specs}
    sim_cfg = SimulationConfig(seed=seed, sample_interval=sample_interval)
    completion: dict[str, dict[str, float]] = {}
    makespan: dict[str, float] = {}
    runs: dict[str, RunResult] = {}
    for cfg in configs:
        label = cfg.describe()
        result = run_scenario(specs, FlowConPolicy(cfg), sim_cfg)
        completion[label] = result.completion_times()
        makespan[label] = result.makespan
        runs[label] = result
    na = run_scenario(specs, NAPolicy(), sim_cfg)
    completion["NA"] = na.completion_times()
    makespan["NA"] = na.makespan
    runs["NA"] = na
    return ScaleData(
        completion=completion, makespan=makespan, job_names=job_names, runs=runs
    )


def fig9_random_five(seed: int = 42) -> ScaleData:
    """Fig. 9: five random jobs under four (α, itval) configs and NA."""
    configs = [
        FlowConConfig(alpha=0.03, itval=30.0),
        FlowConConfig(alpha=0.03, itval=60.0),
        FlowConConfig(alpha=0.05, itval=30.0),
        FlowConConfig(alpha=0.05, itval=60.0),
    ]
    return _scale_experiment(random_five_job(seed), configs, seed)


def fig12_ten_jobs(seed: int = 42) -> ScaleData:
    """Fig. 12: ten random jobs, FlowCon-10 %-20 vs NA."""
    return _scale_experiment(
        random_ten_job(seed), [FlowConConfig(alpha=0.10, itval=20.0)], seed
    )


def fig17_fifteen_jobs(seed: int = 42) -> ScaleData:
    """Fig. 17: fifteen random jobs, FlowCon-10 %-40 vs NA."""
    return _scale_experiment(
        random_fifteen_job(seed), [FlowConConfig(alpha=0.10, itval=40.0)], seed
    )


# ---------------------------------------------------------------------------
# Figs. 13–14 — growth-efficiency comparisons from the 10-job run
# ---------------------------------------------------------------------------


@dataclass
class GrowthCompareData:
    """Growth-efficiency traces of one job under FlowCon and NA."""

    job_label: str
    job_name: str
    flowcon: tuple[np.ndarray, np.ndarray]
    na: tuple[np.ndarray, np.ndarray]
    flowcon_completion: float
    na_completion: float


def _growth_compare(seed: int, pick: str) -> GrowthCompareData:
    """Shared engine for Figs. 13/14.

    ``pick`` selects the job: ``"loser"`` → the job with the *worst*
    completion delta under FlowCon (the paper's Job-2), ``"winner"`` → the
    best (the paper's Job-6).
    """
    data = fig12_ten_jobs(seed)
    (config_label,) = [k for k in data.completion if k != "NA"]
    reductions = data.reductions(config_label)
    if pick == "winner":
        label = max(reductions, key=reductions.get)
    else:
        label = min(reductions, key=reductions.get)
    fc_run = data.runs[config_label]
    na_run = data.runs["NA"]
    fc_trace = fc_run.trace(label).growth
    na_trace = na_run.trace(label).growth
    return GrowthCompareData(
        job_label=label,
        job_name=data.job_names[label],
        flowcon=fc_trace.arrays(),
        na=na_trace.arrays(),
        flowcon_completion=data.completion[config_label][label],
        na_completion=data.completion["NA"][label],
    )


def fig13_growth_comparison(seed: int = 42) -> GrowthCompareData:
    """Fig. 13: growth efficiency of a job that *loses* under FlowCon."""
    return _growth_compare(seed, pick="loser")


def fig14_growth_comparison(seed: int = 42) -> GrowthCompareData:
    """Fig. 14: growth efficiency of a job that *wins* under FlowCon."""
    return _growth_compare(seed, pick="winner")
