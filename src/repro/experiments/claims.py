"""The paper's evaluation claims as one table.

:data:`EXPERIMENTS` maps a name to a zero-argument callable that runs one
experiment with its fixed seed.  Each :data:`CLAIMS` row names the paper
figure or table, the paper's number, a label stating the threshold, the
experiment it reads and a check ``data -> (passed, detail)``.
:func:`~repro.experiments.validate.validate_reproduction` runs each
experiment once per call and applies every row to its data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.analysis.listdynamics import dwell_times
from repro.analysis.overhead import overhead_study
from repro.analysis.robustness import seed_study
from repro.baselines.na import NAPolicy
from repro.baselines.slaq import SlaqLikePolicy
from repro.baselines.static import StaticPartitionPolicy
from repro.baselines.timeslice import TimeSlicePolicy
from repro.cluster.contention import ContentionModel
from repro.config import FlowConConfig, SimulationConfig
from repro.containers.allocator import AllocationMode
from repro.core.lists import ListName
from repro.core.policy import FlowConPolicy
from repro.experiments import figures as F
from repro.experiments import tables as T
from repro.experiments.runner import RunResult, run_cluster, run_scenario
from repro.experiments.scenarios import fixed_three_job, random_ten_job
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.models import make_job, zoo_keys

__all__ = ["CLAIMS", "EXPERIMENTS", "Claim"]


@dataclass(frozen=True)
class Claim:
    """One paper claim and the check that holds the reproduction to it."""

    #: Paper figure, table or section, e.g. ``"Fig.12"`` or ``"Alg.1 l.17"``.
    figure: str
    #: What the paper reports, as text.
    paper: str
    #: The threshold the check applies, as text.
    label: str
    #: Key into :data:`EXPERIMENTS`.
    experiment: str
    check: Callable[[Any], tuple[bool, str]]


# ---------------------------------------------------------------------------
# Experiments beyond the figure and table generators
# ---------------------------------------------------------------------------


def _fixed_three(policy) -> RunResult:
    """The fixed 3-job schedule (seed 1) under *policy*."""
    return run_scenario(
        fixed_three_job(), policy, SimulationConfig(seed=1)
    )


def _table1():
    """Table 1's rows, plus the zoo keys whose job does not finish solo."""
    unfinished = []
    for key in zoo_keys():
        job = make_job(key)
        job.advance(job.total_work)
        if not job.finished:
            unfinished.append(key)
    return T.table1_model_zoo(), unfinished


def _softlimits() -> dict[str, RunResult]:
    """LSTM-CFC and MNIST statically split 50/50, soft vs hard ceilings."""
    specs = WorkloadGenerator.fixed(
        [("lstm_cfc@tensorflow", 0.0), ("mnist@pytorch", 0.0)]
    )
    return {
        mode.name: run_scenario(
            specs,
            StaticPartitionPolicy(),
            SimulationConfig(seed=1, allocation_mode=mode),
        )
        for mode in (AllocationMode.SOFT, AllocationMode.HARD)
    }


def _list_dynamics():
    """Per-list dwell times of a 10-job FlowCon-10%-20 run (seed 42)."""
    policy = FlowConPolicy(FlowConConfig(alpha=0.10, itval=20.0))
    run = run_scenario(
        random_ten_job(seed=42), policy, SimulationConfig(seed=42)
    )
    return dwell_times(policy.executor.lists, end_time=run.makespan)


def _memory_pressure() -> dict[str, RunResult]:
    """The 10-job mix (seed 42) with a 0.5 swap penalty, NA vs FlowCon."""
    specs = random_ten_job(seed=42)
    cfg = SimulationConfig(
        seed=42, contention=ContentionModel(swap_penalty=0.5)
    )
    return {
        "NA": run_scenario(specs, NAPolicy(), cfg),
        "FlowCon": run_scenario(
            specs, FlowConPolicy(FlowConConfig(alpha=0.10, itval=20.0)), cfg
        ),
    }


def _multiworker() -> dict[int, RunResult]:
    """One 12-job mix (seed 5) on one worker and on three."""
    specs = WorkloadGenerator(np.random.default_rng(5)).random_mix(
        12, window=(0.0, 150.0)
    )
    return {
        n: run_cluster(
            specs, FlowConPolicy, SimulationConfig(seed=5),
            n_workers=n,
        )
        for n in (1, 3)
    }


EXPERIMENTS: dict[str, Callable[[], Any]] = {
    "fig1": F.fig1_training_progress,
    "fig3": F.fig3_fixed_alpha5,
    "fig4": F.fig4_fixed_alpha10,
    "fig5": F.fig5_fixed_itval20,
    "fig6": F.fig6_fixed_itval30,
    "fig7": F.fig7_cpu_flowcon_3job,
    "fig8": F.fig8_cpu_na_3job,
    "fig9": F.fig9_random_five,
    "fig10": F.fig10_cpu_flowcon_5job,
    "fig11": F.fig11_cpu_na_5job,
    "fig12": F.fig12_ten_jobs,
    "fig13": F.fig13_growth_comparison,
    "fig14": F.fig14_growth_comparison,
    "fig15_16": lambda: (
        F.fig15_cpu_flowcon_10job(), F.fig16_cpu_na_10job()
    ),
    "fig17": F.fig17_fifteen_jobs,
    "table1": _table1,
    "table2": T.table2_mnist_reduction,
    "ablation_backoff": lambda: {
        "on": _fixed_three(FlowConPolicy(FlowConConfig(backoff_enabled=True))),
        "off": _fixed_three(
            FlowConPolicy(FlowConConfig(backoff_enabled=False))
        ),
    },
    "ablation_floor": lambda: {
        "floor": _fixed_three(FlowConPolicy(FlowConConfig(beta=2.0))),
        "none": _fixed_three(FlowConPolicy(FlowConConfig(beta=None))),
    },
    "ablation_listeners": lambda: {
        "listeners": _fixed_three(FlowConPolicy(FlowConConfig(itval=60.0))),
        "none": _fixed_three(
            FlowConPolicy(FlowConConfig(itval=60.0, listeners_enabled=False))
        ),
    },
    "ablation_nl_literal": lambda: {
        "default": _fixed_three(
            FlowConPolicy(FlowConConfig(nl_full_limit=True))
        ),
        "literal": _fixed_three(
            FlowConPolicy(FlowConConfig(nl_full_limit=False))
        ),
    },
    "ablation_softlimits": _softlimits,
    "ext_list_dynamics": _list_dynamics,
    "ext_memory_pressure": _memory_pressure,
    "ext_multiworker": _multiworker,
    "ext_overhead": lambda: overhead_study(
        fixed_three_job(),
        itvals=[10.0, 20.0, 40.0, 60.0],
        sim_config=SimulationConfig(seed=1),
    ),
    "ext_robustness": lambda: seed_study(
        random_ten_job,
        seeds=list(range(8)),
        sim_template=SimulationConfig(),
    ).summary(),
    "baseline_slaq": lambda: {
        "FlowCon": _fixed_three(FlowConPolicy()),
        "SLAQ-60s": _fixed_three(SlaqLikePolicy(epoch=60.0)),
    },
    "baseline_timeslice": lambda: {
        "FlowCon": _fixed_three(FlowConPolicy()),
        "TimeSlice-20s": _fixed_three(TimeSlicePolicy(quantum=20.0)),
    },
}


# ---------------------------------------------------------------------------
# Check helpers
# ---------------------------------------------------------------------------


def _configs(data) -> list[str]:
    """The FlowCon configurations of a sweep or scale run (all but NA)."""
    return [k for k in data.completion if k != "NA"]


def _makespan_within(data, factor: float) -> tuple[bool, str]:
    na = data.makespan["NA"]
    worst = max(data.makespan[k] for k in _configs(data))
    return worst <= na * factor, f"worst makespan {worst:.1f}s vs NA {na:.1f}s"


def _mnist_tf_cuts(data, floor: float) -> tuple[bool, str]:
    """Every config cuts MNIST (TensorFlow), Job-3, by more than *floor* %."""
    cuts = [data.reduction_vs_na(k, "Job-3") for k in _configs(data)]
    return min(cuts) > floor, (
        f"MNIST-TF cut {min(cuts):.1f}–{max(cuts):.1f}%"
    )


def _itval_trend(cut20: float, cut60: float) -> tuple[bool, str]:
    return cut20 >= cut60, f"itval 20: {cut20:.1f}%, itval 60: {cut60:.1f}%"


def _wins_at_least(data, n: int) -> tuple[bool, str]:
    wins = {k: data.wins(k) for k in _configs(data)}
    jobs = len(data.job_names)
    return min(wins.values()) >= n, ", ".join(
        f"{k}: {w}/{jobs}" for k, w in wins.items()
    )


def _worst_loss_above(data, floor: float) -> tuple[bool, str]:
    (config,) = _configs(data)
    worst = min(data.reductions(config).values())
    return worst > floor, f"worst job {worst:+.1f}%"


def _late_vae_limit(data) -> tuple[bool, str]:
    times, limits = data.limits["Job-1"]
    late = limits[times > 150.0]
    if not late.size:
        return False, "no VAE limit after 150s"
    return late.min() <= 0.26, f"VAE limit floor {late.min():.3f}"


def _median_share(data, lo: float, hi: float, share: float):
    t, u = data.usage["Job-1"]
    med = float(np.median(u[(t > lo) & (t < hi)]))
    return abs(med - share) < 0.08, f"VAE median share {med:.3f}"


def _cfc_peak(data) -> tuple[bool, str]:
    label = next(
        trace.label
        for trace in data.run.recorder.traces.values()
        if "lstm_cfc" in trace.image
    )
    peak = float(data.usage[label][1].max())
    return peak <= 0.40, f"LSTM-CFC ({label}) peak usage {peak:.3f}"


def _completion_delta(data) -> float:
    return (data.flowcon_completion - data.na_completion) / data.na_completion


def _growth_points(data) -> tuple[bool, str]:
    fc, na = data.flowcon[0].size, data.na[0].size
    return fc > 3 and na > 3, f"{fc} FlowCon / {na} NA points"


def _mean_jitter(data) -> float:
    return float(np.mean(list(data.jitter.values())))


def _faster(runs, fast: str, slow: str, job: str = "Job-3"):
    """*job* completes sooner in run *fast* than in run *slow*."""
    a = runs[fast].completion_times()[job]
    b = runs[slow].completion_times()[job]
    return a < b, f"{job} {fast} {a:.1f}s vs {slow} {b:.1f}s"


def _algorithm_runs(run: RunResult) -> list[int]:
    return [p.executor.runs for p in run.policies.values()]


def _backoff_saves_runs(runs) -> tuple[bool, str]:
    on, off = _algorithm_runs(runs["on"])[0], _algorithm_runs(runs["off"])[0]
    return on < off, f"Algorithm-1 runs {on} with back-off, {off} without"


def _backoff_keeps_makespan(runs) -> tuple[bool, str]:
    on, off = runs["on"].makespan, runs["off"].makespan
    delta = abs(on - off) / off
    return delta < 0.05, f"makespan {on:.1f}s vs {off:.1f}s ({delta:.1%})"


def _vae_limit_min(runs, variant: str) -> float:
    return float(runs[variant].trace("Job-1").cpu_limit.arrays()[1].min())


def _nl_literal_no_better(runs) -> tuple[bool, str]:
    default = runs["default"].completion_times()["Job-3"]
    literal = runs["literal"].completion_times()["Job-3"]
    return literal >= default * 0.98, (
        f"Job-3 literal {literal:.1f}s vs default {default:.1f}s"
    )


def _lists_visited(dwell) -> tuple[bool, str]:
    nl = len(dwell[ListName.NL])
    cl = sum(dwell[ListName.CL].values())
    return nl == 10 and cl > 0, f"{nl} jobs visit NL; CL dwell {cl:.1f} job·s"


def _pressure_wins(runs) -> tuple[bool, str]:
    na, fc = runs["NA"].completion_times(), runs["FlowCon"].completion_times()
    wins = sum(1 for label in na if fc[label] < na[label])
    return wins >= 7, f"{wins}/{len(na)} wins"


def _pressure_makespan(runs) -> tuple[bool, str]:
    na, fc = runs["NA"].makespan, runs["FlowCon"].makespan
    return fc <= na * 1.01, f"makespan {fc:.1f}s vs NA {na:.1f}s"


def _three_workers_faster(runs) -> tuple[bool, str]:
    one, three = runs[1].makespan, runs[3].makespan
    return three < one, f"makespan {one:.1f}s on 1 worker, {three:.1f}s on 3"


def _scheduling_spread(runs) -> tuple[bool, str]:
    one, three = _algorithm_runs(runs[1]), _algorithm_runs(runs[3])
    return max(three) < one[0], (
        f"Algorithm-1 runs {one[0]} on 1 worker, {three} on 3"
    )


def _overhead_by_itval(samples) -> tuple[bool, str]:
    on = {s.itval: s.algorithm_runs for s in samples if s.backoff_enabled}
    return on[10.0] > on[60.0], (
        f"Algorithm-1 runs {on[10.0]} at itval 10, {on[60.0]} at 60"
    )


def _backoff_saved(samples) -> tuple[bool, str]:
    on = {s.itval: s.algorithm_runs for s in samples if s.backoff_enabled}
    off = {s.itval: s.algorithm_runs for s in samples if not s.backoff_enabled}
    saved = sum(off[iv] - on[iv] for iv in on)
    return saved > 0, f"{saved} runs saved over itval {sorted(on)}"


def _table2_positive(t2) -> tuple[bool, str]:
    cells = [*t2.by_itval.values(), *t2.by_alpha.values()]
    return all(v > 0 for v in cells), (
        f"reductions {min(cells):.1f}–{max(cells):.1f}%"
    )


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------

CLAIMS: dict[str, Claim] = {
    # --- Fig. 1 ----------------------------------------------------------
    "fig1.concave": Claim(
        "Fig.1", "RNN-GRU at 96.8% of its accuracy after 14.5% of its time",
        "every model > 50% of its improvement at 50% time", "fig1",
        lambda d: (
            min(d.fraction_at(n, 0.5) for n in d.curves) > 0.5,
            f"min improvement at 50% time "
            f"{min(d.fraction_at(n, 0.5) for n in d.curves):.1%}",
        ),
    ),
    "fig1.vae_riser": Claim(
        "Fig.1", "early risers reach most accuracy in a fraction of time",
        "VAE > 99% of its improvement at 15% time", "fig1",
        lambda d: (
            d.fraction_at("VAE (Pytorch)", 0.15) > 0.99,
            f"VAE at 15% time {d.fraction_at('VAE (Pytorch)', 0.15):.1%}",
        ),
    ),
    # --- Figs. 3–6: fixed 3-job sweeps ------------------------------------
    "fig3.makespan": Claim(
        "Fig.3", "makespan 372.4–389.0s vs NA 394.0s",
        "makespan ≤ 1.01 × NA for every itval", "fig3",
        lambda d: _makespan_within(d, 1.01),
    ),
    "fig3.mnist_tf": Claim(
        "Fig.3", "MNIST-TF 31.9% faster at itval 30",
        "MNIST-TF cut > 5% for every itval", "fig3",
        lambda d: _mnist_tf_cuts(d, 5.0),
    ),
    "fig4.mnist_tf": Claim(
        "Fig.4", "MNIST-TF 26.2/32.4/14.3/15.3/3.1% faster for itval 20–60",
        "MNIST-TF cut > 0% for every itval", "fig4",
        lambda d: _mnist_tf_cuts(d, 0.0),
    ),
    "fig4.itval_trend": Claim(
        "Fig.4", "larger itval, smaller reduction",
        "MNIST-TF cut at itval 20 ≥ cut at itval 60", "fig4",
        lambda d: _itval_trend(
            d.reduction_vs_na("20", "Job-3"), d.reduction_vs_na("60", "Job-3")
        ),
    ),
    "fig5.mnist_tf": Claim(
        "Fig.5", "MNIST-TF 32.1–19.8% faster for α 1–15%",
        "MNIST-TF cut > 0% for every α", "fig5",
        lambda d: _mnist_tf_cuts(d, 0.0),
    ),
    "fig5.makespan": Claim(
        "Fig.5", "makespan 1–4% better for every α",
        "makespan ≤ 1.01 × NA for every α", "fig5",
        lambda d: _makespan_within(d, 1.01),
    ),
    "fig6.mnist_tf": Claim(
        "Fig.6", "same trend as Fig. 5 at itval 30",
        "MNIST-TF cut > 0% for every α", "fig6",
        lambda d: _mnist_tf_cuts(d, 0.0),
    ),
    # --- Figs. 7–8: 3-job CPU traces --------------------------------------
    "fig7.vae_floor": Claim(
        "Fig.7", "converged VAE pinned at 0.25",
        "VAE limit after 150s reaches ≤ 0.26", "fig7", _late_vae_limit,
    ),
    "fig8.two_jobs": Claim(
        "Fig.8", "equal shares: VAE ≈ MNIST-P over 40–80s",
        "VAE median share within 0.08 of 1/2 over 45–80s", "fig8",
        lambda d: _median_share(d, 45.0, 80.0, 0.5),
    ),
    "fig8.three_jobs": Claim(
        "Fig.8", "equal shares among three active jobs",
        "VAE median share within 0.08 of 1/3 over 90–140s", "fig8",
        lambda d: _median_share(d, 90.0, 140.0, 1 / 3),
    ),
    # --- Figs. 9–11: five random jobs -------------------------------------
    "fig9.wins": Claim(
        "Fig.9", "FlowCon wins 4, 5, 4, 4 of 5 jobs",
        "FlowCon wins ≥ 3/5 jobs per config", "fig9",
        lambda d: _wins_at_least(d, 3),
    ),
    "fig9.makespan": Claim(
        "Fig.9", "makespan 1–5% better",
        "makespan ≤ 1.02 × NA per config", "fig9",
        lambda d: _makespan_within(d, 1.02),
    ),
    "fig10.five_traces": Claim(
        "Fig.10", "five differentiated, piecewise-smooth shares",
        "one usage trace per job (5)", "fig10",
        lambda d: (len(d.usage) == 5, f"{len(d.usage)} traces"),
    ),
    "fig11.cfc_capped": Claim(
        "Fig.11", "LSTM-CFC cannot use a full CPU even alone",
        "LSTM-CFC usage ≤ 0.40 throughout", "fig11", _cfc_peak,
    ),
    # --- Figs. 12–16: ten random jobs -------------------------------------
    "fig12.wins": Claim(
        "Fig.12", "9 of 10 jobs faster",
        "FlowCon wins ≥ 9/10 jobs", "fig12",
        lambda d: _wins_at_least(d, 9),
    ),
    "fig12.makespan": Claim(
        "Fig.12", "makespan 1350.7s vs NA 1384.9s",
        "makespan ≤ 1.01 × NA", "fig12",
        lambda d: _makespan_within(d, 1.01),
    ),
    "fig13.mild_loss": Claim(
        "Fig.13", "Job-2 finishes 1.1% slower",
        "worst job's completion delta < +10%", "fig13",
        lambda d: (
            _completion_delta(d) < 0.10,
            f"{d.job_label} ({d.job_name}) {_completion_delta(d):+.1%}",
        ),
    ),
    "fig13.no_win": Claim(
        "Fig.13", "Job-2 loses to NA after it converges",
        "worst job's FlowCon completion ≥ 0.99 × NA", "fig13",
        lambda d: (
            d.flowcon_completion >= d.na_completion * 0.99,
            f"{d.na_completion:.1f}s → {d.flowcon_completion:.1f}s",
        ),
    ),
    "fig13.traces": Claim(
        "Fig.13", "growth-efficiency traces under FlowCon and NA",
        "both growth traces have > 3 points", "fig13", _growth_points,
    ),
    "fig14.win": Claim(
        "Fig.14", "Job-6 finishes much faster",
        "best job's FlowCon completion < NA", "fig14",
        lambda d: (
            d.flowcon_completion < d.na_completion,
            f"{d.job_label} ({d.job_name}) "
            f"{d.na_completion:.1f}s → {d.flowcon_completion:.1f}s",
        ),
    ),
    "fig14.traces": Claim(
        "Fig.14", "growth-efficiency traces under FlowCon and NA",
        "both growth traces have > 3 points", "fig14", _growth_points,
    ),
    "fig15.ten_traces": Claim(
        "Fig.15", "ten containers under FlowCon-10%-20",
        "one usage trace per job (10)", "fig15_16",
        lambda d: (len(d[0].usage) == 10, f"{len(d[0].usage)} traces"),
    ),
    "fig16.jitter": Claim(
        "Fig.16", "NA jitters; FlowCon (Fig. 15) is smoother",
        "FlowCon mean jitter < NA mean jitter", "fig15_16",
        lambda d: (
            _mean_jitter(d[0]) < _mean_jitter(d[1]),
            f"jitter {_mean_jitter(d[0]):.4f} vs NA {_mean_jitter(d[1]):.4f}",
        ),
    ),
    # --- Fig. 17: fifteen random jobs -------------------------------------
    "fig17.wins": Claim(
        "Fig.17", "11 of 15 jobs faster",
        "FlowCon wins ≥ 10/15 jobs", "fig17",
        lambda d: _wins_at_least(d, 10),
    ),
    "fig17.losses": Claim(
        "Fig.17", "worst loss 5.7%",
        "every job's reduction > -10%", "fig17",
        lambda d: _worst_loss_above(d, -10.0),
    ),
    "fig17.makespan": Claim(
        "Fig.17", "makespan 1950.9s vs NA 1980.1s",
        "makespan ≤ 1.01 × NA", "fig17",
        lambda d: _makespan_within(d, 1.01),
    ),
    # --- Tables -----------------------------------------------------------
    "table1.zoo": Claim(
        "Tab.1", "six models across PyTorch (P) and TensorFlow (T)",
        "≥ 8 rows, platforms exactly {P, T}", "table1",
        lambda d: (
            len(d[0]) >= 8 and {r.platform for r in d[0]} == {"P", "T"},
            f"{len(d[0])} rows, platforms "
            f"{sorted({r.platform for r in d[0]})}",
        ),
    ),
    "table1.trains": Claim(
        "Tab.1", "every tested model trains to completion",
        "every zoo job finishes solo", "table1",
        lambda d: (not d[1], f"unfinished: {d[1] or 'none'}"),
    ),
    "table2.positive": Claim(
        "Tab.2", "26.2/32.4/14.3/15.3/3.1% and 32.1/31.0/21.4/19.0/19.8%",
        "every reduction > 0%", "table2", _table2_positive,
    ),
    "table2.itval_trend": Claim(
        "Tab.2", "larger itval, smaller reduction",
        "reduction at itval 20 ≥ at itval 60", "table2",
        lambda d: _itval_trend(d.by_itval["20"], d.by_itval["60"]),
    ),
    # --- Ablations of the paper's mechanisms ------------------------------
    "ablation.backoff_runs": Claim(
        "Alg.1 l.17", "back-off cuts scheduling overhead",
        "fewer Algorithm-1 runs with back-off", "ablation_backoff",
        _backoff_saves_runs,
    ),
    "ablation.backoff_makespan": Claim(
        "Alg.1 l.17", "back-off leaves completion unharmed",
        "makespan within 5% of no back-off", "ablation_backoff",
        _backoff_keeps_makespan,
    ),
    "ablation.floor_held": Claim(
        "Alg.1 l.22", "CL floor 1/(β·n) prevents starvation",
        "VAE limit ≥ 1/6 with β = 2", "ablation_floor",
        lambda d: (
            _vae_limit_min(d, "floor") >= 1.0 / 6.0 - 1e-9,
            f"min VAE limit {_vae_limit_min(d, 'floor'):.3f}",
        ),
    ),
    "ablation.floor_removed": Claim(
        "Alg.1 l.22", "without the floor a converged job starves",
        "VAE limit < 0.05 without a floor", "ablation_floor",
        lambda d: (
            _vae_limit_min(d, "none") < 0.05,
            f"min VAE limit {_vae_limit_min(d, 'none'):.3f}",
        ),
    ),
    "ablation.listeners": Claim(
        "Alg.2", "listeners react to pool changes between ticks",
        "MNIST-TF faster with listeners (itval 60)", "ablation_listeners",
        lambda d: _faster(d, "listeners", "none"),
    ),
    "ablation.nl_literal": Claim(
        "Alg.1 l.26", "NL jobs get more resources",
        "literal G/ΣG MNIST-TF ≥ 0.98 × default", "ablation_nl_literal",
        _nl_literal_no_better,
    ),
    "ablation.soft_limits": Claim(
        "§5.4", "soft limits lend idle capacity",
        "MNIST faster under soft than hard limits", "ablation_softlimits",
        lambda d: _faster(d, "SOFT", "HARD", job="Job-2"),
    ),
    # --- Extensions and baselines -----------------------------------------
    "ext.list_dynamics": Claim(
        "Alg.1", "jobs enter NL, converge into CL",
        "all 10 jobs visit NL; CL dwell > 0", "ext_list_dynamics",
        _lists_visited,
    ),
    "ext.memory_wins": Claim(
        "ext", "beyond the paper: 10 jobs with swap penalty 0.5",
        "FlowCon wins ≥ 7/10 jobs", "ext_memory_pressure", _pressure_wins,
    ),
    "ext.memory_makespan": Claim(
        "ext", "beyond the paper: 10 jobs with swap penalty 0.5",
        "makespan ≤ 1.01 × NA", "ext_memory_pressure", _pressure_makespan,
    ),
    "ext.multiworker_makespan": Claim(
        "§3.1", "overhead is distributed over the whole cluster",
        "3-worker makespan < 1-worker", "ext_multiworker",
        _three_workers_faster,
    ),
    "ext.multiworker_runs": Claim(
        "§3.1", "overhead is distributed over the whole cluster",
        "max per-worker Algorithm-1 runs on 3 < on 1", "ext_multiworker",
        _scheduling_spread,
    ),
    "ext.overhead_itval": Claim(
        "§5 Remark", "itval is proportional to the overhead",
        "Algorithm-1 runs at itval 10 > at itval 60", "ext_overhead",
        _overhead_by_itval,
    ),
    "ext.overhead_backoff": Claim(
        "§5 Remark", "back-off reduces scheduling executions",
        "back-off saves > 0 runs across itvals", "ext_overhead",
        _backoff_saved,
    ),
    "ext.robust_wins": Claim(
        "Fig.12", "one run: 9 of 10 jobs faster",
        "mean win rate ≥ 0.7 over seeds 0–7", "ext_robustness",
        lambda d: (
            d["mean_win_rate"] >= 0.7,
            f"mean win rate {d['mean_win_rate']:.0%} "
            f"(min {d['min_win_rate']:.0%})",
        ),
    ),
    "ext.robust_makespan": Claim(
        "Fig.12", "one run: makespan 2.5% better",
        "every seed's makespan reduction > -2%", "ext_robustness",
        lambda d: (
            d["worst_makespan_reduction"] > -2.0,
            f"worst makespan reduction {d['worst_makespan_reduction']:+.2f}%",
        ),
    ),
    "ext.robust_losses": Claim(
        "Fig.12", "one run: worst loss 1.1%",
        "every job's reduction > -15% over seeds 0–7", "ext_robustness",
        lambda d: (
            d["worst_loss"] > -15.0, f"worst loss {d['worst_loss']:+.1f}%"
        ),
    ),
    "baseline.slaq": Claim(
        "§6", "SLAQ fails to allocate resources in real time",
        "MNIST-TF faster than under 60s-epoch SLAQ", "baseline_slaq",
        lambda d: _faster(d, "FlowCon", "SLAQ-60s"),
    ),
    "baseline.timeslice": Claim(
        "§6", "time slicing ignores training progress",
        "MNIST-TF faster than under 20s time slices", "baseline_timeslice",
        lambda d: _faster(d, "FlowCon", "TimeSlice-20s"),
    ),
}
