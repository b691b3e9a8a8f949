"""Seed-robustness studies.

The paper reports single runs on a small testbed; a natural question for
a reproduction is whether the headline shapes (win counts, makespan
parity) hold across random universes or were one lucky draw.
:func:`seed_study` re-runs a scenario family over many seeds and
aggregates win-rate and makespan-delta distributions.  The per-seed
FlowCon/NA pairs are independent simulations, so the study executes
through the :mod:`~repro.experiments.batch` runner and parallelizes
with ``workers=N`` (identical aggregates at any worker count).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from repro.analysis.compare import compare_runs
from repro.baselines.na import NAPolicy
from repro.config import FlowConConfig, SimulationConfig
from repro.core.policy import FlowConPolicy
from repro.errors import ExperimentError
from repro.experiments.batch import run_many
from repro.workloads.generator import WorkloadSpec

__all__ = ["SeedStudyResult", "seed_study"]


@dataclass
class SeedStudyResult:
    """Aggregates of one multi-seed study."""

    seeds: list[int]
    #: Fraction of jobs faster under FlowCon, per seed.
    win_rates: np.ndarray
    #: Makespan reduction % vs NA, per seed.
    makespan_reductions: np.ndarray
    #: Best per-job reduction % per seed.
    best_wins: np.ndarray
    #: Worst per-job reduction % per seed (negative = loss).
    worst_losses: np.ndarray

    @property
    def n(self) -> int:
        """Number of seeds."""
        return len(self.seeds)

    def summary(self) -> dict[str, float]:
        """Headline aggregates."""
        return {
            "mean_win_rate": float(self.win_rates.mean()),
            "min_win_rate": float(self.win_rates.min()),
            "mean_makespan_reduction": float(self.makespan_reductions.mean()),
            "worst_makespan_reduction": float(self.makespan_reductions.min()),
            "mean_best_win": float(self.best_wins.mean()),
            "worst_loss": float(self.worst_losses.min()),
        }


def seed_study(
    scenario: Callable[[int], list[WorkloadSpec]],
    *,
    seeds: list[int] | None = None,
    flowcon: FlowConConfig | None = None,
    sim_template: SimulationConfig | None = None,
    workers: int = 1,
    **cluster,
) -> SeedStudyResult:
    """Run ``FlowCon vs NA`` over many seeds of one scenario family.

    Parameters
    ----------
    scenario:
        Seed → workload specs builder (e.g.
        :func:`repro.experiments.scenarios.random_ten_job`).
    seeds:
        Seeds to sweep (default 0…9).
    flowcon:
        FlowCon parameters (default: the paper's 10-job setting).
    sim_template:
        Substrate parameters; the seed field is overridden per run.
    workers:
        Process count for the batch runner; the 2×len(seeds) runs are
        independent, so the study scales across processes with
        identical aggregates.
    **cluster:
        :func:`~repro.experiments.runner.run_cluster` keywords shared by
        every run (both the NA and FlowCon arms).
    """
    if seeds is None:
        seeds = list(range(10))
    if not seeds:
        raise ExperimentError("seed_study needs at least one seed")
    fc_cfg = flowcon if flowcon is not None else FlowConConfig(
        alpha=0.10, itval=20.0
    )
    template = sim_template if sim_template is not None else SimulationConfig()

    # Interleaved NA/FlowCon pairs, one pair per seed, one flat batch.
    specs_list, factories, run_seeds = [], [], []
    for seed in seeds:
        specs = scenario(seed)
        specs_list.extend([specs, specs])
        factories.extend([NAPolicy, partial(FlowConPolicy, fc_cfg)])
        run_seeds.extend([seed, seed])
    records = run_many(
        specs_list,
        factories,
        template,
        workers=workers,
        seeds=run_seeds,
        **cluster,
    )

    win_rates, makespans, bests, worsts = [], [], [], []
    for i in range(len(seeds)):
        na, fc = records[2 * i], records[2 * i + 1]
        report = compare_runs(na.summary(), fc.summary())
        win_rates.append(report.wins / report.n_jobs)
        makespans.append(report.makespan_reduction)
        bests.append(report.best[1])
        worsts.append(report.worst[1])

    return SeedStudyResult(
        seeds=list(seeds),
        win_rates=np.asarray(win_rates),
        makespan_reductions=np.asarray(makespans),
        best_wins=np.asarray(bests),
        worst_losses=np.asarray(worsts),
    )
