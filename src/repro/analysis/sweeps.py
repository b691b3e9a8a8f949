"""Parameter-grid sweeps over scenarios.

Generalizes the paper's Figs. 3–6 to arbitrary (α, itval) grids and
workloads; the ablation benches use it to map where FlowCon's advantage
comes from.  Cells are independent runs, so the grid executes through
the :mod:`~repro.experiments.batch` runner and parallelizes across
processes with ``workers=N`` — results are identical at any worker
count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.analysis.compare import ComparisonReport, compare_runs
from repro.baselines.na import NAPolicy
from repro.config import FlowConConfig, SimulationConfig
from repro.core.policy import FlowConPolicy
from repro.errors import ExperimentError
from repro.experiments.batch import run_many
from repro.workloads.generator import WorkloadSpec

__all__ = ["SweepCell", "SweepGrid", "sweep_grid"]


@dataclass(frozen=True)
class SweepCell:
    """One (α, itval) grid point's comparison against NA."""

    alpha: float
    itval: float
    report: ComparisonReport


@dataclass
class SweepGrid:
    """All cells of one sweep plus the shared NA reference."""

    cells: list[SweepCell]

    def cell(self, alpha: float, itval: float) -> SweepCell:
        """Look up one grid point."""
        for c in self.cells:
            if abs(c.alpha - alpha) < 1e-12 and abs(c.itval - itval) < 1e-9:
                return c
        raise ExperimentError(f"no sweep cell for alpha={alpha}, itval={itval}")

    def best_cell(self, job_label: str) -> SweepCell:
        """Grid point with the largest reduction for one job."""
        return max(
            self.cells, key=lambda c: c.report.reductions.get(job_label, -1e9)
        )

    def makespan_range(self) -> tuple[float, float]:
        """(min, max) makespan reduction % across the grid."""
        values = [c.report.makespan_reduction for c in self.cells]
        return (min(values), max(values))


def sweep_grid(
    specs: list[WorkloadSpec],
    alphas: list[float],
    itvals: list[float],
    *,
    sim_config: SimulationConfig | None = None,
    base_config: FlowConConfig | None = None,
    workers: int = 1,
    **cluster,
) -> SweepGrid:
    """Run FlowCon over an (α × itval) grid against one shared NA run.

    Parameters
    ----------
    specs:
        The workload, reused identically for every cell.
    alphas / itvals:
        Grid axes.
    sim_config:
        Substrate parameters shared by every run.
    base_config:
        Template FlowCon config whose other fields (β, back-off,
        listeners) apply to every cell — the ablation hook.
    workers:
        Process count for the batch runner; cells (and the NA reference)
        are independent runs, so ``workers=N`` executes the grid N-wide
        with identical results.
    **cluster:
        :func:`~repro.experiments.runner.run_cluster` keywords shared by
        every cell (and the NA reference).  Admission and autoscale
        policies only act when ``max_containers`` bounds the workers —
        unbounded clusters never queue.
    """
    if not alphas or not itvals:
        raise ExperimentError("sweep needs non-empty alpha and itval axes")
    cfg = sim_config if sim_config is not None else SimulationConfig()
    template = base_config if base_config is not None else FlowConConfig()

    grid_cfgs = [
        template.with_params(alpha=alpha, itval=itval)
        for alpha in alphas
        for itval in itvals
    ]
    factories = [NAPolicy] + [
        partial(FlowConPolicy, fc_cfg) for fc_cfg in grid_cfgs
    ]
    records = run_many(
        [specs] * len(factories),
        factories,
        cfg,
        workers=workers,
        labels=["NA"] + [fc_cfg.describe() for fc_cfg in grid_cfgs],
        **cluster,
    )
    na_summary = records[0].summary()
    cells = [
        SweepCell(
            alpha=fc_cfg.alpha,
            itval=fc_cfg.itval,
            report=compare_runs(
                na_summary,
                record.summary(),
                treatment_name=fc_cfg.describe(),
            ),
        )
        for fc_cfg, record in zip(grid_cfgs, records[1:])
    ]
    return SweepGrid(cells=cells)
