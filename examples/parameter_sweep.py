#!/usr/bin/env python3
"""Parameter sweep: map FlowCon's (α × itval) design space.

Generalizes the paper's Figs. 3–6 into a grid over any workload and
prints a heat-table of per-job reductions and makespan deltas — the tool
an operator would use to pick α and itval for their own job mix.

The 20 grid cells are independent runs, so the sweep fans out over all
local cores through the batch runner (``workers=``): results are
identical to a serial sweep at any worker count.

Run:
    python examples/parameter_sweep.py
"""

from repro import SimulationConfig
from repro.analysis.sweeps import sweep_grid
from repro.experiments.batch import default_workers
from repro.experiments.report import render_header, render_table
from repro.experiments.scenarios import fixed_three_job


def main() -> None:
    alphas = [0.01, 0.03, 0.05, 0.10, 0.15]
    itvals = [20.0, 30.0, 40.0, 60.0]
    grid = sweep_grid(
        fixed_three_job(),
        alphas=alphas,
        itvals=itvals,
        sim_config=SimulationConfig(seed=1),
        workers=default_workers(),
    )

    print(render_header(
        "FlowCon (alpha x itval) sweep on the fixed 3-job schedule"
    ))
    print("\nMNIST-TF (Job-3) completion-time reduction vs NA (%):\n")
    rows = []
    for alpha in alphas:
        row = [f"α={alpha:.0%}"]
        for itval in itvals:
            cell = grid.cell(alpha, itval)
            row.append(round(cell.report.reductions["Job-3"], 1))
        rows.append(row)
    print(render_table([""] + [f"itval={iv:g}" for iv in itvals], rows))

    print("\nMakespan reduction vs NA (%):\n")
    rows = []
    for alpha in alphas:
        row = [f"α={alpha:.0%}"]
        for itval in itvals:
            cell = grid.cell(alpha, itval)
            row.append(round(cell.report.makespan_reduction, 2))
        rows.append(row)
    print(render_table([""] + [f"itval={iv:g}" for iv in itvals], rows))

    best = grid.best_cell("Job-3")
    lo, hi = grid.makespan_range()
    print(
        f"\nbest setting for MNIST-TF: α={best.alpha:.0%}, "
        f"itval={best.itval:g}s "
        f"({best.report.reductions['Job-3']:.1f} % reduction); "
        f"makespan deltas across the grid span {lo:+.2f} % … {hi:+.2f} %."
    )


if __name__ == "__main__":
    main()
