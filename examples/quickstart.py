#!/usr/bin/env python3
"""Quickstart: FlowCon vs the default scheduler on the paper's schedule.

Runs the §5.3 fixed workload (VAE at 0 s, MNIST-PyTorch at 40 s,
MNIST-TensorFlow at 80 s) once under the default platform (NA) and once
under FlowCon, then prints per-job completion times and the makespan.

Run:
    python examples/quickstart.py
"""

from repro import (
    FlowConConfig,
    FlowConPolicy,
    NAPolicy,
    SimulationConfig,
    fixed_three_job,
    run_scenario,
)
from repro.analysis.compare import compare_runs
from repro.experiments.report import render_header, render_table


def main() -> None:
    specs = fixed_three_job()
    sim_cfg = SimulationConfig(seed=1)

    na = run_scenario(specs, NAPolicy(), sim_cfg)
    flowcon = run_scenario(
        specs,
        FlowConPolicy(FlowConConfig(alpha=0.05, itval=20.0)),
        sim_cfg,
    )

    report = compare_runs(na.summary, flowcon.summary)

    print(render_header("FlowCon quickstart — fixed 3-job schedule (§5.3)"))
    rows = []
    for label in sorted(report.reductions):
        rows.append(
            [
                label,
                na.completion_times()[label],
                flowcon.completion_times()[label],
                f"{report.reductions[label]:+.1f} %",
            ]
        )
    rows.append(
        ["makespan", na.makespan, flowcon.makespan,
         f"{report.makespan_reduction:+.1f} %"]
    )
    print(render_table(["job", "NA (s)", "FlowCon (s)", "reduction"], rows))

    best_label, best = report.best
    print(
        f"\nFlowCon wins {report.wins}/{report.n_jobs} jobs; "
        f"best win {best_label} at {best:.1f} % — the paper reports up to "
        f"42.06 % on its testbed without sacrificing makespan."
    )


if __name__ == "__main__":
    main()
