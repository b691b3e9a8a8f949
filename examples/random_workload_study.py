#!/usr/bin/env python3
"""Random-workload study: the paper's §5.4/§5.5 experiments in one script.

Submits 5, 10 and 15 jobs at uniformly random times in [0, 200] s and
compares FlowCon against NA at each scale, printing win/loss profiles and
CPU-usage sparklines.

Run:
    python examples/random_workload_study.py [seed]
"""

import sys

import numpy as np

from repro import (
    FlowConConfig,
    FlowConPolicy,
    NAPolicy,
    SimulationConfig,
    random_fifteen_job,
    random_five_job,
    random_ten_job,
    run_scenario,
)
from repro.analysis.compare import compare_runs
from repro.experiments.report import render_header, render_sparkline
from repro.metrics.summary import jitter_index


SCALES = [
    ("5 jobs (§5.4)", random_five_job, FlowConConfig(alpha=0.03, itval=30.0)),
    ("10 jobs (§5.5.1)", random_ten_job, FlowConConfig(alpha=0.10, itval=20.0)),
    ("15 jobs (§5.5.2)", random_fifteen_job, FlowConConfig(alpha=0.10, itval=40.0)),
]


def main(seed: int = 42) -> None:
    for title, builder, fc_cfg in SCALES:
        specs = builder(seed)
        sim_cfg = SimulationConfig(seed=seed)
        na = run_scenario(specs, NAPolicy(), sim_cfg)
        fc = run_scenario(specs, FlowConPolicy(fc_cfg), sim_cfg)
        report = compare_runs(na.summary, fc.summary,
                              treatment_name=fc_cfg.describe())

        print(render_header(f"{title} — {fc_cfg.describe()} vs NA"))
        for label in sorted(
            report.reductions, key=lambda s: int(s.split("-")[1])
        ):
            marker = "+" if report.reductions[label] > 0 else "-"
            print(
                f"  {label:<8} NA {na.completion_times()[label]:8.1f}s  "
                f"FlowCon {fc.completion_times()[label]:8.1f}s  "
                f"[{marker}] {report.reductions[label]:+6.1f} %"
            )
        print(
            f"  wins {report.wins}/{report.n_jobs}; makespan "
            f"{na.makespan:.1f} → {fc.makespan:.1f} s "
            f"({report.makespan_reduction:+.2f} %)"
        )

        # Fig. 15/16-style smoothness comparison.
        fc_j = np.mean([
            jitter_index(t.cpu_usage, grid_step=5.0)
            for t in fc.recorder.traces.values()
            if not t.cpu_usage.empty
        ])
        na_j = np.mean([
            jitter_index(t.cpu_usage, grid_step=5.0)
            for t in na.recorder.traces.values()
            if not t.cpu_usage.empty
        ])
        print(f"  usage jitter: FlowCon {fc_j:.4f} vs NA {na_j:.4f}")

        example = fc.trace("Job-1").cpu_usage
        if not example.empty:
            _, values = example.arrays()
            print(f"  Job-1 usage |{render_sparkline(values, width=56)}|\n")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 42)
