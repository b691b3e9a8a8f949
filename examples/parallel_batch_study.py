#!/usr/bin/env python3
"""Parallel batch study: many runs, all cores, identical results.

Demonstrates the high-throughput experiment path added for large
scenario spaces:

1. a multi-seed FlowCon-vs-NA comparison fanned out over a process pool
   with :func:`repro.experiments.batch.run_many`;
2. a cluster-size scaling study via
   :func:`repro.experiments.runner.scaling_study`;
3. the 50-job stress scenario (:func:`repro.experiments.scenarios
   .fifty_job`) exercising the vectorized settlement core.

Run:
    python examples/parallel_batch_study.py [n_seeds]
"""

import sys
import time
from functools import partial

from repro import FlowConConfig, FlowConPolicy, NAPolicy, SimulationConfig
from repro.experiments.batch import default_workers, run_many
from repro.experiments.runner import scaling_study
from repro.experiments.report import render_header, render_table
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import fifty_job, random_ten_job
from repro.metrics.summary import reduction_pct


def main(n_seeds: int = 6) -> None:
    workers = default_workers()
    cfg = SimulationConfig()
    fc_cfg = FlowConConfig(alpha=0.10, itval=20.0)

    # -- 1. multi-seed study, interleaved NA/FlowCon pairs ------------------
    seeds = list(range(n_seeds))
    specs_list, factories, run_seeds, labels = [], [], [], []
    for seed in seeds:
        specs = random_ten_job(seed=seed)
        specs_list += [specs, specs]
        factories += [NAPolicy, partial(FlowConPolicy, fc_cfg)]
        run_seeds += [seed, seed]
        labels += [f"NA/{seed}", f"FC/{seed}"]

    print(render_header(
        f"{2 * n_seeds} ten-job runs across {workers} process(es)"
    ))
    t0 = time.perf_counter()
    records = run_many(
        specs_list, factories, cfg,
        workers=workers, seeds=run_seeds, labels=labels,
    )
    wall = time.perf_counter() - t0
    sim_time = sum(r.wall_time for r in records)
    print(f"wall {wall:.2f}s for {sim_time:.2f}s of run time "
          f"({sim_time / wall:.2f}x effective parallelism)\n")

    rows = []
    for i, seed in enumerate(seeds):
        na, fc = records[2 * i], records[2 * i + 1]
        rows.append([
            seed,
            round(na.makespan, 1),
            round(fc.makespan, 1),
            round(reduction_pct(na.makespan, fc.makespan), 2),
        ])
    print(render_table(
        ["seed", "NA makespan", "FlowCon makespan", "reduction %"], rows
    ))

    # -- 2. cluster-size scaling on the 50-job stress mix -------------------
    specs50 = fifty_job(seed=0)
    print("\n" + render_header("50-job mix across simulated cluster sizes"))
    scale_records = scaling_study(
        specs50,
        partial(FlowConPolicy, fc_cfg),
        [1, 2, 4],
        sim_config=cfg,
        workers=workers,
    )
    print(render_table(
        ["cluster", "makespan (s)", "events"],
        [[r.label, round(r.makespan, 1), r.events_processed]
         for r in scale_records],
    ))

    # -- 3. single-node 50-job throughput ------------------------------------
    t0 = time.perf_counter()
    result = run_scenario(specs50, FlowConPolicy(fc_cfg), cfg)
    wall = time.perf_counter() - t0
    print(
        f"\nsingle-node 50-job FlowCon run: {result.sim.events_processed} "
        f"events in {wall:.2f}s "
        f"({result.sim.events_processed / wall:,.0f} events/s), "
        f"makespan {result.makespan:.0f}s"
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 6)
