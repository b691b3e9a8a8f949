#!/usr/bin/env python3
"""Multi-worker cluster: FlowCon running on every worker of a cluster.

The paper's architecture (§3.1) runs FlowCon worker-side precisely so it
scales out: the manager only places containers; each worker manages its
own pool.  This example assembles a two-worker cluster from the low-level
API — one executor per worker — and submits a 8-job random mix.

Run:
    python examples/multi_worker_cluster.py
"""

from repro.cluster.manager import Manager
from repro.cluster.submission import JobSubmission
from repro.cluster.worker import Worker
from repro.config import FlowConConfig
from repro.core.executor import Executor
from repro.experiments.report import render_header, render_table
from repro.metrics.recorder import MetricsRecorder
from repro.simcore.engine import Simulator
from repro.workloads.generator import WorkloadGenerator

import numpy as np


def main() -> None:
    sim = Simulator(seed=3)
    workers = [Worker(sim, name=f"worker-{i}") for i in range(2)]
    manager = Manager(sim, workers)

    recorders = []
    executors = []
    for worker in workers:
        recorder = MetricsRecorder(worker, sample_interval=5.0)
        recorder.start()
        recorders.append(recorder)
        executor = Executor(worker, FlowConConfig(alpha=0.05, itval=20.0))
        executor.start()
        executors.append(executor)

    gen = WorkloadGenerator(np.random.default_rng(3))
    specs = gen.random_mix(8, window=(0.0, 120.0))
    manager.submit_all(
        [JobSubmission(s.label, s.build_job(), s.submit_time) for s in specs]
    )

    total = len(specs)
    while sum(len(r.completions) for r in recorders) < total:
        if sim.step() is None:
            raise RuntimeError("simulation stalled")
    for executor in executors:
        executor.stop()
    for recorder in recorders:
        recorder.stop()

    print(render_header("Two-worker cluster, FlowCon per worker"))
    rows = []
    for spec in specs:
        placement = manager.placement_of(spec.label)
        recorder = recorders[int(placement.worker_name.split("-")[1])]
        completion = recorder.summary().completion_time(spec.label)
        rows.append(
            [spec.label, spec.model_key, placement.worker_name,
             round(spec.submit_time, 1), completion]
        )
    print(render_table(
        ["job", "model", "worker", "submitted (s)", "completion (s)"], rows
    ))

    for worker, executor, recorder in zip(workers, executors, recorders):
        jobs = [c.label for c in recorder.completions]
        print(
            f"\n{worker.name}: ran {len(jobs)} jobs {jobs}; "
            f"Algorithm 1 executed {executor.runs}× "
            f"({executor.interrupts} listener interrupts, "
            f"{executor.backoffs} back-offs)"
        )


if __name__ == "__main__":
    main()
