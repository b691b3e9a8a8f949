#!/usr/bin/env python3
"""Bring your own model: replay a real training log under FlowCon.

FlowCon is metric-agnostic — it only needs an evaluation function it can
poll.  This example shows the two extension points a user of this library
touches:

1. :class:`PiecewiseLinearCurve` — feed logged ``(progress, loss)`` points
   from a *real* training run so the simulated job traces the genuine
   trajectory;
2. :class:`TrainingJob` — wrap the curve with a work budget and resource
   footprint, then schedule it against zoo models.

Run:
    python examples/custom_model_replay.py
"""

from repro import FlowConPolicy, NAPolicy
from repro.cluster.submission import JobSubmission
from repro.cluster.manager import Manager
from repro.cluster.worker import Worker
from repro.containers.spec import ResourceSpec
from repro.experiments.report import render_header, render_table
from repro.metrics.recorder import MetricsRecorder
from repro.simcore.engine import Simulator
from repro.workloads.curves import PiecewiseLinearCurve
from repro.workloads.evalfn import EvalFunction, EvalKind
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.job import TrainingJob

# A (downsampled) validation-loss log of a fictional transformer fine-tune:
# (fraction of steps completed, loss).  Note the mid-training plateau —
# exactly the kind of structure analytic curve families miss.
LOGGED_LOSS = [
    (0.00, 4.10),
    (0.05, 2.60),
    (0.10, 1.90),
    (0.20, 1.45),
    (0.30, 1.30),
    (0.45, 1.27),  # plateau
    (0.60, 1.05),  # second descent after LR drop
    (0.80, 0.92),
    (1.00, 0.88),
]


def build_custom_job() -> TrainingJob:
    """A 150-cpu-second job tracing the logged loss curve."""
    return TrainingJob(
        name="Transformer-FT (custom)",
        total_work=150.0,
        curve=PiecewiseLinearCurve(LOGGED_LOSS),
        evalfn=EvalFunction(
            kind=EvalKind.CROSS_ENTROPY, start=4.10, converged=0.88
        ),
        footprint=ResourceSpec(cpu_demand=0.9, memory=0.3, blkio=0.05),
        warmup_work=3.0,
        total_iterations=12_000,
    )


def run_policy(policy) -> dict[str, float]:
    """Run the custom job against two zoo models under *policy*."""
    sim = Simulator(seed=11)
    worker = Worker(sim)
    manager = Manager(sim, [worker])
    recorder = MetricsRecorder(worker, sample_interval=5.0)
    recorder.start()
    policy.attach(worker)

    zoo = WorkloadGenerator.fixed(
        [("vae@pytorch", 0.0), ("gru@tensorflow", 30.0)]
    )
    submissions = [
        JobSubmission(s.label, s.build_job(), s.submit_time) for s in zoo
    ]
    submissions.append(JobSubmission("Job-3", build_custom_job(), 60.0))
    manager.submit_all(submissions)

    while len(recorder.completions) < 3:
        if sim.step() is None:
            raise RuntimeError("simulation stalled")
    policy.detach()
    recorder.stop()
    return recorder.summary().completion_times() | {
        "makespan": recorder.summary().makespan
    }


def main() -> None:
    na = run_policy(NAPolicy())
    fc = run_policy(FlowConPolicy())

    print(render_header("Custom model (replayed log) under FlowCon"))
    rows = []
    for label, name in [
        ("Job-1", "VAE (Pytorch)"),
        ("Job-2", "RNN-GRU (Tensorflow)"),
        ("Job-3", "Transformer-FT (custom)"),
        ("makespan", ""),
    ]:
        reduction = (na[label] - fc[label]) / na[label] * 100
        rows.append([label, name, na[label], fc[label], f"{reduction:+.1f} %"])
    print(render_table(
        ["job", "model", "NA (s)", "FlowCon (s)", "reduction"], rows
    ))
    print(
        "\nThe custom job's plateau briefly demotes it to WL/CL and its "
        "second descent promotes it back to NL — the FlowCon policy's "
        "executor.lists.transitions records each move."
    )


if __name__ == "__main__":
    main()
