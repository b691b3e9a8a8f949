#!/usr/bin/env python3
"""Streaming a diurnal day: lazy arrivals, sketch-based SLO metrics.

Production workloads are streams, not lists: a day of arrivals follows
a diurnal rate curve.  The ``"diurnal"`` stream family behind
``make_stream`` models it *lazily* — each :class:`WorkloadSpec` is
drawn on demand from a seeded recipe, so a million-job day never
materializes a million-entry list, and iterating the same stream twice
(or after pickling) is bit-identical:

    make_stream("diurnal", n_jobs=...,  # sinusoidal rate
                mean_gap=3.0, peak_to_trough=4.0, period=600.0,
                tenants=(("name", share, weight), ...))

Pairing a stream with ``SimulationConfig(streaming_metrics=True)``
swaps the per-job metrics for quantile sketches: queue
delays and completions fold into O(1)-memory aggregates (p50/p95/p99
within a certified rank-error bound, rolling/peak throughput,
per-tenant views) while the *dynamics* stay bit-identical to a dense
run — same makespan, same totals, same completion events.

This example runs the ``diurnal_cluster`` scenario both ways, checks
the aggregates agree, and prints the streaming run's SLO report.

The CLI runs the same stream family with per-job output:

    python -m repro compare --workload diurnal --jobs 40 \
        --slots 2 --workers 8 --admission wfq

Run:
    python examples/streaming_day.py
"""

from repro.baselines.na import NAPolicy
from repro.config import SimulationConfig
from repro.experiments.report import render_header, render_table
from repro.experiments.runner import run_cluster
from repro.experiments.scenarios import diurnal_cluster


def run(streaming: bool):
    scenario = diurnal_cluster(seed=42, n_jobs=400)
    return run_cluster(
        scenario.workload,
        NAPolicy,
        SimulationConfig(seed=42, streaming_metrics=streaming),
        capacities=scenario.capacities,
        max_containers=scenario.max_containers,
        admission=scenario.admission,
    ).summary


def main() -> None:
    dense = run(streaming=False)
    streaming = run(streaming=True)

    # Streaming changes bookkeeping, never dynamics.
    assert streaming.makespan == dense.makespan
    assert streaming.n_completed == dense.n_completed
    assert streaming.total_queue_delay() == dense.total_queue_delay()
    assert streaming.max_queue_delay() == dense.max_queue_delay()

    slo = streaming.slo_report()
    bound = streaming.stream.rank_error_bound()
    print(render_header(
        f"diurnal day, 400 jobs on 8 workers x 2 slots "
        f"(sketch rank error ±{bound:.2%})"
    ))
    print(render_table(
        ["metric", "value"],
        [
            ["jobs completed", f"{streaming.n_completed}"],
            ["makespan (s)", f"{streaming.makespan:.1f}"],
            ["p50 queue delay (s)", f"{slo['p50_queue_delay']:.1f}"],
            ["p95 queue delay (s)", f"{slo['p95_queue_delay']:.1f}"],
            ["p99 queue delay (s)", f"{slo['p99_queue_delay']:.1f}"],
            ["rolling tput (jobs/s)", f"{slo['rolling_throughput']:.2f}"],
            ["peak tput (jobs/s)", f"{slo['peak_throughput']:.2f}"],
        ],
    ))
    for tenant in ("batch", "interactive"):
        p95 = streaming.quantile_queue_delay(0.95, tenant=tenant)
        print(f"  {tenant:<12} p95 queue delay {p95:8.1f} s")
    print(
        f"\nAggregates match the dense run exactly (makespan "
        f"{dense.makespan:.1f} s, total queue delay "
        f"{dense.total_queue_delay():.0f} s) while the streaming run "
        f"kept only sketches - no per-job records."
    )


if __name__ == "__main__":
    main()
