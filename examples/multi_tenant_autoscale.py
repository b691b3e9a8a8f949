#!/usr/bin/env python3
"""Multi-tenant fairness and elastic fleets: the admission × autoscale axes.

Two demonstrations of the scheduling matrix beyond placement/rebalance:

1. **Weighted fair queueing** — the :func:`multi_tenant` scenario floods
   a bounded 4-worker cluster with a heavy ``batch`` tenant while a
   light ``interactive`` tenant (4× weight) submits a quarter of the
   jobs.  ``admission="wfq"`` drains the two tenants in proportion to
   their weights, cutting the interactive tenant's p95 queue delay vs
   plain FIFO without touching batch throughput much.
2. **Queue-driven autoscaling** — the :func:`elastic_cluster` scenario
   hits a deliberately undersized 2-worker fleet with a Poisson burst.
   ``autoscale="queue_depth"`` provisions workers (30 s simulated boot)
   while the queue is deep and retires them — only ever when empty —
   once it drains, collapsing the makespan at a fraction of a
   statically overprovisioned fleet's footprint.

The same knobs are reachable from the CLI::

    python -m repro compare --workers 4 --admission wfq \
        --tenant-weights interactive=4 batch=1
    python -m repro compare --workers 2 --autoscale queue_depth

Run:
    python examples/multi_tenant_autoscale.py
"""

from repro.baselines.na import NAPolicy
from repro.config import SimulationConfig
from repro.experiments.report import render_header, render_table
from repro.experiments.runner import run_cluster
from repro.experiments.scenarios import elastic_cluster, multi_tenant


def fairness_demo() -> None:
    sc = multi_tenant(seed=42)
    cfg = SimulationConfig(seed=42)
    rows = []
    for admission in ("fifo", "priority", "wfq", "sjf"):
        result = run_cluster(
            list(sc.specs),
            NAPolicy,
            cfg,
            capacities=sc.capacities,
            max_containers=sc.max_containers,
            admission=admission,
        )
        summary = result.summary
        rows.append([
            admission,
            round(summary.p95_queue_delay("interactive"), 1),
            round(summary.p95_queue_delay("batch"), 1),
            round(summary.makespan, 1),
        ])
    print(render_header(
        "multi_tenant: interactive (w=4) vs batch (w=1), 4 workers × 2 slots"
    ))
    print(render_table(
        ["admission", "p95 interactive (s)", "p95 batch (s)", "makespan (s)"],
        rows,
    ))


def autoscale_demo() -> None:
    sc = elastic_cluster(seed=42)
    cfg = SimulationConfig(seed=42, max_containers=3)
    rows = []
    for autoscale in ("none", "queue_depth", "progress"):
        result = run_cluster(
            list(sc.specs),
            NAPolicy,
            cfg,
            capacities=sc.capacities,
            max_containers=sc.max_containers,
            autoscale=autoscale,
        )
        summary = result.summary
        rows.append([
            autoscale,
            round(summary.makespan, 1),
            max(summary.peak_fleet(), len(result.workers)),
            max(summary.final_fleet(), 0) or len(result.workers),
            round(summary.p95_queue_delay(), 1),
        ])
    print()
    print(render_header(
        "elastic_cluster: 48-job Poisson burst on 2 bounded workers"
    ))
    print(render_table(
        ["autoscale", "makespan (s)", "peak fleet", "final fleet",
         "p95 queue delay (s)"],
        rows,
    ))


def main() -> None:
    fairness_demo()
    autoscale_demo()


if __name__ == "__main__":
    main()
