#!/usr/bin/env python3
"""Failure injection and durable recovery: the fifth policy axis.

Three demonstrations of the chaos layer:

1. **Rolling restart, lost vs checkpoint** — the
   :func:`rolling_restart` scenario takes every worker of a loaded
   4-node fleet down once, in sequence.  Under ``lost`` durability
   each crash restarts its orphans from zero; ``checkpoint`` resumes
   them from the last periodic snapshot, paying only a footprint-
   proportional restore delay.  The makespan gap is the value of
   durable checkpoints.
2. **A scripted fault plan** — :class:`ScriptedFailures` +
   :class:`WorkerFault` drive an exact crash/recover timeline through
   the same machinery, with retry budgets deciding which jobs survive.
3. **Fail-slow degradation** — the :func:`slow_node` scenario quietly
   throttles one worker to a quarter capacity; progress-aware
   rebalancing migrates the stragglers off the sick node.

Run:
    python examples/chaos_cluster.py
"""

from repro import NAPolicy, SimulationConfig
from repro.cluster.failures import ScriptedFailures, WorkerFault
from repro.experiments.report import render_header, render_table
from repro.experiments.runner import run_cluster
from repro.experiments.scenarios import rolling_restart, slow_node

SEED = 42


def durability_comparison() -> None:
    """Part 1: the same maintenance wave under three durability modes."""
    sc = rolling_restart(seed=SEED)
    print(render_header(
        f"Rolling restart: {len(sc.specs)} jobs, {sc.n_workers} workers, "
        "every node down once for 30s"
    ))
    rows = []
    for failures in ("none", "rolling", "rolling:checkpoint"):
        result = run_cluster(
            list(sc.specs),
            NAPolicy,
            SimulationConfig(seed=SEED),
            capacities=sc.capacities,
            max_containers=sc.max_containers,
            failures=failures,
        )
        summary = result.summary
        rows.append([
            failures,
            round(summary.makespan, 1),
            summary.total_retries(),
            round(sum(result.manager.lost_work.values()), 1),
            len(summary.failed_jobs),
        ])
    print(render_table(
        ["failures", "makespan (s)", "retries", "lost CPU-s", "failed"],
        rows,
    ))
    print("\ncheckpoint resumes orphans from the last 30s snapshot; "
          "lost replays everything the crash ate.\n")


def scripted_outage() -> None:
    """Part 2: an exact fault timeline with a tight retry budget."""
    sc = rolling_restart(seed=SEED, n_jobs=8, retry_budget=1)
    injector = ScriptedFailures(
        [
            # worker-0 dies at t=45 and stays dead; worker-1 blips.
            WorkerFault(worker="worker-0", time=45.0),
            WorkerFault(worker="worker-1", time=90.0, recover_after=25.0),
        ],
        durability="checkpoint(15)",
    )
    result = run_cluster(
        list(sc.specs),
        NAPolicy,
        SimulationConfig(seed=SEED),
        capacities=sc.capacities,
        max_containers=sc.max_containers,
        failures=injector,
    )
    summary = result.summary
    print(render_header(
        "Scripted plan: permanent crash at 45s + 25s blip at 90s "
        "(retry budget 1)"
    ))
    print(f"completed {len(summary.completions)}/8 jobs, "
          f"{summary.total_retries()} crash-restarts, "
          f"{len(summary.failed_jobs)} retry-exhausted")
    for label in summary.failed_labels():
        used, lost = summary.failed_jobs[label]
        print(f"  {label}: gave up after {used} retries "
              f"({lost:.1f} CPU-s of progress lost)")
    print(f"fleet ended at {len(result.manager.workers)} workers "
          f"(crashed: {sorted(result.manager.crashed_workers)})\n")


def fail_slow() -> None:
    """Part 3: a gray failure, with and without progress rebalancing."""
    sc = slow_node(seed=SEED)
    print(render_header(
        "Fail-slow: one of 4 workers drops to 25% capacity for 240s"
    ))
    rows = []
    for rebalance in ("none", sc.rebalance):
        result = run_cluster(
            list(sc.specs),
            NAPolicy,
            SimulationConfig(seed=SEED),
            capacities=sc.capacities,
            max_containers=sc.max_containers,
            rebalance=rebalance,
            failures=sc.failures,
        )
        summary = result.summary
        rows.append([
            rebalance,
            round(summary.makespan, 1),
            summary.total_migrations(),
        ])
    print(render_table(["rebalance", "makespan (s)", "migrations"], rows))
    print("\nno containers crash in a gray failure — only progress-aware "
          "rebalancing notices the stragglers and moves them off.")


if __name__ == "__main__":
    durability_comparison()
    scripted_outage()
    fail_slow()
