#!/usr/bin/env python3
"""Control-plane faults and exactly-once recovery: the sixth policy axis.

Three demonstrations of the message fabric:

1. **Partition, retry vs fire-once** — the :func:`network_partition`
   scenario splits the manager from half the fleet for 30 s: exit
   notifications and placements into the dark half vanish.  With
   ``noretry`` every swallowed placement permanently fails its job and
   lost exits leave slots invisible until the slow reconcile audit;
   the retry/backoff stack resends until the partition heals and loses
   nothing.
2. **Gray link** — one worker's control link is slow and lossy rather
   than dead (:func:`gray_network`): most messages eventually land
   after a few jittered backoff rounds, so the cost is latency, not
   jobs.
3. **Fault-plan grammar** — the same string grammar every axis uses,
   composed inline: ``"drop(0.1)+delay(exp,0.2):retry(max=6,base=0.3)"``.

Run:
    python examples/partitioned_cluster.py
"""

from repro import NAPolicy, SimulationConfig
from repro.experiments.report import render_header, render_table
from repro.experiments.runner import run_cluster
from repro.experiments.scenarios import gray_network, network_partition

SEED = 42


def partition_comparison() -> None:
    """Part 1: the same 30s split under three reliability modes."""
    sc = network_partition(seed=SEED)
    print(render_header(
        f"Network partition: {len(sc.specs)} jobs, 6 workers, half the "
        "fleet dark from t=25s to t=55s"
    ))
    rows = []
    for label, fabric in (
        ("ideal", "ideal"),
        ("noretry", "partition(25..55):noretry(reconcile=45)"),
        ("retry", sc.fabric),
    ):
        result = run_cluster(
            list(sc.specs),
            NAPolicy,
            SimulationConfig(seed=SEED),
            capacities=sc.capacities,
            max_containers=sc.max_containers,
            fabric=fabric,
        )
        summary = result.summary
        rows.append([
            label,
            round(summary.makespan, 1),
            len(summary.failed_jobs),
            int(summary.message_retries()),
            int(summary.messages_dropped()),
        ])
    print(render_table(
        ["fabric", "makespan (s)", "failed", "resends", "drops"],
        rows,
    ))
    print("\nnoretry fails every placement the partition swallows; "
          "backoff resends land once it heals, so retry loses nothing.\n")


def gray_link() -> None:
    """Part 2: a slow, lossy control link to one worker."""
    sc = gray_network(seed=SEED)
    result = run_cluster(
        list(sc.specs),
        NAPolicy,
        SimulationConfig(seed=SEED),
        capacities=sc.capacities,
        max_containers=sc.max_containers,
        fabric=sc.fabric,
    )
    summary = result.summary
    print(render_header(
        "Gray link: worker-3's control traffic 6x slow and lossy"
    ))
    print(f"completed {len(summary.completions)}/{len(sc.specs)} jobs, "
          f"{int(summary.message_retries())} resends, "
          f"{int(summary.messages_dropped())} drops, "
          f"mean delivery latency "
          f"{summary.mean_message_latency() * 1000:.0f} ms\n")


def inline_fault_plan() -> None:
    """Part 3: composing a fault plan from the string grammar."""
    sc = network_partition(seed=SEED, n_jobs=20)
    result = run_cluster(
        list(sc.specs),
        NAPolicy,
        SimulationConfig(seed=SEED),
        capacities=sc.capacities,
        max_containers=sc.max_containers,
        fabric="drop(0.1)+delay(exp,0.2):retry(max=6,base=0.3)",
    )
    summary = result.summary
    print(render_header(
        "Inline plan: drop(0.1)+delay(exp,0.2):retry(max=6,base=0.3)"
    ))
    print(f"{int(summary.messages_sent())} messages carried "
          f"{len(summary.completions)} jobs to completion "
          f"({int(summary.message_retries())} resends, "
          f"{int(summary.duplicates_suppressed())} duplicates suppressed)")


if __name__ == "__main__":
    partition_comparison()
    gray_link()
    inline_fault_plan()
