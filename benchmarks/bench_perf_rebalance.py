"""Macro-benchmark — makespan recovered by rebalancing on a straggler.

The acceptance workload of the rebalance layer: the
:func:`~repro.experiments.scenarios.imbalanced_cluster` straggler shape
(three full-size workers plus one at quarter capacity, 16-job burst)
where count-based spread placement strands a quarter of the jobs on the
slow node.  Reports makespan, migration counts and events/s for
``rebalance`` = none / migrate / progress, and asserts the two contracts
the subsystem ships with:

* progress-aware migration recovers a *large, fixed* fraction of the
  no-rebalance makespan (≥ 40 % here; measured ~55–75 % over seeds), and
  is no worse than blind count balancing;
* results are deterministic across repeats and identical through the
  serial and process-pool batch paths, migrations included.
"""

from __future__ import annotations

import time

from _render import run_once

from repro.baselines.na import NAPolicy
from repro.config import SimulationConfig
from repro.experiments.batch import run_many
from repro.experiments.report import render_header, render_table
from repro.experiments.runner import run_cluster
from repro.experiments.scenarios import imbalanced_cluster

_SEED = 42
_POLICIES = ("none", "migrate", "progress")


def _run(rebalance="progress", seed=_SEED):
    sc = imbalanced_cluster(seed=seed)
    return run_cluster(
        list(sc.specs),
        NAPolicy,
        SimulationConfig(seed=seed),
        capacities=sc.capacities,
        max_containers=sc.max_containers,
        rebalance=rebalance,
    )


def test_perf_rebalance_makespan(benchmark):
    rows = []
    makespans = {}
    for rebalance in _POLICIES:
        t0 = time.perf_counter()
        if rebalance == "progress":
            result = run_once(benchmark, _run)
        else:
            result = _run(rebalance)
        wall = time.perf_counter() - t0
        summary = result.summary
        assert len(summary.completions) == 16
        makespans[rebalance] = summary.makespan
        rows.append([
            rebalance,
            round(summary.makespan, 1),
            summary.total_migrations(),
            len(summary.migrated_labels()),
            round(result.sim.events_processed / wall),
        ])
    print("\n" + render_header(
        "16-job burst on 3 fast + 1 quarter-speed workers"
    ))
    print(render_table(
        ["rebalance", "makespan", "migrations", "jobs moved", "events/s"],
        rows,
    ))
    recovered = 1.0 - makespans["progress"] / makespans["none"]
    print(f"\nprogress-aware rebalancing recovers "
          f"{recovered:.0%} of the straggler makespan")
    # The asserted margin: ≥ 40 % makespan reduction vs never migrating,
    # and no worse than blind count balancing.
    assert makespans["progress"] <= 0.6 * makespans["none"]
    assert makespans["progress"] <= makespans["migrate"]


def test_perf_rebalance_margin_holds_across_seeds():
    """The improvement is a property of the shape, not one lucky seed."""
    for seed in (0, 1, 2):
        none = _run("none", seed=seed)
        progress = _run("progress", seed=seed)
        assert progress.summary.total_migrations() > 0
        assert progress.makespan <= 0.6 * none.makespan


def test_perf_rebalance_deterministic():
    """Repeated progress-aware runs are bit-identical, migrations included."""
    a, b = _run(), _run()
    assert a.completion_times() == b.completion_times()
    assert a.summary.migrations == b.summary.migrations
    assert a.summary.migration_delays == b.summary.migration_delays


def test_perf_rebalance_batch_parity():
    """Serial vs process-pool batch execution never changes results."""
    sc = imbalanced_cluster(seed=_SEED)
    cfg = SimulationConfig(seed=_SEED)
    direct = _run()
    [serial] = run_many(
        [list(sc.specs)], NAPolicy, cfg, workers=1, seeds=[_SEED],
        capacities=sc.capacities, max_containers=sc.max_containers,
        rebalance="progress",
    )
    [pooled] = run_many(
        [list(sc.specs)], NAPolicy, cfg, workers=2, seeds=[_SEED],
        capacities=sc.capacities, max_containers=sc.max_containers,
        rebalance="progress",
    )
    assert serial.completion_times() == pooled.completion_times()
    assert serial.completion_times() == direct.completion_times()
    assert dict(serial.migrations) == direct.summary.migrations
    assert dict(pooled.migrations) == direct.summary.migrations
