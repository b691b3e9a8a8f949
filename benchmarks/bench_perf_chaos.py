"""Macro-benchmark — failure injection, durable recovery and chaos cost.

Three contracts of the failure/recovery subsystem:

* **Checkpoints buy back makespan** — on the
  :func:`~repro.experiments.scenarios.rolling_restart` maintenance wave
  (every worker of a loaded 4-node fleet crashes once, in sequence)
  ``checkpoint`` durability strictly beats ``lost`` on makespan, for
  the bench seed and across seeds: resuming orphans from periodic
  snapshots instead of from zero is the whole point of paying for
  checkpoints.
* **No toll on the fair-weather path** — ``failures="none"`` is
  short-circuited exactly like the other four policy axes; on the
  200-job Poisson cluster stress it must be bit-identical to the
  default-constructed run and within noise of its throughput (~7 100
  events/s on the reference container, asserted relatively at ≥ 85 % on
  the median CPU-time ratio of ten interleaved pairs).
* **Chaos is deterministic** — repeated fault-injected runs are
  bit-identical, retry accounting included, and every job survives the
  wave (generous retry budgets make the comparison about recovered
  work, not attrition).
"""

from __future__ import annotations

import statistics
import time

from _render import paired_cpu_ratios, run_once

from repro.baselines.na import NAPolicy
from repro.config import SimulationConfig
from repro.experiments.report import render_header, render_table
from repro.experiments.runner import run_cluster
from repro.experiments.scenarios import (
    az_outage,
    rolling_restart,
    two_hundred_job,
)

_SEED = 42
_MODES = ("none", "rolling", "rolling:checkpoint")


def _chaos_run(failures, seed=_SEED):
    sc = rolling_restart(seed=seed)
    return run_cluster(
        list(sc.specs),
        NAPolicy,
        SimulationConfig(seed=seed),
        capacities=sc.capacities,
        max_containers=sc.max_containers,
        failures=failures,
    )


def test_perf_chaos_checkpoint_beats_lost(benchmark):
    """Checkpointed recovery strictly beats restart-from-zero."""
    rows = []
    makespan = {}
    for failures in _MODES:
        t0 = time.perf_counter()
        if failures == "rolling:checkpoint":
            result = run_once(benchmark, lambda: _chaos_run(failures))
        else:
            result = _chaos_run(failures)
        wall = time.perf_counter() - t0
        summary = result.summary
        # Exactly-once accounting: the wave delays jobs, never eats one.
        assert len(summary.completions) == 16
        assert summary.failed_jobs == {}
        assert result.manager.queue_len == 0
        makespan[failures] = summary.makespan
        rows.append([
            failures,
            round(summary.makespan, 1),
            summary.total_retries(),
            round(sum(result.manager.lost_work.values()), 1),
            round(result.sim.events_processed / wall),
        ])
    print("\n" + render_header(
        "16-job burst, 4 workers × 6 slots, rolling restart wave "
        "(crash every 90s, 30s down)"
    ))
    print(render_table(
        ["failures", "makespan", "retries", "lost CPU-s", "events/s"],
        rows,
    ))
    recovered = makespan["rolling"] - makespan["rolling:checkpoint"]
    print(f"\ncheckpoints recover {recovered:.1f}s of makespan vs lost "
          f"(fair weather: {makespan['none']:.1f}s)")
    # The headline contract.  (No ordering is asserted against the
    # fair-weather run: re-queued orphans re-place onto the least
    # loaded survivor, so on burst shapes the wave can act as an
    # accidental rebalancer and beat the undisturbed makespan.)
    assert makespan["rolling:checkpoint"] < makespan["rolling"]


def test_perf_chaos_checkpoint_wins_across_seeds():
    """The durability gap is a property of the shape, not one seed."""
    for seed in (0, 1, 2):
        lost = _chaos_run("rolling", seed=seed)
        ckpt = _chaos_run("rolling:checkpoint", seed=seed)
        # Apples to apples: nobody exhausted a budget in either run.
        assert lost.summary.failed_jobs == {}
        assert ckpt.summary.failed_jobs == {}
        assert ckpt.summary.makespan < lost.summary.makespan


def test_perf_chaos_az_outage_recovers():
    """The correlated-outage scenario drains cleanly end to end."""
    sc = az_outage(seed=_SEED)
    result = run_cluster(
        list(sc.specs),
        NAPolicy,
        SimulationConfig(seed=_SEED),
        capacities=sc.capacities,
        max_containers=sc.max_containers,
        failures=sc.failures,
    )
    summary = result.summary
    assert len(summary.completions) == 20
    assert summary.failed_jobs == {}
    # The outage actually orphaned running containers.
    assert summary.total_retries() >= 1
    assert len(result.manager.workers) == 6


def test_perf_chaos_no_failure_fast_path(benchmark):
    """Explicit ``failures="none"`` is bit-identical to the default
    path and within noise of its throughput on the 200-job stress."""

    def _cluster(failures=None):
        return run_cluster(
            two_hundred_job(seed=0),
            NAPolicy,
            SimulationConfig(seed=0),
            n_workers=8,
            max_containers=4,
            failures=failures,
        )

    default, explicit, ratios = paired_cpu_ratios(
        lambda: _cluster(None), lambda: _cluster("none")
    )
    run_once(benchmark, lambda: _cluster("none"))

    assert explicit.completion_times() == default.completion_times()
    assert (explicit.sim.events_processed
            == default.sim.events_processed)

    median = statistics.median(ratios)
    print(f"\nfailures='none': explicit/default CPU time, median of "
          f"{len(ratios)} interleaved pairs {median:.3f}")
    # Within noise: the short-circuited axis may not cost > 15 % (the
    # pairs run identical event counts, so the CPU-time ratio is the
    # inverse throughput ratio).
    assert 1.0 / median >= 0.85


def test_perf_chaos_deterministic():
    """Repeated fault-injected runs are bit-identical, retries included."""
    a, b = _chaos_run("rolling:checkpoint"), _chaos_run("rolling:checkpoint")
    assert a.completion_times() == b.completion_times()
    assert a.summary.retries == b.summary.retries
    assert a.manager.lost_work == b.manager.lost_work
