"""Macro-benchmark — control-plane fabric parity and recovery contracts.

Three contracts of the message-fabric subsystem:

* **No toll on the ideal path** — every manager↔worker interaction now
  flows through the fabric as a typed message, so the default
  :class:`~repro.cluster.fabric.IdealFabric` must be invisible: on the
  200-job Poisson cluster stress an explicit ``fabric="ideal"`` run is
  bit-identical to the default-constructed run (completion times and
  ``events_processed`` included) and within noise of its throughput
  (asserted relatively at ≥ 95 % on the median CPU-time ratio of ten
  interleaved pairs; skipped with the measured scatter on a host too
  noisy to resolve 5 %).
* **Retry earns its keep** — on the
  :func:`~repro.experiments.scenarios.network_partition` scenario (a
  30 s clean split that swallows exit notifications and placements to
  half the fleet) the retry/backoff/reconcile stack strictly beats the
  fire-once ``noretry`` baseline on makespan *and* failed-job count,
  for the bench seed and across seeds 0–2: resent placements land once
  the partition heals, and late-delivered exits un-blind the manager
  before the slow reconcile audit does.
* **Fault plans are deterministic** — repeated partitioned runs are
  bit-identical, per-message counters included.
"""

from __future__ import annotations

import statistics
import time

import pytest

from _render import paired_cpu_ratios, run_once

from repro.baselines.na import NAPolicy
from repro.config import SimulationConfig
from repro.experiments.report import render_header, render_table
from repro.experiments.runner import run_cluster
from repro.experiments.scenarios import (
    gray_network,
    network_partition,
    two_hundred_job,
)

_SEED = 42
_NORETRY = "partition(25..55):noretry(reconcile=45)"


def _partition_run(fabric=None, seed=_SEED):
    sc = network_partition(seed=seed)
    return run_cluster(
        list(sc.specs),
        NAPolicy,
        SimulationConfig(seed=seed),
        capacities=sc.capacities,
        max_containers=sc.max_containers,
        fabric=fabric if fabric is not None else sc.fabric,
    )


def test_perf_fabric_ideal_parity(benchmark):
    """Explicit ``fabric="ideal"`` is bit-identical to the default path
    and within noise of its throughput on the 200-job stress."""

    def _cluster(fabric=None):
        return run_cluster(
            two_hundred_job(seed=0),
            NAPolicy,
            SimulationConfig(seed=0),
            n_workers=8,
            max_containers=4,
            fabric=fabric,
        )

    default, explicit, ratios = paired_cpu_ratios(
        lambda: _cluster(None), lambda: _cluster("ideal")
    )
    run_once(benchmark, lambda: _cluster("ideal"))

    assert explicit.completion_times() == default.completion_times()
    assert (explicit.sim.events_processed
            == default.sim.events_processed)
    # The message surface is real, not vestigial: every placement and
    # exit crossed the fabric.
    assert explicit.summary.messages_sent() >= 400

    q1, median, q3 = statistics.quantiles(ratios, n=4)
    print(f"\nfabric='ideal': explicit/default CPU time, median of "
          f"{len(ratios)} pairs {median:.3f} (quartiles {q1:.3f}, {q3:.3f})")
    # Both sides build the same IdealFabric, so the ratios scatter only
    # with host noise unless the ideal path regressed.  Three standard
    # errors of the median (estimated from the quartiles) must fit in
    # the 5 % bound, or this host cannot resolve it: skip, naming the
    # scatter.
    stderr = 1.2533 * (q3 - q1) / 1.349 / len(ratios) ** 0.5
    if 3 * stderr > 0.05:
        pytest.skip(f"host too noisy to resolve 5 %: pair ratios' "
                    f"quartiles {q1:.3f}-{q3:.3f}, three standard errors "
                    f"of the median {3 * stderr:.1%}")
    # Inline delivery may not cost > 5 % against the default path.
    assert 1.0 / median >= 0.95


def test_perf_fabric_retry_beats_noretry(benchmark):
    """Backoff + reconcile strictly beats fire-once under a partition."""
    rows = []
    results = {}
    for label, fabric in (("retry", None), ("noretry", _NORETRY)):
        t0 = time.perf_counter()
        if label == "retry":
            result = run_once(benchmark, lambda: _partition_run(fabric))
        else:
            result = _partition_run(fabric)
        wall = time.perf_counter() - t0
        summary = result.summary
        # Exactly-once accounting: every job completed xor failed, and
        # nothing is left queued, reserved or in flight.
        assert len(summary.completions) + len(summary.failed_jobs) == 60
        assert result.manager.queue_len == 0
        assert all(w.reserved == 0 for w in result.manager.workers)
        results[label] = summary
        rows.append([
            label,
            round(summary.makespan, 1),
            len(summary.failed_jobs),
            int(summary.message_retries()),
            int(summary.messages_dropped()),
            round(result.sim.events_processed / wall),
        ])
    print("\n" + render_header(
        "60-job burst, 6 workers × 2 slots, 30s partition darkening "
        "half the fleet"
    ))
    print(render_table(
        ["fabric", "makespan", "failed", "resends", "drops", "events/s"],
        rows,
    ))
    retry, noretry = results["retry"], results["noretry"]
    gap = noretry.makespan - retry.makespan
    print(f"\nretry recovers {gap:.1f}s of makespan and "
          f"{len(noretry.failed_jobs)} jobs vs noretry")
    # The headline contracts: strictly better on both axes.
    assert retry.makespan < noretry.makespan
    assert len(retry.failed_jobs) < len(noretry.failed_jobs)
    assert retry.failed_jobs == {}


def test_perf_fabric_retry_wins_across_seeds():
    """The recovery gap is a property of the shape, not one seed."""
    for seed in (0, 1, 2):
        retry = _partition_run(seed=seed)
        noretry = _partition_run(_NORETRY, seed=seed)
        assert retry.summary.makespan < noretry.summary.makespan
        assert (len(retry.summary.failed_jobs)
                < len(noretry.summary.failed_jobs))


def test_perf_fabric_gray_link_drains():
    """The gray-link scenario recovers end to end despite the slow,
    lossy worker: resends land and every job resolves exactly once."""
    sc = gray_network(seed=_SEED)
    result = run_cluster(
        list(sc.specs),
        NAPolicy,
        SimulationConfig(seed=_SEED),
        capacities=sc.capacities,
        max_containers=sc.max_containers,
        fabric=sc.fabric,
    )
    summary = result.summary
    assert len(summary.completions) + len(summary.failed_jobs) == 24
    assert summary.message_retries() >= 1
    assert summary.messages_dropped() >= 1
    assert result.manager.queue_len == 0


def test_perf_fabric_deterministic():
    """Repeated partitioned runs are bit-identical, counters included."""
    a, b = _partition_run(), _partition_run()
    assert a.completion_times() == b.completion_times()
    assert a.summary.fabric_stats == b.summary.fabric_stats
    assert sorted(a.summary.failed_jobs) == sorted(b.summary.failed_jobs)
