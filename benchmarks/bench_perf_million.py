"""Macro-benchmark — streaming a 100 000-job day in bounded memory.

``million_job_day`` is the ROADMAP's north star made runnable: a lazy
diurnal arrival stream against a 256-worker fleet, with every queue
delay and completion folded into mergeable quantile sketches instead of
per-job records.  This bench drives the CI-sized shape (100 000
arrivals — the full million is the same machinery for 10× the wall
clock) and asserts the PR's two acceptance claims:

* **Bounded RSS.**  Peak RSS after the 100k-arrival run must stay
  within a fixed allowance of the peak after a 10× smaller run in the
  same process.  ``ru_maxrss`` is a monotone high-water mark, so
  running small-then-large isolates exactly the large run's *extra*
  appetite; anything scaling with the arrival count (per-job records,
  exited-container tables, pool journals) would blow through the
  allowance immediately (the pre-reap recorder grew ~280 MB here).
* **Live percentiles are honest.**  On a CI-sized run executed both
  dense and streaming, the sketch's p50/p95/p99 queue delays must fall
  within its *certified* rank-error bound of the exact distribution:
  the exact order statistics at ranks (q ± ε)·n must bracket every
  sketch estimate, and makespan/total/max/count must match exactly
  (streaming changes bookkeeping, never dynamics).

The RSS assertion runs in every mode, including CI's
``--benchmark-disable`` execute-only job, at a reduced scale there so
the job stays fast; the full 100k shape is timed locally.
"""

from __future__ import annotations

import resource
import time

import numpy as np

from _render import run_once

from repro.baselines.na import NAPolicy
from repro.cluster.contention import ContentionModel
from repro.config import SimulationConfig
from repro.experiments.report import render_header, render_table
from repro.experiments.runner import run_cluster
from repro.experiments.scenarios import million_job_day

#: Fixed allowance (MiB) for the large run's extra peak RSS over the
#: 10× smaller run.  Measured growth on the reference container is
#: ~2 MB (allocator slop + the heavy-traffic admission backlog); a
#: per-job leak at even 100 bytes/job would add ~9 MiB and trip this.
_RSS_ALLOWANCE_MIB = 24.0


def _rss_mib() -> float:
    """Peak RSS in MiB (``ru_maxrss`` is KiB on Linux).

    The max of ``RUSAGE_SELF`` and ``RUSAGE_CHILDREN`` (the reaped
    children's high-water mark), so memory used by any child process
    counts too.
    """
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def _day_run(n_jobs: int, *, streaming: bool = True, seed: int = 0):
    sc = million_job_day(seed=seed, n_jobs=n_jobs)
    return run_cluster(
        sc.workload,
        NAPolicy,
        SimulationConfig(
            seed=seed,
            fleet_mode=True,
            streaming_metrics=streaming,
            contention=ContentionModel.ideal(),
            sample_interval=5.0,
        ),
        capacities=sc.capacities,
        max_containers=sc.max_containers,
        placement="spread",
    )


def test_perf_million_bounded_rss(benchmark):
    """100k arrivals, 256 workers: peak RSS independent of job count."""
    if getattr(benchmark, "disabled", False):
        small_jobs, large_jobs = 2_000, 20_000
    else:
        small_jobs, large_jobs = 10_000, 100_000
    small = _day_run(small_jobs)
    assert small.summary.n_completed == small_jobs
    rss_after_small = _rss_mib()

    t0 = time.process_time()
    large = run_once(benchmark, lambda: _day_run(large_jobs))
    cpu = time.process_time() - t0
    rss_after_large = _rss_mib()

    assert large.summary.n_completed == large_jobs
    growth = rss_after_large - rss_after_small
    slo = large.summary.slo_report()
    print("\n" + render_header(
        f"streaming {large_jobs:,}-job day — 256 workers, "
        f"sketch metrics (±{large.summary.stream.rank_error_bound():.3%} "
        f"rank error)"
    ))
    print(render_table(
        ["metric", "value"],
        [
            ["jobs completed", f"{large.summary.n_completed:,}"],
            ["events/s", f"{large.sim.events_processed / cpu:,.0f}"],
            ["makespan (s)", f"{large.summary.makespan:,.1f}"],
            ["p50 queue delay (s)", f"{slo['p50_queue_delay']:.2f}"],
            ["p95 queue delay (s)", f"{slo['p95_queue_delay']:.2f}"],
            ["p99 queue delay (s)", f"{slo['p99_queue_delay']:.2f}"],
            ["rolling tput (jobs/s)", f"{slo['rolling_throughput']:.2f}"],
            ["peak tput (jobs/s)", f"{slo['peak_throughput']:.2f}"],
            [f"RSS after {small_jobs:,}", f"{rss_after_small:.1f} MiB"],
            [f"RSS after {large_jobs:,}", f"{rss_after_large:.1f} MiB"],
            ["RSS growth for 10x jobs", f"{growth:.1f} MiB"],
        ],
    ))
    assert growth <= _RSS_ALLOWANCE_MIB, (
        f"peak RSS grew {growth:.1f} MiB going from {small_jobs:,} to "
        f"{large_jobs:,} arrivals (allowance {_RSS_ALLOWANCE_MIB} MiB): "
        "something is accumulating per-job state in streaming mode"
    )


def _exact_bracket(delays: np.ndarray, q: float, eps: float) -> tuple:
    """Exact elements at ranks ⌊(q−eps)·n⌋ and ⌈(q+eps)·n⌉ (1-indexed).

    The sketch answers q with the element of estimated rank ⌈q·n⌉ and
    certifies the true rank within ±eps·n, so these two order
    statistics must bracket every estimate.
    """
    ordered = np.sort(delays)
    n = len(ordered)
    lo_rank = max(1, int(np.floor((q - eps) * n)))
    hi_rank = min(n, int(np.ceil((q + eps) * n)))
    return float(ordered[lo_rank - 1]), float(ordered[hi_rank - 1])


def test_perf_million_live_percentiles_match_dense(benchmark):
    """CI-sized cross-check: sketch percentiles within the rank bound."""
    n_jobs = 5_000
    dense = _day_run(n_jobs, streaming=False)
    streaming = run_once(benchmark, lambda: _day_run(n_jobs))
    d, s = dense.summary, streaming.summary

    # Streaming changes bookkeeping, never dynamics: the scalar
    # aggregates must match the dense run exactly.
    assert s.makespan == d.makespan
    assert s.n_completed == d.n_completed == n_jobs
    assert s.total_queue_delay() == d.total_queue_delay()
    assert s.max_queue_delay() == d.max_queue_delay()
    assert np.isclose(s.mean_queue_delay(), d.mean_queue_delay())

    delays = np.fromiter(d.queue_delays.values(), dtype=float)
    # Placement-order delays include the 0.0s of never-queued jobs,
    # which the dense queue_delays map omits; rebuild the full vector.
    full = np.concatenate([delays, np.zeros(n_jobs - len(delays))])
    eps = s.stream.rank_error_bound()
    rows = []
    for q in (0.50, 0.95, 0.99):
        est = s.quantile_queue_delay(q)
        lo, hi = _exact_bracket(full, q, eps)
        rows.append([f"p{int(q * 100)}", f"{lo:.3f}", f"{est:.3f}",
                     f"{hi:.3f}"])
        assert lo <= est <= hi, (
            f"sketch p{q * 100:.0f}={est} outside exact rank window "
            f"[{lo}, {hi}] (±{eps:.4%})"
        )
    print("\n" + render_header(
        f"sketch vs exact on {n_jobs:,} queue delays (±{eps:.3%} rank)"
    ))
    print(render_table(["quantile", "exact lo", "sketch", "exact hi"], rows))
