"""Macro-benchmark — placement + admission-queue throughput at cluster scale.

The acceptance workload of the scheduling layer: the 200-job Poisson
open-arrival stream (:func:`repro.experiments.scenarios.two_hundred_job`)
on an 8-worker cluster with 4 admission slots per worker, so the
manager's FIFO queue absorbs every burst the Poisson process produces.
Reports end-to-end events/s and jobs/s per placement policy plus the
admission-queue profile (peak depth, mean/max delay), and asserts the
determinism contract: repeated runs and ``workers=N`` batch execution
produce identical results.
"""

from __future__ import annotations

import time

from _render import run_once

from repro.baselines.na import NAPolicy
from repro.config import SimulationConfig
from repro.experiments.batch import run_many
from repro.experiments.report import render_header, render_table
from repro.experiments.runner import run_cluster
from repro.experiments.scenarios import two_hundred_job

_N_WORKERS = 8
_SLOTS = 4
_CFG = SimulationConfig(seed=0)


def _specs():
    return two_hundred_job(seed=0)


def _run(placement="spread"):
    return run_cluster(
        _specs(),
        NAPolicy,
        _CFG,
        n_workers=_N_WORKERS,
        max_containers=_SLOTS,
        placement=placement,
    )


def _report(result, wall):
    summary = result.summary
    delays = [d for d in summary.queue_delays.values() if d > 0]
    return [
        round(result.sim.events_processed / wall),
        round(len(summary.completions) / wall, 1),
        summary.peak_queue_len,
        len(delays),
        round(sum(delays) / len(delays), 1) if delays else 0.0,
        round(summary.max_queue_delay(), 1),
        round(summary.makespan, 1),
    ]


def test_perf_cluster_throughput(benchmark):
    rows = []
    for placement in ("spread", "binpack", "random", "affinity"):
        t0 = time.perf_counter()
        if placement == "spread":
            result = run_once(benchmark, _run)
        else:
            result = _run(placement)
        wall = time.perf_counter() - t0
        assert len(result.summary.completions) == 200
        assert result.summary.peak_queue_len > 0  # queueing really occurred
        assert result.manager.queue_len == 0      # ... and fully drained
        rows.append([placement] + _report(result, wall))
    print("\n" + render_header(
        f"200 Poisson jobs on {_N_WORKERS} workers × {_SLOTS} slots"
    ))
    print(render_table(
        ["placement", "events/s", "jobs/s", "peak queue",
         "n queued", "mean delay", "max delay", "makespan"],
        rows,
    ))


def test_perf_cluster_deterministic():
    """Repeated runs of the open-arrival cluster are bit-identical."""
    a, b = _run(), _run()
    assert a.completion_times() == b.completion_times()
    assert a.summary.queue_delays == b.summary.queue_delays
    assert a.summary.peak_queue_len == b.summary.peak_queue_len


def test_perf_cluster_batch_parity():
    """Serial vs process-pool batch execution never changes results."""
    direct = _run()
    [serial] = run_many(
        [_specs()], NAPolicy, _CFG, workers=1, seeds=[0],
        n_workers=_N_WORKERS, max_containers=_SLOTS,
    )
    [pooled] = run_many(
        [_specs()], NAPolicy, _CFG, workers=2, seeds=[0],
        n_workers=_N_WORKERS, max_containers=_SLOTS,
    )
    assert serial.completion_times() == pooled.completion_times()
    assert serial.completion_times() == direct.completion_times()
    assert serial.peak_queue_len == pooled.peak_queue_len
    assert serial.peak_queue_len == direct.summary.peak_queue_len
