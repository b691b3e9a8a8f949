"""Macro-benchmark — parallel vs serial batch sweep throughput.

Runs the same 20-scenario FlowCon batch twice: once serially in-process
and once through :func:`repro.experiments.batch.run_many` with a
4-process pool, asserting the records are identical and reporting the
wall-clock speedup.  On a multi-core host the parallel path should
approach ``min(4, cores)×``; on a single core it degrades gracefully to
roughly serial speed plus pool overhead.
"""

from __future__ import annotations

import os
import time
from functools import partial

from _render import run_once

from repro.config import FlowConConfig, SimulationConfig
from repro.core.policy import FlowConPolicy
from repro.experiments.batch import run_many
from repro.experiments.scenarios import random_five_job

_N_SCENARIOS = 20
_POOL = 4


def _batch_inputs():
    seeds = list(range(_N_SCENARIOS))
    specs_list = [random_five_job(seed=s) for s in seeds]
    factory = partial(FlowConPolicy, FlowConConfig(alpha=0.10, itval=20.0))
    cfg = SimulationConfig()
    return specs_list, factory, cfg, seeds


def test_perf_batch_serial(benchmark):
    specs_list, factory, cfg, seeds = _batch_inputs()
    records = run_once(
        benchmark,
        lambda: run_many(specs_list, factory, cfg, workers=1, seeds=seeds),
    )
    assert len(records) == _N_SCENARIOS


def test_perf_batch_parallel(benchmark):
    specs_list, factory, cfg, seeds = _batch_inputs()
    records = run_once(
        benchmark,
        lambda: run_many(specs_list, factory, cfg, workers=_POOL, seeds=seeds),
    )
    assert len(records) == _N_SCENARIOS


def test_perf_batch_parallel_matches_serial():
    """Determinism contract: worker count never changes results."""
    specs_list, factory, cfg, seeds = _batch_inputs()
    t0 = time.perf_counter()
    serial = run_many(specs_list, factory, cfg, workers=1, seeds=seeds)
    t_serial = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = run_many(specs_list, factory, cfg, workers=_POOL, seeds=seeds)
    t_parallel = time.perf_counter() - t0
    assert [r.completion_times() for r in serial] == [
        r.completion_times() for r in parallel
    ]
    assert [r.makespan for r in serial] == [r.makespan for r in parallel]
    print(
        f"\n20-scenario sweep: serial {t_serial:.2f}s, "
        f"parallel(workers={_POOL}) {t_parallel:.2f}s "
        f"({t_serial / t_parallel:.2f}x, {os.cpu_count()} cores)"
    )
